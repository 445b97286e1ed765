(** Distribution across three or more machines (paper §2's future work).

    "The problem of partitioning applications across three or more
    machines is provably NP-hard. Numerous heuristic algorithms exist
    for multi-way graph cutting. To more accurately evaluate the rest
    of the system, we restrict ourselves to an exact, two-way algorithm
    for client-server computing."

    This module lifts the analysis engine onto the
    {!Coign_flowgraph.Multiway} isolation heuristic: one terminal per
    machine, the same communication-time pricing and constraint edges
    as the two-way engine, and a (2 - 2/k)-approximate cut. The natural
    first user is the Corporate Benefits sample, whose 3-tier
    deployment (client / middle tier / database server) the two-way
    engine had to collapse. *)

type t = {
  machines : string array;       (** machine names; index is the id *)
  assignment : int array;        (** classification -> machine index *)
  cost_ns : int;                 (** capacity crossing between machines *)
  predicted_comm_us : float;     (** priced traffic between machines *)
}

val choose :
  classifier:Classifier.t ->
  icc:Icc.t ->
  machines:string list ->
  pins:(string -> string option) ->
  net:Coign_netsim.Net_profiler.t ->
  unit ->
  t
(** [machines] must contain at least two names; the first is the
    machine the main program runs on. [pins] maps a component class
    name to the machine it must live on ([None] = free); a pin naming
    an unknown machine raises [Invalid_argument]. [pins] is called once
    per distinct class name, in first-classification order, and its
    answer applies to every classification of that class, so it must
    depend only on the class name. Non-remotable interfaces co-locate
    their endpoints, as in the two-way engine. The cut's edges go
    straight into {!Coign_flowgraph.Multiway.multiway_cut}'s int arrays
    and the predicted time is priced by {!Icc_graph.predicted_us} over
    the cut's machine array. *)

val machine_of : t -> int -> string
(** Machine of a classification; out-of-range classifications (new at
    run time) land on the main program's machine. *)

val machine_histogram : t -> (string * int) list
(** Classifications per machine, in machine order. *)
