(** The profile analysis engine (paper §2).

    Combines component communication profiles and location constraints
    into an abstract ICC graph, prices it against a network profile to
    get a concrete graph of potential communication time, and cuts the
    graph with the lift-to-front minimum-cut algorithm to choose the
    client/server distribution with minimal communication time.

    Nodes are instance classifications; two terminals stand for the
    client and server machines. Edges carry, in nanoseconds, the
    communication time the pair would pay if separated. Non-remotable
    interfaces, pair-wise constraints, and absolute pins become
    infinite-capacity edges, so the minimum cut can never violate
    them. *)

type distribution = {
  placement : Constraints.location array;  (** indexed by classification *)
  cut_ns : int;           (** capacity of the chosen cut *)
  predicted_comm_us : float;
      (** communication time of the distribution as priced by the
          network profile (equals [cut_ns / 1000] apart from rounding) *)
  server_count : int;     (** classifications placed on the server *)
  node_count : int;
  algorithm : Coign_flowgraph.Mincut.algorithm;
}

(** {1 Two-stage engine}

    Stage 1 ({!Session.create}) builds everything network-independent
    once per profile: the abstract ICC graph ({!Icc_graph}) and a CSR
    flow arena holding every potential edge — the constraint/pin/
    non-remotable infinite edges plus one zero-capacity slot per
    repriceable traffic pair. Stage 2 ({!Session.solve}) prices those
    pairs against one concrete network profile by writing capacities
    straight into the arena's flat arrays and cuts in place with
    preallocated solver scratch; per-profile cost tables are memoized
    (keyed by profile identity) so sweeps and fallback ladders compile
    each network once. Solving the same session across many networks
    (the paper's §4.4 adaptivity sweeps) therefore allocates almost
    nothing per round, and is guaranteed — by construction and by
    property test — to produce bit-identical distributions to a fresh
    {!choose}. *)

module Session : sig
  type t

  val create :
    ?profiler:Coign_obs.Profiler.t ->
    classifier:Classifier.t ->
    icc:Icc.t ->
    constraints:Constraints.t ->
    unit ->
    t
  (** Build the network-independent stage: abstract graph, constraint
      edges, repriceable pair list. With [profiler], the build records
      under the ["icc_graph_build"] phase. *)

  val solve :
    ?algorithm:Coign_flowgraph.Mincut.algorithm ->
    ?profiler:Coign_obs.Profiler.t ->
    ?metrics:Coign_obs.Metrics.registry ->
    ?scale:Icc_graph.scale ->
    t ->
    net:Coign_netsim.Net_profiler.t ->
    distribution
  (** Price the session's traffic pairs against [net], cut, and trim —
      exactly {!choose} on the session's profile, without rebuilding
      stage 1. Reusable: each call replaces the previous pricing.

      With [profiler], pricing and cutting record under the ["pricing"]
      and ["cut"] phases; with [metrics], each solve updates the
      [coign_analysis_*] instruments. Neither changes the
      distribution.

      With [scale] (arrays of length {!Icc_graph.pair_count} of
      {!graph}), each pair's profiled traffic is rescaled before
      pricing ({!Icc_graph.price_scaled_into}) — the online
      re-partitioning path, where a decayed observation window
      reweights the profile's per-pair message counts and byte volumes
      while keeping its message-size mix. Omitted, pricing is
      bit-identical to the offline engine. *)

  val solve_many :
    ?algorithm:Coign_flowgraph.Mincut.algorithm ->
    ?profiler:Coign_obs.Profiler.t ->
    ?metrics:Coign_obs.Metrics.registry ->
    ?pool:Coign_util.Parallel.t ->
    t ->
    nets:Coign_netsim.Net_profiler.t list ->
    distribution list
  (** Solve one session against many network profiles, in input order.
      With [pool], pricing runs domain-parallel: each participating
      domain solves on its own {!copy} (private arena and scratch,
      shared immutable abstract graph), and the pool's order-preserving
      map makes the result list bit-identical to the sequential
      path. *)

  val copy : t -> t
  (** An independent session sharing the immutable abstract graph but
      owning its own flow arena, solver scratch and pricing buffers —
      solve copies concurrently from different domains (one session
      alone must not be solved from two domains at once, since pricing
      mutates its capacities). *)

  val classifier : t -> Classifier.t
  val constraints : t -> Constraints.t

  val node_count : t -> int
  (** Classifications in the analyzed graph. *)

  val graph : t -> Icc_graph.t
  (** The underlying abstract ICC graph. *)

  val migration_safety : t -> bool array
  (** Per-classification static migration-safety facts for the
      resilience layer ({!Fallback}, {!Rte}): a classification is safe
      to migrate live between distributions iff it touches no
      non-remotable ICC edge and is not co-location-chained
      (transitively) to one that does. *)
end

val choose :
  ?algorithm:Coign_flowgraph.Mincut.algorithm ->
  ?profiler:Coign_obs.Profiler.t ->
  ?metrics:Coign_obs.Metrics.registry ->
  classifier:Classifier.t ->
  icc:Icc.t ->
  constraints:Constraints.t ->
  net:Coign_netsim.Net_profiler.t ->
  unit ->
  distribution
(** Run the engine. Every classification known to the classifier gets a
    node even if it never communicated (such nodes land on the client).
    The main program (classification -1) is treated as pinned to the
    client. Equivalent to {!Session.create} followed by one
    {!Session.solve}. *)

val location_of : distribution -> int -> Constraints.location
(** Placement of a classification; classifications outside the analyzed
    range (new at run time) default to [Client]. [-1] (main) is
    [Client]. *)

type violation =
  | Split_pair of string * string
      (** a class co-location pair has classifications on both sides *)
  | Split_classifications of int * int
  | Pin_violated of string * Constraints.location

val validate :
  classifier:Classifier.t -> constraints:Constraints.t -> distribution ->
  violation list
(** Prove a distribution honours every constraint. Empty for any
    distribution {!choose} computed from the same constraints;
    non-empty for hand-forced or stale placements that split a
    co-location pair or contradict a pin — the analyze-time replacement
    for {!Coign_sim.Replay}'s runtime remotability abort. *)

val pp_violation : Format.formatter -> violation -> unit

val server_classifications : distribution -> int list

val comm_time_under :
  icc:Icc.t -> net:Coign_netsim.Net_profiler.t ->
  placement:(int -> Constraints.location) -> float
(** Predicted communication time (µs) of an arbitrary placement: the
    priced traffic of every ICC entry whose endpoints are separated.
    Useful for evaluating default/manual distributions against Coign's.
    Calls over non-remotable interfaces that the placement separates
    are priced as if remotable (a real run would fault — see
    {!Rte}). *)

val price_entry : Coign_netsim.Net_profiler.t -> Icc.entry -> float
(** Time (µs) for one ICC entry's messages if its endpoints were
    separated: per-bucket message count times the fitted per-message
    time at the bucket's mean size. *)

val encode : distribution -> string

exception Decode_error of string
(** A malformed encoded distribution; the message starts
    ["Analysis.decode: "]. *)

val decode : string -> distribution
(** Round-trips placements and metadata (for the config record).
    Raises {!Decode_error} on a missing header line, a header without
    four fields, a non-numeric node count, cut or predicted comm, a
    placement whose length is not the node count, a location other
    than [C]/[S], or an unknown algorithm tag. *)
