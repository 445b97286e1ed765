(** Capacitated directed graphs for minimum-cut partitioning.

    The analysis engine turns an application's inter-component
    communication profile into one of these: a node per instance
    classification plus two terminals (client, server); an edge's
    capacity is the communication time that would be paid if the cut
    separated its endpoints. Capacities are integers (nanoseconds in
    the analysis engine) because the push-relabel family needs exact
    arithmetic. *)

type t

val infinity_cap : int
(** Effectively-infinite capacity: used to pin a node to a terminal
    (absolute location constraints) and to forbid separating the
    endpoints of a non-remotable interface. Chosen small enough that
    summing millions of such edges cannot overflow. *)

val create : n:int -> t
(** A graph with nodes [0 .. n-1] and no edges. *)

val node_count : t -> int

val add_edge : t -> src:int -> dst:int -> cap:int -> unit
(** Add capacity [cap >= 0] to the directed edge [src -> dst]; parallel
    additions accumulate, saturating at [infinity_cap]. Self-loops are
    ignored (they can never be cut). *)

val add_undirected : t -> int -> int -> cap:int -> unit
(** Capacity in both directions, as for symmetric communication cost. *)

val edge_cap : t -> src:int -> dst:int -> int
(** Current accumulated capacity (0 when absent). *)

val edges : t -> (int * int * int) list
(** All [(src, dst, cap)] with [cap > 0], deterministic order. *)

val edge_count : t -> int

val copy : t -> t

(** {1 Residual form}

    Max-flow algorithms run on a compiled adjacency structure with
    paired residual arcs, laid out as a CSR (compressed sparse row)
    arena of flat int arrays. The arena is reusable across pricing
    rounds: base capacities live in their own array, {!Residual.reset}
    blits them back into the residual array, and
    {!Residual.set_arc_cap} rewrites a single arc's base capacity in
    place — so a reprice/recut round allocates nothing. *)

module Residual : sig
  type g

  val of_network : t -> g

  val of_edges : n:int -> (int * int * int) array -> g * int array
  (** Compile an arena over nodes [0 .. n-1] from an explicit directed
      edge array [(src, dst, cap)]. Edges must be distinct directed
      pairs with [src <> dst] and [cap >= 0]; zero-capacity edges are
      allowed and inert until {!set_arc_cap} raises them — this is how
      a session arena pre-allocates slots for every potential traffic
      pair. Arc layout follows input order, so passing the sorted
      {!edges} list reproduces {!of_network} exactly. Also returns the
      forward arc index of each input edge, so callers can rewrite
      capacities later without searching. *)

  val node_count : g -> int

  val arc_count : g -> int

  val reset : g -> unit
  (** Restore every residual capacity to its base capacity (one blit);
      run before re-solving on rewritten capacities. *)

  val set_arc_cap : g -> int -> int -> unit
  (** [set_arc_cap g arc cap] rewrites the base capacity of [arc].
      Takes effect at the next {!reset}. *)

  val copy : g -> g
  (** An independent arena sharing the immutable layout arrays
      (destinations, pairs, offsets) but owning its own capacity and
      residual arrays — safe to solve from another domain. *)

  val arc_dst : g -> int -> int

  val arc_pair : g -> int -> int
  (** The paired reverse arc of an arc. *)

  val residual : g -> int -> int
  val push : g -> int -> int -> unit
  (** [push g arc amount] moves [amount] along [arc] (decreasing its
      residual, increasing its pair's). *)

  val arc_start : g -> int -> int
  val arc_stop : g -> int -> int
  (** Arcs of node [v] are [arc_start v .. arc_stop v - 1], an empty
      range for an isolated node. *)

  val min_cut_side : g -> s:int -> bool array
  (** After a max flow has been established: the source side of the
      minimum cut, i.e. nodes reachable from [s] in the residual
      graph. *)

  val min_cut_side_into : g -> s:int -> seen:bool array -> stack:int array -> unit
  (** Allocation-free {!min_cut_side}: writes the source side into
      [seen] using [stack] as DFS scratch. Both arrays must hold at
      least {!node_count} elements. *)
end
