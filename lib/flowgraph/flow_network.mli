(** Capacitated directed graphs for minimum-cut partitioning.

    The analysis engine turns an application's inter-component
    communication profile into one of these: a node per set of
    classifications no cut may separate ({!Components}), the client's
    and the server's sets being the terminals; an edge's capacity is
    the communication time that would be paid if the cut separated
    its endpoints. Capacities are integers (nanoseconds in
    the analysis engine) because the push-relabel family needs exact
    arithmetic.

    A graph is compiled once, from plain [src], [dst] and [cap] edge
    arrays, into the form max-flow algorithms run on: an adjacency
    structure with paired residual arcs, laid out as a CSR (compressed
    sparse row) arena of flat int arrays. The arena is reusable across
    pricing rounds: base capacities live in their own array, {!reset}
    copies them back into the residual array, and {!set_arc_cap}
    rewrites a single arc's base capacity in place — so a
    reprice/recut round allocates nothing. *)

type t

val infinity_cap : int
(** Effectively-infinite capacity: used to pin a node to a terminal
    (absolute location constraints) and to forbid separating the
    endpoints of a non-remotable interface. Chosen small enough that
    summing millions of such edges cannot overflow. *)

val of_edges : n:int -> src:int array -> dst:int array -> cap:int array -> t * int array
(** Compile an arena over nodes [0 .. n-1] from a directed edge list
    held as three parallel arrays: edge [i] runs from [src.(i)] to
    [dst.(i)] with capacity [cap.(i)]. Parallel entries for one
    [(src, dst)] share one arc whose capacity is their sum, saturating
    at {!infinity_cap}; self-loops are dropped (they can never be cut).
    Zero-capacity edges keep their arc, inert until {!set_arc_cap}
    raises it — this is how a session arena pre-allocates slots for
    every potential traffic pair. The arena is laid out in [(src, dst)]
    order, so each node's arcs run in neighbour order and any
    permutation of one edge list compiles to the same arena: two
    stable counting sorts, by [dst] and then by [src], order the input
    (linear in edges plus nodes, no comparison closure). Also returns the forward arc of each input edge ([-1] for
    a self-loop), so callers can rewrite capacities later without
    searching. Raises [Invalid_argument] on a negative [n], arrays of
    different lengths, a node out of range or a negative capacity. *)

val node_count : t -> int

val arc_count : t -> int
(** Forward plus reverse arcs: twice the number of distinct edges. *)

val reset : t -> unit
(** Restore every residual capacity to its base capacity (one pass);
    run before re-solving on rewritten capacities. *)

val set_arc_cap : t -> int -> int -> unit
(** [set_arc_cap g arc cap] rewrites the base capacity of [arc].
    Takes effect at the next {!reset}. *)

val arc_cap : t -> int -> int
(** Base capacity of an arc: the edge capacity on a forward arc, 0 on
    a reverse arc. *)

val copy : t -> t
(** An independent arena sharing the immutable layout arrays
    (destinations, pairs, offsets) but owning its own capacity and
    residual arrays — safe to solve from another domain. *)

val arc_dst : t -> int -> int

val arc_pair : t -> int -> int
(** The paired reverse arc of an arc. *)

val residual : t -> int -> int
val push : t -> int -> int -> unit
(** [push g arc amount] moves [amount] along [arc] (decreasing its
    residual, increasing its pair's). *)

val arc_start : t -> int -> int
val arc_stop : t -> int -> int
(** Arcs of node [v] are [arc_start v .. arc_stop v - 1], an empty
    range for an isolated node. *)

val min_cut_side : t -> s:int -> bool array
(** After a max flow has been established: the source side of the
    minimum cut, i.e. nodes reachable from [s] in the residual
    graph. *)

val min_cut_side_into : t -> s:int -> seen:bool array -> stack:int array -> unit
(** Allocation-free {!min_cut_side}: writes the source side into
    [seen] using [stack] as DFS scratch. Both arrays must hold at
    least {!node_count} elements. *)

(** An {!infinity_cap} edge is never cut, so both cuts (the analysis
    session and {!Multiway}) run on the quotient graph, one node per
    component of the infinite edges. While the flow is finite an
    infinite edge keeps residual capacity both ways, so the minimal
    source side of the uncontracted graph is a union of components:
    the quotient's, expanded. *)
module Components : sig
  type t  (** Union-find over nodes [0 .. n-1]. *)

  val create : int -> t
  val join : t -> int -> int -> unit
  val root : t -> int -> int  (** The smallest member of a node's component. *)

  val quotient : t -> terminals:int array -> int array * int
  (** Each node's quotient node, numbered in root order, and their
      count. If two terminals share a component no cut separates them:
      the quotient is then the identity, and the cut shows which
      infinite edge it breaks. *)
end
