(** Minimum s-t cuts.

    Coign "employs the lift-to-front minimum-cut graph-cutting
    algorithm to choose a distribution with minimal communication
    time" (paper §2) — i.e. the relabel-to-front push-relabel max-flow
    algorithm of CLR ch. 27, with the min cut read off the final
    residual graph. The solver is implemented as FIFO push-relabel
    with the gap heuristic and periodic global relabeling (the
    textbook discharge order was pathologically slow on analysis
    graphs); because it runs to a genuine maximum flow, cut values and
    minimal source sides are identical to the textbook algorithm's.
    Every cut the system makes runs it. Two references exist only for
    the tests to check it against: an exponential brute-force
    enumerator for small graphs and Edmonds-Karp for large ones. *)

type cut = {
  value : int;                (** total capacity crossing the cut *)
  source_side : bool array;   (** [source_side.(v)] iff [v] lands with [s] *)
}

type scratch
(** Preallocated solver workspace sized for one residual arena. A
    session allocates one scratch next to its arena and reuses both
    across every solve; one scratch must not be used from two domains
    at once. *)

val scratch : Flow_network.t -> scratch

val run : Flow_network.t -> scratch -> s:int -> t:int -> int
(** Run the solver in place on the arena's {e current} residual state
    (callers re-solving after {!Flow_network.set_arc_cap} must
    {!Flow_network.reset} first) and return the flow value.
    Allocates nothing: all working state, the FIFO queue's cursors
    included, lives in [scratch], and every solver step is a top-level
    function over it, so no closure is built per solve
    ([test_flowgraph] gates this at under one word a solve). The
    kernel is monomorphic: pushes and relabels take [Int.min], never
    the polymorphic [Stdlib.min], and the FIFO ring wraps its cursors
    with a compare instead of [mod]. The
    minimal source side can then be read off with
    {!Flow_network.min_cut_side_into}. Raises [Invalid_argument] on
    bad terminals or a scratch sized for a different arena. *)

val min_cut : Flow_network.t -> s:int -> t:int -> cut
(** Minimum s-t cut of the arena's base capacities: resets the arena,
    solves on fresh scratch and reads off the minimal source side.
    Raises [Invalid_argument] if [s = t] or either is out of range. *)

val augmenting_path_min_cut : Flow_network.t -> s:int -> t:int -> cut
(** {!min_cut} by Edmonds-Karp (shortest augmenting paths), a reference
    for verification that shares no code with the solver: resets the
    arena and leaves its maximum flow there. Any maximum flow leaves
    the same minimal source side, so both fields equal {!min_cut}'s. *)

val brute_force_min_cut :
  n:int -> (int * int * int) array -> s:int -> t:int -> cut
(** Exhaustive minimum cut of a raw [(src, dst, cap)] edge array over
    nodes [0 .. n-1], for verification; exponential, refuses graphs
    with more than 22 nodes. *)
