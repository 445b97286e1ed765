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
    Every cut the system makes runs it. Edmonds-Karp
    ({!augmenting_path_min_cut}) is a reference that shares no code
    with it, which the bench's mincut table checks it against. *)

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

val augmenting_path_min_cut : Flow_network.t -> s:int -> t:int -> cut
(** Minimum s-t cut of the arena's base capacities by Edmonds-Karp
    (shortest augmenting paths), a reference for verification that
    shares no code with the solver: resets the arena and leaves its
    maximum flow there. Any maximum flow leaves the same minimal source
    side, so both fields equal what {!run} after
    {!Flow_network.reset} reads off. *)
