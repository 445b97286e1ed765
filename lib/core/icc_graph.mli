(** Stage 1 of the analysis engine: the network-independent abstract
    ICC graph (paper §2, §3.3).

    The profile's ICC summaries are message histograms, deliberately
    free of any network parameter, so one profile can be re-analyzed
    against many network profiles (the adaptivity of §4.4). This module
    captures everything about a profile the pricing stage needs, built
    once per (classifier, ICC) pair:

    - a node per classification plus one for the main program;
    - one symmetric edge per communicating unordered pair, flagged
      non-remotable when any interface between the pair is;
    - the pair's traffic as segments of (message size, count) items —
      one segment per ICC entry, in entry order — over a shared
      dictionary of distinct rounded bucket-mean sizes.

    Pricing the graph against a concrete {!Coign_netsim.Net_profiler}
    is then one fitted prediction per distinct size followed by a dot
    product per segment ({!price}), instead of a prediction per
    (entry, bucket, network) as the one-stage engine paid.

    One segment accumulator builds the graph, fed either from a
    summary's {!Icc.entries} ({!build}) or straight from its canonical
    text ({!decode}, which skips the intermediate {!Icc.t} and its
    per-cell histograms). The accumulator's arrays grow by doubling and
    are reused per domain, so neither builder counts its input first
    and a build allocates only the arrays the graph keeps. Both feed it the same cells in the same
    order — entries sorted by (source, target, interface), buckets
    ascending — so they build structurally equal graphs. Pairs and
    sizes are interned in [Int_table]s on packed int keys. The float
    summation order is exactly the one-stage engine's (per-bucket
    within an entry, entries in sorted order), so priced costs and
    predicted communication times are bit-identical, not merely
    close. *)

type t

type pricing = {
  pair_us : float array;  (** summed traffic cost per pair, indexed by pair id *)
  seg_us : float array;   (** cost per segment, in segment (= entry) order *)
}

val build : classifier:Classifier.t -> icc:Icc.t -> t
(** Nodes [0 .. n-1] are the classifier's classifications; node [n]
    stands for the main program (classification -1). Entries whose
    endpoints map to the same node carry no potential communication
    and are dropped. *)

val decode : classifier:Classifier.t -> string -> t
(** [decode ~classifier text] = [build ~classifier ~icc:(Icc.decode text)],
    read in one {!Icc.scan} pass, with no count of the lines first and
    without building the summary. Raises
    {!Icc.Decode_error} exactly where {!Icc.decode} does, and on an
    entry naming a classification the classifier does not have. *)

val classification_count : t -> int
(** [n]: nodes below this are classifications, node [n] is main. *)

val main_node : t -> int
(** = [classification_count]. *)

val pair_count : t -> int

val pair_a : t -> int -> int
val pair_b : t -> int -> int
val non_remotable : t -> int -> bool
(** Pair [p]'s endpoints [a < b], and whether any interface between
    them is non-remotable. Pair ids [0 .. pair_count - 1] are assigned
    in first-appearance (entry) order. *)

val price : t -> net:Coign_netsim.Net_profiler.t -> pricing
(** Stage 2's entry point: map a network profile onto the abstract
    graph. Cost table first (one prediction per distinct size), then
    each segment as a count·cost dot product. Equivalent to
    {!cost_table} + {!price_into} on fresh buffers. *)

val cost_table : t -> Coign_netsim.Net_profiler.t -> float array
(** Per-distinct-size predicted cost (µs) under one network profile —
    the memoizable, network-dependent half of pricing. *)

val make_pricing : t -> pricing
(** Zeroed pricing buffers sized for this graph, for reuse across
    {!price_into} calls. *)

val price_into : t -> cost:float array -> pricing -> unit
(** Recompute a pricing into preallocated buffers from a cost table:
    one dot product per segment, no allocation. The float summation
    order is identical to {!price}'s, so results are bit-identical. *)

type scale = {
  sc_messages : float array;  (** per-pair message-count multiplier *)
  sc_bytes : float array;     (** per-pair byte-volume multiplier *)
}
(** An observation window's per-pair traffic, relative to the profile:
    how many times the profiled message count (and byte volume) is
    flowing now. Both arrays are indexed by pair id. *)

val price_scaled_into :
  t -> cost:float array -> zero_us:float -> scale:scale -> pricing -> unit
(** [price_into] with each pair's traffic volume rescaled by [scale] —
    how an observation window re-prices the profiled graph in place:
    the profile supplies the per-pair message-size mix, the window
    supplies how much of it is flowing now. A message's cost splits
    into a fixed per-message part ([zero_us], the predicted cost of a
    zero-byte message) and a size-dependent remainder; the former
    scales with [sc_messages], the latter with [sc_bytes], so a window
    that saw the profiled call rate but fatter payloads prices the
    extra bytes without inventing extra calls. When a pair's two
    multipliers are equal the whole segment cost is multiplied once,
    which keeps an all-ones scale bit-identical to {!price_into}.
    Raises [Invalid_argument] when either array is not [pair_count]
    long. *)

val pair_messages : t -> float array
(** Total profiled message count per pair id (the scale denominators
    for window-relative re-pricing; calls record two messages each). *)

val pair_bytes : t -> float array
(** Total profiled byte volume per pair id (the [sc_bytes]
    denominators). *)

val predicted_us : t -> pricing -> host:int array -> float
(** Total cost of the segments whose pair the placement separates,
    summed in segment order — the [predicted_comm_us] of a cut.
    [host.(v)] is the machine of graph node [v], one int per node
    [0 .. n] where [n] is the main node; a segment counts when its
    pair's two ends sit on different hosts. An int-array kernel, so a
    caller builds no closure and no tuple per segment. Raises
    [Invalid_argument] when [host] has fewer than [n + 1] cells. *)
