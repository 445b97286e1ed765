(** Small statistics toolkit used by the network profiler, the
    classifier-accuracy evaluation, and the benchmark reports. *)

val mean : float array -> float
(** Arithmetic mean; 0 on empty input. *)

val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]]; linear interpolation
    between the order statistics at [floor] and [ceil] of rank
    [p/100 * (n-1)]. Leaves [xs] untouched. Raises [Invalid_argument]
    on empty input or [p] outside [\[0,100\]]. *)

val percentiles_in_place : float array -> float array -> float array
(** [percentiles_in_place xs ps] is [Array.map (percentile xs) ps], bit
    for bit, without a sort: one in-place Hoare-partition descent
    (median-of-three pivot) places the order statistic at every needed
    rank — the floor and ceil of each percentile's rank — where a sort
    would put it. After each partition it goes on only into the sides
    that hold a wanted rank, looping on one of them, so the stack is at
    most as deep as there are ranks. Exact, expected O(n log r) time
    for r distinct ranks, no allocation per element. It permutes [xs];
    after it, [xs.(n-1)] is the maximum when [100.] is among [ps].
    Precondition: [xs] holds no NaN (the order is [<], under which NaN
    is unordered); [-0.] and [0.] count as equal. Raises
    [Invalid_argument] on empty input or a [p] outside [\[0,100\]]. *)

val dot : float array -> float array -> float
(** Dot product; arrays must have equal length. *)

val cosine_correlation : float array -> float array -> float
(** Normalized dot product in [\[0,1\]] for non-negative vectors; the
    paper's communication-vector correlation (§4.2). Two zero vectors
    correlate at 1 (identical behaviour); a zero vector against a
    non-zero vector correlates at 0. *)

val linear_fit : (float * float) array -> float * float
(** [linear_fit points] is [(intercept, slope)] of the least-squares
    line through [(x, y)] points — used to recover latency and 1/bandwidth
    from sampled message timings. Requires at least two distinct [x]. *)

val ratio_error : predicted:float -> measured:float -> float
(** Signed relative error [(predicted - measured) / measured]; 0 when
    both are 0. *)
