(** Usage-drift detection (paper §6).

    "In the future, Coign could automatically decide when usage differs
    significantly from profiled scenarios and silently enable profiling
    to re-optimize the distribution. ... Run time message counts could
    be compared with related message counts from the profiling
    scenarios to recognize changes in application usage."

    A usage signature is the distribution of call counts over
    (caller classification, callee classification) pairs. The
    lightweight distributed runtime maintains those counts anyway
    ({!Rte.call_counts}); comparing them with the profile's counts by
    normalized dot product gives a cheap similarity score. *)

type signature

val of_icc : Icc.t -> signature
(** The profile-time signature: per-pair call counts from the
    accumulated ICC summaries. *)

val of_counts : ((int * int) * int) list -> signature
(** A run-time signature from {!Rte.call_counts}. *)

val entries : signature -> ((int * int) * float) list
(** The signature's (pair, weight) cells, sorted by pair. *)

val similarity : signature -> signature -> float
(** Cosine similarity of the two count distributions, in [0, 1]:
    {!Window.cosine} over the union of their pairs, summed in pair
    order. Two empty signatures are fully similar. *)

val drifted : ?threshold:float -> profile:signature -> signature -> bool
(** [true] when similarity falls below [threshold] (default 0.90) —
    the signal to silently re-enable profiling. *)

val pair_count : signature -> int
(** Number of distinct communicating pairs in the signature. *)
