(** Exponential message-size buckets.

    The profiling logger summarizes inter-component messages into size
    ranges whose widths grow exponentially (paper §3.3), so the memory
    needed to store a communication profile is independent of execution
    length while remaining network-independent: a bucket records message
    counts and total bytes, and a network model can later be applied to
    any bucket without re-running the application. *)

type t
(** A histogram over exponentially growing byte-size ranges. Its
    storage reaches only as far as the highest bucket recorded. *)

val create : unit -> t
(** Empty histogram. *)

val bucket_index : int -> int
(** [bucket_index bytes] is the index of the range containing [bytes].
    Index 0 holds sizes 0..[base-1]; successive ranges double in width.
    Requires [bytes >= 0]. *)

val bucket_bounds : int -> int * int
(** [bucket_bounds i] is the inclusive [(lo, hi)] byte range of bucket
    [i]. *)

val bucket_lo : int -> int
val bucket_hi : int -> int
(** The two ends of {!bucket_bounds}, without the pair. *)

val add : t -> bytes:int -> unit
(** Record one message of [bytes] bytes. *)

val add_many : t -> bytes:int -> count:int -> unit
(** Record [count] messages each of [bytes] bytes (used when merging
    already-summarized data; attributed to the bucket of [bytes] with
    [count * bytes] total). *)

val merge : t -> t -> t
(** Pointwise sum of two histograms; inputs are unchanged. *)

val message_count : t -> int
(** Total number of messages recorded. *)

val total_bytes : t -> int
(** Total bytes across all messages. *)

val fold : (index:int -> count:int -> bytes:int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over non-empty buckets in increasing index order. [bytes] is
    the total bytes recorded in that bucket. *)

val mean_bytes_in_bucket : t -> int -> float
(** Average message size within bucket [i]; 0 if the bucket is empty. *)
