(** Per-instance communication matrix.

    Where {!Icc} aggregates by classification (for partitioning),
    this records message count and bytes between concrete instance
    pairs within one execution — the raw material of the instance
    communication vectors used to evaluate classifier accuracy
    (paper §4.2). *)

type t

val create : unit -> t

val record : t -> src:int -> dst:int -> bytes:int -> unit
(** One message of [bytes] from instance [src] to [dst]. Instance ids
    are non-negative and below 2^31. *)

val record_call : t -> caller:int -> callee:int -> request:int -> reply:int -> unit
(** One call: the [request] message toward [callee] and the [reply]
    back, in one table probe. *)

val pair_total : t -> int -> int -> int * int
(** [(count, bytes)] exchanged between two instances, both directions
    combined. *)

val peers : t -> int -> (int * int * int) list
(** [(peer, count, bytes)] for every instance that exchanged at least
    one message with the given instance, ascending by peer id. [peers t]
    indexes the whole matrix in one pass, so apply it once and look up
    every instance through the result; messages recorded afterwards do
    not show in that index. *)

val instances : t -> int list
(** All instances that appear, ascending. *)

val message_count : t -> int
val total_bytes : t -> int
