(** Open-addressing hash table from [int] keys to values.

    Built for per-call hot paths: linear probing over flat arrays, no
    per-entry boxes, and lookups that neither allocate nor return
    options — a missing key reads as the table's [absent] value. Keys
    are typically several small ids packed into one int. [min_int] is
    reserved. Iteration order is unspecified. *)

type 'a t

val create : absent:'a -> int -> 'a t
(** [create ~absent n] sizes the table for about [n] entries; it grows
    as needed. [absent] is what {!find} returns for a missing key. *)

val find : 'a t -> int -> 'a
(** The key's value, or [absent]. *)

val replace : 'a t -> int -> 'a -> unit

val find_or_add : 'a t -> int -> 'a -> 'a
(** [find_or_add t k v] is [k]'s value; a missing key is first bound
    to [v]. One probe either way. *)

val clear : 'a t -> unit
(** Remove every key, keeping the table's capacity. The removed values
    stay in the table, unreachable through it, until their slots are
    reused. *)

val length : 'a t -> int

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
