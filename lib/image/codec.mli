(** Tiny length-prefixed binary codec shared by the image format and the
    configuration record. All integers are unsigned LEB128-free fixed
    8/32-bit little-endian; strings and blobs carry a 32-bit length. *)

type writer

val writer : unit -> writer
val w_u8 : writer -> int -> unit
val w_u32 : writer -> int -> unit
val w_str : writer -> string -> unit
val w_list : writer -> ('a -> unit) -> 'a list -> unit
(** Writes a u32 count then each element via the callback. *)

val contents : writer -> string

type reader

exception Malformed of string

val reader : string -> reader
val r_u8 : reader -> int
val r_u32 : reader -> int
val r_str : reader -> string
val r_list : reader -> (reader -> 'a) -> 'a list
val at_end : reader -> bool
val expect_end : reader -> unit
(** Raises [Malformed] if bytes remain. *)
