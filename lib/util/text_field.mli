(** Reading tab- and newline-separated fields of a stored text in
    place, without copying a field to read it, and writing its integers
    without building a string. The codecs of a profile's classifier and
    ICC entries share these. *)

val bad : int
(** [min_int]: what {!int} returns for a field that is not an integer.
    [min_int] spelled out reads as [bad] too; no decoder accepts it. *)

val int : string -> int -> int -> int
(** [int s i j] is the integer spelled by [s.[i .. j-1]]. Plain
    [\[-\]digits], at most 18 of them, are read in place; any other
    spelling gets [int_of_string]'s semantics ([0x1F], [1_000], ...),
    which copies the field. *)

val field_end : string -> int -> int
(** The first tab or newline at or after [i], or the length of the
    text. It tests eight bytes at a time while none of them is a
    separator, then byte by byte. *)

val is_tab : string -> int -> bool
(** Whether [s.[i]] exists and is a tab. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends [string_of_int n] to [buf], digit by digit:
    no intermediate string. Negatives and [min_int] read as
    [string_of_int] writes them. *)
