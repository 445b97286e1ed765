(** Runtime values exchanged across interface calls.

    Interface pointers appear as opaque integer handles here; the
    component runtime ({!Coign_com}) owns the handle table. Blobs carry
    only their size — Coign never inspects payloads, it only measures
    them, so modelling a buffer by its length loses nothing. *)

type t =
  | Unit
  | Int of int                     (** fits both int32 and int64 slots *)
  | Float of float
  | Bool of bool
  | Str of string
  | Blob of int                    (** byte buffer of the given size *)
  | Arr of t list
  | Struct of (string * t) list
  | Null                           (** null [Ptr] *)
  | Ref of t                       (** non-null [Ptr] *)
  | Iface_ref of int               (** interface handle *)
  | Opaque_handle of string        (** non-remotable raw pointer/handle *)

val pp : Format.formatter -> t -> unit
