(** Static interface metadata embedded in a binary image.

    Coign's static analyzer reads interface metadata out of the
    application binary itself (paper §4): MIDL signatures of every
    exported interface, which interfaces each component class
    implements, and which classes each class can instantiate. This
    record is the reproduction's equivalent — written into the image at
    build time so [coign lint] and [coign analyze] can reason about
    interface flow without executing a single scenario. *)

open Coign_idl

type iface = { if_name : string; if_methods : Idl_type.method_sig list }

type cls = {
  cl_name : string;
  cl_provides : string list;  (** interface names the class implements *)
  cl_creates : string list;   (** class names its code can instantiate *)
}

type t = {
  ifaces : iface list;
  classes : cls list;
  roots : string list;  (** classes instantiable from the main program *)
}

val recursive_marker : string
(** Opaque tag substituted for cyclic (unbounded recursive) types; see
    {!Idl_type.finite}. The linter reports its presence as CG005. *)

val create : ifaces:iface list -> classes:cls list -> roots:string list -> t
(** Sorts and dedups each table, and replaces any non-finite type in a
    method signature with [Opaque recursive_marker] (conservatively
    non-remotable — a cyclic value cannot be marshaled). *)

val iface : t -> string -> iface option
val cls : t -> string -> cls option

val encode : t -> string
val decode : string -> t
(** Raises {!Codec.Malformed}. Round-trips with [encode]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
