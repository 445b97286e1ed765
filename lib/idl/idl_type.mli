(** IDL-like parameter type language.

    COM interfaces described in IDL carry enough static metadata for
    DCOM to deep-copy call parameters between address spaces. Coign's
    profiling informer reuses exactly that metadata to measure how many
    bytes an interface call *would* move if the caller and callee were
    on different machines (paper §2, §3.2). This module is the type
    half and stands in for MIDL's format strings: {!Marshal_size} walks
    a declared type to size a value, and {!Midl} prunes it to the
    positions that can carry interface pointers. *)

type t =
  | Void                          (** no data (e.g. a [unit] return) *)
  | Int32
  | Int64
  | Double
  | Bool
  | Str                           (** counted 8-bit string *)
  | Blob                          (** counted opaque byte buffer *)
  | Array of t                    (** conformant array *)
  | Struct of (string * t) list   (** by-value record *)
  | Ptr of t                      (** unique pointer: null or deep copy *)
  | Iface of string               (** interface pointer; marshals as an
                                      object reference (name is the
                                      interface's static type) *)
  | Opaque of string              (** raw pointer/handle with no IDL
                                      description; NOT remotable (e.g. a
                                      shared-memory region handle) *)

type direction = In | Out | In_out

type param = { pname : string; pty : t; pdir : direction }

type method_sig = {
  mname : string;
  params : param list;
  ret : t;
}

val param : ?dir:direction -> string -> t -> param
(** [param name ty] with [dir] defaulting to [In]. *)

val method_ : ?ret:t -> string -> param list -> method_sig
(** [method_ name params] with [ret] defaulting to [Void]. *)

val remotable : t -> bool
(** [true] iff the type contains no [Opaque] component, i.e. DCOM could
    marshal it. *)

val method_remotable : method_sig -> bool
(** All parameters and the return type are remotable. *)

val finite : t -> bool
(** [false] iff the value is cyclic (built with [let rec], the analog
    of an unbounded recursive struct): the marshaler would never
    terminate on it. Detected by physical identity of ancestor nodes. *)

val pp : Format.formatter -> t -> unit
