(** Interface types (static interface metadata).

    A COM interface is a named collection of methods with IDL
    signatures. The interface informer's "static interface metadata"
    (paper §3.2) lives here: each interface type carries its methods'
    signatures (which the profiling informer sizes calls against),
    their pruned interface walks, and a remotability verdict.
    Non-remotable interfaces (those passing raw pointers or
    shared-memory handles) are exactly the solid black lines of the
    paper's distribution figures. *)

type t

val declare : string -> Coign_idl.Idl_type.method_sig list -> t
(** [declare name methods] builds an interface type. The IID is derived
    from [name]. Method indices follow list order. *)

val iid : t -> Guid.t
val name : t -> string

val method_count : t -> int

val method_sig : t -> int -> Coign_idl.Idl_type.method_sig
(** Raises [Invalid_argument] on an out-of-range index. *)

val method_index : t -> string -> int
(** Index of the named method. Raises [Not_found]. *)

type slot = private { slot_itype : t; slot_index : int }
(** A method's vtable slot together with the interface it belongs to,
    so a call can check that the handle it goes through is of that
    interface (see {!Runtime.call_slot}). *)

val slot : t -> string -> slot
(** [slot itype name]: the named method's slot, resolved once where
    the interface is declared, as a compiled client fixes a vtable
    offset. Raises [Not_found]. *)

val procs : t -> int -> Coign_idl.Midl.method_procs
(** Per-method facts and interface walks for method [i], cached at
    declaration. Raises [Invalid_argument] on an out-of-range index. *)

val remotable : t -> bool
(** All methods marshalable; a call across machines on a non-remotable
    interface is a runtime error, so the partitioner must co-locate the
    endpoints. *)
