(** Convenience layer for writing component implementations.

    Maps named method handlers onto an interface's method table and
    provides the common reply shapes, so application components read
    like vtable definitions rather than index arithmetic. *)

type handler = Runtime.ctx -> Coign_idl.Value.t list -> Coign_idl.Value.t
(** Receives the caller's argument values and returns the return
    value. A handler writes no parameter slot: every slot's post-call
    value, [Out] and [In_out] included, is the caller's argument (see
    {!Runtime.dispatch}). *)

val iface : Itype.t -> (string * handler) list -> Itype.t * Runtime.dispatch
(** Build a dispatch for an interface. Every method of the interface
    must have exactly one handler; extra or missing handlers raise
    [Invalid_argument] at construction time. *)

val get_int : Coign_idl.Value.t list -> int -> int
(** Fetch an [Int] argument by position; raises [Com_error E_invalidarg]
    on shape mismatch — component implementations should not crash on
    malformed calls, they should fail like COM servers do. *)

val get_str : Coign_idl.Value.t list -> int -> string
val get_blob : Coign_idl.Value.t list -> int -> int
val get_iface : Coign_idl.Value.t list -> int -> Runtime.handle
val get_bool : Coign_idl.Value.t list -> int -> bool
