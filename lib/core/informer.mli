(** Interface informers (paper §3.2).

    The informer manages static interface metadata: it determines the
    static type of interfaces and walks the parameters of interface
    function calls. Two informers exist:

    - the {b profiling} informer walks every parameter against its
      declared type ({!Coign_idl.Marshal_size.value_size_exn}) and
      measures the precise deep-copy message sizes (this is where most
      of the up-to-85% profiling overhead comes from);
    - the {b distribution} informer examines parameters only enough to
      identify interface pointers (under 3% overhead).

    Both also find the interface handles in a call's reply so the RTE
    can keep every escaping interface pointer wrapped. *)

type sizes = private int
(** A call's request and reply sizes, packed in one immediate int. *)

val remotable : sizes -> bool
val request_bytes : sizes -> int
val reply_bytes : sizes -> int

val non_remotable : sizes
(** A call that cannot be marshaled: not remotable, both sizes 0. *)

val measure_call :
  Coign_com.Itype.t -> meth:int ->
  ins:Coign_idl.Value.t list -> outs:Coign_idl.Value.t list -> ret:Coign_idl.Value.t ->
  sizes
(** The profiling informer's measurement, and the one call-level
    sizer: each slot is sized by {!Coign_idl.Marshal_size.value_size_exn}
    against the method's declared parameter type. Request direction
    sizes [In] and [In_out] slots of [ins]; reply direction sizes
    [Out]/[In_out] slots of [outs] plus [ret]; each direction includes
    the DCOM per-message overhead. A call that cannot be marshaled (a
    non-remotable method, or a walked value that does not fit its
    declared type) yields {!non_remotable}. Allocates nothing. Raises
    [Invalid_argument] if [ins] or [outs] has fewer slots than the
    method has parameters, or if the request or the reply reaches
    2{^31} bytes. *)

val map_handles :
  Coign_com.Itype.t -> meth:int -> ('a -> int -> int) -> 'a ->
  Coign_idl.Value.t list * Coign_idl.Value.t -> Coign_idl.Value.t list * Coign_idl.Value.t
(** [map_handles itype ~meth f env (slots, ret)] is the distribution
    informer's walk over a call's reply: every interface handle [h] in
    [ret] and in the parameter slots [slots] (one per parameter, as a
    call returns them) becomes [f env h]. [ret] is walked first, then
    the slots left to right, each in traversal order. Only positions
    the pruned interface walks type as interfaces are visited, and a
    method that cannot output interfaces is not walked at all. Values
    whose handles all map to themselves come back physically equal —
    the reply itself when nothing changes, with no allocation. *)
