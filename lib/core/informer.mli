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
  outs:Coign_idl.Value.t list -> Coign_idl.Value.t -> Coign_idl.Value.t
(** [map_handles itype ~meth f env ~outs ret] is the distribution
    informer's walk over a call's reply: every interface handle [h] in
    the return value [ret] and in the parameter slots [outs] (one per
    parameter; a method writes none, so they are the call's arguments,
    see {!Coign_com.Runtime.dispatch}) is passed to [f env h], [ret]
    first, then the slots left to right, each in traversal order. The
    result is [ret] with each [h] replaced by [f env h]; the slots'
    mapped values are dropped. Only positions the pruned interface
    walks type as interfaces are visited; the caller skips the walk for
    a method whose {!Coign_idl.Midl.method_procs} [may_output_ifaces]
    is false. A [ret] whose handles all map to themselves comes back
    physically equal, with no allocation. *)
