(** The component object runtime.

    Holds everything a running component application needs: the class
    registry, live component instances, and the interface-handle table
    through which all inter-component calls flow. Mirrors the COM
    properties Coign depends on (paper §2):

    - every instantiation goes through a single entry point
      ({!create_instance}), which the Coign RTE intercepts via
      {!set_create_hook} (the analog of inline redirection of
      [CoCreateInstance]);
    - every first-class communication crosses an interface handle, and
      handles can be transparently replaced by wrappers
      ({!alloc_wrapper}), whose calls go to one hook
      ({!set_wrapper_hook}), so the RTE can observe every call;
    - interfaces carry static type identity ({!Itype}), so informers
      can measure parameters without source code.

    The runtime is deliberately ignorant of Coign: hooks default to the
    plain local behaviour, and an un-instrumented application behaves
    identically with or without a hook installed. *)

type ctx
(** One application execution (an address space in the paper's terms,
    or the union of the distributed address spaces once partitioned). *)

type instance_id = int
(** Dense, ascending component-instance identifiers. Instance 0 is the
    pseudo-instance representing the application's main executable. *)

type handle = int
(** Interface pointer. *)

type dispatch = ctx -> meth:int -> Coign_idl.Value.t list -> Coign_idl.Value.t
(** A vtable: given a method slot and the caller's argument values,
    runs the method and returns its return value.

    A method writes no parameter slot: the post-call value of every
    slot, [Out] and [In_out] included, is the argument the caller
    passed. So a reply is its return value alone, and an informer that
    sizes or walks a call's out slots reads them from its arguments. *)

type impl = (Itype.t * dispatch) list
(** The interfaces one instance exposes. *)

type component_class = {
  clsid : Guid.t;
  cname : string;
  api_refs : string list;
      (** System APIs the class's code references (e.g. ["gdi32.BitBlt"],
          ["kernel32.ReadFile"]); the static-analysis constraint pass
          scans these. *)
  creates : string list;
      (** Class names this class's *method bodies* can instantiate, the
          analog of CLSIDs visible in a binary's relocated data (§4).
          Constructor-time instantiations need not be listed: the static
          prober observes those directly. *)
  constructor : ctx -> instance_id -> impl;
}

val define_class :
  ?api_refs:string list -> ?creates:string list -> string ->
  (ctx -> instance_id -> impl) -> component_class
(** [define_class name ctor] derives the CLSID from [name]. *)

(** {1 Registry} *)

type registry

val registry : component_class list -> registry
(** Build a registry; duplicate CLSIDs raise [Invalid_argument]. *)

val registry_classes : registry -> component_class list
(** All classes, in registration order. *)

(** {1 Context lifecycle} *)

val create_ctx : registry -> ctx

val main_instance : instance_id
(** The pseudo-instance (0) that stands for the application's [main]. *)

val main_class_name : string
(** Class name reported for {!main_instance} ("MAIN"). *)

(** {1 Instantiation and interface negotiation} *)

val create_instance : ctx -> Guid.t -> iid:Guid.t -> handle
(** The application-facing [CoCreateInstance]: resolves the CLSID in
    the registry once, then hands the class to the create hook if one
    is installed, otherwise behaves as {!raw_create_instance}.
    Raises [Com_error E_noclass] / [E_nointerface]. *)

val raw_create_instance : ctx -> component_class -> iid:Guid.t -> handle
(** Instantiate a resolved class bypassing the hook (what the hook
    itself calls to perform the real local instantiation). Runs the
    class constructor. *)

val raw_instantiate : ctx -> component_class -> instance_id
(** Run [cls]'s constructor on a fresh instance and return its id
    without negotiating an interface handle. Used by the static prober
    to enumerate the interfaces a class implements. *)

val query_interface : ctx -> handle -> iid:Guid.t -> handle
(** Ask an instance for another of its interfaces; consults the query
    hook if installed. *)

val raw_query_interface : ctx -> handle -> iid:Guid.t -> handle

val destroy_instance : ctx -> instance_id -> unit
(** Release an instance; its handles become stale. Consults the destroy
    hook. Destroying [main_instance] or an already-dead instance raises
    [Com_error E_invalidarg]. *)

(** {1 Calls} *)

val call : ctx -> handle -> meth:int -> Coign_idl.Value.t list -> Coign_idl.Value.t
(** Invoke method index [meth] through an interface handle and return
    its return value. All inter-component communication in an
    application goes through here. Allocates nothing itself: a call
    through a plain handle costs what the method allocates. Raises
    [Com_error E_pointer] on an unknown handle or a dead instance and
    [Com_error E_invalidarg] on an index the interface lacks. *)

val call_slot : ctx -> handle -> Itype.slot -> Coign_idl.Value.t list -> Coign_idl.Value.t
(** {!call} by a slot resolved once with {!Itype.slot}, next to the
    interface's {!Itype.declare}, as a compiled vtable call would:
    how applications call. Raises [Com_error E_invalidarg] when the
    handle's interface is not, physically, the slot's, so a slot of
    another interface never runs a method of this one. *)

val call_named : ctx -> handle -> string -> Coign_idl.Value.t list -> Coign_idl.Value.t
(** Resolve the method by name on the handle's itype, then {!call}: a
    lookup per call, for test drivers. *)

(** {1 Handle and instance introspection (used by the Coign RTE)} *)

val handle_itype : ctx -> handle -> Itype.t
val handle_owner : ctx -> handle -> instance_id
val handle_is_wrapper : ctx -> handle -> bool

val alloc_wrapper : ctx -> handle -> handle
(** [alloc_wrapper ctx h] mints a wrapper for [h]: a new handle with
    [h]'s owner and interface. A call through it goes to the wrapper
    hook ({!set_wrapper_hook}) when one is installed, and otherwise runs
    [h]'s method as a call through [h] would. The RTE interposes its
    instrumented interfaces this way, with no closure per wrapper. *)

val wrapped_handle : ctx -> handle -> handle
(** The handle a wrapper forwards to; a plain handle is its own. *)

val instance_itypes : ctx -> instance_id -> Itype.t list
(** The interfaces an instance implements, in declaration order. *)

val instance_class_name : ctx -> instance_id -> string

val instance_alive : ctx -> instance_id -> bool
val instance_count : ctx -> int
(** Number of instances ever created, including [main]. *)

val live_instances : ctx -> instance_id list
(** Ascending ids of live instances, excluding [main]. *)

(** {1 Interception hooks} *)

val set_create_hook : ctx -> (component_class -> iid:Guid.t -> handle) option -> unit
(** The hook gets the class {!create_instance} resolved and the
    requested IID. *)

val set_query_hook : ctx -> (handle -> iid:Guid.t -> handle) option -> unit
val set_destroy_hook : ctx -> (instance_id -> unit) option -> unit

val set_wrapper_hook :
  ctx -> (handle -> meth:int -> Coign_idl.Value.t list -> Coign_idl.Value.t) option -> unit
(** Every call through a wrapper ({!alloc_wrapper}) goes to the hook,
    given the wrapper handle, once {!call} has checked the handle, the
    instance and the method index. *)

(** {1 Compute accounting}

    Methods charge notional CPU time so the execution simulator can
    model total scenario time (compute + communication). *)

val charge : ctx -> us:float -> unit
(** Record [us] microseconds of computation by the current method. *)

val compute_us : ctx -> float
val reset_compute : ctx -> unit

val compute_clock : ctx -> float array
(** The one cell {!charge} adds into and {!reset_compute} zeroes, for
    a reader that must take the clock without boxing it. *)

(** {1 User-data slots}

    Component implementations frequently need shared per-context state
    (e.g. a document model). Each context carries one polymorphic slot
    per key. *)

type 'a key

val new_key : unit -> 'a key
val set_data : ctx -> 'a key -> 'a -> unit
val get_data : ctx -> 'a key -> 'a option
