open Coign_idl
module Clsid_table = Hashtbl.Make (Guid)

type instance_id = int
type handle = int

type ctx = {
  reg : registry;
  mutable instances : instance array;       (* index = instance_id *)
  mutable ninstances : int;
  (* The handle table, with no record per handle: [h]'s owner at
     [2h] and the handle a wrapper forwards to at [2h+1] (-1 for a
     plain handle), and its interface with the dispatch that serves it
     as the owner's own impl pair. *)
  mutable handle_ints : int array;
  mutable handle_impls : (Itype.t * dispatch) array;
  mutable nhandles : int;
  mutable create_hook : (component_class -> iid:Guid.t -> handle) option;
  mutable query_hook : (handle -> iid:Guid.t -> handle) option;
  mutable destroy_hook : (instance_id -> unit) option;
  mutable wrapper_hook : (handle -> meth:int -> Value.t list -> Value.t) option;
  compute : float array;  (* one cell, so a charge boxes nothing *)
  data : (int, Obj.t) Hashtbl.t;
}

and dispatch = ctx -> meth:int -> Value.t list -> Value.t

and impl = (Itype.t * dispatch) list

and component_class = {
  clsid : Guid.t;
  cname : string;
  api_refs : string list;
  creates : string list;
  constructor : ctx -> instance_id -> impl;
}

and registry = { classes : component_class list; by_clsid : component_class Clsid_table.t }

and instance = {
  inst_id : instance_id;
  inst_class : component_class option;      (* None for the main pseudo-instance *)
  mutable inst_impl : impl;
  (* The canonical handle of each interface, aligned with [inst_impl];
     -1 until first asked for. *)
  mutable inst_handles : int array;
  mutable inst_alive : bool;
}

let define_class ?(api_refs = []) ?(creates = []) cname constructor =
  { clsid = Guid.of_name ("CLSID_" ^ cname); cname; api_refs; creates; constructor }

let registry classes =
  let by_clsid = Clsid_table.create 64 in
  List.iter
    (fun c ->
      if Clsid_table.mem by_clsid c.clsid then
        invalid_arg ("Runtime.registry: duplicate class " ^ c.cname);
      Clsid_table.add by_clsid c.clsid c)
    classes;
  { classes; by_clsid }

let registry_classes r = r.classes

(* The one registry lookup of an instantiation. *)
let find_class ctx clsid =
  match Clsid_table.find ctx.reg.by_clsid clsid with
  | cls -> cls
  | exception Not_found -> Hresult.fail (Hresult.E_noclass (Guid.to_string clsid))

let main_instance = 0
let main_class_name = "MAIN"

let dummy_impl : Itype.t * dispatch =
  (Itype.declare "IUnknown" [], fun _ ~meth:_ _ -> Value.Unit)

let dummy_instance =
  { inst_id = -1; inst_class = None; inst_impl = []; inst_handles = [||]; inst_alive = false }

let create_ctx reg =
  let ctx =
    {
      reg;
      instances = Array.make 64 dummy_instance;
      ninstances = 0;
      handle_ints = Array.make 512 (-1);
      handle_impls = Array.make 256 dummy_impl;
      nhandles = 0;
      create_hook = None;
      query_hook = None;
      destroy_hook = None;
      wrapper_hook = None;
      compute = [| 0. |];
      data = Hashtbl.create 8;
    }
  in
  (* Instance 0: the application main program. *)
  ctx.instances.(0) <-
    { inst_id = 0; inst_class = None; inst_impl = []; inst_handles = [||]; inst_alive = true };
  ctx.ninstances <- 1;
  ctx

let grow_instances ctx =
  if ctx.ninstances = Array.length ctx.instances then begin
    let bigger = Array.make (2 * Array.length ctx.instances) dummy_instance in
    Array.blit ctx.instances 0 bigger 0 ctx.ninstances;
    ctx.instances <- bigger
  end

let get_instance ctx id =
  if id < 0 || id >= ctx.ninstances then
    Hresult.fail (Hresult.E_pointer (Printf.sprintf "unknown instance %d" id));
  ctx.instances.(id)

let check_handle ctx h =
  if h < 0 || h >= ctx.nhandles then
    Hresult.fail (Hresult.E_pointer (Printf.sprintf "unknown handle %d" h))

let alloc_handle ctx ~owner ~target impl =
  let h = ctx.nhandles in
  if h = Array.length ctx.handle_impls then begin
    let ints = Array.make (4 * h) (-1) and impls = Array.make (2 * h) dummy_impl in
    Array.blit ctx.handle_ints 0 ints 0 (2 * h);
    Array.blit ctx.handle_impls 0 impls 0 h;
    ctx.handle_ints <- ints;
    ctx.handle_impls <- impls
  end;
  ctx.handle_ints.(2 * h) <- owner;
  ctx.handle_ints.((2 * h) + 1) <- target;
  ctx.handle_impls.(h) <- impl;
  ctx.nhandles <- h + 1;
  h

(* A wrapper shares its target's owner and impl pair and names the
   target: with no wrapper hook installed, a call through it runs the
   target's method as a plain call would. *)
let alloc_wrapper ctx h =
  check_handle ctx h;
  alloc_handle ctx ~owner:ctx.handle_ints.(2 * h) ~target:h ctx.handle_impls.(h)

(* The position of [iid] in [inst]'s impl list; a top-level loop, so a
   lookup builds no closure. *)
let rec impl_index inst iid i = function
  | [] ->
      Hresult.fail
        (Hresult.E_nointerface
           (Printf.sprintf "instance %d does not implement %s" inst.inst_id (Guid.to_string iid)))
  | (itype, _) :: rest ->
      if Guid.equal (Itype.iid itype) iid then i else impl_index inst iid (i + 1) rest

(* The canonical handle of [inst] for interface [iid]: allocated lazily,
   then reused, matching COM's per-interface identity. *)
let canonical_handle ctx inst iid =
  let i = impl_index inst iid 0 inst.inst_impl in
  let h = inst.inst_handles.(i) in
  if h >= 0 then h
  else begin
    let h = alloc_handle ctx ~owner:inst.inst_id ~target:(-1) (List.nth inst.inst_impl i) in
    inst.inst_handles.(i) <- h;
    h
  end

(* Register a fresh instance of [cls] and run its constructor, with
   the instance already visible so self-references work. *)
let instantiate ctx cls =
  grow_instances ctx;
  let id = ctx.ninstances in
  let inst =
    { inst_id = id; inst_class = Some cls; inst_impl = []; inst_handles = [||]; inst_alive = true }
  in
  ctx.instances.(id) <- inst;
  ctx.ninstances <- id + 1;
  (* Constructor may itself create components. *)
  let impl = cls.constructor ctx id in
  inst.inst_impl <- impl;
  inst.inst_handles <- Array.make (List.length impl) (-1);
  inst

let raw_create_instance ctx cls ~iid = canonical_handle ctx (instantiate ctx cls) iid

(* Instantiation without registry lookup or handle allocation: the
   static prober (see {!Probe}) uses this to run a constructor it has
   already resolved and then inspect the implementation table. *)
let raw_instantiate ctx cls = (instantiate ctx cls).inst_id

let create_instance ctx clsid ~iid =
  let cls = find_class ctx clsid in
  match ctx.create_hook with
  | None -> raw_create_instance ctx cls ~iid
  | Some hook -> hook cls ~iid

let raw_query_interface ctx h ~iid =
  check_handle ctx h;
  let inst = get_instance ctx ctx.handle_ints.(2 * h) in
  if not inst.inst_alive then
    Hresult.fail (Hresult.E_pointer (Printf.sprintf "instance %d is dead" inst.inst_id));
  canonical_handle ctx inst iid

let query_interface ctx h ~iid =
  match ctx.query_hook with
  | None -> raw_query_interface ctx h ~iid
  | Some hook -> hook h ~iid

let destroy_instance ctx id =
  let inst = get_instance ctx id in
  if id = main_instance then
    Hresult.fail (Hresult.E_invalidarg "cannot destroy the main instance");
  if not inst.inst_alive then
    Hresult.fail (Hresult.E_invalidarg (Printf.sprintf "instance %d already dead" id));
  (match ctx.destroy_hook with Some hook -> hook id | None -> ());
  inst.inst_alive <- false

let call ctx h ~meth args =
  check_handle ctx h;
  let inst = get_instance ctx ctx.handle_ints.(2 * h) in
  if not inst.inst_alive then
    Hresult.fail
      (Hresult.E_pointer
         (Printf.sprintf "call through handle %d of dead instance %d" h inst.inst_id));
  let itype, dispatch = ctx.handle_impls.(h) in
  if meth < 0 || meth >= Itype.method_count itype then
    Hresult.fail
      (Hresult.E_invalidarg
         (Printf.sprintf "interface %s has no method %d" (Itype.name itype) meth));
  match ctx.wrapper_hook with
  | Some hook when ctx.handle_ints.((2 * h) + 1) >= 0 -> hook h ~meth args
  | _ -> dispatch ctx ~meth args

let handle_itype ctx h =
  check_handle ctx h;
  fst ctx.handle_impls.(h)

let call_slot ctx h (slot : Itype.slot) args =
  let itype = handle_itype ctx h in
  if itype != slot.slot_itype then
    Hresult.fail
      (Hresult.E_invalidarg
         (Printf.sprintf "slot %d of %s called through a handle of %s" slot.slot_index
            (Itype.name slot.slot_itype) (Itype.name itype)));
  call ctx h ~meth:slot.slot_index args

let call_named ctx h mname args =
  let itype = handle_itype ctx h in
  match Itype.method_index itype mname with
  | meth -> call ctx h ~meth args
  | exception Not_found ->
      Hresult.fail
        (Hresult.E_invalidarg
           (Printf.sprintf "interface %s has no method %S" (Itype.name itype) mname))

let handle_owner ctx h =
  check_handle ctx h;
  ctx.handle_ints.(2 * h)

let wrapped_handle ctx h =
  check_handle ctx h;
  let target = ctx.handle_ints.((2 * h) + 1) in
  if target >= 0 then target else h

let handle_is_wrapper ctx h = wrapped_handle ctx h <> h

let instance_class_name ctx id =
  match (get_instance ctx id).inst_class with
  | None -> main_class_name
  | Some c -> c.cname

let instance_itypes ctx id = List.map fst (get_instance ctx id).inst_impl

let instance_alive ctx id = (get_instance ctx id).inst_alive

let instance_count ctx = ctx.ninstances

let live_instances ctx =
  let rec go i acc =
    if i < 1 then acc
    else go (i - 1) (if ctx.instances.(i).inst_alive then i :: acc else acc)
  in
  go (ctx.ninstances - 1) []

let set_create_hook ctx hook = ctx.create_hook <- hook
let set_query_hook ctx hook = ctx.query_hook <- hook
let set_destroy_hook ctx hook = ctx.destroy_hook <- hook
let set_wrapper_hook ctx hook = ctx.wrapper_hook <- hook

let charge ctx ~us =
  assert (us >= 0.);
  ctx.compute.(0) <- ctx.compute.(0) +. us

let compute_clock ctx = ctx.compute
let compute_us ctx = ctx.compute.(0)
let reset_compute ctx = ctx.compute.(0) <- 0.

type 'a key = int

let key_counter = ref 0

let new_key () =
  incr key_counter;
  !key_counter

let set_data ctx key v = Hashtbl.replace ctx.data key (Obj.repr v)

let get_data ctx key =
  match Hashtbl.find_opt ctx.data key with
  | None -> None
  | Some o -> Some (Obj.obj o)
