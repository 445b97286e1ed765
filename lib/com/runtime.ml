open Coign_idl
module Clsid_table = Hashtbl.Make (Guid)

type instance_id = int
type handle = int

type ctx = {
  reg : registry;
  mutable instances : instance array;       (* index = instance_id *)
  mutable ninstances : int;
  mutable handles : handle_entry array;     (* index = handle *)
  mutable nhandles : int;
  mutable create_hook : (component_class -> iid:Guid.t -> handle) option;
  mutable query_hook : (handle -> iid:Guid.t -> handle) option;
  mutable destroy_hook : (instance_id -> unit) option;
  mutable wrapper_hook : (handle -> meth:int -> Value.t list -> Value.t list * Value.t) option;
  mutable compute : float;
  data : (int, Obj.t) Hashtbl.t;
}

and dispatch = ctx -> meth:int -> Value.t list -> Value.t list * Value.t

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
  mutable inst_handles : (Guid.t * handle) list;  (* iid -> canonical handle *)
  mutable inst_alive : bool;
}

(* A wrapper's entry copies its target's owner, interface and
   dispatch, and names the target: with no wrapper hook installed, a
   call through it runs the target's method as a plain call would. *)
and handle_entry = {
  h_owner : instance_id;
  h_itype : Itype.t;
  h_dispatch : dispatch;
  h_target : handle;  (* the handle a wrapper forwards to; -1 for a plain one *)
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

let dummy_itype = Itype.declare "IUnknown" []

let dummy_handle_entry =
  {
    h_owner = -1;
    h_itype = dummy_itype;
    h_dispatch = (fun _ ~meth:_ _ -> (([] : Value.t list), Value.Unit));
    h_target = -1;
  }

let dummy_instance =
  { inst_id = -1; inst_class = None; inst_impl = []; inst_handles = []; inst_alive = false }

let create_ctx reg =
  let ctx =
    {
      reg;
      instances = Array.make 64 dummy_instance;
      ninstances = 0;
      handles = Array.make 256 dummy_handle_entry;
      nhandles = 0;
      create_hook = None;
      query_hook = None;
      destroy_hook = None;
      wrapper_hook = None;
      compute = 0.;
      data = Hashtbl.create 8;
    }
  in
  (* Instance 0: the application main program. *)
  ctx.instances.(0) <-
    { inst_id = 0; inst_class = None; inst_impl = []; inst_handles = []; inst_alive = true };
  ctx.ninstances <- 1;
  ctx

let grow_instances ctx =
  if ctx.ninstances = Array.length ctx.instances then begin
    let bigger = Array.make (2 * Array.length ctx.instances) dummy_instance in
    Array.blit ctx.instances 0 bigger 0 ctx.ninstances;
    ctx.instances <- bigger
  end

let grow_handles ctx =
  if ctx.nhandles = Array.length ctx.handles then begin
    let bigger = Array.make (2 * Array.length ctx.handles) dummy_handle_entry in
    Array.blit ctx.handles 0 bigger 0 ctx.nhandles;
    ctx.handles <- bigger
  end

let get_instance ctx id =
  if id < 0 || id >= ctx.ninstances then
    Hresult.fail (Hresult.E_pointer (Printf.sprintf "unknown instance %d" id));
  ctx.instances.(id)

let get_handle ctx h =
  if h < 0 || h >= ctx.nhandles then
    Hresult.fail (Hresult.E_pointer (Printf.sprintf "unknown handle %d" h));
  ctx.handles.(h)

let alloc_handle_entry ctx entry =
  grow_handles ctx;
  let h = ctx.nhandles in
  ctx.handles.(h) <- entry;
  ctx.nhandles <- h + 1;
  h

let alloc_wrapper ctx h =
  let target = get_handle ctx h in
  alloc_handle_entry ctx { target with h_target = h }

(* Top-level searches, so a lookup builds no closure and no option:
   [find_handle] answers -1 when [inst] has no handle for [iid] yet. *)
let rec find_handle iid = function
  | [] -> -1
  | (i, h) :: rest -> if Guid.equal i iid then h else find_handle iid rest

let rec find_impl inst iid = function
  | [] ->
      Hresult.fail
        (Hresult.E_nointerface
           (Printf.sprintf "instance %d does not implement %s" inst.inst_id (Guid.to_string iid)))
  | ((itype, _) as impl) :: rest ->
      if Guid.equal (Itype.iid itype) iid then impl else find_impl inst iid rest

(* The canonical handle of [inst] for interface [iid]: allocated lazily,
   then reused, matching COM's per-interface identity. *)
let canonical_handle ctx inst iid =
  let h = find_handle iid inst.inst_handles in
  if h >= 0 then h
  else begin
    let itype, dispatch = find_impl inst iid inst.inst_impl in
    let h =
      alloc_handle_entry ctx
        { h_owner = inst.inst_id; h_itype = itype; h_dispatch = dispatch; h_target = -1 }
    in
    inst.inst_handles <- (iid, h) :: inst.inst_handles;
    h
  end

let raw_create_instance ctx cls ~iid =
  grow_instances ctx;
  let id = ctx.ninstances in
  let inst =
    { inst_id = id; inst_class = Some cls; inst_impl = []; inst_handles = []; inst_alive = true }
  in
  ctx.instances.(id) <- inst;
  ctx.ninstances <- id + 1;
  (* Constructor may itself create components; it runs with the
     instance already visible so self-references work. *)
  inst.inst_impl <- cls.constructor ctx id;
  canonical_handle ctx inst iid

(* Instantiation without registry lookup or handle allocation: the
   static prober (see {!Probe}) uses this to run a constructor it has
   already resolved and then inspect the implementation table. *)
let raw_instantiate ctx cls =
  grow_instances ctx;
  let id = ctx.ninstances in
  let inst =
    { inst_id = id; inst_class = Some cls; inst_impl = []; inst_handles = []; inst_alive = true }
  in
  ctx.instances.(id) <- inst;
  ctx.ninstances <- id + 1;
  inst.inst_impl <- cls.constructor ctx id;
  id

let create_instance ctx clsid ~iid =
  let cls = find_class ctx clsid in
  match ctx.create_hook with
  | None -> raw_create_instance ctx cls ~iid
  | Some hook -> hook cls ~iid

let raw_query_interface ctx h ~iid =
  let entry = get_handle ctx h in
  let inst = get_instance ctx entry.h_owner in
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
  let entry = get_handle ctx h in
  let inst = get_instance ctx entry.h_owner in
  if not inst.inst_alive then
    Hresult.fail
      (Hresult.E_pointer
         (Printf.sprintf "call through handle %d of dead instance %d" h inst.inst_id));
  if meth < 0 || meth >= Itype.method_count entry.h_itype then
    Hresult.fail
      (Hresult.E_invalidarg
         (Printf.sprintf "interface %s has no method %d" (Itype.name entry.h_itype) meth));
  match ctx.wrapper_hook with
  | Some hook when entry.h_target >= 0 -> hook h ~meth args
  | _ -> entry.h_dispatch ctx ~meth args

let call_named ctx h mname args =
  let entry = get_handle ctx h in
  match Itype.method_index entry.h_itype mname with
  | meth -> call ctx h ~meth args
  | exception Not_found ->
      Hresult.fail
        (Hresult.E_invalidarg
           (Printf.sprintf "interface %s has no method %S" (Itype.name entry.h_itype) mname))

let handle_itype ctx h = (get_handle ctx h).h_itype
let handle_owner ctx h = (get_handle ctx h).h_owner
let handle_is_wrapper ctx h = (get_handle ctx h).h_target >= 0

let wrapped_handle ctx h =
  let target = (get_handle ctx h).h_target in
  if target >= 0 then target else h

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
  ctx.compute <- ctx.compute +. us

let compute_us ctx = ctx.compute
let reset_compute ctx = ctx.compute <- 0.

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
