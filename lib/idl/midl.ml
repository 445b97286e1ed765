(* Interface-pointer walk: the declared type with every subtree that
   cannot reach an Iface cut to Void, so the distribution informer
   touches the minimum number of value nodes. *)
type iface_proc = Idl_type.t

let rec compile_iface_walk ty =
  match ty with
  | Idl_type.Iface _ -> ty
  | Idl_type.Array elt -> (
      match compile_iface_walk elt with
      | Idl_type.Void -> Idl_type.Void
      | elt -> Idl_type.Array elt)
  | Idl_type.Ptr pointee -> (
      match compile_iface_walk pointee with
      | Idl_type.Void -> Idl_type.Void
      | pointee -> Idl_type.Ptr pointee)
  | Idl_type.Struct fields ->
      let fields = List.map (fun (name, t) -> (name, compile_iface_walk t)) fields in
      if List.for_all (function _, Idl_type.Void -> true | _ -> false) fields then Idl_type.Void
      else Idl_type.Struct fields
  | Idl_type.Void | Idl_type.Int32 | Idl_type.Int64 | Idl_type.Double | Idl_type.Bool
  | Idl_type.Str | Idl_type.Blob | Idl_type.Opaque _ ->
      Idl_type.Void

let iface_walk_trivial = function Idl_type.Void -> true | _ -> false

(* The walk rebuilds only the spine above a handle [f] changed: an
   unchanged subtree comes back physically equal, so a reply whose
   handles all map to themselves allocates nothing. Fields and elements
   are visited left to right, the order the RTE mints wrappers in. *)
let rec map_handles_with ty f env v =
  match (ty, v) with
  | Idl_type.Iface _, Value.Iface_ref h ->
      let h' = f env h in
      if h' = h then v else Value.Iface_ref h'
  | Idl_type.Array elt, Value.Arr vs ->
      let vs' = map_elements elt f env vs in
      if vs' == vs then v else Value.Arr vs'
  | Idl_type.Struct fields, Value.Struct fvs ->
      let fvs' = map_fields fields f env fvs in
      if fvs' == fvs then v else Value.Struct fvs'
  | Idl_type.Ptr pointee, Value.Ref inner ->
      let inner' = map_handles_with pointee f env inner in
      if inner' == inner then v else Value.Ref inner'
  | _, _ -> v

and map_elements elt f env vs =
  match vs with
  | [] -> vs
  | x :: tl ->
      let x' = map_handles_with elt f env x in
      let tl' = map_elements elt f env tl in
      if x' == x && tl' == tl then vs else x' :: tl'

(* Fields pair with their declared types by position; a [Void] field
   comes back as it is. *)
and map_fields fields f env fvs =
  match (fields, fvs) with
  | [], _ | _, [] -> fvs
  | (_, fty) :: fields', ((name, fv) as field) :: fvs' ->
      let fv' = map_handles_with fty f env fv in
      let fvs'' = map_fields fields' f env fvs' in
      if fv' == fv && fvs'' == fvs' then fvs
      else (if fv' == fv then field else (name, fv')) :: fvs''

type method_procs = {
  iface_procs : iface_proc list;
  ret_iface_proc : iface_proc;
  remotable : bool;
  may_output_ifaces : bool;
}

let compile_method (msig : Idl_type.method_sig) =
  let iface_procs = List.map (fun p -> compile_iface_walk p.Idl_type.pty) msig.params in
  let ret_iface_proc = compile_iface_walk msig.ret in
  {
    iface_procs;
    ret_iface_proc;
    remotable = Idl_type.method_remotable msig;
    may_output_ifaces =
      (not (iface_walk_trivial ret_iface_proc))
      || List.exists2
           (fun p iproc -> p.Idl_type.pdir <> Idl_type.In && not (iface_walk_trivial iproc))
           msig.params iface_procs;
  }
