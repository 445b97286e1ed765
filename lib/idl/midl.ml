(* Compiled form: a flat array of opcodes interpreted against the value
   tree. Struct/array/pointer bodies are expressed by sub-programs
   referenced by index, which keeps the interpreter non-recursive over
   opcodes within one level and mirrors how format strings embed offsets
   to nested descriptors. *)

type op =
  | O_void
  | O_int32
  | O_int64
  | O_double
  | O_bool
  | O_counted_str
  | O_counted_blob
  | O_array of int            (* sub-program index for element *)
  | O_struct of int list      (* sub-program index per field *)
  | O_ptr of int              (* sub-program index for pointee *)
  | O_iface
  | O_opaque of string

type proc = { programs : op array; ty : Idl_type.t }

let compile ty =
  let programs = ref [] in
  let count = ref 0 in
  (* Returns the index of the compiled sub-program for [ty]. *)
  let rec go ty =
    let idx = !count in
    incr count;
    (* Reserve the slot before compiling children so indices are stable. *)
    programs := (idx, O_void) :: !programs;
    let op =
      match ty with
      | Idl_type.Void -> O_void
      | Idl_type.Int32 -> O_int32
      | Idl_type.Int64 -> O_int64
      | Idl_type.Double -> O_double
      | Idl_type.Bool -> O_bool
      | Idl_type.Str -> O_counted_str
      | Idl_type.Blob -> O_counted_blob
      | Idl_type.Array elt -> O_array (go elt)
      | Idl_type.Struct fields -> O_struct (List.map (fun (_, t) -> go t) fields)
      | Idl_type.Ptr pointee -> O_ptr (go pointee)
      | Idl_type.Iface _ -> O_iface
      | Idl_type.Opaque tag -> O_opaque tag
    in
    programs := (idx, op) :: List.remove_assoc idx !programs;
    idx
  in
  let root = go ty in
  assert (root = 0);
  let arr = Array.make !count O_void in
  List.iter (fun (i, op) -> arr.(i) <- op) !programs;
  { programs = arr; ty }

let rec same_length a b =
  match (a, b) with
  | [], [] -> true
  | _ :: a, _ :: b -> same_length a b
  | _, _ -> false

(* The interpreter the profiling informer runs on every intercepted
   call.  Like {!Marshal_size.value_size_exn} it returns plain ints and
   raises {!Marshal_size.Err}, so the success path is allocation-free:
   no result boxing, no fold closures, no length pre-passes. *)
let rec run_exn p idx v =
  match (p.programs.(idx), v) with
  | O_void, Value.Unit -> 0
  | O_int32, Value.Int _ -> 4
  | O_int64, Value.Int _ -> 8
  | O_double, Value.Float _ -> 8
  | O_bool, Value.Bool _ -> 4
  | O_counted_str, Value.Str s -> 4 + String.length s
  | O_counted_blob, Value.Blob n when n >= 0 -> 4 + n
  | O_array elt, Value.Arr vs -> 4 + run_array p elt vs 0
  | O_struct fields, Value.Struct fvs when same_length fields fvs ->
      run_struct p fields fvs 0
  | O_ptr _, Value.Null -> 4
  | O_ptr pointee, Value.Ref inner -> 4 + run_exn p pointee inner
  | O_iface, Value.Iface_ref _ -> Marshal_size.objref_size
  | O_iface, Value.Null -> 4
  | O_opaque tag, Value.Opaque_handle _ ->
      raise (Marshal_size.Err (Marshal_size.Not_remotable tag))
  | _, got ->
      raise (Marshal_size.Err (Marshal_size.Type_mismatch { expected = p.ty; got }))

and run_array p elt vs acc =
  match vs with
  | [] -> acc
  | v :: tl -> run_array p elt tl (acc + run_exn p elt v)

and run_struct p fields fvs acc =
  match (fields, fvs) with
  | [], [] -> acc
  | fidx :: fields', (_, fv) :: fvs' ->
      run_struct p fields' fvs' (acc + run_exn p fidx fv)
  | _, _ -> assert false (* guarded by [same_length] *)

let size_with_exn p v = run_exn p 0 v

let size_with p v =
  match run_exn p 0 v with
  | n -> Ok n
  | exception Marshal_size.Err e -> Error e

(* Interface-pointer walk: retain only paths that can reach an Iface.
   Paths that cannot are compiled to Skip, so the distribution informer
   touches the minimum number of value nodes. *)
type iop =
  | I_skip
  | I_take                     (* this position is an interface pointer *)
  | I_array of int
  | I_struct of (int * int) list  (* (field position, sub-program) for
                                     fields that can carry ifaces *)
  | I_ptr of int

type iface_proc = { iprograms : iop array }

let compile_iface_walk ty =
  let programs = ref [] in
  let count = ref 0 in
  let rec go ty =
    let idx = !count in
    incr count;
    programs := (idx, I_skip) :: !programs;
    let op =
      match ty with
      | Idl_type.Iface _ -> I_take
      | Idl_type.Array elt ->
          if Idl_type.contains_iface elt then I_array (go elt) else I_skip
      | Idl_type.Struct fields ->
          let interesting =
            List.filteri (fun _ (_, t) -> Idl_type.contains_iface t) fields
          in
          if interesting = [] then I_skip
          else
            I_struct
              (List.concat
                 (List.mapi
                    (fun pos (_, t) ->
                      if Idl_type.contains_iface t then [ (pos, go t) ] else [])
                    fields))
      | Idl_type.Ptr pointee ->
          if Idl_type.contains_iface pointee then I_ptr (go pointee) else I_skip
      | Idl_type.Void | Idl_type.Int32 | Idl_type.Int64 | Idl_type.Double
      | Idl_type.Bool | Idl_type.Str | Idl_type.Blob | Idl_type.Opaque _ ->
          I_skip
    in
    programs := (idx, op) :: List.remove_assoc idx !programs;
    idx
  in
  let root = go ty in
  assert (root = 0);
  let arr = Array.make !count I_skip in
  List.iter (fun (i, op) -> arr.(i) <- op) !programs;
  { iprograms = arr }

let iface_walk_trivial p = p.iprograms.(0) = I_skip

(* The walk rebuilds only the spine above a handle [f] changed: an
   unchanged subtree comes back physically equal, so a reply whose
   handles all map to themselves allocates nothing. Fields and elements
   are visited left to right, the order the RTE mints wrappers in. *)
let rec map_run p f env idx v =
  match (p.iprograms.(idx), v) with
  | I_take, Value.Iface_ref h ->
      let h' = f env h in
      if h' = h then v else Value.Iface_ref h'
  | I_array elt, Value.Arr vs ->
      let vs' = map_elements p f env elt vs in
      if vs' == vs then v else Value.Arr vs'
  | I_struct fields, Value.Struct fvs ->
      let fvs' = map_fields p f env fields 0 fvs in
      if fvs' == fvs then v else Value.Struct fvs'
  | I_ptr sub, Value.Ref inner ->
      let inner' = map_run p f env sub inner in
      if inner' == inner then v else Value.Ref inner'
  | (I_skip | I_take | I_array _ | I_struct _ | I_ptr _), _ -> v

and map_elements p f env elt vs =
  match vs with
  | [] -> vs
  | x :: tl ->
      let x' = map_run p f env elt x in
      let tl' = map_elements p f env elt tl in
      if x' == x && tl' == tl then vs else x' :: tl'

(* [fields] lists the (position, sub-program) of the fields that can
   carry interfaces, ascending; [pos] is the position of [fvs]'s head. *)
and map_fields p f env fields pos fvs =
  match (fields, fvs) with
  | [], _ | _, [] -> fvs
  | (fpos, sub) :: fields', ((name, fv) as field) :: fvs' ->
      if fpos = pos then
        let fv' = map_run p f env sub fv in
        let fvs'' = map_fields p f env fields' (pos + 1) fvs' in
        if fv' == fv && fvs'' == fvs' then fvs
        else (if fv' == fv then field else (name, fv')) :: fvs''
      else
        let fvs'' = map_fields p f env fields (pos + 1) fvs' in
        if fvs'' == fvs' then fvs else field :: fvs''

let map_handles_with p f env v = map_run p f env 0 v

let handles_with p v =
  let acc = ref [] in
  ignore
    (map_handles_with p
       (fun acc h ->
         acc := h :: !acc;
         h)
       acc v);
  List.rev !acc

type method_procs = {
  request_procs : (Idl_type.direction * proc) list;
  ret_proc : proc;
  iface_procs : iface_proc list;
  ret_iface_proc : iface_proc;
  remotable : bool;
  may_output_ifaces : bool;
}

let compile_method (msig : Idl_type.method_sig) =
  let iface_procs = List.map (fun p -> compile_iface_walk p.Idl_type.pty) msig.params in
  let ret_iface_proc = compile_iface_walk msig.ret in
  {
    request_procs = List.map (fun p -> (p.Idl_type.pdir, compile p.pty)) msig.params;
    ret_proc = compile msig.ret;
    iface_procs;
    ret_iface_proc;
    remotable = Idl_type.method_remotable msig;
    may_output_ifaces =
      (not (iface_walk_trivial ret_iface_proc))
      || List.exists2
           (fun p iproc -> p.Idl_type.pdir <> Idl_type.In && not (iface_walk_trivial iproc))
           msig.params iface_procs;
  }

let rec call_size_exn req rep ps vs =
  match (ps, vs) with
  | [], [] -> (req, rep)
  | (dir, proc) :: ps', v :: vs' -> (
      let s = run_exn proc 0 v in
      match dir with
      | Idl_type.In -> call_size_exn (req + s) rep ps' vs'
      | Idl_type.Out -> call_size_exn req (rep + s) ps' vs'
      | Idl_type.In_out -> call_size_exn (req + s) (rep + s) ps' vs')
  | _, _ -> assert false (* guarded by [same_length] *)

let method_call_size procs ~args ~result =
  if not (same_length args procs.request_procs) then
    Error
      (Marshal_size.Type_mismatch { expected = Idl_type.Void; got = Value.Arr args })
  else
    match
      let req, rep = call_size_exn 0 0 procs.request_procs args in
      let ret = run_exn procs.ret_proc 0 result in
      {
        Marshal_size.request = Marshal_size.scalar_overhead + req;
        reply = Marshal_size.scalar_overhead + rep + ret;
      }
    with
    | cs -> Ok cs
    | exception Marshal_size.Err e -> Error e
