open Coign_idl

type handler = Runtime.ctx -> Value.t list -> Value.t

let missing : handler = fun _ _ -> assert false

let iface itype handlers =
  let n = Itype.method_count itype in
  let table = Array.make n missing in
  List.iter
    (fun (mname, h) ->
      match Itype.method_index itype mname with
      | i ->
          if table.(i) != missing then
            invalid_arg
              (Printf.sprintf "Combuild.iface: duplicate handler %s.%s" (Itype.name itype) mname);
          table.(i) <- h
      | exception Not_found ->
          invalid_arg
            (Printf.sprintf "Combuild.iface: %s has no method %S" (Itype.name itype) mname))
    handlers;
  Array.iteri
    (fun i h ->
      if h == missing then
        invalid_arg
          (Printf.sprintf "Combuild.iface: missing handler for %s.%s" (Itype.name itype)
             (Itype.method_sig itype i).Idl_type.mname))
    table;
  let dispatch ctx ~meth args = table.(meth) ctx args in
  (itype, dispatch)

let arg_error what pos =
  Hresult.fail
    (Hresult.E_invalidarg (Printf.sprintf "expected %s at argument %d" what pos))

(* A top-level walk: fetching an argument builds no option. *)
let rec nth_from args pos i =
  match args with
  | [] -> arg_error "argument" pos
  | v :: rest -> if i = 0 then v else nth_from rest pos (i - 1)

let nth args pos = if pos < 0 then arg_error "argument" pos else nth_from args pos pos

let get_int args pos =
  match nth args pos with Value.Int i -> i | _ -> arg_error "int" pos

let get_str args pos =
  match nth args pos with Value.Str s -> s | _ -> arg_error "string" pos

let get_blob args pos =
  match nth args pos with Value.Blob n -> n | _ -> arg_error "blob" pos

let get_iface args pos =
  match nth args pos with Value.Iface_ref h -> h | _ -> arg_error "interface" pos

let get_bool args pos =
  match nth args pos with Value.Bool b -> b | _ -> arg_error "bool" pos
