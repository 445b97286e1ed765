open Coign_idl

type t = {
  iid : Guid.t;
  iname : string;
  methods : Idl_type.method_sig array;
  procs : Midl.method_procs array;  (* pruned once, per method *)
  remotable : bool;
}

let declare iname methods =
  let methods = Array.of_list methods in
  {
    iid = Guid.of_name ("IID_" ^ iname);
    iname;
    methods;
    procs = Array.map Midl.compile_method methods;
    remotable = Array.for_all Idl_type.method_remotable methods;
  }

let iid t = t.iid
let name t = t.iname
let method_count t = Array.length t.methods

let method_sig t i =
  if i < 0 || i >= Array.length t.methods then
    invalid_arg (Printf.sprintf "Itype.method_sig: %s has no method %d" t.iname i);
  t.methods.(i)

(* Top level, not a local closure: every named call lands here. *)
let rec find_method methods mname i =
  if i >= Array.length methods then raise Not_found
  else if String.equal methods.(i).Idl_type.mname mname then i
  else find_method methods mname (i + 1)

let method_index t mname = find_method t.methods mname 0

type slot = { slot_itype : t; slot_index : int }

let slot t mname = { slot_itype = t; slot_index = method_index t mname }

let procs t i =
  if i < 0 || i >= Array.length t.procs then
    invalid_arg (Printf.sprintf "Itype.procs: %s has no method %d" t.iname i);
  t.procs.(i)

let remotable t = t.remotable
