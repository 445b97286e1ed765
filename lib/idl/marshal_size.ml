type error =
  | Not_remotable of string
  | Type_mismatch of { expected : Idl_type.t; got : Value.t }

(* Sizes follow NDR-ish conventions: 4-byte length prefixes, 4-byte
   null-flags for unique pointers, 8-byte alignment ignored (we model
   payload, not padding). OBJREF size approximates DCOM's standard
   marshaled interface reference. *)
let scalar_overhead = 48
let objref_size = 68
let len_prefix = 4
let ptr_flag = 4

exception Err of error

(* The profiling informer sizes every parameter of every intercepted
   call with this walk ([Informer.measure_call]). It returns plain ints
   and signals failure through [Err]: no [Ok]/[Error] cells, no fold
   closures, no [List.length] pre-passes — the success path does not
   touch the minor heap (a tested property). *)

let rec same_length a b =
  match (a, b) with
  | [], [] -> true
  | _ :: a, _ :: b -> same_length a b
  | _, _ -> false

let rec value_size_exn ty v =
  match (ty, v) with
  | Idl_type.Void, Value.Unit -> 0
  | Idl_type.Int32, Value.Int _ -> 4
  | Idl_type.Int64, Value.Int _ -> 8
  | Idl_type.Double, Value.Float _ -> 8
  | Idl_type.Bool, Value.Bool _ -> 4
  | Idl_type.Str, Value.Str s -> len_prefix + String.length s
  | Idl_type.Blob, Value.Blob n when n >= 0 -> len_prefix + n
  | Idl_type.Array elt, Value.Arr vs -> len_prefix + array_size elt vs 0
  | Idl_type.Struct fts, Value.Struct fvs when same_length fts fvs ->
      struct_size ty v fts fvs 0
  | Idl_type.Ptr _, Value.Null -> ptr_flag
  | Idl_type.Ptr pointee, Value.Ref inner ->
      ptr_flag + value_size_exn pointee inner
  | Idl_type.Iface _, Value.Iface_ref _ -> objref_size
  | Idl_type.Iface _, Value.Null -> ptr_flag
  | Idl_type.Opaque tag, Value.Opaque_handle _ -> raise (Err (Not_remotable tag))
  | _, _ -> raise (Err (Type_mismatch { expected = ty; got = v }))

and array_size elt vs acc =
  match vs with
  | [] -> acc
  | v :: tl -> array_size elt tl (acc + value_size_exn elt v)

(* [ty]/[v] are the enclosing struct, carried only for the mismatch
   payload: a field-name disagreement reports the whole struct. *)
and struct_size ty v fts fvs acc =
  match (fts, fvs) with
  | [], [] -> acc
  | (fname, fty) :: fts', (vname, fv) :: fvs' ->
      if String.equal fname vname then
        struct_size ty v fts' fvs' (acc + value_size_exn fty fv)
      else raise (Err (Type_mismatch { expected = ty; got = v }))
  | _, _ -> raise (Err (Type_mismatch { expected = ty; got = v }))
