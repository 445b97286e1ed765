type t =
  | Unit
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Blob of int
  | Arr of t list
  | Struct of (string * t) list
  | Null
  | Ref of t
  | Iface_ref of int
  | Opaque_handle of string

let rec conforms ty v =
  match (ty, v) with
  | Idl_type.Void, Unit -> true
  | (Idl_type.Int32 | Idl_type.Int64), Int _ -> true
  | Idl_type.Double, Float _ -> true
  | Idl_type.Bool, Bool _ -> true
  | Idl_type.Str, Str _ -> true
  | Idl_type.Blob, Blob n -> n >= 0
  | Idl_type.Array elt, Arr vs -> List.for_all (conforms elt) vs
  | Idl_type.Struct fts, Struct fvs ->
      List.length fts = List.length fvs
      && List.for_all2
           (fun (fname, fty) (vname, fv) -> String.equal fname vname && conforms fty fv)
           fts fvs
  | Idl_type.Ptr _, Null -> true
  | Idl_type.Ptr pointee, Ref v -> conforms pointee v
  | Idl_type.Iface _, Iface_ref _ -> true
  | Idl_type.Iface _, Null -> true
  | Idl_type.Opaque _, Opaque_handle _ -> true
  | _, _ -> false

let rec iface_handles = function
  | Unit | Int _ | Float _ | Bool _ | Str _ | Blob _ | Null | Opaque_handle _ -> []
  | Iface_ref h -> [ h ]
  | Ref v -> iface_handles v
  | Arr vs -> List.concat_map iface_handles vs
  | Struct fvs -> List.concat_map (fun (_, v) -> iface_handles v) fvs

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.pp_print_float ppf f
  | Bool b -> Format.pp_print_bool ppf b
  | Str s -> Format.fprintf ppf "%S" s
  | Blob n -> Format.fprintf ppf "blob(%d)" n
  | Arr vs ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
        vs
  | Struct fvs ->
      Format.fprintf ppf "{@[%a@]}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           (fun ppf (name, v) -> Format.fprintf ppf "%s=%a" name pp v))
        fvs
  | Null -> Format.pp_print_string ppf "null"
  | Ref v -> Format.fprintf ppf "&%a" pp v
  | Iface_ref h -> Format.fprintf ppf "iface#%d" h
  | Opaque_handle tag -> Format.fprintf ppf "opaque<%s>" tag
