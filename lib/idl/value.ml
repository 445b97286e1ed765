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
