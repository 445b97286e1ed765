type t =
  | Void
  | Int32
  | Int64
  | Double
  | Bool
  | Str
  | Blob
  | Array of t
  | Struct of (string * t) list
  | Ptr of t
  | Iface of string
  | Opaque of string

type direction = In | Out | In_out

type param = { pname : string; pty : t; pdir : direction }

type method_sig = { mname : string; params : param list; ret : t }

let param ?(dir = In) pname pty = { pname; pty; pdir = dir }

let method_ ?(ret = Void) mname params = { mname; params; ret }

let rec remotable = function
  | Void | Int32 | Int64 | Double | Bool | Str | Blob | Iface _ -> true
  | Opaque _ -> false
  | Array t | Ptr t -> remotable t
  | Struct fields -> List.for_all (fun (_, t) -> remotable t) fields

let method_remotable m =
  remotable m.ret && List.for_all (fun p -> remotable p.pty) m.params

(* Cyclic values are possible through [let rec] bindings (the analog of
   a self-referential struct in an IDL file). The marshaler would
   recurse forever on one, so the static analyzer needs to detect them:
   walk the structure keeping the physical identities of the enclosing
   nodes; revisiting an ancestor block proves a cycle. Constant
   constructors are shared and can never be cyclic, so only the
   recursive blocks are tracked. *)
let finite ty =
  let rec go ancestors t =
    match t with
    | Void | Int32 | Int64 | Double | Bool | Str | Blob | Iface _ | Opaque _ -> true
    | Array u | Ptr u ->
        (not (List.memq t ancestors)) && go (t :: ancestors) u
    | Struct fields ->
        (not (List.memq t ancestors))
        && List.for_all (fun (_, u) -> go (t :: ancestors) u) fields
  in
  go [] ty

let rec contains_iface = function
  | Iface _ -> true
  | Void | Int32 | Int64 | Double | Bool | Str | Blob | Opaque _ -> false
  | Array t | Ptr t -> contains_iface t
  | Struct fields -> List.exists (fun (_, t) -> contains_iface t) fields

let rec pp ppf = function
  | Void -> Format.pp_print_string ppf "void"
  | Int32 -> Format.pp_print_string ppf "int32"
  | Int64 -> Format.pp_print_string ppf "int64"
  | Double -> Format.pp_print_string ppf "double"
  | Bool -> Format.pp_print_string ppf "bool"
  | Str -> Format.pp_print_string ppf "string"
  | Blob -> Format.pp_print_string ppf "blob"
  | Array t -> Format.fprintf ppf "%a[]" pp t
  | Struct fields ->
      Format.fprintf ppf "struct{@[%a@]}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           (fun ppf (name, t) -> Format.fprintf ppf "%s:%a" name pp t))
        fields
  | Ptr t -> Format.fprintf ppf "%a*" pp t
  | Iface name -> Format.fprintf ppf "%s*" name
  | Opaque tag -> Format.fprintf ppf "opaque<%s>" tag

