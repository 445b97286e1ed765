type t =
  | E_noclass of string
  | E_nointerface of string
  | E_invalidarg of string
  | E_pointer of string
  | E_fail of string
  | E_cannot_marshal of string
  | E_unreachable of string

exception Com_error of t

let fail e = raise (Com_error e)

let to_string = function
  | E_noclass s -> "E_NOCLASS: " ^ s
  | E_nointerface s -> "E_NOINTERFACE: " ^ s
  | E_invalidarg s -> "E_INVALIDARG: " ^ s
  | E_pointer s -> "E_POINTER: " ^ s
  | E_fail s -> "E_FAIL: " ^ s
  | E_cannot_marshal s -> "E_CANNOTMARSHAL: " ^ s
  | E_unreachable s -> "E_UNREACHABLE: " ^ s

let () =
  Printexc.register_printer (function
    | Com_error e -> Some ("Com_error (" ^ to_string e ^ ")")
    | _ -> None)
