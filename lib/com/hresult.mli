(** COM-style result codes.

    Failures in the component runtime raise {!Com_error}; the code set
    mirrors the HRESULTs Coign actually encounters (class lookup,
    interface negotiation, marshaling). *)

type t =
  | E_noclass of string        (** CLSID not in the registry *)
  | E_nointerface of string    (** [query_interface] refused *)
  | E_invalidarg of string
  | E_pointer of string        (** stale or foreign handle *)
  | E_fail of string
  | E_cannot_marshal of string (** call crossed machines over a
                                   non-remotable interface *)
  | E_unreachable of string    (** cross-machine call abandoned after
                                   exhausting its retry policy *)

exception Com_error of t

val fail : t -> 'a
(** Raise [Com_error]. *)

val to_string : t -> string
