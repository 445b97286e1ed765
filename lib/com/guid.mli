(** Globally unique identifiers for component classes (CLSIDs) and
    interface types (IIDs).

    Real COM GUIDs are 128-bit random values; ours are derived
    deterministically from registered names so that profiles, config
    records, and test expectations are stable across runs. *)

type t

val of_name : string -> t
(** Deterministic GUID for a name. Equal names give equal GUIDs;
    distinct names collide with negligible probability (128-bit FNV-ish
    folding). *)

val equal : t -> t -> bool
val hash : t -> int

val name : t -> string
(** The registered name the GUID was derived from (Coign keeps the
    name as debugging metadata; identity is the numeric value). *)

val to_string : t -> string
(** Canonical ["{XXXXXXXX-XXXX-...}"] rendering. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
