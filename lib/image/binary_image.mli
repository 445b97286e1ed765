(** The application "binary" model.

    Stands in for a Win32 PE executable plus its DLLs: a named image
    with an ordered DLL import table, code/data sections, a per-component
    table of referenced system APIs (what Coign's static analysis scans
    to derive location constraints), and an optional appended
    configuration record. The whole image serializes to bytes so the
    CLI tools can pass applications through instrument → profile →
    analyze stages as files, exactly like the paper's toolchain. *)

type section = { sec_name : string; sec_size : int }

type t = {
  img_name : string;
  imports : string list;          (** DLL names, load order *)
  sections : section list;
  api_refs : (string * string list) list;
      (** component class name -> system APIs its code references *)
  config : Config_record.t option;
  meta : Image_meta.t option;
      (** static interface metadata for lint / flow analysis; [None] on
          images built before the metadata section existed *)
}

val create :
  name:string -> ?meta:Image_meta.t -> api_refs:(string * string list) list -> unit -> t
(** A fresh image importing [ole32.dll], [kernel32.dll] and
    [user32.dll], with a 64 KiB [.text] and a 16 KiB [.data] section and
    no config record. *)

val class_api_refs : t -> string -> string list
(** APIs referenced by a class; empty when unknown. *)

val encode : t -> string
val decode : string -> t
(** Raises {!Codec.Malformed}. Round-trips with [encode]. *)

val save : t -> string -> unit
(** Write the encoded image to a file path. *)

val load : string -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
