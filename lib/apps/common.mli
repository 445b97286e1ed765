(** Shared substrate for the application suite: the interface types
    every application uses, a virtual file system, and the storage
    server component through which all file access flows.

    In the paper's experiments "data files are placed on the server"
    for every distribution; we model that by routing all file I/O
    through a [Storage.FileServer] component whose code references the
    storage APIs, so static analysis pins it (and therefore the data)
    to the server. *)

open Coign_com

(** {1 Interface types} *)

val i_blob_sink : Itype.t
(** [put(blob)], [finish() -> int]. Remotable bulk-transfer sink. *)

val i_query : Itype.t
(** [query(key) -> str], [query_int(key) -> int]. Small lookups. *)

val i_notify : Itype.t
(** [notify(code)], [notify_str(text)]. Event pushes. *)

val i_paint : Itype.t
(** [paint(hdc)] with an opaque device-context handle — NON-remotable;
    the GUI plumbing of all three applications runs over this, which is
    why their interface graphs show webs of solid black lines. Also
    [invalidate(x0,y0,x1,y1)]. *)

val i_control : Itype.t
(** [attach(parent: INotify ptr)], [enable(bool)], [click()],
    [set_label(str)]. Remotable control surface of widgets. *)

val i_render : Itype.t
(** [render_page(page, data: blob)], [scroll(line)],
    [attach_surface(surface: IPaint ptr)] — how document engines hand
    finished page images to the GUI canvas and register surfaces the
    window repaints (over the non-remotable paint path, which is what
    ties visible surfaces to the client). Remotable. *)

(** {1 Virtual file system} *)

module Vfs : sig
  val add : Runtime.ctx -> name:string -> bytes:int -> unit
  (** Register a file and its size for the context's file server. *)

  val size : Runtime.ctx -> string -> int
  (** Raises [Com_error (E_fail _)] for a missing file. *)

  val exists : Runtime.ctx -> string -> bool
end

(** {1 Storage server} *)

val file_server_class_name : string

val file_server : Runtime.component_class
(** Exposes {!i_file_read}; references storage APIs. Reading charges
    compute proportional to the bytes touched. *)

val create_file_server : Runtime.ctx -> Runtime.handle
(** Instantiate the file server and return its {!i_file_read}. *)

(** {1 Small helpers} *)

val call : Runtime.ctx -> Runtime.handle -> string -> Coign_idl.Value.t list -> Coign_idl.Value.t
(** [call_named] keeping only the return value. *)

val call_ret_int : Runtime.ctx -> Runtime.handle -> string -> Coign_idl.Value.t list -> int
val call_ret_blob : Runtime.ctx -> Runtime.handle -> string -> Coign_idl.Value.t list -> int
val call_ret_str : Runtime.ctx -> Runtime.handle -> string -> Coign_idl.Value.t list -> string

val create : Runtime.ctx -> Runtime.component_class -> Itype.t -> Runtime.handle
(** [create ctx cls itype] = [create_instance] by the class's CLSID. *)
