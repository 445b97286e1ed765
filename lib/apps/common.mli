(** Shared substrate for the application suite: the interface types
    every application uses, a virtual file system, and the storage
    server component through which all file access flows.

    In the paper's experiments "data files are placed on the server"
    for every distribution; we model that by routing all file I/O
    through a [Storage.FileServer] component whose code references the
    storage APIs, so static analysis pins it (and therefore the data)
    to the server. *)

open Coign_com

(** {1 Interface types}

    Each interface comes with the slots of the methods applications
    call on it, named [<interface>_<method>] and resolved once with
    {!Itype.slot}, for {!Runtime.call_slot}. *)

val i_blob_sink : Itype.t
(** [put(blob)], [finish() -> int]. Remotable bulk-transfer sink. *)

val blob_sink_put : Itype.slot
val blob_sink_finish : Itype.slot

val i_query : Itype.t
(** [query(key) -> str], [query_int(key) -> int]. Small lookups. *)

val query_query : Itype.slot
val query_query_int : Itype.slot

val i_notify : Itype.t
(** [notify(code)], [notify_str(text)]. Event pushes. *)

val notify_notify : Itype.slot
val notify_notify_str : Itype.slot

val i_paint : Itype.t
(** [paint(hdc)] with an opaque device-context handle — NON-remotable;
    the GUI plumbing of all three applications runs over this, which is
    why their interface graphs show webs of solid black lines. Also
    [invalidate(x0,y0,x1,y1)]. *)

val paint_paint : Itype.slot

val i_control : Itype.t
(** [attach(parent: INotify ptr)], [enable(bool)], [click()],
    [set_label(str)]. Remotable control surface of widgets. *)

val control_attach : Itype.slot
val control_enable : Itype.slot
val control_click : Itype.slot
val control_set_label : Itype.slot

val i_render : Itype.t
(** [render_page(page, data: blob)], [scroll(line)],
    [attach_surface(surface: IPaint ptr)] — how document engines hand
    finished page images to the GUI canvas and register surfaces the
    window repaints (over the non-remotable paint path, which is what
    ties visible surfaces to the client). Remotable. *)

val render_render_page : Itype.slot
val render_attach_surface : Itype.slot

(** {1 Virtual file system} *)

module Vfs : sig
  val add : Runtime.ctx -> name:string -> bytes:int -> unit
  (** Register a file and its size for the context's file server. *)

end

(** {1 Storage server} *)

val file_server_class_name : string

val file_server : Runtime.component_class
(** Exposes [IFileRead]: [open_file(name) -> int], [file_size(fh) ->
    int], [read_block(fh, offset, size) -> blob], [read_all(name) ->
    blob]. References storage APIs. Reading charges compute
    proportional to the bytes touched. *)

val file_read_open_file : Itype.slot
val file_read_file_size : Itype.slot
val file_read_read_block : Itype.slot
val file_read_read_all : Itype.slot

val create_file_server : Runtime.ctx -> Runtime.handle
(** Instantiate the file server and return its [IFileRead]. *)

(** {1 Small helpers} *)

val call_ret_int : Runtime.ctx -> Runtime.handle -> Itype.slot -> Coign_idl.Value.t list -> int
(** {!Runtime.call_slot} expecting an [Int] return; any other raises
    [Com_error (E_fail _)]. *)

val call_ret_blob : Runtime.ctx -> Runtime.handle -> Itype.slot -> Coign_idl.Value.t list -> int
val call_ret_str : Runtime.ctx -> Runtime.handle -> Itype.slot -> Coign_idl.Value.t list -> string

val create : Runtime.ctx -> Runtime.component_class -> Itype.t -> Runtime.handle
(** [create ctx cls itype] = [create_instance] by the class's CLSID. *)
