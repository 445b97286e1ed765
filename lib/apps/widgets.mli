(** GUI widget kit.

    Octarine's GUI alone is "composed of literally hundreds of
    components"; PhotoDraw and the Benefits front-end likewise build
    their chrome from fine-grained controls. This kit stamps out
    per-application widget component classes (each referencing user32/
    gdi32 APIs, so static analysis pins them to the client) and helpers
    to build and repaint a window's chrome. All painting crosses the
    non-remotable {!Common.i_paint} interface — the webs of solid black
    lines in the paper's figures. *)

open Coign_com

type kit = {
  window : Runtime.component_class;   (** INotify + IPaint + IRender *)
  button : Runtime.component_class;   (** IControl + IPaint *)
  menu : Runtime.component_class;
  toolbar : Runtime.component_class;
  statusbar : Runtime.component_class;
  scrollbar : Runtime.component_class;
  tooltip : Runtime.component_class;
  dialog : Runtime.component_class;
}

val kit : prefix:string -> kit
(** Class names are ["<prefix>.Button"] etc. *)

val classes : kit -> Runtime.component_class list

val class_names : kit -> string list
(** Names of {!classes}, for [creates] annotations of classes that
    build chrome in their method bodies. *)

type chrome = {
  window_notify : Runtime.handle;   (** the window's INotify *)
  window_paint : Runtime.handle;
  window_render : Runtime.handle;   (** canvas surface for page images *)
  controls : Runtime.handle list;   (** IControl of every chrome widget *)
  paints : Runtime.handle list;     (** IPaint of every widget incl. window *)
}

val build_chrome :
  Runtime.ctx -> kit -> buttons:int -> menus:int -> extras:int -> chrome
(** Instantiate a main window plus [buttons] buttons, [menus] menus,
    one toolbar/status bar/two scrollbars, [extras] tooltips, and a
    dialog; attach every control to the window. *)

val gui_apis : string list
(** The user32/gdi32 API references every widget class carries. *)
