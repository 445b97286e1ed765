open Coign_idl
open Coign_com

(* ---------------------------------------------------------------- *)
(* Tuning constants                                                  *)
(* ---------------------------------------------------------------- *)

let text_page_raw = 30_000
let text_page_parsed = 28_500
let page_summary_bytes = 120
let prefetch_window = 15
let paras_per_page = 5

let table_page_raw = 200_000
let rows_per_page = 25
let table_row_parsed = 7_600
let full_fetch_rows = 130
let view_window_rows = 100

let mixed_table_raw = 10_000
let mixed_table_rows = 5
let mixed_row_parsed = 1_800

let negotiation_rounds = 8
let props_bytes_per_page = 1_200

let chg ctx us = Runtime.charge ctx ~us

(* ---------------------------------------------------------------- *)
(* Document specs (what the virtual files contain)                   *)
(* ---------------------------------------------------------------- *)

type doc_kind = K_text | K_table | K_mixed | K_music

type spec = { d_kind : doc_kind; d_pages : int; d_tables : int }

let specs_key : (string, spec) Hashtbl.t Runtime.key = Runtime.new_key ()

let specs ctx =
  match Runtime.get_data ctx specs_key with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 8 in
      Runtime.set_data ctx specs_key t;
      t

let raw_size spec =
  match spec.d_kind with
  | K_text -> spec.d_pages * text_page_raw
  | K_table -> spec.d_pages * table_page_raw
  | K_mixed -> (spec.d_pages * text_page_raw) + (spec.d_tables * mixed_table_raw)
  | K_music -> spec.d_pages * 8_000

let register_doc ctx name spec =
  Hashtbl.replace (specs ctx) name spec;
  Common.Vfs.add ctx ~name ~bytes:(raw_size spec)

let spec_of ctx name =
  match Hashtbl.find_opt (specs ctx) name with
  | Some s -> s
  | None -> Hresult.fail (Hresult.E_fail ("Octarine: unknown document " ^ name))

let kind_name = function
  | K_text -> "text"
  | K_table -> "table"
  | K_mixed -> "mixed"
  | K_music -> "music"

(* ---------------------------------------------------------------- *)
(* Interfaces                                                        *)
(* ---------------------------------------------------------------- *)

let i_doc_app =
  Itype.declare "IOctApp"
    [
      Idl_type.method_ "startup" [];
      Idl_type.method_ ~ret:(Idl_type.Iface "IDocument") "open_document"
        [ Idl_type.param "name" Idl_type.Str ];
      Idl_type.method_ ~ret:(Idl_type.Iface "IDocument") "new_document"
        [ Idl_type.param "kind" Idl_type.Str ];
      Idl_type.method_ "repaint" [];
      Idl_type.method_ "click" [ Idl_type.param "control" Idl_type.Int32 ];
      Idl_type.method_ "shutdown" [];
    ]

let doc_app_startup = Itype.slot i_doc_app "startup"
let doc_app_open_document = Itype.slot i_doc_app "open_document"
let doc_app_new_document = Itype.slot i_doc_app "new_document"
let doc_app_repaint = Itype.slot i_doc_app "repaint"
let doc_app_click = Itype.slot i_doc_app "click"
let doc_app_shutdown = Itype.slot i_doc_app "shutdown"

let i_document =
  Itype.declare "IDocument"
    [
      Idl_type.method_ "init"
        [
          Idl_type.param "src" (Idl_type.Iface "IDocSource");
          Idl_type.param "render" (Idl_type.Iface "IRender");
        ];
      Idl_type.method_ "show_page" [ Idl_type.param "page" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Int32 "page_count" [];
      Idl_type.method_ "add_fragment" [ Idl_type.param "kind" Idl_type.Str ];
    ]

let document_init = Itype.slot i_document "init"
let document_show_page = Itype.slot i_document "show_page"
let document_add_fragment = Itype.slot i_document "add_fragment"

let i_doc_source =
  Itype.declare "IDocSource"
    [
      Idl_type.method_ ~ret:Idl_type.Int32 "open_doc" [ Idl_type.param "name" Idl_type.Str ];
      Idl_type.method_ ~ret:Idl_type.Int32 "page_count" [];
      Idl_type.method_ ~ret:Idl_type.Str "doc_kind" [];
      Idl_type.method_ ~ret:Idl_type.Int32 "table_count" [];
      Idl_type.method_ ~ret:Idl_type.Blob "read_page" [ Idl_type.param "page" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Blob "reflow_page" [ Idl_type.param "page" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Blob "read_table" [ Idl_type.param "index" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Blob "page_summary" [ Idl_type.param "page" Idl_type.Int32 ];
      Idl_type.method_ ~ret:(Idl_type.Iface "IQuery") "props" [];
    ]

let doc_source_open_doc = Itype.slot i_doc_source "open_doc"
let doc_source_page_count = Itype.slot i_doc_source "page_count"
let doc_source_doc_kind = Itype.slot i_doc_source "doc_kind"
let doc_source_table_count = Itype.slot i_doc_source "table_count"
let doc_source_read_page = Itype.slot i_doc_source "read_page"
let doc_source_reflow_page = Itype.slot i_doc_source "reflow_page"
let doc_source_read_table = Itype.slot i_doc_source "read_table"
let doc_source_page_summary = Itype.slot i_doc_source "page_summary"
let doc_source_props = Itype.slot i_doc_source "props"

let i_story =
  Itype.declare "IStory"
    [
      Idl_type.method_ "init"
        [
          Idl_type.param "src" (Idl_type.Iface "IDocSource");
          Idl_type.param "render" (Idl_type.Iface "IRender");
          Idl_type.param "props" (Idl_type.Iface "IQuery");
        ];
      Idl_type.method_ ~ret:Idl_type.Int32 "load" [ Idl_type.param "pages" Idl_type.Int32 ];
      Idl_type.method_ "show_page" [ Idl_type.param "page" Idl_type.Int32 ];
      Idl_type.method_ "type_text" [ Idl_type.param "data" Idl_type.Blob ];
      Idl_type.method_ ~ret:(Idl_type.Iface "IParagraph") "paragraph"
        [ Idl_type.param "index" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Int32 "paragraph_count" [];
    ]

let story_init = Itype.slot i_story "init"
let story_load = Itype.slot i_story "load"
let story_show_page = Itype.slot i_story "show_page"
let story_type_text = Itype.slot i_story "type_text"
let story_paragraph = Itype.slot i_story "paragraph"
let story_paragraph_count = Itype.slot i_story "paragraph_count"

let i_paragraph =
  Itype.declare "IParagraph"
    [
      Idl_type.method_ "set_text" [ Idl_type.param "data" Idl_type.Blob ];
      Idl_type.method_ ~ret:Idl_type.Int32 "layout"
        [
          Idl_type.param "width" Idl_type.Int32;
          Idl_type.param "props" (Idl_type.Iface "IQuery");
        ];
      Idl_type.method_ ~ret:Idl_type.Int32 "measure" [];
      Idl_type.method_ ~ret:Idl_type.Blob "line_boxes" [];
    ]

let paragraph_set_text = Itype.slot i_paragraph "set_text"
let paragraph_layout = Itype.slot i_paragraph "layout"
let paragraph_measure = Itype.slot i_paragraph "measure"
let paragraph_line_boxes = Itype.slot i_paragraph "line_boxes"

let i_run =
  Itype.declare "ITextRun"
    [
      Idl_type.method_ "set_text" [ Idl_type.param "data" Idl_type.Blob ];
      Idl_type.method_ ~ret:Idl_type.Int32 "metrics"
        [ Idl_type.param "props" (Idl_type.Iface "IQuery") ];
    ]

let run_set_text = Itype.slot i_run "set_text"
let run_metrics = Itype.slot i_run "metrics"

let i_breaker =
  Itype.declare "ILineBreaker"
    [ Idl_type.method_ ~ret:Idl_type.Int32 "break_lines" [ Idl_type.param "data" Idl_type.Blob ] ]

let breaker_break_lines = Itype.slot i_breaker "break_lines"

let i_layout =
  Itype.declare "IPageLayout"
    [
      Idl_type.method_ "init" [ Idl_type.param "render" (Idl_type.Iface "IRender") ];
      Idl_type.method_ "begin_page" [ Idl_type.param "page" Idl_type.Int32 ];
      Idl_type.method_ "add_text" [ Idl_type.param "data" Idl_type.Blob ];
      Idl_type.method_ "finish" [ Idl_type.param "page" Idl_type.Int32 ];
    ]

let layout_init = Itype.slot i_layout "init"
let layout_begin_page = Itype.slot i_layout "begin_page"
let layout_add_text = Itype.slot i_layout "add_text"
let layout_finish = Itype.slot i_layout "finish"

let i_table_model =
  Itype.declare "ITableModel"
    [
      Idl_type.method_ "init"
        [
          Idl_type.param "src" (Idl_type.Iface "IDocSource");
          Idl_type.param "index" Idl_type.Int32;
        ];
      Idl_type.method_ ~ret:Idl_type.Int32 "load" [];
      Idl_type.method_ ~ret:Idl_type.Int32 "row_count" [];
      Idl_type.method_ ~ret:Idl_type.Blob "fetch_rows"
        [ Idl_type.param "start" Idl_type.Int32; Idl_type.param "count" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Int32 "cell_probe" [ Idl_type.param "row" Idl_type.Int32 ];
      Idl_type.method_ "append_row" [ Idl_type.param "data" Idl_type.Blob ];
    ]

let table_model_init = Itype.slot i_table_model "init"
let table_model_load = Itype.slot i_table_model "load"
let table_model_row_count = Itype.slot i_table_model "row_count"
let table_model_fetch_rows = Itype.slot i_table_model "fetch_rows"
let table_model_cell_probe = Itype.slot i_table_model "cell_probe"
let table_model_append_row = Itype.slot i_table_model "append_row"

let i_table_view =
  Itype.declare "ITableView"
    [
      Idl_type.method_ "init"
        [
          Idl_type.param "model" (Idl_type.Iface "ITableModel");
          Idl_type.param "render" (Idl_type.Iface "IRender");
        ];
      Idl_type.method_ "show" [ Idl_type.param "page" Idl_type.Int32 ];
    ]

let table_view_init = Itype.slot i_table_view "init"
let table_view_show = Itype.slot i_table_view "show"

let i_placement =
  Itype.declare "IPlacement"
    [
      Idl_type.method_ "set_source"
        [
          Idl_type.param "src" (Idl_type.Iface "IDocSource");
          Idl_type.param "props" (Idl_type.Iface "IQuery");
        ];
      Idl_type.method_ "add_paragraph" [ Idl_type.param "para" (Idl_type.Iface "IParagraph") ];
      Idl_type.method_ "add_table" [ Idl_type.param "model" (Idl_type.Iface "ITableModel") ];
      Idl_type.method_ ~ret:Idl_type.Int32 "negotiate"
        [ Idl_type.param "rounds" Idl_type.Int32; Idl_type.param "pages" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Blob "commit" [];
    ]

let placement_set_source = Itype.slot i_placement "set_source"
let placement_add_paragraph = Itype.slot i_placement "add_paragraph"
let placement_add_table = Itype.slot i_placement "add_table"
let placement_negotiate = Itype.slot i_placement "negotiate"
let placement_commit = Itype.slot i_placement "commit"

let i_music =
  Itype.declare "IMusicSheet"
    [
      Idl_type.method_ "init" [ Idl_type.param "render" (Idl_type.Iface "IRender") ];
      Idl_type.method_ ~ret:(Idl_type.Iface "IMusicStaff") "add_staff" [];
      Idl_type.method_ "compose" [ Idl_type.param "page" Idl_type.Int32 ];
    ]

let music_init = Itype.slot i_music "init"
let music_add_staff = Itype.slot i_music "add_staff"
let music_compose = Itype.slot i_music "compose"

let i_music_staff =
  Itype.declare "IMusicStaff"
    [
      Idl_type.method_ "add_note"
        [ Idl_type.param "pitch" Idl_type.Int32; Idl_type.param "duration" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Int32 "layout_staff" [];
    ]

let music_staff_add_note = Itype.slot i_music_staff "add_note"
let music_staff_layout_staff = Itype.slot i_music_staff "layout_staff"

let i_container =
  Itype.declare "IContainer"
    [
      Idl_type.method_ "set_context"
        [
          Idl_type.param "factory" (Idl_type.Iface "IWidgetFactory");
          Idl_type.param "parent" (Idl_type.Iface "INotify");
          Idl_type.param "self" (Idl_type.Iface "IContainer");
        ];
      Idl_type.method_ ~ret:Idl_type.Int32 "populate" [ Idl_type.param "count" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Int32 "adorn" [];
      Idl_type.method_ ~ret:Idl_type.Int32 "refresh" [];
    ]

let container_set_context = Itype.slot i_container "set_context"
let container_populate = Itype.slot i_container "populate"
let container_adorn = Itype.slot i_container "adorn"
let container_refresh = Itype.slot i_container "refresh"

let i_widget_factory =
  Itype.declare "IWidgetFactory"
    [
      Idl_type.method_ ~ret:(Idl_type.Iface "IControl") "make" [ Idl_type.param "kind" Idl_type.Str ];
      Idl_type.method_ ~ret:(Idl_type.Iface "IContainer") "make_pane"
        [ Idl_type.param "kind" Idl_type.Str ];
    ]

let widget_factory_make = Itype.slot i_widget_factory "make"
let widget_factory_make_pane = Itype.slot i_widget_factory "make_pane"

let i_undo =
  Itype.declare "IUndoManager"
    [
      Idl_type.method_ "record_edit"
        [ Idl_type.param "kind" Idl_type.Str; Idl_type.param "data" Idl_type.Blob ];
      Idl_type.method_ ~ret:Idl_type.Int32 "undo" [];
      Idl_type.method_ ~ret:Idl_type.Int32 "depth" [];
    ]

let undo_record_edit = Itype.slot i_undo "record_edit"

let i_spell =
  Itype.declare "ISpellChecker"
    [ Idl_type.method_ ~ret:Idl_type.Int32 "check_text" [ Idl_type.param "data" Idl_type.Blob ] ]

let spell_check_text = Itype.slot i_spell "check_text"

let i_style_gallery =
  Itype.declare "IStyleGallery"
    [
      Idl_type.method_ ~ret:Idl_type.Int32 "load_template" [ Idl_type.param "data" Idl_type.Blob ];
      Idl_type.method_ ~ret:Idl_type.Str "style_of" [ Idl_type.param "name" Idl_type.Str ];
    ]

let style_gallery_load_template = Itype.slot i_style_gallery "load_template"
let style_gallery_style_of = Itype.slot i_style_gallery "style_of"

(* ---------------------------------------------------------------- *)
(* GUI                                                               *)
(* ---------------------------------------------------------------- *)

let kit = Widgets.kit ~prefix:"Octarine"

(* All chrome widgets are minted through a three-stage chain of shared
   singleton services (factory -> theme -> constructor), so the frames
   nearest a widget's instantiation are always the same three service
   calls: a shallow stack walk cannot tell a toolbar button from a
   nested menu item — only a walk deep enough to reach the requesting
   container can (the mechanism behind Table 3). *)
let c_control_constructor =
  Runtime.define_class "Octarine.ControlConstructor"
    ~creates:
      [ "Octarine.Menu"; "Octarine.Tooltip"; "Octarine.Button"; "Octarine.MenuPane" ]
    (fun _ctx _self ->
      let make ctx args =
        let ctl =
          match Combuild.get_str args 0 with
          | "menuitem" -> Common.create ctx kit.Widgets.menu Common.i_control
          | "tooltip" -> Common.create ctx kit.Widgets.tooltip Common.i_control
          | "button" -> Common.create ctx kit.Widgets.button Common.i_control
          | other -> Hresult.fail (Hresult.E_invalidarg ("ControlConstructor: " ^ other))
        in
        chg ctx 10.;
        Value.Iface_ref ctl
      in
      let make_pane ctx args =
        let pane =
          match Combuild.get_str args 0 with
          | "menupane" ->
              Runtime.create_instance ctx (Guid.of_name "CLSID_Octarine.MenuPane")
                ~iid:(Itype.iid i_container)
          | other -> Hresult.fail (Hresult.E_invalidarg ("ControlConstructor: " ^ other))
        in
        chg ctx 10.;
        Value.Iface_ref pane
      in
      [ Combuild.iface i_widget_factory [ ("make", make); ("make_pane", make_pane) ] ])

let c_theme_service =
  Runtime.define_class "Octarine.ThemeService" (fun ctx0 _self ->
      let constructor = Common.create ctx0 c_control_constructor i_widget_factory in
      (* Apply the theme, then delegate construction. *)
      let delegate meth ctx args =
        chg ctx 6.;
        Runtime.call_slot ctx constructor meth args
      in
      [
        Combuild.iface i_widget_factory
          [
            ("make", delegate widget_factory_make);
            ("make_pane", delegate widget_factory_make_pane);
          ];
      ])

let c_widget_factory =
  Runtime.define_class "Octarine.WidgetFactory" (fun ctx0 _self ->
      let theme = Common.create ctx0 c_theme_service i_widget_factory in
      let delegate meth ctx args =
        chg ctx 6.;
        Runtime.call_slot ctx theme meth args
      in
      [
        Combuild.iface i_widget_factory
          [
            ("make", delegate widget_factory_make);
            ("make_pane", delegate widget_factory_make_pane);
          ];
      ])

(* Containers stamp out their children through the factory and forward
   their notifications and repaints; menu panes nest recursively, so
   menu items at different depths have distinct creation contexts. *)
let container_class name ~child_kind ~recursive =
  Runtime.define_class name ~api_refs:Widgets.gui_apis (fun _ctx _self ->
      let factory = ref None and parent = ref None and self_h = ref None in
      let children = ref [] in
      let set_context ctx args =
        factory := Some (Combuild.get_iface args 0);
        parent := Some (Combuild.get_iface args 1);
        self_h := Some (Combuild.get_iface args 2);
        chg ctx 6.;
        Value.Unit
      in
      let make_tooltip ctx =
        match !factory with
        | Some f -> (
            match Runtime.call_slot ctx f widget_factory_make [ Value.Str "tooltip" ] with
            | Value.Iface_ref tip -> children := tip :: !children
            | _ -> ())
        | None -> ()
      in
      let adorn ctx _args =
        (* Decorations (tooltips) attached to this container. *)
        make_tooltip ctx;
        chg ctx 8.;
        Value.Int (List.length !children)
      in
      let refresh ctx _args =
        (* Rebuilding hover decorations: a second internal path that
           also instantiates tooltips — the entry-point classifier
           cannot tell it from [adorn], the internal-function
           classifier can. *)
        make_tooltip ctx;
        chg ctx 10.;
        Value.Int (List.length !children)
      in
      let populate ctx args =
        let count = Combuild.get_int args 0 in
        let f = Option.get !factory in
        let self = Option.get !self_h in
        let self_notify = Runtime.query_interface ctx self ~iid:(Itype.iid Common.i_notify) in
        for _ = 1 to count do
          match Runtime.call_slot ctx f widget_factory_make [ Value.Str child_kind ] with
          | Value.Iface_ref ctl ->
              ignore
                (Runtime.call_slot ctx ctl Common.control_attach [ Value.Iface_ref self_notify ]);
              children := ctl :: !children
          | _ -> ()
        done;
        (* Flash the first few children (they notify us back). *)
        List.iteri
          (fun i ctl -> if i < 3 then ignore (Runtime.call_slot ctx ctl Common.control_click []))
          !children;
        (* Self-calls through our own interface: the entry-point
           classifier collapses them, the internal-function classifier
           does not. *)
        ignore (Runtime.call_slot ctx self container_adorn []);
        ignore (Runtime.call_slot ctx self container_refresh []);
        if recursive && count > 3 then begin
          match Runtime.call_slot ctx f widget_factory_make_pane [ Value.Str "menupane" ] with
          | Value.Iface_ref sub ->
              ignore
                (Runtime.call_slot ctx sub container_set_context
                   [ Value.Iface_ref f; Value.Iface_ref self_notify; Value.Iface_ref sub ]);
              ignore (Runtime.call_slot ctx sub container_populate [ Value.Int (count / 2) ]);
              children := sub :: !children
          | _ -> ()
        end;
        chg ctx (float_of_int count *. 9.);
        Value.Int count
      in
      let notify ctx args =
        (match !parent with
        | Some p -> ignore (Runtime.call_slot ctx p Common.notify_notify args)
        | None -> ());
        chg ctx 4.;
        Value.Unit
      in
      let notify_str ctx _args =
        chg ctx 4.;
        Value.Unit
      in
      let paint ctx _args =
        List.iter
          (fun ctl ->
            match
              Runtime.query_interface ctx ctl ~iid:(Itype.iid Common.i_paint)
            with
            | p ->
                ignore (Runtime.call_slot ctx p Common.paint_paint [ Value.Opaque_handle "HDC" ])
            | exception Hresult.Com_error _ -> ())
          !children;
        chg ctx 22.;
        Value.Unit
      in
      let invalidate ctx _args =
        chg ctx 2.;
        Value.Unit
      in
      [
        Combuild.iface i_container
          [ ("set_context", set_context); ("populate", populate); ("adorn", adorn);
            ("refresh", refresh) ];
        Combuild.iface Common.i_notify [ ("notify", notify); ("notify_str", notify_str) ];
        Combuild.iface Common.i_paint [ ("paint", paint); ("invalidate", invalidate) ];
      ])

let c_command_bar = container_class "Octarine.CommandBar" ~child_kind:"button" ~recursive:false
let c_menu_pane = container_class "Octarine.MenuPane" ~child_kind:"menuitem" ~recursive:true

(* ---------------------------------------------------------------- *)
(* Editing services: undo, spelling, styles                          *)
(* ---------------------------------------------------------------- *)

(* One undo record per edit: classic dynamic instantiation driven by
   user input. *)
let c_undo_record =
  Runtime.define_class "Octarine.UndoRecord" (fun _ctx _self ->
      let stored = ref 0 in
      let put ctx args =
        stored := !stored + Combuild.get_blob args 0;
        chg ctx 4.;
        Value.Unit
      in
      let finish ctx _args =
        chg ctx 2.;
        Value.Int !stored
      in
      [ Combuild.iface Common.i_blob_sink [ ("put", put); ("finish", finish) ] ])

let c_undo_manager =
  Runtime.define_class "Octarine.UndoManager"
    ~creates:[ "Octarine.UndoRecord" ] (fun _ctx _self ->
      let stack = ref [] in
      let record_edit ctx args =
        let data = Combuild.get_blob args 1 in
        let rcd = Common.create ctx c_undo_record Common.i_blob_sink in
        ignore (Runtime.call_slot ctx rcd Common.blob_sink_put [ Value.Blob (min data 512) ]);
        stack := rcd :: !stack;
        chg ctx 12.;
        Value.Unit
      in
      let undo ctx _args =
        (match !stack with
        | rcd :: rest ->
            ignore (Common.call_ret_int ctx rcd Common.blob_sink_finish []);
            stack := rest
        | [] -> ());
        chg ctx 15.;
        Value.Int (List.length !stack)
      in
      let depth ctx _args =
        chg ctx 2.;
        Value.Int (List.length !stack)
      in
      [ Combuild.iface i_undo [ ("record_edit", record_edit); ("undo", undo); ("depth", depth) ] ])

let c_spell_checker =
  Runtime.define_class "Octarine.SpellChecker" (fun _ctx _self ->
      let checked = ref 0 in
      let check_text ctx args =
        let data = Combuild.get_blob args 0 in
        checked := !checked + data;
        (* In-memory dictionary lookups. *)
        chg ctx (25. +. (float_of_int data /. 150.));
        Value.Int (data / 900)
      in
      [ Combuild.iface i_spell [ ("check_text", check_text) ] ])

let c_style =
  Runtime.define_class "Octarine.Style" (fun _ctx _self ->
      let put ctx _args =
        chg ctx 3.;
        Value.Unit
      in
      let finish ctx _args =
        chg ctx 2.;
        Value.Int 0
      in
      [ Combuild.iface Common.i_blob_sink [ ("put", put); ("finish", finish) ] ])

let c_style_gallery =
  Runtime.define_class "Octarine.StyleGallery"
    ~creates:[ "Octarine.Style" ] (fun _ctx _self ->
      let styles = ref [] in
      let load_template ctx args =
        let data = Combuild.get_blob args 0 in
        (* A style component per template style sheet entry. *)
        let count = max 4 (min 12 (data / 16_000)) in
        for _ = 1 to count do
          let st = Common.create ctx c_style Common.i_blob_sink in
          ignore (Runtime.call_slot ctx st Common.blob_sink_put [ Value.Blob (data / count / 8) ]);
          styles := st :: !styles
        done;
        chg ctx (40. +. (float_of_int data /. 1_000.));
        Value.Int count
      in
      let style_of ctx args =
        ignore (Combuild.get_str args 0);
        chg ctx 5.;
        Value.Str "font:Garamond;weight:400"
      in
      [
        Combuild.iface i_style_gallery
          [ ("load_template", load_template); ("style_of", style_of) ];
      ])

(* ---------------------------------------------------------------- *)
(* Text pipeline                                                     *)
(* ---------------------------------------------------------------- *)

let c_text_run =
  Runtime.define_class "Octarine.TextRun" (fun _ctx _self ->
      let bytes = ref 0 in
      let set_text ctx args =
        bytes := Combuild.get_blob args 0;
        chg ctx (float_of_int !bytes /. 400.);
        Value.Unit
      in
      let metrics ctx args =
        let props = Combuild.get_iface args 0 in
        let fm =
          Common.call_ret_int ctx props Common.query_query_int [ Value.Str "font-metrics" ]
        in
        chg ctx 14.;
        Value.Int (fm + (!bytes / 8))
      in
      [ Combuild.iface i_run [ ("set_text", set_text); ("metrics", metrics) ] ])

let c_paragraph =
  Runtime.define_class "Octarine.Paragraph" (fun ctx0 _self ->
      let runs =
        List.init 2 (fun _ -> Common.create ctx0 c_text_run i_run)
      in
      let bytes = ref 0 in
      let set_text ctx args =
        let n = Combuild.get_blob args 0 in
        bytes := n;
        let half = n / 2 in
        List.iteri
          (fun i r ->
            ignore
              (Runtime.call_slot ctx r run_set_text
                 [ Value.Blob (if i = 0 then half else n - half) ]))
          runs;
        chg ctx (float_of_int n /. 300.);
        Value.Unit
      in
      let layout ctx args =
        let width = Combuild.get_int args 0 in
        let props = Combuild.get_iface args 1 in
        let widths =
          List.map
            (fun r -> Common.call_ret_int ctx r run_metrics [ Value.Iface_ref props ])
            runs
        in
        let total = List.fold_left ( + ) 0 widths in
        chg ctx 60.;
        Value.Int (1 + (total / max 1 width))
      in
      let measure ctx _args =
        chg ctx 6.;
        Value.Int !bytes
      in
      let line_boxes ctx _args =
        chg ctx 18.;
        Value.Blob (!bytes + (!bytes / 16))
      in
      let paint ctx _args =
        chg ctx 30.;
        Value.Unit
      in
      let invalidate ctx _args =
        chg ctx 2.;
        Value.Unit
      in
      [
        Combuild.iface i_paragraph
          [
            ("set_text", set_text); ("layout", layout); ("measure", measure);
            ("line_boxes", line_boxes);
          ];
        Combuild.iface Common.i_paint [ ("paint", paint); ("invalidate", invalidate) ];
      ])

let c_line_breaker =
  Runtime.define_class "Octarine.LineBreaker" (fun _ctx _self ->
      let break_lines ctx args =
        let n = Combuild.get_blob args 0 in
        chg ctx (20. +. (float_of_int n /. 250.));
        Value.Int (1 + (n / 900))
      in
      [ Combuild.iface i_breaker [ ("break_lines", break_lines) ] ])

let c_page_layout =
  Runtime.define_class "Octarine.PageLayout" (fun _ctx _self ->
      let render = ref None in
      let pending = ref 0 in
      let init ctx args =
        render := Some (Combuild.get_iface args 0);
        chg ctx 10.;
        Value.Unit
      in
      let begin_page ctx _args =
        pending := 0;
        chg ctx 12.;
        Value.Unit
      in
      let add_text ctx args =
        pending := !pending + Combuild.get_blob args 0;
        chg ctx 25.;
        Value.Unit
      in
      let finish ctx args =
        let page = Combuild.get_int args 0 in
        (match !render with
        | Some r ->
            ignore
              (Runtime.call_slot ctx r Common.render_render_page
                 [ Value.Int page; Value.Blob 2_000 ])
        | None -> ());
        chg ctx (40. +. (float_of_int !pending /. 500.));
        Value.Unit
      in
      let paint ctx _args =
        chg ctx 90.;
        Value.Unit
      in
      let invalidate ctx _args =
        chg ctx 3.;
        Value.Unit
      in
      [
        Combuild.iface i_layout
          [ ("init", init); ("begin_page", begin_page); ("add_text", add_text); ("finish", finish) ];
        Combuild.iface Common.i_paint [ ("paint", paint); ("invalidate", invalidate) ];
      ])

let c_text_properties =
  Runtime.define_class "Octarine.TextProperties" (fun _ctx _self ->
      let stored = ref 0 in
      let put ctx args =
        stored := !stored + Combuild.get_blob args 0;
        chg ctx (float_of_int (Combuild.get_blob args 0) /. 200.);
        Value.Unit
      in
      let finish ctx _args =
        chg ctx 8.;
        Value.Int !stored
      in
      let query ctx _args =
        chg ctx 5.;
        Value.Str "style:normal;font:Garamond;size:11"
      in
      let query_int ctx _args =
        chg ctx 4.;
        Value.Int (512 + (!stored mod 97))
      in
      [
        Combuild.iface Common.i_blob_sink [ ("put", put); ("finish", finish) ];
        Combuild.iface Common.i_query [ ("query", query); ("query_int", query_int) ];
      ])

(* The document reader: scans the whole file once through the storage
   server to paginate (so its file traffic scales with document size),
   then serves parsed pages from its in-memory index. *)
let c_document_reader =
  Runtime.define_class "Octarine.DocumentReader"
    ~creates:[ "Octarine.TextProperties" ] (fun ctx0 _self ->
      let fs = Common.create_file_server ctx0 in
      let state = ref None in
      let opened_name = ref "" in
      let current_name () = !opened_name in
      (* (spec, props handle option) *)
      let open_doc ctx args =
        let name = Combuild.get_str args 0 in
        opened_name := name;
        let spec = spec_of ctx name in
        let fh = Common.call_ret_int ctx fs Common.file_read_open_file [ Value.Str name ] in
        let size = Common.call_ret_int ctx fs Common.file_read_file_size [ Value.Int fh ] in
        (* Full scan in 16 KiB blocks: pagination requires touching the
           entire document even to show page one. *)
        let block = 16_384 in
        let offset = ref 0 in
        while !offset < size do
          let got =
            Common.call_ret_blob ctx fs Common.file_read_read_block
              [ Value.Int fh; Value.Int !offset; Value.Int block ]
          in
          chg ctx (float_of_int got /. 800.);
          offset := !offset + block
        done;
        let props =
          if spec.d_kind = K_text || spec.d_kind = K_mixed then begin
            let p = Common.create ctx c_text_properties Common.i_blob_sink in
            ignore
              (Runtime.call_slot ctx p Common.blob_sink_put
                 [ Value.Blob (max 64 (spec.d_pages * props_bytes_per_page)) ]);
            ignore (Runtime.call_slot ctx p Common.blob_sink_finish []);
            Some (Runtime.query_interface ctx p ~iid:(Itype.iid Common.i_query))
          end
          else None
        in
        state := Some (spec, props);
        chg ctx 150.;
        Value.Int spec.d_pages
      in
      let with_state f =
        match !state with
        | Some (spec, props) -> f spec props
        | None -> Hresult.fail (Hresult.E_fail "Octarine.DocumentReader: no document open")
      in
      let page_count ctx _args =
        with_state (fun spec _ ->
            chg ctx 2.;
            Value.Int spec.d_pages)
      in
      let doc_kind ctx _args =
        with_state (fun spec _ ->
            chg ctx 2.;
            Value.Str (kind_name spec.d_kind))
      in
      let table_count ctx _args =
        with_state (fun spec _ ->
            chg ctx 2.;
            let n = match spec.d_kind with K_table -> 1 | K_mixed -> spec.d_tables | _ -> 0 in
            Value.Int n)
      in
      let read_page ctx args =
        with_state (fun spec _ ->
            let page = Combuild.get_int args 0 in
            if page < 0 || page >= max 1 spec.d_pages then
              Hresult.fail (Hresult.E_invalidarg "Octarine: page out of range");
            let bytes =
              match spec.d_kind with
              | K_text | K_mixed -> text_page_parsed
              | K_table -> rows_per_page * table_row_parsed
              | K_music -> 4_000
            in
            chg ctx (float_of_int bytes /. 1_500.);
            Value.Blob bytes)
      in
      let reflow_page ctx args =
        with_state (fun spec _ ->
            let page = Combuild.get_int args 0 in
            if page < 0 || page >= max 1 spec.d_pages then
              Hresult.fail (Hresult.E_invalidarg "Octarine: page out of range");
            (* Re-flow works from the file, not the parse cache: the
               trial layout needs the unflowed source. *)
            let fh =
              Common.call_ret_int ctx fs Common.file_read_open_file
                [ Value.Str (current_name ()) ]
            in
            ignore
              (Common.call_ret_blob ctx fs Common.file_read_read_block
                 [ Value.Int fh; Value.Int (page * text_page_raw); Value.Int text_page_raw ]);
            chg ctx (float_of_int text_page_parsed /. 700.);
            Value.Blob text_page_parsed)
      in
      let read_table ctx args =
        with_state (fun spec _ ->
            let index = Combuild.get_int args 0 in
            if index < 0 || index >= max 1 spec.d_tables then
              Hresult.fail (Hresult.E_invalidarg "Octarine: table out of range");
            chg ctx 30.;
            Value.Blob (mixed_table_rows * mixed_row_parsed))
      in
      let page_summary ctx _args =
        with_state (fun _spec _ ->
            chg ctx 4.;
            Value.Blob page_summary_bytes)
      in
      let props_m ctx _args =
        with_state (fun _spec props ->
            chg ctx 2.;
            match props with
            | Some p -> Value.Iface_ref p
            | None -> Value.Null)
      in
      [
        Combuild.iface i_doc_source
          [
            ("open_doc", open_doc); ("page_count", page_count); ("doc_kind", doc_kind);
            ("table_count", table_count); ("read_page", read_page);
            ("reflow_page", reflow_page); ("read_table", read_table);
            ("page_summary", page_summary); ("props", props_m);
          ];
      ])

let c_story =
  Runtime.define_class "Octarine.Story"
    ~creates:[ "Octarine.Paragraph" ] (fun ctx0 _self ->
      let breaker = Common.create ctx0 c_line_breaker i_breaker in
      let layout = Common.create ctx0 c_page_layout i_layout in
      let src = ref None and render = ref None and props = ref None in
      let paragraphs = ref [||] in
      (* pages.(p) = paragraph handles of page p (loaded window only) *)
      let pages : Runtime.handle list array ref = ref [||] in
      let init ctx args =
        src := Some (Combuild.get_iface args 0);
        render := Some (Combuild.get_iface args 1);
        (match List.nth args 2 with
        | Value.Iface_ref p -> props := Some p
        | _ -> props := None);
        ignore (Runtime.call_slot ctx layout layout_init [ List.nth args 1 ]);
        (* Register the layout surface with the window so repaints reach
           it over the non-remotable paint interface. *)
        let layout_paint = Runtime.query_interface ctx layout ~iid:(Itype.iid Common.i_paint) in
        ignore
          (Runtime.call_slot ctx (Combuild.get_iface args 1) Common.render_attach_surface
             [ Value.Iface_ref layout_paint ]);
        chg ctx 25.;
        Value.Unit
      in
      let load ctx args =
        let total = Combuild.get_int args 0 in
        let s = Option.get !src in
        let window = min total prefetch_window in
        let page_paras = Array.make (max window 0) [] in
        let all = ref [] in
        for p = 0 to window - 1 do
          let data = Common.call_ret_blob ctx s doc_source_read_page [ Value.Int p ] in
          let chunk = data / paras_per_page in
          let paras =
            List.init paras_per_page (fun i ->
                let para = Common.create ctx c_paragraph i_paragraph in
                let sz = if i = paras_per_page - 1 then data - (chunk * (paras_per_page - 1)) else chunk in
                ignore (Runtime.call_slot ctx para paragraph_set_text [ Value.Blob sz ]);
                ignore (Common.call_ret_int ctx breaker breaker_break_lines [ Value.Blob sz ]);
                (* Paragraphs draw themselves: the window repaints them
                   through the non-remotable device-context interface. *)
                let pp = Runtime.query_interface ctx para ~iid:(Itype.iid Common.i_paint) in
                ignore
                  (Runtime.call_slot ctx (Option.get !render) Common.render_attach_surface
                     [ Value.Iface_ref pp ]);
                para)
          in
          page_paras.(p) <- paras;
          all := !all @ paras
        done;
        (* Pagination summaries for everything beyond the window. *)
        for p = window to total - 1 do
          ignore (Common.call_ret_blob ctx s doc_source_page_summary [ Value.Int p ])
        done;
        pages := page_paras;
        paragraphs := Array.of_list !all;
        chg ctx (float_of_int total *. 15.);
        Value.Int window
      in
      let show_page ctx args =
        let page = Combuild.get_int args 0 in
        if page >= 0 && page < Array.length !pages then begin
          ignore (Runtime.call_slot ctx layout layout_begin_page [ Value.Int page ]);
          List.iter
            (fun para ->
              (match !props with
              | Some p ->
                  ignore
                    (Runtime.call_slot ctx para paragraph_layout
                       [ Value.Int 640; Value.Iface_ref p ])
              | None -> ());
              let boxes = Common.call_ret_blob ctx para paragraph_line_boxes [] in
              ignore (Runtime.call_slot ctx layout layout_add_text [ Value.Blob boxes ]))
            !pages.(page);
          ignore (Runtime.call_slot ctx layout layout_finish [ Value.Int page ])
        end;
        chg ctx 35.;
        Value.Unit
      in
      let type_text ctx args =
        let n = Combuild.get_blob args 0 in
        let para = Common.create ctx c_paragraph i_paragraph in
        ignore (Runtime.call_slot ctx para paragraph_set_text [ Value.Blob n ]);
        ignore (Common.call_ret_int ctx breaker breaker_break_lines [ Value.Blob n ]);
        (match !render with
        | Some r ->
            let pp = Runtime.query_interface ctx para ~iid:(Itype.iid Common.i_paint) in
            ignore (Runtime.call_slot ctx r Common.render_attach_surface [ Value.Iface_ref pp ])
        | None -> ());
        (match !props with
        | Some p ->
            ignore
              (Runtime.call_slot ctx para paragraph_layout [ Value.Int 640; Value.Iface_ref p ])
        | None -> ());
        if Array.length !pages = 0 then pages := [| [ para ] |]
        else !pages.(0) <- !pages.(0) @ [ para ];
        paragraphs := Array.append !paragraphs [| para |];
        ignore (Runtime.call_slot ctx layout layout_begin_page [ Value.Int 0 ]);
        ignore (Runtime.call_slot ctx layout layout_add_text [ Value.Blob (n + (n / 16)) ]);
        ignore (Runtime.call_slot ctx layout layout_finish [ Value.Int 0 ]);
        chg ctx 45.;
        Value.Unit
      in
      let paragraph ctx args =
        let i = Combuild.get_int args 0 in
        chg ctx 2.;
        if i >= 0 && i < Array.length !paragraphs then
          Value.Iface_ref !paragraphs.(i)
        else Value.Null
      in
      let paragraph_count ctx _args =
        chg ctx 2.;
        Value.Int (Array.length !paragraphs)
      in
      [
        Combuild.iface i_story
          [
            ("init", init); ("load", load); ("show_page", show_page); ("type_text", type_text);
            ("paragraph", paragraph); ("paragraph_count", paragraph_count);
          ];
      ])

(* ---------------------------------------------------------------- *)
(* Table pipeline                                                    *)
(* ---------------------------------------------------------------- *)

let c_table_row =
  Runtime.define_class "Octarine.TableRow" (fun _ctx _self ->
      let bytes = ref 0 in
      let set_text ctx args =
        bytes := Combuild.get_blob args 0;
        chg ctx 6.;
        Value.Unit
      in
      let metrics ctx args =
        ignore (Combuild.get_iface args 0);
        chg ctx 4.;
        Value.Int (!bytes / 8)
      in
      [ Combuild.iface i_run [ ("set_text", set_text); ("metrics", metrics) ] ])

let c_table_model =
  Runtime.define_class "Octarine.TableModel"
    ~creates:[ "Octarine.TableRow" ] (fun _ctx _self ->
      let src = ref None in
      let index = ref (-1) in
      let rows = ref 0 in
      let row_bytes = ref mixed_row_parsed in
      let init ctx args =
        (match List.nth args 0 with
        | Value.Iface_ref h -> src := Some h
        | _ -> src := None);
        index := Combuild.get_int args 1;
        chg ctx 8.;
        Value.Unit
      in
      let load ctx _args =
        (match (!src, !index) with
        | Some s, -1 ->
            (* Whole-document table: stream every parsed page. *)
            let kind = Common.call_ret_str ctx s doc_source_doc_kind [] in
            ignore kind;
            let pages =
              (* The model learns the page count from its first read;
                 the document tells it via repeated read_page calls. *)
              0
            in
            ignore pages
        | Some s, i when i >= 0 ->
            let data = Common.call_ret_blob ctx s doc_source_read_table [ Value.Int i ] in
            rows := mixed_table_rows;
            row_bytes := data / max 1 mixed_table_rows;
            for _r = 1 to mixed_table_rows do
              let row = Common.create ctx c_table_row i_run in
              ignore (Runtime.call_slot ctx row run_set_text [ Value.Blob !row_bytes ])
            done;
            chg ctx (float_of_int data /. 600.)
        | _ -> ());
        chg ctx 20.;
        Value.Int !rows
      in
      let row_count ctx _args =
        chg ctx 2.;
        Value.Int !rows
      in
      let fetch_rows ctx args =
        let start = Combuild.get_int args 0 in
        let count = Combuild.get_int args 1 in
        let n = max 0 (min count (!rows - start)) in
        chg ctx (float_of_int (n * !row_bytes) /. 2_000.);
        Value.Blob (n * !row_bytes)
      in
      let cell_probe ctx args =
        let row = Combuild.get_int args 0 in
        chg ctx 4.;
        Value.Int ((row * 37) mod 101)
      in
      let append_row ctx args =
        let data = Combuild.get_blob args 0 in
        rows := !rows + 1;
        row_bytes := max !row_bytes data;
        chg ctx 15.;
        Value.Unit
      in
      (* Document-level tables stream pages through this sink. *)
      let put ctx args =
        let data = Combuild.get_blob args 0 in
        rows := !rows + (data / max 1 table_row_parsed);
        row_bytes := table_row_parsed;
        chg ctx (float_of_int data /. 2_500.);
        Value.Unit
      in
      let finish ctx _args =
        chg ctx 10.;
        Value.Int !rows
      in
      [
        Combuild.iface i_table_model
          [
            ("init", init); ("load", load); ("row_count", row_count); ("fetch_rows", fetch_rows);
            ("cell_probe", cell_probe); ("append_row", append_row);
          ];
        Combuild.iface Common.i_blob_sink [ ("put", put); ("finish", finish) ];
      ])

let c_table_view =
  Runtime.define_class "Octarine.TableView" (fun _ctx _self ->
      let model = ref None and render = ref None in
      let init ctx args =
        model := Some (Combuild.get_iface args 0);
        render := Some (Combuild.get_iface args 1);
        chg ctx 12.;
        Value.Unit
      in
      let show ctx args =
        let page = Combuild.get_int args 0 in
        (match (!model, !render) with
        | Some m, Some r ->
            let rows = Common.call_ret_int ctx m table_model_row_count [] in
            let wanted = if rows <= full_fetch_rows then rows else view_window_rows in
            (* Fetch in 10-row chunks, as a scrolling grid would. *)
            let fetched = ref 0 in
            while !fetched < wanted do
              let n = min 10 (wanted - !fetched) in
              ignore
                (Common.call_ret_blob ctx m table_model_fetch_rows
                   [ Value.Int !fetched; Value.Int n ]);
              fetched := !fetched + n
            done;
            ignore (Runtime.call_slot ctx r Common.render_render_page
                      [ Value.Int page; Value.Blob 2_200 ])
        | _ -> ());
        chg ctx 80.;
        Value.Unit
      in
      let paint ctx _args =
        chg ctx 70.;
        Value.Unit
      in
      let invalidate ctx _args =
        chg ctx 3.;
        Value.Unit
      in
      [
        Combuild.iface i_table_view [ ("init", init); ("show", show) ];
        Combuild.iface Common.i_paint [ ("paint", paint); ("invalidate", invalidate) ];
      ])

(* A scratch layout the placement engine builds per negotiation trial. *)
let c_trial_layout =
  Runtime.define_class "Octarine.TrialLayout" (fun _ctx _self ->
      let break_lines ctx args =
        let n = Combuild.get_blob args 0 in
        chg ctx (15. +. (float_of_int n /. 900.));
        Value.Int (n / 700)
      in
      [ Combuild.iface i_breaker [ ("break_lines", break_lines) ] ])

let c_page_placement =
  Runtime.define_class "Octarine.PagePlacement"
    ~creates:[ "Octarine.TrialLayout" ] (fun _ctx _self ->
      let src = ref None and props = ref None in
      let paras = ref [] and tables = ref [] in
      let set_source ctx args =
        src := Some (Combuild.get_iface args 0);
        (match List.nth args 1 with
        | Value.Iface_ref p -> props := Some p
        | _ -> props := None);
        chg ctx 6.;
        Value.Unit
      in
      let add_paragraph ctx args =
        paras := Combuild.get_iface args 0 :: !paras;
        chg ctx 3.;
        Value.Unit
      in
      let add_table ctx args =
        tables := Combuild.get_iface args 0 :: !tables;
        chg ctx 3.;
        Value.Unit
      in
      let negotiate ctx args =
        let rounds = Combuild.get_int args 0 in
        let pages = Combuild.get_int args 1 in
        let s = Option.get !src in
        for _round = 1 to rounds do
          (* Re-read the candidate pages to re-flow text around the
             tables under the new trial placement. *)
          for p = 0 to pages - 1 do
            ignore (Common.call_ret_blob ctx s doc_source_reflow_page [ Value.Int p ])
          done;
          List.iter
            (fun m ->
              let trial = Common.create ctx c_trial_layout i_breaker in
              ignore
                (Common.call_ret_int ctx trial breaker_break_lines
                   [ Value.Blob text_page_parsed ]);
              ignore (Common.call_ret_int ctx m table_model_row_count []);
              ignore (Common.call_ret_int ctx m table_model_cell_probe [ Value.Int 1 ]))
            !tables;
          List.iter (fun p -> ignore (Common.call_ret_int ctx p paragraph_measure [])) !paras;
          (match !props with
          | Some pr ->
              ignore (Common.call_ret_int ctx pr Common.query_query_int
                        [ Value.Str "page-metrics" ]);
              ignore (Common.call_ret_int ctx pr Common.query_query_int
                        [ Value.Str "float-rules" ])
          | None -> ());
          chg ctx 180.
        done;
        Value.Int (rounds * pages)
      in
      let commit ctx _args =
        chg ctx 30.;
        Value.Blob (16 * (List.length !tables + 1))
      in
      [
        Combuild.iface i_placement
          [
            ("set_source", set_source); ("add_paragraph", add_paragraph);
            ("add_table", add_table); ("negotiate", negotiate); ("commit", commit);
          ];
      ])

(* ---------------------------------------------------------------- *)
(* Music pipeline                                                    *)
(* ---------------------------------------------------------------- *)

let c_music_bar =
  Runtime.define_class "Octarine.MusicBar" (fun _ctx _self ->
      let notes = ref 0 in
      let add_note ctx args =
        ignore (Combuild.get_int args 0);
        incr notes;
        chg ctx 7.;
        Value.Unit
      in
      let layout_staff ctx _args =
        chg ctx 15.;
        Value.Int !notes
      in
      [ Combuild.iface i_music_staff [ ("add_note", add_note); ("layout_staff", layout_staff) ] ])

let c_music_staff =
  Runtime.define_class "Octarine.MusicStaff"
    ~creates:[ "Octarine.MusicBar" ] (fun _ctx _self ->
      let bars = ref [] in
      let count = ref 0 in
      let add_note ctx args =
        (if !count mod 4 = 0 then
           let bar = Common.create ctx c_music_bar i_music_staff in
           bars := bar :: !bars);
        incr count;
        (match !bars with
        | bar :: _ -> ignore (Runtime.call_slot ctx bar music_staff_add_note args)
        | [] -> ());
        chg ctx 6.;
        Value.Unit
      in
      let layout_staff ctx _args =
        List.iter
          (fun b -> ignore (Common.call_ret_int ctx b music_staff_layout_staff []))
          !bars;
        chg ctx 40.;
        Value.Int !count
      in
      [ Combuild.iface i_music_staff [ ("add_note", add_note); ("layout_staff", layout_staff) ] ])

let c_music_sheet =
  Runtime.define_class "Octarine.MusicSheet"
    ~creates:[ "Octarine.MusicStaff" ] (fun _ctx _self ->
      let render = ref None in
      let staves = ref [] in
      let init ctx args =
        render := Some (Combuild.get_iface args 0);
        chg ctx 12.;
        Value.Unit
      in
      let add_staff ctx _args =
        let staff = Common.create ctx c_music_staff i_music_staff in
        staves := staff :: !staves;
        chg ctx 10.;
        Value.Iface_ref staff
      in
      let compose ctx args =
        let page = Combuild.get_int args 0 in
        List.iter
          (fun s -> ignore (Common.call_ret_int ctx s music_staff_layout_staff []))
          !staves;
        (match !render with
        | Some r ->
            ignore (Runtime.call_slot ctx r Common.render_render_page
                      [ Value.Int page; Value.Blob 1_800 ])
        | None -> ());
        chg ctx 90.;
        Value.Unit
      in
      let paint ctx _args =
        chg ctx 60.;
        Value.Unit
      in
      let invalidate ctx _args =
        chg ctx 3.;
        Value.Unit
      in
      [
        Combuild.iface i_music [ ("init", init); ("add_staff", add_staff); ("compose", compose) ];
        Combuild.iface Common.i_paint [ ("paint", paint); ("invalidate", invalidate) ];
      ])

(* ---------------------------------------------------------------- *)
(* Document controller                                               *)
(* ---------------------------------------------------------------- *)

let c_document =
  Runtime.define_class "Octarine.Document"
    ~creates:
      [
        "Octarine.Story"; "Octarine.TableModel"; "Octarine.TableView";
        "Octarine.PagePlacement"; "Octarine.MusicSheet";
      ]
    (fun ctx0 _self ->
      let undo = Common.create ctx0 c_undo_manager i_undo in
      let spell = Common.create ctx0 c_spell_checker i_spell in
      let src = ref None and render = ref None in
      let story = ref None and views = ref [] and sheet = ref None in
      let pages = ref 0 in
      let attach_surface_of ctx render_h comp =
        let p = Runtime.query_interface ctx comp ~iid:(Itype.iid Common.i_paint) in
        ignore (Runtime.call_slot ctx render_h Common.render_attach_surface [ Value.Iface_ref p ])
      in
      let setup_text ctx s r props_v =
        let st = Common.create ctx c_story i_story in
        ignore
          (Runtime.call_slot ctx st story_init [ Value.Iface_ref s; Value.Iface_ref r; props_v ]);
        ignore (Runtime.call_slot ctx st story_load [ Value.Int !pages ]);
        story := Some st
      in
      let setup_doc_table ctx s r =
        (* A whole-document table: the model streams every parsed page
           from the reader, the view fetches what it shows. *)
        let model = Common.create ctx c_table_model i_table_model in
        ignore (Runtime.call_slot ctx model table_model_init [ Value.Iface_ref s; Value.Int (-1) ]);
        let sink = Runtime.query_interface ctx model ~iid:(Itype.iid Common.i_blob_sink) in
        for p = 0 to !pages - 1 do
          let data = Common.call_ret_blob ctx s doc_source_read_page [ Value.Int p ] in
          ignore (Runtime.call_slot ctx sink Common.blob_sink_put [ Value.Blob data ])
        done;
        ignore (Common.call_ret_int ctx sink Common.blob_sink_finish []);
        let view = Common.create ctx c_table_view i_table_view in
        ignore (Runtime.call_slot ctx view table_view_init
                  [ Value.Iface_ref model; Value.Iface_ref r ]);
        attach_surface_of ctx r view;
        views := (model, view) :: !views
      in
      let setup_mixed ctx s r props_v ntables =
        setup_text ctx s r props_v;
        let models =
          List.init ntables (fun i ->
              let model = Common.create ctx c_table_model i_table_model in
              ignore
                (Runtime.call_slot ctx model table_model_init [ Value.Iface_ref s; Value.Int i ]);
              ignore (Common.call_ret_int ctx model table_model_load []);
              let view = Common.create ctx c_table_view i_table_view in
              ignore
                (Runtime.call_slot ctx view table_view_init
                   [ Value.Iface_ref model; Value.Iface_ref r ]);
              attach_surface_of ctx r view;
              views := (model, view) :: !views;
              model)
        in
        (* Page-placement negotiation between the text flow and the
           embedded tables. *)
        let placement = Common.create ctx c_page_placement i_placement in
        ignore
          (Runtime.call_slot ctx placement placement_set_source [ Value.Iface_ref s; props_v ]);
        (match !story with
        | Some st ->
            let n = Common.call_ret_int ctx st story_paragraph_count [] in
            for i = 0 to min (n - 1) 9 do
              match Runtime.call_slot ctx st story_paragraph [ Value.Int i ] with
              | Value.Iface_ref p ->
                  ignore
                    (Runtime.call_slot ctx placement placement_add_paragraph [ Value.Iface_ref p ])
              | _ -> ()
            done
        | None -> ());
        List.iter
          (fun m ->
            ignore (Runtime.call_slot ctx placement placement_add_table [ Value.Iface_ref m ]))
          models;
        ignore
          (Common.call_ret_int ctx placement placement_negotiate
             [ Value.Int negotiation_rounds; Value.Int !pages ]);
        ignore (Common.call_ret_blob ctx placement placement_commit [])
      in
      let setup_music ctx r =
        let sh = Common.create ctx c_music_sheet i_music in
        ignore (Runtime.call_slot ctx sh music_init [ Value.Iface_ref r ]);
        for _staff = 1 to 5 do
          match Runtime.call_slot ctx sh music_add_staff [] with
          | Value.Iface_ref staff ->
              for note = 1 to 20 do
                ignore
                  (Runtime.call_slot ctx staff music_staff_add_note
                     [ Value.Int (40 + (note mod 24)); Value.Int 8 ])
              done
          | _ -> ()
        done;
        ignore (Runtime.call_slot ctx sh music_compose [ Value.Int 0 ]);
        attach_surface_of ctx r sh;
        sheet := Some sh
      in
      let init ctx args =
        let s = Combuild.get_iface args 0 in
        let r = Combuild.get_iface args 1 in
        src := Some s;
        render := Some r;
        pages := Common.call_ret_int ctx s doc_source_page_count [];
        let kind = Common.call_ret_str ctx s doc_source_doc_kind [] in
        let props_v = Runtime.call_slot ctx s doc_source_props [] in
        (match kind with
        | "text" -> setup_text ctx s r props_v
        | "table" -> setup_doc_table ctx s r
        | "mixed" ->
            setup_mixed ctx s r props_v
              (Common.call_ret_int ctx s doc_source_table_count [])
        | "music" -> setup_music ctx r
        | other -> Hresult.fail (Hresult.E_fail ("Octarine: unknown document kind " ^ other)));
        chg ctx 40.;
        Value.Unit
      in
      let show_page ctx args =
        let page = Combuild.get_int args 0 in
        (match !story with
        | Some st -> ignore (Runtime.call_slot ctx st story_show_page [ Value.Int page ])
        | None -> ());
        List.iter
          (fun (_, view) -> ignore (Runtime.call_slot ctx view table_view_show [ Value.Int page ]))
          !views;
        (match !sheet with
        | Some sh -> ignore (Runtime.call_slot ctx sh music_compose [ Value.Int page ])
        | None -> ());
        chg ctx 25.;
        Value.Unit
      in
      let page_count ctx _args =
        chg ctx 2.;
        Value.Int !pages
      in
      let add_fragment ctx args =
        ignore (Runtime.call_slot ctx undo undo_record_edit [ List.nth args 0; Value.Blob 800 ]);
        (match Combuild.get_str args 0 with
        | "text" ->
            ignore (Common.call_ret_int ctx spell spell_check_text [ Value.Blob 800 ]);
            (
            match (!story, !render) with
            | Some st, _ -> ignore (Runtime.call_slot ctx st story_type_text [ Value.Blob 800 ])
            | None, Some r ->
                let props_v =
                  match !src with
                  | Some s -> Runtime.call_slot ctx s doc_source_props []
                  | None -> Value.Null
                in
                (match !src with
                | Some s ->
                    let st = Common.create ctx c_story i_story in
                    ignore
                      (Runtime.call_slot ctx st story_init
                         [ Value.Iface_ref s; Value.Iface_ref r; props_v ]);
                    ignore (Runtime.call_slot ctx st story_type_text [ Value.Blob 800 ]);
                    story := Some st
                | None -> ())
            | None, None -> ())
        | "row" -> (
            match (!views, (!src, !render)) with
            | (model, view) :: _, _ ->
                ignore (Runtime.call_slot ctx model table_model_append_row [ Value.Blob 400 ]);
                ignore (Runtime.call_slot ctx view table_view_show [ Value.Int 0 ])
            | [], (Some s, Some r) ->
                let model = Common.create ctx c_table_model i_table_model in
                ignore (Runtime.call_slot ctx model table_model_init
                          [ Value.Iface_ref s; Value.Int (-1) ]);
                ignore (Runtime.call_slot ctx model table_model_append_row [ Value.Blob 400 ]);
                let view = Common.create ctx c_table_view i_table_view in
                ignore
                  (Runtime.call_slot ctx view table_view_init
                     [ Value.Iface_ref model; Value.Iface_ref r ]);
                attach_surface_of ctx r view;
                ignore (Runtime.call_slot ctx view table_view_show [ Value.Int 0 ]);
                views := [ (model, view) ]
            | [], _ -> ())
        | "notes" -> (
            match !sheet with
            | Some sh -> ignore (Runtime.call_slot ctx sh music_compose [ Value.Int 0 ])
            | None -> (
                match !render with Some r -> setup_music ctx r | None -> ()))
        | other -> Hresult.fail (Hresult.E_invalidarg ("Octarine: fragment kind " ^ other)));
        chg ctx 20.;
        Value.Unit
      in
      [
        Combuild.iface i_document
          [
            ("init", init); ("show_page", show_page); ("page_count", page_count);
            ("add_fragment", add_fragment);
          ];
      ])

(* ---------------------------------------------------------------- *)
(* Application root                                                  *)
(* ---------------------------------------------------------------- *)

let c_app =
  Runtime.define_class "Octarine.App" ~api_refs:Widgets.gui_apis
    ~creates:
      (Widgets.class_names kit
      @ [
          "Octarine.WidgetFactory"; "Octarine.CommandBar"; "Octarine.DocumentReader";
          "Octarine.Document"; "Octarine.StyleGallery"; Common.file_server_class_name;
        ])
    (fun _ctx _self ->
      let chrome = ref None in
      let fs = ref None in
      let container_paints = ref [] in
      let startup ctx _args =
        (* Big word-processor chrome: command bars and a nested menu
           strip, each stamping out its children through the shared
           widget factory. *)
        let c = Widgets.build_chrome ctx kit ~buttons:6 ~menus:4 ~extras:6 in
        chrome := Some c;
        let factory = Common.create ctx c_widget_factory i_widget_factory in
        let wire box count =
          ignore
            (Runtime.call_slot ctx box container_set_context
               [ Value.Iface_ref factory; Value.Iface_ref c.Widgets.window_notify;
                 Value.Iface_ref box ]);
          ignore (Runtime.call_slot ctx box container_populate [ Value.Int count ]);
          container_paints :=
            Runtime.query_interface ctx box ~iid:(Itype.iid Common.i_paint)
            :: !container_paints
        in
        for _bar = 1 to 4 do
          wire (Common.create ctx c_command_bar i_container) 28
        done;
        for _pane = 1 to 12 do
          match Runtime.call_slot ctx factory widget_factory_make_pane
                  [ Value.Str "menupane" ] with
          | Value.Iface_ref pane -> wire pane 10
          | _ -> ()
        done;
        (* Application settings live on the file server. *)
        let f = Common.create_file_server ctx in
        fs := Some f;
        ignore (Common.call_ret_blob ctx f Common.file_read_read_all [ Value.Str "octarine.ini" ]);
        chg ctx 800.;
        Value.Unit
      in
      let open_document ctx args =
        let name = Combuild.get_str args 0 in
        let c = Option.get !chrome in
        let reader = Common.create ctx c_document_reader i_doc_source in
        ignore (Common.call_ret_int ctx reader doc_source_open_doc [ Value.Str name ]);
        let doc = Common.create ctx c_document i_document in
        ignore
          (Runtime.call_slot ctx doc document_init
             [ Value.Iface_ref reader; Value.Iface_ref c.Widgets.window_render ]);
        ignore (Runtime.call_slot ctx doc document_show_page [ Value.Int 0 ]);
        chg ctx 200.;
        Value.Iface_ref doc
      in
      let new_document ctx args =
        let kind = Combuild.get_str args 0 in
        (* Fresh documents start from a template read off the server;
           tables start blank. *)
        (match (kind, !fs) with
        | "text", Some f ->
            let data =
              Common.call_ret_blob ctx f Common.file_read_read_all [ Value.Str "normal.dot" ]
            in
            let gallery = Common.create ctx c_style_gallery i_style_gallery in
            ignore (Runtime.call_slot ctx gallery style_gallery_load_template [ Value.Blob data ]);
            ignore (Common.call_ret_str ctx gallery style_gallery_style_of [ Value.Str "Normal" ]);
            ignore (Common.call_ret_str ctx gallery style_gallery_style_of
                      [ Value.Str "Heading 1" ])
        | "music", Some f ->
            ignore (Common.call_ret_blob ctx f Common.file_read_read_all [ Value.Str "music.mst" ])
        | _ -> ());
        let name = "__new." ^ kind in
        register_doc ctx name
          {
            d_kind =
              (match kind with
              | "text" -> K_text
              | "table" -> K_table
              | "music" -> K_music
              | "mixed" -> K_mixed
              | other -> Hresult.fail (Hresult.E_invalidarg ("Octarine: new " ^ other)));
            d_pages = 0;
            d_tables = 0;
          };
        open_document ctx [ Value.Str name ]
      in
      let repaint ctx _args =
        (match !chrome with
        | Some c ->
            List.iter
              (fun p ->
                ignore (Runtime.call_slot ctx p Common.paint_paint [ Value.Opaque_handle "HDC" ]))
              (c.Widgets.paints @ !container_paints)
        | None -> ());
        chg ctx 60.;
        Value.Unit
      in
      let click ctx args =
        let i = Combuild.get_int args 0 in
        (match !chrome with
        | Some c -> (
            match List.nth_opt c.Widgets.controls (i mod max 1 (List.length c.Widgets.controls)) with
            | Some ctl -> ignore (Runtime.call_slot ctx ctl Common.control_click [])
            | None -> ())
        | None -> ());
        chg ctx 10.;
        Value.Unit
      in
      let shutdown ctx _args =
        chg ctx 150.;
        Value.Unit
      in
      [
        Combuild.iface i_doc_app
          [
            ("startup", startup); ("open_document", open_document);
            ("new_document", new_document); ("repaint", repaint); ("click", click);
            ("shutdown", shutdown);
          ];
      ])

(* ---------------------------------------------------------------- *)
(* Scenarios: Table 1, the o_ rows                                   *)
(* ---------------------------------------------------------------- *)

let docs =
  [
    ("memo5.doc", { d_kind = K_text; d_pages = 5; d_tables = 0 });
    ("report13.doc", { d_kind = K_text; d_pages = 13; d_tables = 0 });
    ("book208.doc", { d_kind = K_text; d_pages = 208; d_tables = 0 });
    ("report5.tbl", { d_kind = K_table; d_pages = 5; d_tables = 0 });
    ("ledger150.tbl", { d_kind = K_table; d_pages = 150; d_tables = 0 });
    ("mixed5.doc", { d_kind = K_mixed; d_pages = 5; d_tables = 10 });
  ]

let prepare ctx =
  Common.Vfs.add ctx ~name:"octarine.ini" ~bytes:6_000;
  Common.Vfs.add ctx ~name:"normal.dot" ~bytes:160_000;
  Common.Vfs.add ctx ~name:"music.mst" ~bytes:155_000;
  List.iter (fun (name, spec) -> register_doc ctx name spec) docs

let boot ctx =
  prepare ctx;
  let app = Common.create ctx c_app i_doc_app in
  ignore (Runtime.call_slot ctx app doc_app_startup []);
  app

let scenario_new kind frags ctx =
  let app = boot ctx in
  (match Runtime.call_slot ctx app doc_app_new_document [ Value.Str kind ] with
  | Value.Iface_ref doc ->
      List.iter
        (fun frag -> ignore (Runtime.call_slot ctx doc document_add_fragment [ Value.Str frag ]))
        frags
  | _ -> ());
  ignore (Runtime.call_slot ctx app doc_app_click [ Value.Int 3 ]);
  ignore (Runtime.call_slot ctx app doc_app_repaint []);
  ignore (Runtime.call_slot ctx app doc_app_shutdown [])

let scenario_open name extra_pages ctx =
  let app = boot ctx in
  (match Runtime.call_slot ctx app doc_app_open_document [ Value.Str name ] with
  | Value.Iface_ref doc ->
      List.iter
        (fun p -> ignore (Runtime.call_slot ctx doc document_show_page [ Value.Int p ]))
        extra_pages
  | _ -> ());
  ignore (Runtime.call_slot ctx app doc_app_repaint []);
  ignore (Runtime.call_slot ctx app doc_app_shutdown [])

let scenario_off first name ctx =
  (* "o_newdoc then o_old...": one session, two documents. *)
  let app = boot ctx in
  (match Runtime.call_slot ctx app doc_app_new_document [ Value.Str first ] with
  | Value.Iface_ref doc ->
      ignore (Runtime.call_slot ctx doc document_add_fragment [ Value.Str "text" ])
  | _ -> ());
  ignore (Runtime.call_slot ctx app doc_app_repaint []);
  (match Runtime.call_slot ctx app doc_app_open_document [ Value.Str name ] with
  | Value.Iface_ref doc -> ignore (Runtime.call_slot ctx doc document_show_page [ Value.Int 0 ])
  | _ -> ());
  ignore (Runtime.call_slot ctx app doc_app_repaint []);
  ignore (Runtime.call_slot ctx app doc_app_shutdown [])

let sc id desc run = { App.sc_id = id; sc_desc = desc; sc_bigone = false; sc_run = run }

let scenarios =
  [
    sc "o_newdoc" "Create text document."
      (scenario_new "text" [ "text"; "text"; "text" ]);
    sc "o_newmus" "Create music document." (scenario_new "music" [ "notes"; "notes" ]);
    sc "o_newtbl" "Create table document." (scenario_new "table" [ "row"; "row"; "row" ]);
    sc "o_oldtb0" "View 5-page table." (scenario_open "report5.tbl" []);
    sc "o_oldtb3" "View 150-page table." (scenario_open "ledger150.tbl" []);
    sc "o_oldwp0" "View 5-page text document." (scenario_open "memo5.doc" []);
    sc "o_oldwp3" "View 13-page text document." (scenario_open "report13.doc" [ 1 ]);
    sc "o_oldwp7" "View 208-page text document." (scenario_open "book208.doc" [ 1; 2 ]);
    sc "o_oldbth" "View 5-page text doc. with tables." (scenario_open "mixed5.doc" []);
    sc "o_offtb3" "o_newdoc then o_oldtb3." (scenario_off "text" "ledger150.tbl");
    sc "o_offwp7" "o_newdoc then o_oldwp7." (scenario_off "text" "book208.doc");
    {
      App.sc_id = "o_bigone";
      sc_desc = "All of the above in one scenario.";
      sc_bigone = true;
      sc_run =
        (fun ctx ->
          scenario_new "text" [ "text"; "text"; "text" ] ctx;
          scenario_new "music" [ "notes"; "notes" ] ctx;
          scenario_new "table" [ "row"; "row"; "row" ] ctx;
          scenario_open "report5.tbl" [] ctx;
          scenario_open "ledger150.tbl" [] ctx;
          scenario_open "memo5.doc" [] ctx;
          scenario_open "report13.doc" [ 1 ] ctx;
          scenario_open "book208.doc" [ 1; 2 ] ctx;
          scenario_open "mixed5.doc" [] ctx;
          scenario_off "text" "ledger150.tbl" ctx;
          scenario_off "text" "book208.doc" ctx);
    };
  ]

let classes =
  Widgets.classes kit
  @ [
      c_control_constructor; c_theme_service; c_widget_factory; c_command_bar; c_menu_pane;
      c_text_run; c_paragraph; c_line_breaker; c_page_layout;
      c_text_properties; c_document_reader; c_story; c_table_row; c_table_model; c_table_view;
      c_trial_layout; c_page_placement; c_music_bar; c_music_staff; c_music_sheet;
      c_undo_record; c_undo_manager; c_spell_checker; c_style; c_style_gallery; c_document;
      c_app;
    ]

(* The distribution figures use documents that are not Table 1 rows:
   Figure 5 loads a 35-page text-only document. *)
let figure5 =
  {
    App.sc_id = "o_fig5";
    sc_desc = "View 35-page text document (Figure 5).";
    sc_bigone = false;
    sc_run =
      (fun ctx ->
        register_doc ctx "figure35.doc" { d_kind = K_text; d_pages = 35; d_tables = 0 };
        scenario_open "figure35.doc" [] ctx);
  }

let app =
  App.make ~name:"octarine" ~roots:[ "Octarine.App" ] ~classes
    ~default_placement:(fun _cname -> Coign_core.Constraints.Client)
    ~scenarios
