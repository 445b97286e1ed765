open Coign_idl
open Coign_com

let chg ctx us = Runtime.charge ctx ~us

(* ---------------------------------------------------------------- *)
(* Image specs                                                       *)
(* ---------------------------------------------------------------- *)

type img_kind = K_composition | K_line_drawing | K_gallery | K_photo

type spec = { p_kind : img_kind; p_bytes : int; p_sprites : int }

(* Parsed-to-raw ratio per kind: pixel data barely shrinks when
   parsed; vector line drawings shrink a lot. *)
let parse_ratio = function
  | K_composition -> 0.80
  | K_line_drawing -> 0.62
  | K_gallery -> 0.95
  | K_photo -> 0.88

let sprites_per_composition = 24
let property_sets = 7
let propset_input_bytes = 30_000

let specs_key : (string, spec) Hashtbl.t Runtime.key = Runtime.new_key ()

let specs ctx =
  match Runtime.get_data ctx specs_key with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 8 in
      Runtime.set_data ctx specs_key t;
      t

let register_img ctx name spec =
  Hashtbl.replace (specs ctx) name spec;
  Common.Vfs.add ctx ~name ~bytes:spec.p_bytes

let spec_of ctx name =
  match Hashtbl.find_opt (specs ctx) name with
  | Some s -> s
  | None -> Hresult.fail (Hresult.E_fail ("PhotoDraw: unknown image " ^ name))

(* ---------------------------------------------------------------- *)
(* Interfaces                                                        *)
(* ---------------------------------------------------------------- *)

let i_pd_app =
  Itype.declare "IPdApp"
    [
      Idl_type.method_ "startup" [];
      Idl_type.method_ "new_image" [];
      Idl_type.method_ "open_image" [ Idl_type.param "name" Idl_type.Str ];
      Idl_type.method_ "new_composition"
        [ Idl_type.param "a" Idl_type.Str; Idl_type.param "b" Idl_type.Str ];
      Idl_type.method_ "repaint" [];
      Idl_type.method_ "shutdown" [];
    ]

let pd_app_startup = Itype.slot i_pd_app "startup"
let pd_app_new_image = Itype.slot i_pd_app "new_image"
let pd_app_open_image = Itype.slot i_pd_app "open_image"
let pd_app_new_composition = Itype.slot i_pd_app "new_composition"
let pd_app_repaint = Itype.slot i_pd_app "repaint"
let pd_app_shutdown = Itype.slot i_pd_app "shutdown"

let i_mix_source =
  Itype.declare "IMixSource"
    [
      Idl_type.method_ ~ret:Idl_type.Int32 "open_mix" [ Idl_type.param "name" Idl_type.Str ];
      Idl_type.method_ ~ret:Idl_type.Int32 "sprite_count" [];
      Idl_type.method_ ~ret:Idl_type.Blob "read_sprite" [ Idl_type.param "index" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Int32 "propset_count" [];
      Idl_type.method_ ~ret:(Idl_type.Iface "IQuery") "propset"
        [ Idl_type.param "index" Idl_type.Int32 ];
    ]

let mix_source_open_mix = Itype.slot i_mix_source "open_mix"
let mix_source_sprite_count = Itype.slot i_mix_source "sprite_count"
let mix_source_read_sprite = Itype.slot i_mix_source "read_sprite"
let mix_source_propset_count = Itype.slot i_mix_source "propset_count"
let mix_source_propset = Itype.slot i_mix_source "propset"

(* The sprite surface: pixel buffers travel as opaque shared-memory
   handles, so the whole interface is non-remotable. *)
let i_sprite =
  Itype.declare "ISprite"
    [
      Idl_type.method_ "set_pixels"
        [ Idl_type.param "size" Idl_type.Int32; Idl_type.param "shm" (Idl_type.Opaque "SHM") ];
      Idl_type.method_ "blend"
        [
          Idl_type.param "dst" (Idl_type.Iface "ISprite");
          Idl_type.param "shm" (Idl_type.Opaque "SHM");
        ];
      Idl_type.method_ ~ret:Idl_type.Int32 "pixel_bytes" [];
    ]

let sprite_set_pixels = Itype.slot i_sprite "set_pixels"
let sprite_blend = Itype.slot i_sprite "blend"
let sprite_pixel_bytes = Itype.slot i_sprite "pixel_bytes"

let i_composition =
  Itype.declare "IComposition"
    [
      Idl_type.method_ "init"
        [
          Idl_type.param "src" (Idl_type.Iface "IMixSource");
          Idl_type.param "target" (Idl_type.Iface "ISprite");
          Idl_type.param "render" (Idl_type.Iface "IRender");
        ];
      Idl_type.method_ ~ret:Idl_type.Int32 "build" [];
      Idl_type.method_ "show" [];
      Idl_type.method_ "blank" [ Idl_type.param "sprites" Idl_type.Int32 ];
    ]

let composition_init = Itype.slot i_composition "init"
let composition_build = Itype.slot i_composition "build"
let composition_show = Itype.slot i_composition "show"
let composition_blank = Itype.slot i_composition "blank"

let i_transform =
  Itype.declare "ITransform"
    [
      Idl_type.method_ ~ret:Idl_type.Int32 "apply"
        [
          Idl_type.param "target" (Idl_type.Iface "ISprite");
          Idl_type.param "kind" Idl_type.Str;
          Idl_type.param "shm" (Idl_type.Opaque "SHM");
        ];
    ]

let transform_apply = Itype.slot i_transform "apply"

(* ---------------------------------------------------------------- *)
(* GUI                                                               *)
(* ---------------------------------------------------------------- *)

let kit = Widgets.kit ~prefix:"PhotoDraw"

(* ---------------------------------------------------------------- *)
(* Components                                                        *)
(* ---------------------------------------------------------------- *)

let c_property_set =
  Runtime.define_class "PhotoDraw.PropertySet" (fun _ctx _self ->
      let stored = ref 0 in
      let put ctx args =
        stored := !stored + Combuild.get_blob args 0;
        chg ctx (float_of_int (Combuild.get_blob args 0) /. 300.);
        Value.Unit
      in
      let finish ctx _args =
        chg ctx 6.;
        Value.Int !stored
      in
      let query ctx _args =
        chg ctx 5.;
        Value.Str "color-profile:sRGB;dpi:300"
      in
      let query_int ctx _args =
        chg ctx 4.;
        Value.Int (!stored mod 4099)
      in
      [
        Combuild.iface Common.i_blob_sink [ ("put", put); ("finish", finish) ];
        Combuild.iface Common.i_query [ ("query", query); ("query_int", query_int) ];
      ])

(* The .mix reader: scans the composition file through the storage
   server, builds the property sets from the file data, and serves
   parsed sprites from its index. *)
let c_mix_reader =
  Runtime.define_class "PhotoDraw.MixReader"
    ~creates:[ "PhotoDraw.PropertySet" ] (fun ctx0 _self ->
      let fs = Common.create_file_server ctx0 in
      let state = ref None in
      (* (spec, propset query handles) *)
      let open_mix ctx args =
        let name = Combuild.get_str args 0 in
        let spec = spec_of ctx name in
        let fh = Common.call_ret_int ctx fs Common.file_read_open_file [ Value.Str name ] in
        let size = Common.call_ret_int ctx fs Common.file_read_file_size [ Value.Int fh ] in
        let block = 32_768 in
        let offset = ref 0 in
        while !offset < size do
          let got =
            Common.call_ret_blob ctx fs Common.file_read_read_block
              [ Value.Int fh; Value.Int !offset; Value.Int block ]
          in
          chg ctx (float_of_int got /. 1_000.);
          offset := !offset + block
        done;
        let propsets =
          if spec.p_kind = K_composition then
            List.init property_sets (fun _ ->
                let p = Common.create ctx c_property_set Common.i_blob_sink in
                ignore (Runtime.call_slot ctx p Common.blob_sink_put
                          [ Value.Blob propset_input_bytes ]);
                ignore (Common.call_ret_int ctx p Common.blob_sink_finish []);
                Runtime.query_interface ctx p ~iid:(Itype.iid Common.i_query))
          else []
        in
        state := Some (spec, propsets);
        chg ctx 200.;
        Value.Int spec.p_sprites
      in
      let with_state f =
        match !state with
        | Some (spec, propsets) -> f spec propsets
        | None -> Hresult.fail (Hresult.E_fail "PhotoDraw.MixReader: nothing open")
      in
      let sprite_count ctx _args =
        with_state (fun spec _ ->
            chg ctx 2.;
            Value.Int spec.p_sprites)
      in
      let read_sprite ctx args =
        with_state (fun spec _ ->
            let index = Combuild.get_int args 0 in
            if index < 0 || index >= max 1 spec.p_sprites then
              Hresult.fail (Hresult.E_invalidarg "PhotoDraw: sprite out of range");
            let parsed =
              int_of_float (parse_ratio spec.p_kind *. float_of_int spec.p_bytes)
              / max 1 spec.p_sprites
            in
            chg ctx (float_of_int parsed /. 2_000.);
            Value.Blob parsed)
      in
      let propset_count ctx _args =
        with_state (fun _ propsets ->
            chg ctx 2.;
            Value.Int (List.length propsets))
      in
      let propset ctx args =
        with_state (fun _ propsets ->
            let index = Combuild.get_int args 0 in
            chg ctx 2.;
            match List.nth_opt propsets index with
            | Some p -> Value.Iface_ref p
            | None -> Value.Null)
      in
      [
        Combuild.iface i_mix_source
          [
            ("open_mix", open_mix); ("sprite_count", sprite_count);
            ("read_sprite", read_sprite); ("propset_count", propset_count);
            ("propset", propset);
          ];
      ])

let c_event_manager =
  Runtime.define_class "PhotoDraw.EventManager" (fun _ctx _self ->
      let notify ctx _args =
        chg ctx 3.;
        Value.Unit
      in
      let notify_str ctx _args =
        chg ctx 3.;
        Value.Unit
      in
      [ Combuild.iface Common.i_notify [ ("notify", notify); ("notify_str", notify_str) ] ])

let c_sprite_cache =
  Runtime.define_class "PhotoDraw.SpriteCache" (fun _ctx _self ->
      let bytes = ref 0 in
      let set_pixels ctx args =
        bytes := Combuild.get_int args 0;
        chg ctx (float_of_int !bytes /. 3_000.);
        Value.Unit
      in
      let blend ctx args =
        let dst = Combuild.get_iface args 0 in
        (* Push our pixels into the destination sprite via shared
           memory: a non-remotable, zero-copy hop. *)
        ignore
          (Runtime.call_slot ctx dst sprite_set_pixels
             [ Value.Int !bytes; Value.Opaque_handle "SHM" ]);
        chg ctx (float_of_int !bytes /. 2_500.);
        Value.Unit
      in
      let pixel_bytes ctx _args =
        chg ctx 2.;
        Value.Int !bytes
      in
      [
        Combuild.iface i_sprite
          [ ("set_pixels", set_pixels); ("blend", blend); ("pixel_bytes", pixel_bytes) ];
      ])

(* A layer owns one sprite cache and its event plumbing. *)
let i_layer =
  Itype.declare "ILayer"
    [
      Idl_type.method_ "load" [ Idl_type.param "data" Idl_type.Blob ];
      Idl_type.method_ "compose" [ Idl_type.param "target" (Idl_type.Iface "ISprite") ];
    ]

let layer_load = Itype.slot i_layer "load"
let layer_compose = Itype.slot i_layer "compose"

let c_layer =
  Runtime.define_class "PhotoDraw.Layer" (fun ctx0 _self ->
      let sprite = Common.create ctx0 c_sprite_cache i_sprite in
      let events = Common.create ctx0 c_event_manager Common.i_notify in
      let load ctx args =
        let data = Combuild.get_blob args 0 in
        ignore
          (Runtime.call_slot ctx sprite sprite_set_pixels
             [ Value.Int data; Value.Opaque_handle "SHM" ]);
        ignore (Runtime.call_slot ctx events Common.notify_notify [ Value.Int 1 ]);
        chg ctx (float_of_int data /. 2_000.);
        Value.Unit
      in
      let compose ctx args =
        let target = Combuild.get_iface args 0 in
        ignore
          (Runtime.call_slot ctx sprite sprite_blend
             [ Value.Iface_ref target; Value.Opaque_handle "SHM" ]);
        ignore (Runtime.call_slot ctx events Common.notify_notify [ Value.Int 2 ]);
        chg ctx 40.;
        Value.Unit
      in
      [ Combuild.iface i_layer [ ("load", load); ("compose", compose) ] ])

(* Each transform application instantiates a parameterized effect —
   blur radii, tint matrices — that runs against the sprite over shared
   memory. *)
let i_effect =
  Itype.declare "IEffect"
    [
      Idl_type.method_ ~ret:Idl_type.Int32 "run"
        [
          Idl_type.param "target" (Idl_type.Iface "ISprite");
          Idl_type.param "shm" (Idl_type.Opaque "SHM");
        ];
    ]

let effect_run = Itype.slot i_effect "run"

let c_effect_instance =
  Runtime.define_class "PhotoDraw.EffectInstance" (fun _ctx _self ->
      let run ctx args =
        let target = Combuild.get_iface args 0 in
        let n = Common.call_ret_int ctx target sprite_pixel_bytes [] in
        ignore
          (Runtime.call_slot ctx target sprite_set_pixels
             [ Value.Int n; Value.Opaque_handle "SHM" ]);
        chg ctx (150. +. (float_of_int n /. 900.));
        Value.Int n
      in
      [ Combuild.iface i_effect [ ("run", run) ] ])

let c_transform =
  Runtime.define_class "PhotoDraw.Transform"
    ~creates:[ "PhotoDraw.EffectInstance" ] (fun _ctx _self ->
      let apply ctx args =
        let target = Combuild.get_iface args 0 in
        let effect = Common.create ctx c_effect_instance i_effect in
        let n =
          Common.call_ret_int ctx effect effect_run
            [ List.nth args 0; Value.Opaque_handle "SHM" ]
        in
        ignore target;
        chg ctx 60.;
        Value.Int n
      in
      [ Combuild.iface i_transform [ ("apply", apply) ] ])

(* Gallery browsing materializes a thumbnail component per template. *)
let c_thumbnail =
  Runtime.define_class "PhotoDraw.Thumbnail" (fun _ctx _self ->
      let put ctx args =
        chg ctx (float_of_int (Combuild.get_blob args 0) /. 600.);
        Value.Unit
      in
      let finish ctx _args =
        chg ctx 3.;
        Value.Int 0
      in
      [ Combuild.iface Common.i_blob_sink [ ("put", put); ("finish", finish) ] ])

(* The screen renderer is itself a sprite (the backbuffer) painted by
   the window. *)
let c_renderer =
  Runtime.define_class "PhotoDraw.Renderer" ~api_refs:Widgets.gui_apis (fun _ctx _self ->
      let bytes = ref 0 in
      let set_pixels ctx args =
        bytes := max !bytes (Combuild.get_int args 0);
        chg ctx (float_of_int (Combuild.get_int args 0) /. 4_000.);
        Value.Unit
      in
      let blend ctx args =
        ignore (Combuild.get_iface args 0);
        chg ctx 30.;
        Value.Unit
      in
      let pixel_bytes ctx _args =
        chg ctx 2.;
        Value.Int !bytes
      in
      let paint ctx _args =
        chg ctx (100. +. (float_of_int !bytes /. 8_000.));
        Value.Unit
      in
      let invalidate ctx _args =
        chg ctx 3.;
        Value.Unit
      in
      [
        Combuild.iface i_sprite
          [ ("set_pixels", set_pixels); ("blend", blend); ("pixel_bytes", pixel_bytes) ];
        Combuild.iface Common.i_paint [ ("paint", paint); ("invalidate", invalidate) ];
      ])

let c_composition =
  Runtime.define_class "PhotoDraw.Composition"
    ~creates:[ "PhotoDraw.Layer" ] (fun _ctx _self ->
      let src = ref None and target = ref None and render = ref None in
      let layers = ref [] in
      let init ctx args =
        (match List.nth args 0 with
        | Value.Iface_ref h -> src := Some h
        | _ -> src := None);
        target := Some (Combuild.get_iface args 1);
        render := Some (Combuild.get_iface args 2);
        chg ctx 15.;
        Value.Unit
      in
      let build ctx _args =
        let s = Option.get !src in
        let n = Common.call_ret_int ctx s mix_source_sprite_count [] in
        for i = 0 to n - 1 do
          let data = Common.call_ret_blob ctx s mix_source_read_sprite [ Value.Int i ] in
          let layer = Common.create ctx c_layer i_layer in
          ignore (Runtime.call_slot ctx layer layer_load [ Value.Blob data ]);
          layers := layer :: !layers
        done;
        (* Consult the property sets for rendering intent. *)
        let np = Common.call_ret_int ctx s mix_source_propset_count [] in
        for i = 0 to np - 1 do
          match Runtime.call_slot ctx s mix_source_propset [ Value.Int i ] with
          | Value.Iface_ref p ->
              ignore (Common.call_ret_str ctx p Common.query_query [ Value.Str "render-intent" ]);
              ignore (Common.call_ret_int ctx p Common.query_query_int [ Value.Str "gamma" ])
          | _ -> ()
        done;
        chg ctx 120.;
        Value.Int n
      in
      let show ctx _args =
        (match (!target, !render) with
        | Some t, Some r ->
            List.iter
              (fun layer ->
                ignore (Runtime.call_slot ctx layer layer_compose [ Value.Iface_ref t ]))
              (List.rev !layers);
            ignore
              (Runtime.call_slot ctx r Common.render_render_page [ Value.Int 0; Value.Blob 1_500 ])
        | _ -> ());
        chg ctx 200.;
        Value.Unit
      in
      let blank ctx args =
        let n = Combuild.get_int args 0 in
        for _ = 1 to n do
          let layer = Common.create ctx c_layer i_layer in
          ignore (Runtime.call_slot ctx layer layer_load [ Value.Blob 4_096 ]);
          layers := layer :: !layers
        done;
        chg ctx 60.;
        Value.Unit
      in
      [
        Combuild.iface i_composition
          [ ("init", init); ("build", build); ("show", show); ("blank", blank) ];
      ])

let c_app =
  Runtime.define_class "PhotoDraw.App" ~api_refs:Widgets.gui_apis
    ~creates:
      (Widgets.class_names kit
      @ [
          "PhotoDraw.Renderer"; "PhotoDraw.MixReader"; "PhotoDraw.Composition";
          "PhotoDraw.Thumbnail"; "PhotoDraw.Transform"; Common.file_server_class_name;
        ])
    (fun _ctx _self ->
      let chrome = ref None in
      let renderer = ref None in
      let fs = ref None in
      let open_with_reader ctx name =
        let c = Option.get !chrome in
        let r = Option.get !renderer in
        let reader = Common.create ctx c_mix_reader i_mix_source in
        ignore (Common.call_ret_int ctx reader mix_source_open_mix [ Value.Str name ]);
        let comp = Common.create ctx c_composition i_composition in
        ignore
          (Runtime.call_slot ctx comp composition_init
             [ Value.Iface_ref reader; Value.Iface_ref r; Value.Iface_ref c.Widgets.window_render ]);
        ignore (Common.call_ret_int ctx comp composition_build []);
        ignore (Runtime.call_slot ctx comp composition_show []);
        comp
      in
      let startup ctx _args =
        let c = Widgets.build_chrome ctx kit ~buttons:42 ~menus:9 ~extras:12 in
        chrome := Some c;
        (* Tool palettes: two extra bars of buttons. *)
        let r = Common.create ctx c_renderer i_sprite in
        renderer := Some r;
        let rp = Runtime.query_interface ctx r ~iid:(Itype.iid Common.i_paint) in
        ignore
          (Runtime.call_slot ctx c.Widgets.window_render Common.render_attach_surface
             [ Value.Iface_ref rp ]);
        let f = Common.create_file_server ctx in
        fs := Some f;
        ignore (Common.call_ret_blob ctx f Common.file_read_read_all
                  [ Value.Str "photodraw.ini" ]);
        chg ctx 900.;
        Value.Unit
      in
      let new_image ctx _args =
        (* The template gallery streams through a reader of its own;
           the chooser materializes a thumbnail per template. *)
        let comp_gallery = open_with_reader ctx "gallery.mix" in
        ignore comp_gallery;
        for _ = 1 to 16 do
          let thumb = Common.create ctx c_thumbnail Common.i_blob_sink in
          ignore (Runtime.call_slot ctx thumb Common.blob_sink_put [ Value.Blob 3_000 ])
        done;
        let c = Option.get !chrome in
        let r = Option.get !renderer in
        let comp = Common.create ctx c_composition i_composition in
        ignore
          (Runtime.call_slot ctx comp composition_init
             [ Value.Null; Value.Iface_ref r; Value.Iface_ref c.Widgets.window_render ]);
        ignore (Runtime.call_slot ctx comp composition_blank [ Value.Int 4 ]);
        chg ctx 150.;
        Value.Unit
      in
      let open_image ctx args =
        ignore (open_with_reader ctx (Combuild.get_str args 0));
        chg ctx 80.;
        Value.Unit
      in
      let new_composition ctx args =
        let a = Combuild.get_str args 0 in
        let b = Combuild.get_str args 1 in
        ignore (open_with_reader ctx a);
        ignore (open_with_reader ctx b);
        (* Transform the merged result. *)
        let r = Option.get !renderer in
        let t = Common.create ctx c_transform i_transform in
        List.iter
          (fun kind ->
            ignore
              (Common.call_ret_int ctx t transform_apply
                 [ Value.Iface_ref r; Value.Str kind; Value.Opaque_handle "SHM" ]))
          [ "sharpen"; "tint"; "crop" ];
        chg ctx 400.;
        Value.Unit
      in
      let repaint ctx _args =
        (match !chrome with
        | Some c ->
            List.iter
              (fun p ->
                ignore (Runtime.call_slot ctx p Common.paint_paint [ Value.Opaque_handle "HDC" ]))
              c.Widgets.paints
        | None -> ());
        chg ctx 60.;
        Value.Unit
      in
      let shutdown ctx _args =
        chg ctx 180.;
        Value.Unit
      in
      [
        Combuild.iface i_pd_app
          [
            ("startup", startup); ("new_image", new_image); ("open_image", open_image);
            ("new_composition", new_composition); ("repaint", repaint); ("shutdown", shutdown);
          ];
      ])

(* ---------------------------------------------------------------- *)
(* Scenarios (Table 1, the p_ rows)                                  *)
(* ---------------------------------------------------------------- *)

let images =
  [
    ("collage.mix", { p_kind = K_composition; p_bytes = 3_000_000; p_sprites = sprites_per_composition });
    ("drawing.mix", { p_kind = K_line_drawing; p_bytes = 500_000; p_sprites = 10 });
    ("gallery.mix", { p_kind = K_gallery; p_bytes = 1_200_000; p_sprites = 16 });
    ("scan_a.mix", { p_kind = K_photo; p_bytes = 2_500_000; p_sprites = 12 });
    ("scan_b.mix", { p_kind = K_photo; p_bytes = 2_500_000; p_sprites = 12 });
  ]

let prepare ctx =
  Common.Vfs.add ctx ~name:"photodraw.ini" ~bytes:8_000;
  List.iter (fun (name, spec) -> register_img ctx name spec) images

let boot ctx =
  prepare ctx;
  let app = Common.create ctx c_app i_pd_app in
  ignore (Runtime.call_slot ctx app pd_app_startup []);
  app

let scenario_new_image ctx =
  let app = boot ctx in
  ignore (Runtime.call_slot ctx app pd_app_new_image []);
  ignore (Runtime.call_slot ctx app pd_app_repaint []);
  ignore (Runtime.call_slot ctx app pd_app_shutdown [])

let scenario_new_composition ctx =
  let app = boot ctx in
  ignore (Runtime.call_slot ctx app pd_app_new_composition
            [ Value.Str "scan_a.mix"; Value.Str "scan_b.mix" ]);
  ignore (Runtime.call_slot ctx app pd_app_repaint []);
  ignore (Runtime.call_slot ctx app pd_app_shutdown [])

let scenario_open name ctx =
  let app = boot ctx in
  ignore (Runtime.call_slot ctx app pd_app_open_image [ Value.Str name ]);
  ignore (Runtime.call_slot ctx app pd_app_repaint []);
  ignore (Runtime.call_slot ctx app pd_app_shutdown [])

let scenario_off name ctx =
  let app = boot ctx in
  ignore (Runtime.call_slot ctx app pd_app_new_image []);
  ignore (Runtime.call_slot ctx app pd_app_repaint []);
  ignore (Runtime.call_slot ctx app pd_app_open_image [ Value.Str name ]);
  ignore (Runtime.call_slot ctx app pd_app_repaint []);
  ignore (Runtime.call_slot ctx app pd_app_shutdown [])

let sc id desc run = { App.sc_id = id; sc_desc = desc; sc_bigone = false; sc_run = run }

let scenarios =
  [
    sc "p_newdoc" "Create new image." scenario_new_image;
    sc "p_newmsr" "Create new composition." scenario_new_composition;
    sc "p_oldcur" "View line drawing." (scenario_open "drawing.mix");
    sc "p_oldmsr" "View composition." (scenario_open "collage.mix");
    sc "p_offcur" "p_newdoc then p_oldcur." (scenario_off "drawing.mix");
    sc "p_offmsr" "p_newdoc then p_oldmsr." (scenario_off "collage.mix");
    {
      App.sc_id = "p_bigone";
      sc_desc = "All of the above in one scenario.";
      sc_bigone = true;
      sc_run =
        (fun ctx ->
          scenario_new_image ctx;
          scenario_new_composition ctx;
          scenario_open "drawing.mix" ctx;
          scenario_open "collage.mix" ctx;
          scenario_off "drawing.mix" ctx;
          scenario_off "collage.mix" ctx);
    };
  ]

let classes =
  Widgets.classes kit
  @ [
      c_property_set; c_mix_reader; c_event_manager; c_sprite_cache; c_layer;
      c_effect_instance; c_transform; c_thumbnail; c_renderer; c_composition; c_app;
    ]

let app =
  App.make ~name:"photodraw" ~roots:[ "PhotoDraw.App" ] ~classes
    ~default_placement:(fun _cname -> Coign_core.Constraints.Client)
    ~scenarios
