open Coign_idl
open Coign_com

type kit = {
  window : Runtime.component_class;
  button : Runtime.component_class;
  menu : Runtime.component_class;
  toolbar : Runtime.component_class;
  statusbar : Runtime.component_class;
  scrollbar : Runtime.component_class;
  tooltip : Runtime.component_class;
  dialog : Runtime.component_class;
}

let gui_apis = [ "user32.CreateWindowExW"; "user32.DefWindowProcW"; "gdi32.BitBlt" ]

(* A simple control: stores its parent's INotify, pings it on click,
   charges a little compute per paint. *)
let control_class name ~click_code ~paint_us =
  Runtime.define_class name ~api_refs:gui_apis (fun _ctx _self ->
      let parent = ref None in
      let enabled = ref true in
      let attach ctx args =
        parent := Some (Combuild.get_iface args 0);
        Runtime.charge ctx ~us:15.;
        Value.Unit
      in
      let enable ctx args =
        enabled := Combuild.get_bool args 0;
        Runtime.charge ctx ~us:2.;
        Value.Unit
      in
      let click ctx _args =
        (if !enabled then
           match !parent with
           | Some p ->
               ignore (Runtime.call_slot ctx p Common.notify_notify [ Value.Int click_code ])
           | None -> ());
        Runtime.charge ctx ~us:10.;
        Value.Unit
      in
      let set_label ctx _args =
        Runtime.charge ctx ~us:4.;
        Value.Unit
      in
      let paint ctx _args =
        Runtime.charge ctx ~us:paint_us;
        Value.Unit
      in
      let invalidate ctx _args =
        Runtime.charge ctx ~us:2.;
        Value.Unit
      in
      [
        Combuild.iface Common.i_control
          [ ("attach", attach); ("enable", enable); ("click", click); ("set_label", set_label) ];
        Combuild.iface Common.i_paint [ ("paint", paint); ("invalidate", invalidate) ];
      ])

let window_class name =
  Runtime.define_class name ~api_refs:gui_apis (fun _ctx _self ->
      let events = ref 0 in
      let surfaces = ref [] in
      let notify ctx args =
        ignore (Combuild.get_int args 0);
        incr events;
        Runtime.charge ctx ~us:8.;
        Value.Unit
      in
      let notify_str ctx _args =
        incr events;
        Runtime.charge ctx ~us:8.;
        Value.Unit
      in
      let paint ctx _args =
        Runtime.charge ctx ~us:120.;
        (* Repaint every attached document surface through the
           non-remotable device-context interface. *)
        List.iter
          (fun s ->
            ignore (Runtime.call_slot ctx s Common.paint_paint [ Value.Opaque_handle "HDC" ]))
          !surfaces;
        Value.Unit
      in
      let invalidate ctx _args =
        Runtime.charge ctx ~us:4.;
        Value.Unit
      in
      let render_page ctx args =
        (* Blitting a page image to the screen. *)
        let bytes = Combuild.get_blob args 1 in
        Runtime.charge ctx ~us:(80. +. (float_of_int bytes /. 400.));
        Value.Unit
      in
      let scroll ctx _args =
        Runtime.charge ctx ~us:25.;
        Value.Unit
      in
      let attach_surface ctx args =
        surfaces := Combuild.get_iface args 0 :: !surfaces;
        Runtime.charge ctx ~us:6.;
        Value.Unit
      in
      [
        Combuild.iface Common.i_notify [ ("notify", notify); ("notify_str", notify_str) ];
        Combuild.iface Common.i_paint [ ("paint", paint); ("invalidate", invalidate) ];
        Combuild.iface Common.i_render
          [ ("render_page", render_page); ("scroll", scroll); ("attach_surface", attach_surface) ];
      ])

let kit ~prefix =
  {
    window = window_class (prefix ^ ".MainWindow");
    button = control_class (prefix ^ ".Button") ~click_code:1 ~paint_us:12.;
    menu = control_class (prefix ^ ".Menu") ~click_code:2 ~paint_us:18.;
    toolbar = control_class (prefix ^ ".Toolbar") ~click_code:3 ~paint_us:30.;
    statusbar = control_class (prefix ^ ".StatusBar") ~click_code:4 ~paint_us:16.;
    scrollbar = control_class (prefix ^ ".ScrollBar") ~click_code:5 ~paint_us:10.;
    tooltip = control_class (prefix ^ ".Tooltip") ~click_code:6 ~paint_us:6.;
    dialog = control_class (prefix ^ ".Dialog") ~click_code:7 ~paint_us:40.;
  }

let classes k =
  [ k.window; k.button; k.menu; k.toolbar; k.statusbar; k.scrollbar; k.tooltip; k.dialog ]

let class_names k = List.map (fun c -> c.Runtime.cname) (classes k)

type chrome = {
  window_notify : Runtime.handle;
  window_paint : Runtime.handle;
  window_render : Runtime.handle;
  controls : Runtime.handle list;
  paints : Runtime.handle list;
}

let build_chrome ctx k ~buttons ~menus ~extras =
  let window_notify = Common.create ctx k.window Common.i_notify in
  let window_paint = Runtime.query_interface ctx window_notify ~iid:(Itype.iid Common.i_paint) in
  let window_render = Runtime.query_interface ctx window_notify ~iid:(Itype.iid Common.i_render) in
  let make cls count =
    List.init count (fun _ ->
        let ctl = Common.create ctx cls Common.i_control in
        ignore (Runtime.call_slot ctx ctl Common.control_attach [ Value.Iface_ref window_notify ]);
        ctl)
  in
  let controls =
    List.concat
      [
        make k.button buttons;
        make k.menu menus;
        make k.toolbar 1;
        make k.statusbar 1;
        make k.scrollbar 2;
        make k.tooltip extras;
        make k.dialog 1;
      ]
  in
  let paints =
    window_paint
    :: List.map (fun c -> Runtime.query_interface ctx c ~iid:(Itype.iid Common.i_paint)) controls
  in
  { window_notify; window_paint; window_render; controls; paints }
