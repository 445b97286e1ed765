open Coign_idl
open Coign_com

let i_file_read =
  Itype.declare "IFileRead"
    [
      Idl_type.method_ ~ret:Idl_type.Int32 "open_file" [ Idl_type.param "name" Idl_type.Str ];
      Idl_type.method_ ~ret:Idl_type.Int32 "file_size" [ Idl_type.param "fh" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Blob "read_block"
        [
          Idl_type.param "fh" Idl_type.Int32;
          Idl_type.param "offset" Idl_type.Int32;
          Idl_type.param "size" Idl_type.Int32;
        ];
      Idl_type.method_ ~ret:Idl_type.Blob "read_all" [ Idl_type.param "name" Idl_type.Str ];
    ]

let file_read_open_file = Itype.slot i_file_read "open_file"
let file_read_file_size = Itype.slot i_file_read "file_size"
let file_read_read_block = Itype.slot i_file_read "read_block"
let file_read_read_all = Itype.slot i_file_read "read_all"

let i_blob_sink =
  Itype.declare "IBlobSink"
    [
      Idl_type.method_ "put" [ Idl_type.param "data" Idl_type.Blob ];
      Idl_type.method_ ~ret:Idl_type.Int32 "finish" [];
    ]

let blob_sink_put = Itype.slot i_blob_sink "put"
let blob_sink_finish = Itype.slot i_blob_sink "finish"

let i_query =
  Itype.declare "IQuery"
    [
      Idl_type.method_ ~ret:Idl_type.Str "query" [ Idl_type.param "key" Idl_type.Str ];
      Idl_type.method_ ~ret:Idl_type.Int32 "query_int" [ Idl_type.param "key" Idl_type.Str ];
    ]

let query_query = Itype.slot i_query "query"
let query_query_int = Itype.slot i_query "query_int"

let i_notify =
  Itype.declare "INotify"
    [
      Idl_type.method_ "notify" [ Idl_type.param "code" Idl_type.Int32 ];
      Idl_type.method_ "notify_str" [ Idl_type.param "text" Idl_type.Str ];
    ]

let notify_notify = Itype.slot i_notify "notify"
let notify_notify_str = Itype.slot i_notify "notify_str"

let i_paint =
  Itype.declare "IPaint"
    [
      Idl_type.method_ "paint" [ Idl_type.param "hdc" (Idl_type.Opaque "HDC") ];
      Idl_type.method_ "invalidate"
        [
          Idl_type.param "x0" Idl_type.Int32;
          Idl_type.param "y0" Idl_type.Int32;
          Idl_type.param "x1" Idl_type.Int32;
          Idl_type.param "y1" Idl_type.Int32;
        ];
    ]

let paint_paint = Itype.slot i_paint "paint"

let i_control =
  Itype.declare "IControl"
    [
      Idl_type.method_ "attach" [ Idl_type.param "parent" (Idl_type.Iface "INotify") ];
      Idl_type.method_ "enable" [ Idl_type.param "on" Idl_type.Bool ];
      Idl_type.method_ "click" [];
      Idl_type.method_ "set_label" [ Idl_type.param "text" Idl_type.Str ];
    ]

let control_attach = Itype.slot i_control "attach"
let control_enable = Itype.slot i_control "enable"
let control_click = Itype.slot i_control "click"
let control_set_label = Itype.slot i_control "set_label"

let i_render =
  Itype.declare "IRender"
    [
      Idl_type.method_ "render_page"
        [ Idl_type.param "page" Idl_type.Int32; Idl_type.param "data" Idl_type.Blob ];
      Idl_type.method_ "scroll" [ Idl_type.param "line" Idl_type.Int32 ];
      Idl_type.method_ "attach_surface" [ Idl_type.param "surface" (Idl_type.Iface "IPaint") ];
    ]

let render_render_page = Itype.slot i_render "render_page"
let render_attach_surface = Itype.slot i_render "attach_surface"

module Vfs = struct
  let key : (string, int) Hashtbl.t Runtime.key = Runtime.new_key ()

  let table ctx =
    match Runtime.get_data ctx key with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 16 in
        Runtime.set_data ctx key t;
        t

  let add ctx ~name ~bytes =
    assert (bytes >= 0);
    Hashtbl.replace (table ctx) name bytes

  let size ctx name =
    match Hashtbl.find_opt (table ctx) name with
    | Some n -> n
    | None -> Hresult.fail (Hresult.E_fail ("no such file: " ^ name))

end

let file_server_class_name = "Storage.FileServer"

let file_server =
  Runtime.define_class file_server_class_name
    ~api_refs:[ "kernel32.CreateFile"; "kernel32.ReadFile"; "kernel32.SetFilePointer" ]
    (fun _ctx _self ->
      let handles : (int, string) Hashtbl.t = Hashtbl.create 8 in
      let next_fh = ref 1 in
      let open_file ctx args =
        let name = Combuild.get_str args 0 in
        ignore (Vfs.size ctx name);
        let fh = !next_fh in
        incr next_fh;
        Hashtbl.replace handles fh name;
        Runtime.charge ctx ~us:120.;
        Value.Int fh
      in
      let file_size ctx args =
        let fh = Combuild.get_int args 0 in
        match Hashtbl.find_opt handles fh with
        | None -> Hresult.fail (Hresult.E_invalidarg "bad file handle")
        | Some name ->
            Runtime.charge ctx ~us:5.;
            Value.Int (Vfs.size ctx name)
      in
      let read_block ctx args =
        let fh = Combuild.get_int args 0 in
        let offset = Combuild.get_int args 1 in
        let size = Combuild.get_int args 2 in
        match Hashtbl.find_opt handles fh with
        | None -> Hresult.fail (Hresult.E_invalidarg "bad file handle")
        | Some name ->
            let total = Vfs.size ctx name in
            let n = max 0 (min size (total - offset)) in
            Runtime.charge ctx ~us:(30. +. (float_of_int n /. 100.));
            Value.Blob n
      in
      let read_all ctx args =
        let name = Combuild.get_str args 0 in
        let n = Vfs.size ctx name in
        Runtime.charge ctx ~us:(60. +. (float_of_int n /. 100.));
        Value.Blob n
      in
      [
        Combuild.iface i_file_read
          [
            ("open_file", open_file);
            ("file_size", file_size);
            ("read_block", read_block);
            ("read_all", read_all);
          ];
      ])

let create ctx (cls : Runtime.component_class) itype =
  Runtime.create_instance ctx cls.Runtime.clsid ~iid:(Itype.iid itype)

let create_file_server ctx = create ctx file_server i_file_read

let call_ret_int ctx h slot args =
  match Runtime.call_slot ctx h slot args with
  | Value.Int i -> i
  | v -> Hresult.fail (Hresult.E_fail (Format.asprintf "expected int return, got %a" Value.pp v))

let call_ret_blob ctx h slot args =
  match Runtime.call_slot ctx h slot args with
  | Value.Blob n -> n
  | v -> Hresult.fail (Hresult.E_fail (Format.asprintf "expected blob return, got %a" Value.pp v))

let call_ret_str ctx h slot args =
  match Runtime.call_slot ctx h slot args with
  | Value.Str s -> s
  | v -> Hresult.fail (Hresult.E_fail (Format.asprintf "expected str return, got %a" Value.pp v))
