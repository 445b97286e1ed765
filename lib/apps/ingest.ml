open Coign_idl
open Coign_com

let chg ctx us = Runtime.charge ctx ~us

(* Pipeline shape constants: raw capture frames expand slightly while
   being decoded, then pack down hard before hitting storage, so the
   profitable cut ships packed frames, not raw ones. The replay path is
   the mirror image: archived captures are large, the per-segment
   telemetry sent back to the monitor is tiny. *)
let decode_num = 5
let decode_den = 4
let pack_ratio = 12
let min_packed_bytes = 64
let index_row_bytes = 48
let replay_segment_bytes = 20_000
let replay_report_bytes = 96

(* ---------------------------------------------------------------- *)
(* Interfaces                                                        *)
(* ---------------------------------------------------------------- *)

let i_ingest_app =
  Itype.declare "IIngestApp"
    [
      Idl_type.method_ "startup" [];
      Idl_type.method_ ~ret:Idl_type.Int32 "stream"
        [ Idl_type.param "frames" Idl_type.Int32; Idl_type.param "frame_bytes" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Int32 "replay" [ Idl_type.param "capture" Idl_type.Str ];
      Idl_type.method_ "repaint" [];
      Idl_type.method_ "shutdown" [];
    ]

let ingest_app_startup = Itype.slot i_ingest_app "startup"
let ingest_app_stream = Itype.slot i_ingest_app "stream"
let ingest_app_replay = Itype.slot i_ingest_app "replay"
let ingest_app_repaint = Itype.slot i_ingest_app "repaint"
let ingest_app_shutdown = Itype.slot i_ingest_app "shutdown"

let i_frame_source =
  Itype.declare "IFrameSource"
    [
      Idl_type.method_ "attach_sink" [ Idl_type.param "sink" (Idl_type.Iface "IBlobSink") ];
      Idl_type.method_ ~ret:Idl_type.Int32 "start_stream"
        [ Idl_type.param "frames" Idl_type.Int32; Idl_type.param "frame_bytes" Idl_type.Int32 ];
    ]

let frame_source_attach_sink = Itype.slot i_frame_source "attach_sink"
let frame_source_start_stream = Itype.slot i_frame_source "start_stream"

let i_stage =
  Itype.declare "IIngestStage"
    [
      Idl_type.method_ "connect" [ Idl_type.param "next" (Idl_type.Iface "IBlobSink") ];
    ]

let stage_connect = Itype.slot i_stage "connect"

let i_catalog =
  Itype.declare "ICatalog"
    [
      Idl_type.method_ "record"
        [ Idl_type.param "stream" Idl_type.Int32; Idl_type.param "entry" Idl_type.Blob ];
      Idl_type.method_ ~ret:Idl_type.Int32 "entry_count" [];
    ]

let catalog_record = Itype.slot i_catalog "record"
let catalog_entry_count = Itype.slot i_catalog "entry_count"

let i_replayer =
  Itype.declare "IReplayer"
    [
      Idl_type.method_ "attach_store"
        [ Idl_type.param "store" (Idl_type.Iface "IFileRead");
          Idl_type.param "monitor" (Idl_type.Iface "INotify") ];
      Idl_type.method_ ~ret:Idl_type.Int32 "replay_capture" [ Idl_type.param "name" Idl_type.Str ];
    ]

let replayer_attach_store = Itype.slot i_replayer "attach_store"
let replayer_replay_capture = Itype.slot i_replayer "replay_capture"

(* ---------------------------------------------------------------- *)
(* Capture side (client-pinned hardware access)                      *)
(* ---------------------------------------------------------------- *)

(* The capture card driver surface: device notifications and DIB
   readback pin the grabber to the machine the instrument hangs off. *)
let capture_apis = [ "user32.RegisterDeviceNotification"; "gdi32.GetDIBits" ]

let c_capture =
  Runtime.define_class "Ingest.CaptureCard" ~api_refs:capture_apis (fun _ctx _self ->
      let sink = ref None in
      let attach_sink ctx args =
        sink := Some (Combuild.get_iface args 0);
        chg ctx 25.;
        Value.Unit
      in
      let start_stream ctx args =
        let frames = Combuild.get_int args 0 in
        let frame_bytes = Combuild.get_int args 1 in
        let s = Option.get !sink in
        for _ = 1 to frames do
          (* DMA the frame out of the card, then push it downstream. *)
          chg ctx (40. +. (float_of_int frame_bytes /. 400.));
          ignore (Runtime.call_slot ctx s Common.blob_sink_put [ Value.Blob frame_bytes ])
        done;
        ignore (Common.call_ret_int ctx s Common.blob_sink_finish []);
        chg ctx 30.;
        Value.Int frames
      in
      [
        Combuild.iface i_frame_source
          [ ("attach_sink", attach_sink); ("start_stream", start_stream) ];
      ])

(* The operator console: throughput counters and a level meter. Only
   the remotable INotify surface is exported — exporting IPaint would
   chain every ref-holder (including the server-side replayer) to the
   client through the static non-remotable co-location rule. A negative
   code asks for a console redraw. *)
let c_monitor =
  Runtime.define_class "Ingest.Monitor" ~api_refs:Widgets.gui_apis (fun _ctx _self ->
      let events = ref 0 in
      let notify ctx args =
        let code = Combuild.get_int args 0 in
        if code < 0 then chg ctx (55. +. (float_of_int !events /. 50.))
        else begin
          incr events;
          chg ctx 6.
        end;
        Value.Unit
      in
      let notify_str ctx args =
        ignore (Combuild.get_str args 0);
        incr events;
        chg ctx 9.;
        Value.Unit
      in
      [ Combuild.iface Common.i_notify [ ("notify", notify); ("notify_str", notify_str) ] ])

(* ---------------------------------------------------------------- *)
(* Free-floating stages — where the cut actually moves               *)
(* ---------------------------------------------------------------- *)

(* Unpacks the card's raw DMA format; output is slightly larger. *)
let c_decoder =
  Runtime.define_class "Ingest.Decoder" (fun _ctx _self ->
      let next = ref None in
      let connect ctx args =
        next := Some (Combuild.get_iface args 0);
        chg ctx 8.;
        Value.Unit
      in
      let put ctx args =
        let raw = Combuild.get_blob args 0 in
        let decoded = raw * decode_num / decode_den in
        chg ctx (60. +. (float_of_int raw /. 250.));
        ignore
          (Runtime.call_slot ctx (Option.get !next) Common.blob_sink_put [ Value.Blob decoded ]);
        Value.Unit
      in
      let finish ctx _args =
        let n = Common.call_ret_int ctx (Option.get !next) Common.blob_sink_finish [] in
        chg ctx 12.;
        Value.Int n
      in
      [
        Combuild.iface i_stage [ ("connect", connect) ];
        Combuild.iface Common.i_blob_sink [ ("put", put); ("finish", finish) ];
      ])

(* Rate-reducing compressor: the pipeline's choke point. *)
let c_packer =
  Runtime.define_class "Ingest.Packer" (fun _ctx _self ->
      let next = ref None in
      let connect ctx args =
        next := Some (Combuild.get_iface args 0);
        chg ctx 8.;
        Value.Unit
      in
      let put ctx args =
        let decoded = Combuild.get_blob args 0 in
        let packed = max min_packed_bytes (decoded / pack_ratio) in
        chg ctx (110. +. (float_of_int decoded /. 120.));
        ignore
          (Runtime.call_slot ctx (Option.get !next) Common.blob_sink_put [ Value.Blob packed ]);
        Value.Unit
      in
      let finish ctx _args =
        let n = Common.call_ret_int ctx (Option.get !next) Common.blob_sink_finish [] in
        chg ctx 10.;
        Value.Int n
      in
      [
        Combuild.iface i_stage [ ("connect", connect) ];
        Combuild.iface Common.i_blob_sink [ ("put", put); ("finish", finish) ];
      ])

(* ---------------------------------------------------------------- *)
(* Storage side (server-pinned)                                      *)
(* ---------------------------------------------------------------- *)

let c_archive =
  Runtime.define_class "Ingest.ArchiveWriter"
    ~api_refs:[ "kernel32.CreateFile"; "kernel32.WriteFile"; "kernel32.SetFilePointer" ]
    (fun _ctx _self ->
      let catalog = ref None in
      let stored = ref 0 and frames = ref 0 in
      let connect ctx args =
        catalog := Some (Combuild.get_iface args 0);
        chg ctx 10.;
        Value.Unit
      in
      let put ctx args =
        let packed = Combuild.get_blob args 0 in
        stored := !stored + packed;
        incr frames;
        chg ctx (45. +. (float_of_int packed /. 90.));
        (match !catalog with
        | Some c ->
            ignore
              (Runtime.call_slot ctx c catalog_record
                 [ Value.Int !frames; Value.Blob index_row_bytes ])
        | None -> ());
        Value.Unit
      in
      let finish ctx _args =
        chg ctx 80.;
        Value.Int !stored
      in
      [
        Combuild.iface i_stage [ ("connect", connect) ];
        Combuild.iface Common.i_blob_sink [ ("put", put); ("finish", finish) ];
      ])

let c_catalog =
  Runtime.define_class "Ingest.CatalogIndex"
    ~api_refs:[ "odbc32.SQLExecDirect"; "odbc32.SQLFetch" ] (fun _ctx _self ->
      let entries = ref 0 in
      let record ctx args =
        ignore (Combuild.get_int args 0);
        ignore (Combuild.get_blob args 1);
        incr entries;
        chg ctx 35.;
        Value.Unit
      in
      let entry_count ctx _args =
        chg ctx 3.;
        Value.Int !entries
      in
      [ Combuild.iface i_catalog [ ("record", record); ("entry_count", entry_count) ] ])

(* Replays an archived capture: reads bulk segments beside the store,
   sends only small per-segment telemetry back to the monitor. *)
let c_replayer =
  Runtime.define_class "Ingest.Replayer" (fun _ctx _self ->
      let store = ref None and monitor = ref None in
      let attach_store ctx args =
        store := Some (Combuild.get_iface args 0);
        monitor := Some (Combuild.get_iface args 1);
        chg ctx 12.;
        Value.Unit
      in
      let replay_capture ctx args =
        let name = Combuild.get_str args 0 in
        let st = Option.get !store and mon = Option.get !monitor in
        let fh = Common.call_ret_int ctx st Common.file_read_open_file [ Value.Str name ] in
        let total = Common.call_ret_int ctx st Common.file_read_file_size [ Value.Int fh ] in
        let segments = max 1 ((total + replay_segment_bytes - 1) / replay_segment_bytes) in
        for s = 0 to segments - 1 do
          let chunk =
            Common.call_ret_blob ctx st Common.file_read_read_block
              [ Value.Int fh; Value.Int (s * replay_segment_bytes);
                Value.Int replay_segment_bytes ]
          in
          (* Enrich: align, decode telemetry, aggregate — compute-heavy,
             but the result shipped onward is a tiny report. *)
          chg ctx (150. +. (float_of_int chunk /. 80.));
          ignore
            (Runtime.call_slot ctx mon Common.notify_notify_str
               [ Value.Str (String.make replay_report_bytes 's') ])
        done;
        chg ctx 40.;
        Value.Int segments
      in
      [
        Combuild.iface i_replayer
          [ ("attach_store", attach_store); ("replay_capture", replay_capture) ];
      ])

(* ---------------------------------------------------------------- *)
(* Application root                                                  *)
(* ---------------------------------------------------------------- *)

let c_pipeline =
  Runtime.define_class "Ingest.Pipeline"
    ~creates:
      [
        "Ingest.CaptureCard"; "Ingest.Monitor"; "Ingest.Decoder"; "Ingest.Packer";
        "Ingest.ArchiveWriter"; "Ingest.CatalogIndex"; "Ingest.Replayer";
        Common.file_server_class_name;
      ]
    (fun _ctx _self ->
      let capture = ref None and monitor = ref None in
      let replayer = ref None and catalog = ref None in
      let startup ctx _args =
        let mon = Common.create ctx c_monitor Common.i_notify in
        monitor := Some mon;
        let cat = Common.create ctx c_catalog i_catalog in
        catalog := Some cat;
        let archive = Common.create ctx c_archive Common.i_blob_sink in
        let archive_connect = Runtime.query_interface ctx archive ~iid:(Itype.iid i_stage) in
        ignore (Runtime.call_slot ctx archive_connect stage_connect [ Value.Iface_ref cat ]);
        let packer = Common.create ctx c_packer i_stage in
        ignore (Runtime.call_slot ctx packer stage_connect [ Value.Iface_ref archive ]);
        let packer_sink = Runtime.query_interface ctx packer ~iid:(Itype.iid Common.i_blob_sink) in
        let decoder = Common.create ctx c_decoder i_stage in
        ignore (Runtime.call_slot ctx decoder stage_connect [ Value.Iface_ref packer_sink ]);
        let decoder_sink =
          Runtime.query_interface ctx decoder ~iid:(Itype.iid Common.i_blob_sink)
        in
        let cap = Common.create ctx c_capture i_frame_source in
        ignore
          (Runtime.call_slot ctx cap frame_source_attach_sink [ Value.Iface_ref decoder_sink ]);
        capture := Some cap;
        let store = Common.create_file_server ctx in
        let rep = Common.create ctx c_replayer i_replayer in
        ignore
          (Runtime.call_slot ctx rep replayer_attach_store
             [ Value.Iface_ref store; Value.Iface_ref mon ]);
        replayer := Some rep;
        chg ctx 250.;
        Value.Unit
      in
      let stream ctx args =
        let frames = Combuild.get_int args 0 in
        let frame_bytes = Combuild.get_int args 1 in
        let n =
          Common.call_ret_int ctx (Option.get !capture) frame_source_start_stream
            [ Value.Int frames; Value.Int frame_bytes ]
        in
        (match !monitor with
        | Some m -> ignore (Runtime.call_slot ctx m Common.notify_notify [ Value.Int n ])
        | None -> ());
        (match !catalog with
        | Some c -> ignore (Common.call_ret_int ctx c catalog_entry_count [])
        | None -> ());
        chg ctx 50.;
        Value.Int n
      in
      let replay ctx args =
        let name = Combuild.get_str args 0 in
        let n =
          Common.call_ret_int ctx (Option.get !replayer) replayer_replay_capture
            [ Value.Str name ]
        in
        chg ctx 35.;
        Value.Int n
      in
      let repaint ctx _args =
        (match !monitor with
        | Some m -> ignore (Runtime.call_slot ctx m Common.notify_notify [ Value.Int (-1) ])
        | None -> ());
        chg ctx 20.;
        Value.Unit
      in
      let shutdown ctx _args =
        chg ctx 60.;
        Value.Unit
      in
      [
        Combuild.iface i_ingest_app
          [
            ("startup", startup); ("stream", stream); ("replay", replay);
            ("repaint", repaint); ("shutdown", shutdown);
          ];
      ])

(* ---------------------------------------------------------------- *)
(* Scenarios                                                         *)
(* ---------------------------------------------------------------- *)

let prepare ctx =
  Common.Vfs.add ctx ~name:"night01.cap" ~bytes:160_000;
  Common.Vfs.add ctx ~name:"calib.cap" ~bytes:60_000

let boot ctx =
  prepare ctx;
  let app = Common.create ctx c_pipeline i_ingest_app in
  ignore (Runtime.call_slot ctx app ingest_app_startup []);
  app

let scenario_stream frames frame_bytes ctx =
  let app = boot ctx in
  ignore (Common.call_ret_int ctx app ingest_app_stream
            [ Value.Int frames; Value.Int frame_bytes ]);
  ignore (Runtime.call_slot ctx app ingest_app_repaint []);
  ignore (Runtime.call_slot ctx app ingest_app_shutdown [])

let scenario_replay name ctx =
  let app = boot ctx in
  ignore (Common.call_ret_int ctx app ingest_app_replay [ Value.Str name ]);
  ignore (Runtime.call_slot ctx app ingest_app_repaint []);
  ignore (Runtime.call_slot ctx app ingest_app_shutdown [])

let sc id desc run = { App.sc_id = id; sc_desc = desc; sc_bigone = false; sc_run = run }

let scenarios =
  [
    sc "i_strm1" "Ingest a 10-frame capture burst." (scenario_stream 10 32_000);
    sc "i_strm2" "Ingest a 30-frame high-rate capture." (scenario_stream 30 48_000);
    sc "i_replay" "Replay and analyze an archived capture." (scenario_replay "night01.cap");
    {
      App.sc_id = "i_bigone";
      sc_desc = "All of the above in one scenario.";
      sc_bigone = true;
      sc_run =
        (fun ctx ->
          scenario_stream 10 32_000 ctx;
          scenario_stream 30 48_000 ctx;
          scenario_replay "night01.cap" ctx);
    };
  ]

(* The appliance vendor ships everything but the operator console and
   the capture driver on the storage server — raw frames cross the wire
   on every grab, which is exactly what the analyzer improves on. *)
let client_default = [ "Ingest.CaptureCard"; "Ingest.Monitor"; "Ingest.Pipeline" ]

let classes =
  [ c_capture; c_monitor; c_decoder; c_packer; c_archive; c_catalog; c_replayer; c_pipeline ]

let app =
  App.make ~name:"ingest" ~roots:[ "Ingest.Pipeline" ] ~classes
    ~default_placement:(fun cname ->
      if List.mem cname client_default then Coign_core.Constraints.Client
      else Coign_core.Constraints.Server)
    ~scenarios
