(* Quickstart: build a small component application from scratch and let
   Coign distribute it.

   The application is a toy report generator:
     Main -> ReportApp (GUI) -> Formatter -> DataSource -> FileServer
   The data source pulls large files from storage and hands the
   formatter modest summaries; the formatter feeds the GUI. Coign
   should discover that the data source belongs next to the data.

   Run: dune exec examples/quickstart.exe *)

open Coign_idl
open Coign_com
open Coign_core
module Common = Coign_apps.Common

(* 1. Declare interfaces in the IDL-like type language, and resolve
   each method slot the program calls once, as a compiled vtable
   call would. ---------------------------------------------------- *)

let i_report =
  Itype.declare "IReport"
    [
      Idl_type.method_ "generate" [ Idl_type.param "name" Idl_type.Str ];
    ]

let report_generate = Itype.slot i_report "generate"

let i_format =
  Itype.declare "IFormat"
    [
      Idl_type.method_ ~ret:Idl_type.Blob "format_report"
        [ Idl_type.param "source" (Idl_type.Iface "IDataSource") ];
    ]

let format_format_report = Itype.slot i_format "format_report"

let i_data =
  Itype.declare "IDataSource"
    [
      Idl_type.method_ "open_data" [ Idl_type.param "name" Idl_type.Str ];
      Idl_type.method_ ~ret:Idl_type.Blob "summary" [ Idl_type.param "section" Idl_type.Int32 ];
    ]

let data_open_data = Itype.slot i_data "open_data"
let data_summary = Itype.slot i_data "summary"

(* 2. Implement components against the object runtime. -------------- *)

let c_data_source =
  Runtime.define_class "Quick.DataSource" (fun ctx0 _self ->
      (* The data source owns a storage connection; the file server
         class references storage APIs, so static analysis pins it (and
         the data) to the server. *)
      let fs = Common.create_file_server ctx0 in
      let open_data ctx args =
        let name = Combuild.get_str args 0 in
        let fh = Common.call_ret_int ctx fs Common.file_read_open_file [ Value.Str name ] in
        let size = Common.call_ret_int ctx fs Common.file_read_file_size [ Value.Int fh ] in
        (* Scan the whole data set. *)
        let offset = ref 0 in
        while !offset < size do
          ignore
            (Common.call_ret_blob ctx fs Common.file_read_read_block
               [ Value.Int fh; Value.Int !offset; Value.Int 65_536 ]);
          offset := !offset + 65_536
        done;
        Runtime.charge ctx ~us:500.;
        Value.Unit
      in
      let summary ctx args =
        ignore (Combuild.get_int args 0);
        Runtime.charge ctx ~us:200.;
        Value.Blob 2_000
      in
      [ Combuild.iface i_data [ ("open_data", open_data); ("summary", summary) ] ])

let c_formatter =
  Runtime.define_class "Quick.Formatter" (fun _ctx _self ->
      let format_report ctx args =
        let source = Combuild.get_iface args 0 in
        let total = ref 0 in
        for section = 0 to 9 do
          total := !total + Common.call_ret_blob ctx source data_summary [ Value.Int section ]
        done;
        Runtime.charge ctx ~us:800.;
        Value.Blob (!total / 4)
      in
      [ Combuild.iface i_format [ ("format_report", format_report) ] ])

let c_report_app =
  Runtime.define_class "Quick.ReportApp" ~api_refs:[ "user32.CreateWindowExW" ]
    (fun ctx0 _self ->
      let formatter = Common.create ctx0 c_formatter i_format in
      let generate ctx args =
        let name = Combuild.get_str args 0 in
        let source = Common.create ctx c_data_source i_data in
        ignore (Runtime.call_slot ctx source data_open_data [ Value.Str name ]);
        (match Runtime.call_slot ctx formatter format_format_report [ Value.Iface_ref source ] with
        | Value.Blob n -> Printf.printf "  report rendered: %d bytes on screen\n" n
        | _ -> ());
        Runtime.charge ctx ~us:300.;
        Value.Unit
      in
      [ Combuild.iface i_report [ ("generate", generate) ] ])

(* 3. Describe the binary and the usage scenario. -------------------- *)

let classes = [ c_report_app; c_formatter; c_data_source; Common.file_server ]

let registry = Runtime.registry classes

let image =
  Coign_image.Binary_image.create ~name:"quickstart.exe"
    ~api_refs:(List.map (fun c -> (c.Runtime.cname, c.Runtime.api_refs)) classes)
    ()

let scenario ctx =
  Common.Vfs.add ctx ~name:"sales.dat" ~bytes:4_000_000;
  let app = Common.create ctx c_report_app i_report in
  ignore (Runtime.call_slot ctx app report_generate [ Value.Str "sales.dat" ])

(* 4. Run the ADPS pipeline. ------------------------------------------ *)

let () =
  print_endline "Coign quickstart: automatically distributing a report generator";
  print_endline "================================================================";
  (* Instrument the binary. *)
  let instrumented = Adps.instrument image in
  Printf.printf "1. instrumented %s (imports now start with %s)\n"
    image.Coign_image.Binary_image.img_name
    (List.hd instrumented.Coign_image.Binary_image.imports);
  (* Profile a usage scenario. *)
  print_endline "2. profiling the 'generate report' scenario...";
  let profiled, stats = Adps.profile ~image:instrumented ~registry scenario in
  Printf.printf "   %d component instances, %d interface calls, %d bytes of ICC\n"
    stats.Adps.ps_instances stats.Adps.ps_calls stats.Adps.ps_bytes;
  (* Analyze against a network profile. *)
  let network = Coign_netsim.Network.ethernet_10 in
  let net = Coign_netsim.Net_profiler.profile (Coign_util.Prng.create 1L) network in
  let distributed_image, dist = Adps.analyze ~image:profiled ~net () in
  let classifier, _ = Option.get (Adps.load_distribution distributed_image) in
  Printf.printf "3. analysis: %d of %d classifications go to the server:\n"
    dist.Analysis.server_count dist.Analysis.node_count;
  List.iter
    (fun c ->
      Printf.printf "   - %s\n" (Classifier.class_of_classification classifier c))
    (Analysis.server_classifications dist);
  (* Execute the distributed application. *)
  print_endline "4. executing the distributed application on 10BaseT Ethernet...";
  let es = Adps.execute ~image:distributed_image ~registry ~network scenario in
  Printf.printf "   communication: %.3f s over %d remote calls (%d bytes)\n"
    (es.Adps.es_comm_us /. 1e6) es.Adps.es_remote_calls es.Adps.es_remote_bytes;
  (* Compare with the undistributed default (data on the server). *)
  let default =
    Adps.execute_with_policy ~registry ~classifier:(Classifier.create Classifier.Ifcb)
      ~policy:
        (Factory.By_class
           (fun cname ->
             if String.equal cname Common.file_server_class_name then
               Constraints.Server
             else Constraints.Client))
      ~network scenario
  in
  Printf.printf "   default distribution would have paid %.3f s — Coign saves %.0f%%\n"
    (default.Adps.es_comm_us /. 1e6)
    ((1. -. (es.Adps.es_comm_us /. default.Adps.es_comm_us)) *. 100.)
