open Coign_netsim
open Coign_core
open Coign_apps
open Coign_sim

(* --- Replay ---------------------------------------------------------- *)

let octarine_trace id =
  let app = Octarine.app in
  let sc = App.scenario app id in
  let classifier = Classifier.create Classifier.Ifcb in
  let events =
    Replay.record_scenario ~registry:app.App.app_registry ~classifier sc.App.sc_run
  in
  (app, sc, classifier, events)

let test_replay_matches_distributed_run () =
  (* Replaying the trace under the analyzer's distribution must charge
     exactly what the jitter-free distributed execution charges. *)
  let app = Octarine.app in
  let sc = App.scenario app "o_oldwp7" in
  let image = Adps.instrument app.App.app_image in
  let recorder, events = Coign_obs.Sink.collector () in
  (* Profile with a recorder so we get both the trace and the image. *)
  let config = Option.get image.Coign_image.Binary_image.config in
  ignore config;
  let classifier = Classifier.create Classifier.Ifcb in
  let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
  let rte = Rte.install_profiling ~logger:recorder ~classifier ctx in
  sc.App.sc_run ctx;
  Rte.uninstall rte;
  let net = Net_profiler.exact Network.ethernet_10 in
  let constraints = Constraints.of_image app.App.app_image in
  let distribution = Analysis.choose ~classifier ~icc:(Rte.icc rte) ~constraints ~net () in
  let estimate =
    Replay.what_if ~events:(events ()) ~distribution ~network:Network.ethernet_10 ()
  in
  (* Ground truth: actually run distributed with zero jitter. *)
  let es =
    Adps.execute_with_policy ~registry:app.App.app_registry ~classifier
      ~policy:(Factory.By_classification distribution) ~network:Network.ethernet_10
      ~jitter:0. sc.App.sc_run
  in
  Alcotest.(check int) "remote exchanges" es.Adps.es_remote_calls estimate.Replay.re_remote_calls;
  Alcotest.(check int) "remote bytes" es.Adps.es_remote_bytes estimate.Replay.re_remote_bytes;
  Alcotest.(check (float 1e-3)) "communication time" es.Adps.es_comm_us
    estimate.Replay.re_comm_us;
  Alcotest.(check int) "server instances" es.Adps.es_server_instances
    estimate.Replay.re_server_instances;
  Alcotest.(check (list (pair string string))) "no violations" [] estimate.Replay.re_violations

let test_replay_all_client_is_free () =
  let _, _, _, events = octarine_trace "o_newtbl" in
  let estimate =
    Replay.replay ~events ~placement:(fun _ -> Constraints.Client)
      ~network:Network.ethernet_10 ()
  in
  Alcotest.(check (float 0.)) "no communication" 0. estimate.Replay.re_comm_us;
  Alcotest.(check int) "no remote calls" 0 estimate.Replay.re_remote_calls

let test_replay_detects_violations () =
  (* Split a non-remotable pair on purpose: the main window on the
     server, the widgets it repaints on the client. A real run would
     fault on the device-context interface; replay reports it. *)
  let _, _, classifier, events = octarine_trace "o_newtbl" in
  let placement c =
    if
      c >= 0
      && c < Classifier.classification_count classifier
      && String.equal (Classifier.class_of_classification classifier c) "Octarine.MainWindow"
    then Constraints.Server
    else Constraints.Client
  in
  let estimate = Replay.replay ~events ~placement ~network:Network.ethernet_10 () in
  Alcotest.(check bool) "violations detected" true (estimate.Replay.re_violations <> []);
  Alcotest.(check bool) "paint among them" true
    (List.exists (fun (iface, _) -> String.equal iface "IPaint") estimate.Replay.re_violations)

let test_replay_cheaper_placement_costs_less () =
  let app, _, classifier, events = octarine_trace "o_oldwp7" in
  ignore app;
  ignore classifier;
  let cost placement =
    (Replay.replay ~events ~placement ~network:Network.ethernet_10 ()).Replay.re_comm_us
  in
  (* The all-client placement pays only file-server traffic; a random
     split pays more. *)
  Alcotest.(check bool) "clientward cheaper than odd/even split" true
    (cost (fun _ -> Constraints.Client)
    < cost (fun c -> if c mod 2 = 0 then Constraints.Client else Constraints.Server))

(* --- Drift ----------------------------------------------------------- *)

(* A run of [sc_id] under the o_oldwp0 cut, watched with [coign watch]'s
   settings. *)
let watched_run =
  let app = Octarine.app in
  let registry = app.App.app_registry in
  let setup =
    lazy
      (let image, _ =
         Adps.profile ~image:(Adps.instrument app.App.app_image) ~registry
           (App.scenario app "o_oldwp0").App.sc_run
       in
       let session = Adps.analysis_session image in
       let net = Net_profiler.exact Network.ethernet_10 in
       (fst (Adps.analyze_with ~session ~image ~net ()), session, net))
  in
  fun sc_id ->
    let image, session, net = Lazy.force setup in
    let watch =
      Rte.watch ~threshold:0.90 ~check_every:64 ~min_dwell_us:750_000. ~min_window:16.
        ~half_life_us:750_000. ~sample_every:4 ~net (Analysis.Session.copy session)
    in
    Adps.execute ~image ~registry ~network:Network.ethernet_10 ~watch
      (App.scenario app sc_id).App.sc_run

let test_drift_same_usage_similar () =
  let s = watched_run "o_oldwp0" in
  Alcotest.(check bool) "checks ran" true (s.Adps.es_drift_checks > 0);
  Alcotest.(check int) "no drift" 0 s.Adps.es_drift_detections;
  Alcotest.(check int) "no re-cut" 0 s.Adps.es_repartitions;
  Alcotest.(check bool) "high similarity" true (s.Adps.es_last_similarity > 0.95)

let test_drift_changed_usage_detected () =
  (* The user switches to a radically different document type. *)
  let s = watched_run "o_oldtb3" in
  Alcotest.(check bool) "drift detected" true (s.Adps.es_drift_detections >= 1);
  Alcotest.(check bool) "re-cut" true (s.Adps.es_repartitions >= 1);
  Alcotest.(check bool) "similarity degrades" true (s.Adps.es_last_similarity < 0.9)

(* --- Multiway analysis ------------------------------------------------ *)

let benefits_multiway () =
  let app = Benefits.app in
  let sc = App.scenario app "b_vueone" in
  let classifier = Classifier.create Classifier.Ifcb in
  let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
  let rte = Rte.install_profiling ~classifier ctx in
  sc.App.sc_run ctx;
  Rte.uninstall rte;
  let net = Net_profiler.exact Network.ethernet_10 in
  let pins cname =
    match Static_analysis.class_verdict (Coign_image.Binary_image.class_api_refs app.App.app_image cname) with
    | Static_analysis.Pin_client -> Some "client"
    | Static_analysis.Pin_server -> Some "database"
    | Static_analysis.Free -> None
  in
  let mw =
    Multiway_analysis.choose ~classifier ~icc:(Rte.icc rte)
      ~machines:[ "client"; "middle"; "database" ] ~pins ~net ()
  in
  (classifier, mw)

let test_multiway_benefits_three_tier () =
  let classifier, mw = benefits_multiway () in
  (* The ODBC gateway is pinned to the database machine. *)
  let machine_of_class cname =
    let rec find c =
      if c >= Classifier.classification_count classifier then None
      else if String.equal (Classifier.class_of_classification classifier c) cname then
        Some (Multiway_analysis.machine_of mw c)
      else find (c + 1)
    in
    find 0
  in
  Alcotest.(check (option string)) "odbc on database" (Some "database")
    (machine_of_class "Benefits.OdbcGateway");
  Alcotest.(check (option string)) "forms on client" (Some "client")
    (machine_of_class "Benefits.EmployeeForm");
  (* Every machine name appears in the histogram. *)
  let hist = Multiway_analysis.machine_histogram mw in
  Alcotest.(check int) "three machines" 3 (List.length hist);
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
  Alcotest.(check int) "all classifications assigned"
    (Classifier.classification_count classifier)
    total

let test_multiway_requires_two_machines () =
  let classifier = Classifier.create Classifier.St in
  ignore (Oracles.classify classifier ~cname:"A" ~stack:[]);
  let icc = Icc.create () in
  let net = Net_profiler.exact Network.ethernet_10 in
  Alcotest.(check bool) "one machine rejected" true
    (try
       ignore
         (Multiway_analysis.choose ~classifier ~icc ~machines:[ "solo" ]
            ~pins:(fun _ -> None) ~net ());
       false
     with Invalid_argument _ -> true)

let test_multiway_unknown_pin_rejected () =
  let classifier = Classifier.create Classifier.St in
  ignore (Oracles.classify classifier ~cname:"A" ~stack:[]);
  let icc = Icc.create () in
  let net = Net_profiler.exact Network.ethernet_10 in
  Alcotest.(check bool) "unknown machine rejected" true
    (try
       ignore
         (Multiway_analysis.choose ~classifier ~icc ~machines:[ "a"; "b" ]
            ~pins:(fun _ -> Some "mars") ~net ());
       false
     with Invalid_argument _ -> true)

let octarine_two_machines () =
  let app = Octarine.app in
  let sc = App.scenario app "o_oldwp7" in
  let classifier = Classifier.create Classifier.Ifcb in
  let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
  let rte = Rte.install_profiling ~classifier ctx in
  sc.App.sc_run ctx;
  Rte.uninstall rte;
  let icc = Rte.icc rte in
  let net = Net_profiler.exact Network.ethernet_10 in
  let constraints = Constraints.of_image app.App.app_image in
  let two_way = Analysis.choose ~classifier ~icc ~constraints ~net () in
  let pins cname =
    match Constraints.class_pin constraints ~cname with
    | Some Constraints.Client -> Some "client"
    | Some Constraints.Server -> Some "server"
    | None -> None
  in
  let mw =
    Multiway_analysis.choose ~classifier ~icc ~machines:[ "client"; "server" ] ~pins ~net ()
  in
  (two_way, mw)

let test_multiway_two_machines_matches_two_way () =
  (* With machines = [client; server] and the same pins, the multiway
     engine must equal the exact two-way engine's communication cost. *)
  let two_way, mw = octarine_two_machines () in
  Alcotest.(check (float 1.)) "same communication cost" two_way.Analysis.predicted_comm_us
    mw.Multiway_analysis.predicted_comm_us

(* Whole-output pins: the assignment, cut cost and predicted-time bits
   of both multiway cases, fixed so a change of graph representation
   or solver plumbing cannot move any of them. *)
let check_multiway_pins mw ~assignment ~cost_ns ~predicted_bits =
  Alcotest.(check (array int)) "assignment" assignment mw.Multiway_analysis.assignment;
  Alcotest.(check int) "cost_ns" cost_ns mw.Multiway_analysis.cost_ns;
  Harness.check_bits "predicted_comm_us" (Int64.float_of_bits predicted_bits)
    mw.Multiway_analysis.predicted_comm_us

let test_multiway_benefits_pinned () =
  let _, mw = benefits_multiway () in
  check_multiway_pins mw
    ~assignment:
      [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 2; 2; 2; 2; 2; 0; 0; 0; 0; 0; 0; 0; 2; 2; 0;
         2; 0; 2; 0; 2; 0; 2; 0; 2; 0 |]
    ~cost_ns:411433600 ~predicted_bits:4686308388263847528L

let test_multiway_octarine_pinned () =
  let _, mw = octarine_two_machines () in
  check_multiway_pins mw
    ~assignment:
      (Array.init 40 (fun c -> if c >= 28 && c <= 31 then 1 else 0))
    ~cost_ns:706166400 ~predicted_bits:4694313135279754446L

(* The k-way cut on octarine's profile accumulated over every
   scenario, k = 2, 3 and 4: the image's API pins, plus SpellChecker on
   the middle tier and Document on the edge host once those machines
   exist. The assignments, costs and predicted-time bits are the ones
   the cut made when it still took a tuple per edge and asked [pins]
   once per classification (64 asks for 36 class names); a counting
   [pins] shows it now asks once per class name. *)
let test_multiway_octarine_k_way () =
  let app = Octarine.app in
  let image =
    List.fold_left
      (fun image (sc : App.scenario) ->
        fst (Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run))
      (Adps.instrument app.App.app_image) app.App.app_scenarios
  in
  let classifier, icc = Option.get (Adps.load_profile image) in
  let constraints = Constraints.of_image app.App.app_image in
  let net = Net_profiler.exact Network.ethernet_10 in
  let classes = Hashtbl.create 16 in
  for c = 0 to Classifier.classification_count classifier - 1 do
    Hashtbl.replace classes (Classifier.class_of_classification classifier c) ()
  done;
  List.iter
    (fun (k, assignment, cost_ns, predicted_bits) ->
      let asks = Hashtbl.create 16 in
      let pins cname =
        Hashtbl.replace asks cname (1 + Option.value ~default:0 (Hashtbl.find_opt asks cname));
        match Constraints.class_pin constraints ~cname with
        | Some Constraints.Client -> Some "client"
        | Some Constraints.Server -> Some "server"
        | None ->
            if k >= 3 && String.equal cname "Octarine.SpellChecker" then Some "middle"
            else if k >= 4 && String.equal cname "Octarine.Document" then Some "edge"
            else None
      in
      let machines = List.filteri (fun i _ -> i < k) [ "client"; "server"; "middle"; "edge" ] in
      let mw = Multiway_analysis.choose ~classifier ~icc ~machines ~pins ~net () in
      Alcotest.(check int)
        (Printf.sprintf "k = %d: class names asked" k)
        (Hashtbl.length classes) (Hashtbl.length asks);
      Hashtbl.iter
        (fun cname n -> Alcotest.(check int) (Printf.sprintf "k = %d: asks for %s" k cname) 1 n)
        asks;
      check_multiway_pins mw
        ~assignment:(Array.init (String.length assignment) (fun c -> Char.code assignment.[c] - 48))
        ~cost_ns ~predicted_bits)
    [
      (2, "0000000000000000000000000000100010000000000000001110010100000111", 11345640000,
       4712352754696192000L);
      (3, "0000000000000000000000000000100010002000000000001110210100000111", 22807497600,
       4712383951620643226L);
      (4, "0000000000000000000000000000100310332000300033001130230100000311", 212147964800,
       4726890913943099800L);
    ]

let suite =
  [
    Alcotest.test_case "replay matches distributed run" `Quick
      test_replay_matches_distributed_run;
    Alcotest.test_case "replay all-client is free" `Quick test_replay_all_client_is_free;
    Alcotest.test_case "replay detects violations" `Quick test_replay_detects_violations;
    Alcotest.test_case "replay placement comparison" `Quick
      test_replay_cheaper_placement_costs_less;
    Alcotest.test_case "drift: same usage similar" `Quick test_drift_same_usage_similar;
    Alcotest.test_case "drift: changed usage detected" `Quick test_drift_changed_usage_detected;
    Alcotest.test_case "multiway: benefits three-tier" `Quick test_multiway_benefits_three_tier;
    Alcotest.test_case "multiway: requires two machines" `Quick
      test_multiway_requires_two_machines;
    Alcotest.test_case "multiway: unknown pin rejected" `Quick test_multiway_unknown_pin_rejected;
    Alcotest.test_case "multiway: two machines matches two-way" `Quick
      test_multiway_two_machines_matches_two_way;
    Alcotest.test_case "multiway: benefits three-tier pinned" `Quick
      test_multiway_benefits_pinned;
    Alcotest.test_case "multiway: octarine two machines pinned" `Quick
      test_multiway_octarine_pinned;
    Alcotest.test_case "multiway: octarine k-way pinned, pins asked once per class" `Quick
      test_multiway_octarine_k_way;
  ]

(* --- Profile logs ------------------------------------------------------ *)

let profile_log_of id =
  let app, sc = Suite.find_scenario id in
  let classifier = Classifier.create Classifier.Ifcb in
  let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
  let rte = Rte.install_profiling ~classifier ctx in
  sc.App.sc_run ctx;
  Rte.uninstall rte;
  Profile_log.of_run ~app:app.App.app_name ~scenario:id rte

let test_profile_log_roundtrip () =
  let log = profile_log_of "o_newtbl" in
  let log' = Profile_log.decode (Profile_log.encode log) in
  Alcotest.(check string) "app" log.Profile_log.pl_app log'.Profile_log.pl_app;
  Alcotest.(check int) "instances" log.Profile_log.pl_instances log'.Profile_log.pl_instances;
  Alcotest.(check int) "calls" (Icc.call_count log.Profile_log.pl_icc)
    (Icc.call_count log'.Profile_log.pl_icc);
  Alcotest.(check int) "classifications"
    (Classifier.classification_count log.Profile_log.pl_classifier)
    (Classifier.classification_count log'.Profile_log.pl_classifier)

let test_profile_log_file_io () =
  let log = profile_log_of "o_newtbl" in
  let path = Filename.temp_file "coign" ".cpl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile_log.save log path;
      let log' = Profile_log.load path in
      Alcotest.(check int) "bytes preserved"
        (Icc.total_bytes log.Profile_log.pl_icc)
        (Icc.total_bytes log'.Profile_log.pl_icc))

let test_profile_log_combine_reconciles () =
  (* Two independent runs of overlapping scenarios: shared contexts must
     reconcile to shared classifications, so the combined count is far
     below the sum. *)
  let a = profile_log_of "o_oldwp0" in
  let b = profile_log_of "o_oldtb0" in
  let na = Classifier.classification_count a.Profile_log.pl_classifier in
  let nb = Classifier.classification_count b.Profile_log.pl_classifier in
  let c = Profile_log.combine a b in
  let nc = Classifier.classification_count c.Profile_log.pl_classifier in
  Alcotest.(check bool) "no duplication" true (nc < na + nb);
  Alcotest.(check bool) "superset" true (nc >= max na nb);
  Alcotest.(check int) "instances add"
    (a.Profile_log.pl_instances + b.Profile_log.pl_instances)
    c.Profile_log.pl_instances;
  Alcotest.(check int) "icc calls add"
    (Icc.call_count a.Profile_log.pl_icc + Icc.call_count b.Profile_log.pl_icc)
    (Icc.call_count c.Profile_log.pl_icc);
  Alcotest.(check int) "classifier instances add"
    (Classifier.instance_count a.Profile_log.pl_classifier
    + Classifier.instance_count b.Profile_log.pl_classifier)
    (Classifier.instance_count c.Profile_log.pl_classifier)

let test_profile_log_combine_mismatch () =
  let a = profile_log_of "o_newtbl" in
  let b = profile_log_of "b_vueone" in
  Alcotest.(check bool) "different apps rejected" true
    (try
       ignore (Profile_log.combine a b);
       false
     with Invalid_argument _ -> true)

let test_profile_log_into_image_matches_pipeline () =
  (* Folding two standalone logs into a fresh instrumented image must
     lead the analyzer to the same distribution as profiling the two
     scenarios back-to-back through the pipeline. *)
  let app = Octarine.app in
  let net = Net_profiler.exact Network.ethernet_10 in
  (* Pipeline path. *)
  let image = Adps.instrument app.App.app_image in
  let image, _ =
    Adps.profile ~image ~registry:app.App.app_registry
      (App.scenario app "o_oldwp0").App.sc_run
  in
  let image, _ =
    Adps.profile ~image ~registry:app.App.app_registry
      (App.scenario app "o_oldtb0").App.sc_run
  in
  let _, dist_pipeline = Adps.analyze ~image ~net () in
  (* Log path. *)
  let combined =
    Profile_log.combine (profile_log_of "o_oldwp0") (profile_log_of "o_oldtb0")
  in
  let image2 = Profile_log.into_image combined (Adps.instrument app.App.app_image) in
  let _, dist_logs = Adps.analyze ~image:image2 ~net () in
  Alcotest.(check int) "same node count" dist_pipeline.Analysis.node_count
    dist_logs.Analysis.node_count;
  Alcotest.(check int) "same server count" dist_pipeline.Analysis.server_count
    dist_logs.Analysis.server_count;
  Alcotest.(check (float 500.)) "same predicted comm"
    dist_pipeline.Analysis.predicted_comm_us dist_logs.Analysis.predicted_comm_us

let test_classifier_merge_remap () =
  let stack =
    [ Frame.make ~inst:1 ~cls:"A" ~classification:0 ~iface:"I" ~meth:"m" ]
  in
  let a = Classifier.create Classifier.Ifcb in
  ignore (Oracles.classify a ~cname:"X" ~stack);
  let b = Classifier.create Classifier.Ifcb in
  ignore (Oracles.classify b ~cname:"Y" ~stack);
  ignore (Oracles.classify b ~cname:"X" ~stack);
  let m, remap = Classifier.merge a b in
  Alcotest.(check int) "union size" 2 (Classifier.classification_count m);
  (* b's X (id 1) must map to a's X (id 0). *)
  Alcotest.(check int) "shared descriptor reconciled" 0 remap.(1);
  Alcotest.(check int) "new descriptor appended" 1 remap.(0);
  Alcotest.(check int) "counts added" 2 (Classifier.instances_of m 0)

let test_icc_map_classifications () =
  let icc = Icc.create () in
  Icc.record icc ~src:0 ~dst:1 ~iface:"I" ~remotable:true ~request:10 ~reply:10;
  Icc.record icc ~src:(-1) ~dst:0 ~iface:"I" ~remotable:true ~request:5 ~reply:5;
  let mapped = Icc.map_classifications (fun c -> c + 10) icc in
  let entries = Icc.entries mapped in
  Alcotest.(check bool) "ids shifted" true
    (List.exists (fun e -> e.Icc.src = 10 && e.Icc.dst = 11) entries);
  Alcotest.(check bool) "main preserved" true
    (List.exists (fun e -> e.Icc.src = -1 && e.Icc.dst = 10) entries);
  Alcotest.(check int) "calls preserved" 2 (Icc.call_count mapped)

(* --- Decoders behind files the CLI loads --------------------------------- *)

(* Octarine o_oldwp0's profile log and profiled image: real encodings of
   every section the CLI reads back. *)
let bit_flip_log = lazy (profile_log_of "o_oldwp0")

let bit_flip_image =
  lazy
    (let app = Octarine.app in
     fst
       (Adps.profile
          ~image:(Adps.instrument app.App.app_image)
          ~registry:app.App.app_registry (App.scenario app "o_oldwp0").App.sc_run))

(* Flipping any one bit of [encoded] must leave [decode] either decoding
   or raising its own typed error; each run samples 2,000 seeded bit
   positions. *)
let prop_bit_flips name ~encoded ~decode ~typed =
  let arb =
    QCheck.make ~print:(Printf.sprintf "bit %d") (fun st ->
        Random.State.int st (String.length (Lazy.force encoded) * 8))
  in
  QCheck.Test.make ~name:("every bit flip of " ^ name ^ " decodes or raises its typed error")
    ~count:2000 arb (fun i ->
      let s = Lazy.force encoded in
      let b = Bytes.of_string s in
      Bytes.set b (i / 8) (Char.chr (Char.code s.[i / 8] lxor (1 lsl (i mod 8))));
      match decode (Bytes.to_string b) with
      | () -> true
      | exception e when typed e -> true
      | exception e -> QCheck.Test.fail_reportf "bit %d: %s" i (Printexc.to_string e))

let bit_flip_suite =
  let log () = Lazy.force bit_flip_log in
  List.map QCheck_alcotest.to_alcotest
    [
      (* Both readers of the stored text: each flip either decodes to
         equal graphs or fails in both with the typed error. *)
      prop_bit_flips "an icc summary"
        ~encoded:(lazy (Icc.encode (log ()).Profile_log.pl_icc))
        ~decode:(fun s ->
          let classifier = (log ()).Profile_log.pl_classifier in
          match Icc.decode s with
          | icc ->
              if Icc_graph.decode ~classifier s <> Icc_graph.build ~classifier ~icc then
                failwith "the text decoder's graph differs from build over Icc.decode"
          | exception (Icc.Decode_error _ as e) -> (
              match Icc_graph.decode ~classifier s with
              | _ -> failwith "the text decoder accepted what Icc.decode rejects"
              | exception Icc.Decode_error _ -> raise e))
        ~typed:(function Icc.Decode_error _ -> true | _ -> false);
      prop_bit_flips "a classifier"
        ~encoded:(lazy (Classifier.encode (log ()).Profile_log.pl_classifier))
        ~decode:(fun s -> ignore (Classifier.decode s))
        ~typed:(function Classifier.Decode_error _ -> true | _ -> false);
      prop_bit_flips "a profile log"
        ~encoded:(lazy (Profile_log.encode (log ())))
        ~decode:(fun s -> ignore (Profile_log.decode s))
        ~typed:(function Profile_log.Decode_error _ -> true | _ -> false);
      prop_bit_flips "a profiled image"
        ~encoded:(lazy (Coign_image.Binary_image.encode (Lazy.force bit_flip_image)))
        ~decode:(fun s -> ignore (Coign_image.Binary_image.decode s))
        ~typed:(function Coign_image.Codec.Malformed _ -> true | _ -> false);
      (* [Jsonu.parse] reports bad input as [Error]: no exception may
         escape it at all. The input is `coign resilience --json`'s
         pinned output. *)
      prop_bit_flips "a --json report"
        ~encoded:(lazy (Harness.read_file "golden/resilience_octarine.json"))
        ~decode:(fun s -> match Coign_util.Jsonu.parse s with Ok _ | Error _ -> ())
        ~typed:(fun _ -> false);
    ]

let log_suite =
  [
    Alcotest.test_case "profile log roundtrip" `Quick test_profile_log_roundtrip;
    Alcotest.test_case "profile log file io" `Quick test_profile_log_file_io;
    Alcotest.test_case "profile log combine reconciles" `Quick
      test_profile_log_combine_reconciles;
    Alcotest.test_case "profile log combine mismatch" `Quick test_profile_log_combine_mismatch;
    Alcotest.test_case "profile logs equal pipeline accumulation" `Quick
      test_profile_log_into_image_matches_pipeline;
    Alcotest.test_case "classifier merge remap" `Quick test_classifier_merge_remap;
    Alcotest.test_case "icc map classifications" `Quick test_icc_map_classifications;
  ]

let suite = suite @ log_suite @ bit_flip_suite
