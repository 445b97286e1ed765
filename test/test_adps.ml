open Coign_util
open Coign_netsim
open Coign_image
open Coign_core
open Coign_apps

(* Use a small, fast scenario throughout. *)
let app = Octarine.app
let sc = App.scenario app "o_oldwp0"

let net () = Net_profiler.profile (Prng.create 42L) Network.ethernet_10

let test_profile_requires_instrumentation () =
  Alcotest.(check bool) "raw image rejected" true
    (try
       ignore (Adps.profile ~image:app.App.app_image ~registry:app.App.app_registry sc.App.sc_run);
       false
     with Invalid_argument _ -> true)

let test_pipeline_end_to_end () =
  let image = Adps.instrument app.App.app_image in
  let image, stats = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  Alcotest.(check bool) "instances seen" true (stats.Adps.ps_instances > 100);
  Alcotest.(check bool) "calls seen" true (stats.Adps.ps_calls > 100);
  Alcotest.(check bool) "profile stored" true (Adps.load_profile image <> None);
  let image, dist = Adps.analyze ~image ~net:(net ()) () in
  Alcotest.(check bool) "server side non-empty" true (dist.Analysis.server_count > 0);
  Alcotest.(check bool) "distribution stored" true (Adps.load_distribution image <> None);
  let es =
    Adps.execute ~image ~registry:app.App.app_registry ~network:Network.ethernet_10
      sc.App.sc_run
  in
  Alcotest.(check bool) "comm accounted" true (es.Adps.es_comm_us > 0.);
  Alcotest.(check bool) "total = compute + comm" true
    (Float.abs (es.Adps.es_total_us -. (es.Adps.es_comm_us +. es.Adps.es_compute_us)) < 1e-6)

let test_profiles_accumulate () =
  let image = Adps.instrument app.App.app_image in
  let image, s1 = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let image, s2 = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  Alcotest.(check bool) "classifications stable across identical runs" true
    (s2.Adps.ps_classifications = s1.Adps.ps_classifications);
  match Adps.load_profile image with
  | Some (_, icc) ->
      (* The merged ICC holds both runs' calls. *)
      Alcotest.(check bool) "icc accumulated" true (Icc.call_count icc >= 2 * s1.Adps.ps_calls - 2)
  | None -> Alcotest.fail "no profile"

let test_multi_scenario_profile_merges () =
  let image = Adps.instrument app.App.app_image in
  let image, _ =
    Adps.profile ~image ~registry:app.App.app_registry (App.scenario app "o_newtbl").App.sc_run
  in
  let before =
    match Adps.load_profile image with Some (c, _) -> Classifier.classification_count c | None -> 0
  in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let after =
    match Adps.load_profile image with Some (c, _) -> Classifier.classification_count c | None -> 0
  in
  Alcotest.(check bool) "new scenario adds classifications" true (after > before)

let test_analyze_requires_profile () =
  let image = Adps.instrument app.App.app_image in
  Alcotest.(check bool) "unprofiled rejected" true
    (try
       ignore (Adps.analyze ~image ~net:(net ()) ());
       false
     with Invalid_argument _ -> true)

let test_execute_requires_distribution () =
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  Alcotest.(check bool) "profiling image rejected for execution" true
    (try
       ignore
         (Adps.execute ~image ~registry:app.App.app_registry ~network:Network.ethernet_10
            sc.App.sc_run);
       false
     with Invalid_argument _ -> true)

let test_factory_realizes_analysis_placement () =
  (* Every instance whose classification the analyzer put on the server
     must actually be placed there by the factory, and vice versa. *)
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let image, dist = Adps.analyze ~image ~net:(net ()) () in
  let classifier, _ = Option.get (Adps.load_distribution image) in
  (* Re-run distributed manually to inspect the factory. *)
  let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
  let rte =
    Rte.install_distributed ~classifier
      ~config:
        {
          Rte.dc_factory_policy = Factory.By_classification dist;
          dc_network = Network.ethernet_10;
          dc_jitter = 0.;
          dc_seed = 3L;
          dc_faults = None;
          dc_retry = Fault.default_retry;
          dc_resilience = None;
          dc_fleet = None;
          dc_watch = None;
        }
      ctx
  in
  sc.App.sc_run ctx;
  Rte.uninstall rte;
  let factory = Option.get (Rte.factory rte) in
  List.iter
    (fun (inst, classification) ->
      let expected = Analysis.location_of dist classification in
      Alcotest.(check bool)
        (Printf.sprintf "instance %d follows classification %d" inst classification)
        true
        (Factory.machine_of factory inst = expected))
    (Rte.instance_classifications rte)

let test_image_roundtrip_mid_pipeline () =
  (* The image can be serialized between every stage (as the CLI does). *)
  let image = Adps.instrument app.App.app_image in
  let image = Binary_image.decode (Binary_image.encode image) in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let image = Binary_image.decode (Binary_image.encode image) in
  let image, _ = Adps.analyze ~image ~net:(net ()) () in
  let image = Binary_image.decode (Binary_image.encode image) in
  let es =
    Adps.execute ~image ~registry:app.App.app_registry ~network:Network.ethernet_10
      sc.App.sc_run
  in
  Alcotest.(check bool) "still executes" true (es.Adps.es_instances > 0)

let test_default_policy_execution () =
  let es =
    Adps.execute_with_policy ~registry:app.App.app_registry
      ~classifier:(Classifier.create Classifier.Ifcb)
      ~policy:(Factory.By_class app.App.app_default_placement) ~network:Network.ethernet_10
      sc.App.sc_run
  in
  (* Data files are on the server, so the default run pays file traffic. *)
  Alcotest.(check bool) "comm positive" true (es.Adps.es_comm_us > 0.);
  Alcotest.(check bool) "file servers on server" true (es.Adps.es_server_instances >= 1)

let suite =
  [
    Alcotest.test_case "profile requires instrumentation" `Quick
      test_profile_requires_instrumentation;
    Alcotest.test_case "pipeline end to end" `Quick test_pipeline_end_to_end;
    Alcotest.test_case "profiles accumulate" `Quick test_profiles_accumulate;
    Alcotest.test_case "multi-scenario profile merges" `Quick test_multi_scenario_profile_merges;
    Alcotest.test_case "analyze requires profile" `Quick test_analyze_requires_profile;
    Alcotest.test_case "execute requires distribution" `Quick test_execute_requires_distribution;
    Alcotest.test_case "factory realizes analysis placement" `Quick
      test_factory_realizes_analysis_placement;
    Alcotest.test_case "image roundtrip mid-pipeline" `Quick test_image_roundtrip_mid_pipeline;
    Alcotest.test_case "default policy execution" `Quick test_default_policy_execution;
  ]

let test_reanalysis_after_more_profiling () =
  (* Analyze, then keep profiling (re-instrument preserves the profile)
     and analyze again: the pipeline supports the paper's periodic
     re-profiling loop. *)
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let image, d1 = Adps.analyze ~image ~net:(net ()) () in
  (* Back to profiling mode; accumulated classifier state survives. *)
  let image = Adps.instrument image in
  let image, _ =
    Adps.profile ~image ~registry:app.App.app_registry (App.scenario app "o_oldtb0").App.sc_run
  in
  let image, d2 = Adps.analyze ~image ~net:(net ()) () in
  Alcotest.(check bool) "more classifications analyzed" true
    (d2.Analysis.node_count > d1.Analysis.node_count);
  ignore image

let test_execute_deterministic_given_seed () =
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let image, _ = Adps.analyze ~image ~net:(net ()) () in
  let run () =
    Adps.execute ~image ~registry:app.App.app_registry ~network:Network.ethernet_10
      ~jitter:0.02 ~seed:99L sc.App.sc_run
  in
  let a = run () and b = run () in
  Alcotest.(check (float 0.)) "same measured comm" a.Adps.es_comm_us b.Adps.es_comm_us

let suite =
  suite
  @ [
      Alcotest.test_case "re-analysis after more profiling" `Quick
        test_reanalysis_after_more_profiling;
      Alcotest.test_case "execute deterministic given seed" `Quick
        test_execute_deterministic_given_seed;
    ]

(* --- Cross-scenario matrix ------------------------------------------- *)

(* Profile scenario X, analyze on the exact 10BaseT profile, then run
   every scenario Y of the same application under that cut at jitter 0.
   A cut trained on one usage must not fault on another, and Replay
   must charge what the run charged: the factory, Replay and Loadsim
   place a classification the profile never saw by one rule. The
   summed communication over the X = Y runs and over all X x Y runs is
   pinned (seconds, 3 decimals), so a change to the cut shows up here. *)
type matrix = { runs : int; faults : int; same_s : float; all_s : float }

let cross_scenario_matrix app =
  let network = Network.ethernet_10 in
  let net = Net_profiler.exact network in
  let registry = app.App.app_registry in
  List.fold_left
    (fun m (x : App.scenario) ->
      let image = Adps.instrument app.App.app_image in
      let image, _ = Adps.profile ~image ~registry x.App.sc_run in
      let image, _ = Adps.analyze ~image ~net () in
      List.fold_left
        (fun m (y : App.scenario) ->
          let m = { m with runs = m.runs + 1 } in
          match Adps.execute ~image ~registry ~network ~jitter:0. y.App.sc_run with
          | es when es.Adps.es_completed ->
              let classifier, distribution = Option.get (Adps.load_distribution image) in
              let events =
                Coign_sim.Replay.record_scenario ~registry ~classifier y.App.sc_run
              in
              let est = Coign_sim.Replay.what_if ~events ~distribution ~network () in
              let run = Printf.sprintf "%s -> %s" x.App.sc_id y.App.sc_id in
              Alcotest.(check (float 1e-3)) (run ^ ": replay comm = run comm")
                es.Adps.es_comm_us est.Coign_sim.Replay.re_comm_us;
              Alcotest.(check int) (run ^ ": replay remote calls = run remote calls")
                es.Adps.es_remote_calls est.Coign_sim.Replay.re_remote_calls;
              let s = es.Adps.es_comm_us /. 1e6 in
              {
                m with
                same_s = (if x == y then m.same_s +. s else m.same_s);
                all_s = m.all_s +. s;
              }
          | _ | (exception Coign_com.Hresult.Com_error _) -> { m with faults = m.faults + 1 })
        m app.App.app_scenarios)
    { runs = 0; faults = 0; same_s = 0.; all_s = 0. }
    app.App.app_scenarios

let test_cross_scenario_matrix () =
  List.iter
    (fun (name, runs, same, all) ->
      let m = cross_scenario_matrix (Suite.find_app name) in
      Alcotest.(check int) (name ^ ": runs") runs m.runs;
      Alcotest.(check int) (name ^ ": faults") 0 m.faults;
      Alcotest.(check string) (name ^ ": same-scenario comm (s)") same
        (Printf.sprintf "%.3f" m.same_s);
      Alcotest.(check string) (name ^ ": all-pairs comm (s)") all
        (Printf.sprintf "%.3f" m.all_s))
    [
      ("octarine", 144, "11.261", "782.685");
      ("photodraw", 49, "21.928", "84.235");
      ("benefits", 16, "0.796", "3.560");
      ("ingest", 16, "0.487", "2.453");
    ]

let suite =
  suite
  @ [ Alcotest.test_case "cross-scenario matrix" `Slow test_cross_scenario_matrix ]

(* golden/profile_octarine.txt holds three stored entries: octarine's
   classifier and ICC summary accumulated over all its scenarios (as
   perfbench plan's set-up builds them), then the distribution
   [Adps.analyze] stores for that profile on an exact 10BaseT profile.
   Each is written as a "== <name> <N> bytes ==" line, the N bytes and
   a newline. Rebuilding the entries must give the same bytes, and a
   session decoded from the golden's own bytes must solve to its
   distribution: the decoders are checked against fixed text, whatever
   the encoders do. *)
let golden_entries text =
  let rec go at acc =
    if at >= String.length text then List.rev acc
    else
      let nl = String.index_from text at '\n' in
      let name, len = Scanf.sscanf (String.sub text at (nl - at)) "== %s %d bytes ==" (fun n l -> (n, l)) in
      go (nl + 1 + len + 1) ((name, String.sub text (nl + 1) len) :: acc)
  in
  go 0 []

let test_stored_profile_golden () =
  let golden = Harness.read_file "golden/profile_octarine.txt" in
  let image =
    List.fold_left
      (fun image (sc : App.scenario) ->
        fst (Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run))
      (Adps.instrument app.App.app_image) app.App.app_scenarios
  in
  let net = Net_profiler.exact Network.ethernet_10 in
  let entry image key = Option.get (Config_record.entry (Option.get image.Binary_image.config) key) in
  let analyzed, _ = Adps.analyze ~image ~net () in
  let rebuilt =
    String.concat ""
      (List.map
         (fun (name, text) -> Printf.sprintf "== %s %d bytes ==\n%s\n" name (String.length text) text)
         [
           ("classifier", entry image Config_keys.classifier);
           ("icc", entry image Config_keys.icc);
           ("distribution", entry analyzed Config_keys.distribution);
         ])
  in
  Alcotest.(check string) "entries rebuilt byte for byte" golden rebuilt;
  let stored = golden_entries golden in
  let config =
    List.fold_left
      (fun config (name, key) -> Config_record.set_entry config key (List.assoc name stored))
      (Option.get (Adps.instrument app.App.app_image).Binary_image.config)
      [ ("classifier", Config_keys.classifier); ("icc", Config_keys.icc) ]
  in
  let session =
    Adps.analysis_session { image with Binary_image.config = Some config }
  in
  Alcotest.(check string) "session from the golden bytes solves to its distribution"
    (List.assoc "distribution" stored)
    (Analysis.encode (Analysis.Session.solve session ~net))

let suite =
  suite @ [ Alcotest.test_case "stored profile golden" `Quick test_stored_profile_golden ]
