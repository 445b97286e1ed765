open Coign_core
open Coign_apps
open Coign_sim

(* Use cheap scenarios so the suite stays fast. *)

let row id =
  let app, sc = Suite.find_scenario id in
  Experiment.run_scenario app sc

let test_row_basics () =
  let r = row "o_oldwp0" in
  Alcotest.(check string) "id" "o_oldwp0" r.Experiment.row_id;
  Alcotest.(check bool) "savings in range" true
    (r.Experiment.savings >= 0. && r.Experiment.savings <= 1.);
  Alcotest.(check bool) "coign never worse (Table 4 invariant)" true
    (r.Experiment.coign_comm_us <= r.Experiment.default_comm_us *. 1.02);
  Alcotest.(check bool) "prediction close (Table 5 invariant)" true
    (Float.abs r.Experiment.prediction_error < 0.12)

let test_benefits_moves_caches () =
  let r = row "b_vueone" in
  Alcotest.(check bool) "meaningful savings" true (r.Experiment.savings > 0.15);
  let hist = Experiment.server_class_histogram r in
  (* The ODBC gateway must stay on the server; the caches must not. *)
  Alcotest.(check bool) "odbc on server" true
    (List.mem_assoc "Benefits.OdbcGateway" hist);
  Alcotest.(check bool) "employee cache moved off the middle tier" false
    (List.mem_assoc "Benefits.EmployeeCache" hist)

let test_photodraw_property_sets_server () =
  let r = row "p_oldmsr" in
  let hist = Experiment.server_class_histogram r in
  Alcotest.(check bool) "reader on server" true (List.mem_assoc "PhotoDraw.MixReader" hist);
  Alcotest.(check bool) "property sets on server" true
    (List.mem_assoc "PhotoDraw.PropertySet" hist);
  Alcotest.(check bool) "sprite caches stay on client" false
    (List.mem_assoc "PhotoDraw.SpriteCache" hist);
  (* Figure 4 shape: a small handful of server components. *)
  Alcotest.(check bool) "few components on server" true (r.Experiment.server_instances <= 12)

let test_octarine_reader_server () =
  (* The 35-page document of Figure 5: the reader and text properties
     go to the server; for the 5-page o_oldwp0 the optimal distribution
     equals the default (Table 4's 0% row), so use the bigger one. *)
  let r = Experiment.run_scenario Octarine.app Octarine.figure5 in
  let hist = Experiment.server_class_histogram r in
  Alcotest.(check bool) "reader on server" true
    (List.mem_assoc "Octarine.DocumentReader" hist);
  Alcotest.(check bool) "text properties on server" true
    (List.mem_assoc "Octarine.TextProperties" hist);
  Alcotest.(check bool) "GUI stays on client" false (List.mem_assoc "Octarine.Button" hist)

let test_across_networks_monotone_comm () =
  let app, sc = Suite.find_scenario "o_oldwp0" in
  let rows =
    Experiment.across_networks
      ~networks:[ Coign_netsim.Network.isdn_128; Coign_netsim.Network.san_1g ]
      app sc
  in
  match rows with
  | [ isdn; san ] ->
      Alcotest.(check bool) "slower network costs more" true
        (isdn.Experiment.sw_predicted_comm_us > san.Experiment.sw_predicted_comm_us)
  | _ -> Alcotest.fail "expected two rows"

(* --- The report's expected shapes ------------------------------------ *)

(* Table 4: the large table documents and the mixed text+tables
   document keep most of the paper's savings (99%, 99%, 68%). *)
let test_table4_expected_shape () =
  List.iter
    (fun (id, floor) ->
      let r = row id in
      Alcotest.(check bool)
        (Printf.sprintf "%s saves %.1f%% >= %.0f%%" id (100. *. r.Experiment.savings)
           (100. *. floor))
        true
        (r.Experiment.savings >= floor))
    [ ("o_oldtb3", 0.95); ("o_offtb3", 0.90); ("o_oldbth", 0.60); ("o_bigone", 0.85) ]

(* Figure 8: embedding tables moves the page-placement cluster to the
   server (paper: 281 of 786 instances). *)
let test_figure8_expected_shape () =
  let r = row "o_oldbth" in
  Alcotest.(check int) "instances" 698 r.Experiment.total_instances;
  Alcotest.(check bool)
    (Printf.sprintf "%d server instances >= 100" r.Experiment.server_instances)
    true
    (r.Experiment.server_instances >= 100)

(* §4.4: the chosen distribution itself shifts with the network. *)
let test_adaptive_placement_moves () =
  let app, sc = Suite.find_scenario "o_oldbth" in
  match
    Experiment.across_networks
      ~networks:[ Coign_netsim.Network.isdn_128; Coign_netsim.Network.san_1g ]
      app sc
  with
  | [ isdn; san ] ->
      Alcotest.(check bool)
        (Printf.sprintf "ISDN %d vs SAN %d server classifications"
           isdn.Experiment.sw_server_classifications san.Experiment.sw_server_classifications)
        true
        (isdn.Experiment.sw_server_classifications <> san.Experiment.sw_server_classifications)
  | _ -> Alcotest.fail "expected two rows"

(* --- Parallel determinism (two-stage engine satellites) -------------- *)

let check_rows_identical msg (a : Experiment.row list) (b : Experiment.row list) =
  Alcotest.(check int) (msg ^ ": row count") (List.length a) (List.length b);
  List.iter2
    (fun (x : Experiment.row) (y : Experiment.row) ->
      let bits = Int64.bits_of_float in
      Alcotest.(check string) (msg ^ ": id") x.Experiment.row_id y.Experiment.row_id;
      Alcotest.(check int64)
        (msg ^ ": default comm bits")
        (bits x.Experiment.default_comm_us)
        (bits y.Experiment.default_comm_us);
      Alcotest.(check int64)
        (msg ^ ": coign comm bits")
        (bits x.Experiment.coign_comm_us)
        (bits y.Experiment.coign_comm_us);
      Alcotest.(check int64)
        (msg ^ ": predicted bits")
        (bits x.Experiment.predicted_total_us)
        (bits y.Experiment.predicted_total_us);
      Alcotest.(check int64)
        (msg ^ ": measured bits")
        (bits x.Experiment.measured_total_us)
        (bits y.Experiment.measured_total_us);
      Alcotest.(check string) (msg ^ ": distribution")
        (Analysis.encode x.Experiment.distribution)
        (Analysis.encode y.Experiment.distribution))
    a b

let test_run_suite_parallel_deterministic () =
  let apps = [ Benefits.app ] in
  let sequential = Experiment.run_suite apps in
  let pool = Coign_util.Parallel.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Coign_util.Parallel.shutdown pool)
    (fun () ->
      check_rows_identical "parallel run_suite" sequential (Experiment.run_suite ~pool apps);
      (* A second parallel run must also match: no hidden state leaks
         between jobs. *)
      check_rows_identical "parallel run_suite rerun" sequential
        (Experiment.run_suite ~pool apps))

let test_sweep_parallel_deterministic () =
  let app, sc = Suite.find_scenario "o_oldwp0" in
  let image = Adps.instrument app.Coign_apps.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.Coign_apps.App.app_registry sc.Coign_apps.App.sc_run in
  let session = Adps.analysis_session image in
  let networks =
    Coign_netsim.Network.geometric_sweep ~points:8
      ~from_net:Coign_netsim.Network.isdn_128 ~to_net:Coign_netsim.Network.san_1g ()
  in
  let sequential = Experiment.sweep ~session networks in
  let pool = Coign_util.Parallel.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Coign_util.Parallel.shutdown pool)
    (fun () ->
      let parallel = Experiment.sweep ~pool ~session networks in
      Alcotest.(check int) "point count" (List.length sequential) (List.length parallel);
      List.iter2
        (fun (s : Experiment.sweep_point) (p : Experiment.sweep_point) ->
          Alcotest.(check string) "network" s.Experiment.sw_network.Coign_netsim.Network.net_name
            p.Experiment.sw_network.Coign_netsim.Network.net_name;
          Alcotest.(check int) "server classifications" s.Experiment.sw_server_classifications
            p.Experiment.sw_server_classifications;
          Alcotest.(check int) "cut_ns" s.Experiment.sw_cut_ns p.Experiment.sw_cut_ns;
          Alcotest.(check int64) "predicted bits"
            (Int64.bits_of_float s.Experiment.sw_predicted_comm_us)
            (Int64.bits_of_float p.Experiment.sw_predicted_comm_us))
        sequential parallel)

(* --- Classifier evaluation ------------------------------------------ *)

let rows2 = lazy (Classifier_eval.table2 Octarine.app)

let find kind = List.find (fun r -> r.Classifier_eval.cr_kind = kind) (Lazy.force rows2)

let test_table2_incremental_straw_man () =
  let r = find Classifier.Incremental in
  Alcotest.(check (float 1e-9)) "one instance per classification" 1.
    r.Classifier_eval.cr_avg_instances;
  Alcotest.(check bool) "all bigone instances new" true (r.Classifier_eval.cr_new_in_bigone > 0);
  Alcotest.(check bool) "worst correlation" true
    (List.for_all
       (fun other -> other.Classifier_eval.cr_avg_correlation >= r.Classifier_eval.cr_avg_correlation)
       (Lazy.force rows2))

let test_table2_context_classifiers_stable () =
  List.iter
    (fun kind ->
      let r = find kind in
      Alcotest.(check int)
        (Classifier.kind_name kind ^ " no new classifications in bigone")
        0 r.Classifier_eval.cr_new_in_bigone)
    [ Classifier.Pcb; Classifier.St; Classifier.Stcb; Classifier.Ifcb; Classifier.Epcb;
      Classifier.Ib ]

let test_table2_granularity_ordering () =
  (* IFCB identifies the most classifications; ST the fewest among the
     context-based classifiers (paper Table 2 shape). *)
  let n kind = (find kind).Classifier_eval.cr_profiled_classifications in
  Alcotest.(check bool) "ifcb >= epcb" true (n Classifier.Ifcb >= n Classifier.Epcb);
  Alcotest.(check bool) "epcb >= stcb" true (n Classifier.Epcb >= n Classifier.Stcb);
  Alcotest.(check bool) "stcb >= ib" true (n Classifier.Stcb >= n Classifier.Ib);
  Alcotest.(check bool) "ib >= st" true (n Classifier.Ib >= n Classifier.St);
  Alcotest.(check bool) "ifcb >= pcb" true (n Classifier.Ifcb >= n Classifier.Pcb)

let test_table2_accuracy_ordering () =
  let c kind = (find kind).Classifier_eval.cr_avg_correlation in
  Alcotest.(check bool) "ifcb beats st" true (c Classifier.Ifcb > c Classifier.St);
  Alcotest.(check bool) "all context classifiers decent" true
    (List.for_all
       (fun k -> c k > 0.5)
       [ Classifier.Pcb; Classifier.St; Classifier.Stcb; Classifier.Ifcb; Classifier.Epcb;
         Classifier.Ib ])

let test_table3_depth_monotone () =
  let rows = Classifier_eval.table3 ~depths:[ 1; 4 ] Octarine.app in
  match rows with
  | [ d1; d4; full ] ->
      Alcotest.(check bool) "classifications grow with depth" true
        (d1.Classifier_eval.cr_profiled_classifications
        <= d4.Classifier_eval.cr_profiled_classifications);
      Alcotest.(check bool) "deep saturates to full" true
        (d4.Classifier_eval.cr_profiled_classifications
        <= full.Classifier_eval.cr_profiled_classifications);
      Alcotest.(check bool) "correlation grows with depth" true
        (d1.Classifier_eval.cr_avg_correlation <= d4.Classifier_eval.cr_avg_correlation +. 1e-9)
  | _ -> Alcotest.fail "expected three rows"

(* --- Overhead -------------------------------------------------------- *)

let test_overhead_shape () =
  (* Wall-clock comparisons are noisy at sub-millisecond scale; use the
     suite's largest scenario and generous bounds. *)
  let app, sc = Suite.find_scenario "o_oldwp7" in
  let r = Overhead.measure ~repeats:3 app sc in
  Alcotest.(check bool) "calls counted" true (r.Overhead.intercepted_calls > 1_000);
  Alcotest.(check bool) "profiling slower than bare" true
    (r.Overhead.profiling_s >= r.Overhead.bare_s);
  Alcotest.(check bool) "distribution not dramatically heavier than profiling" true
    (r.Overhead.distributed_us_per_call <= (r.Overhead.profiling_us_per_call *. 2.) +. 1.)

(* EXPERIMENTS.md quotes the reproduction report: the "ours" column of
   its Table 4 is the pinned report's Table 4, scenario for scenario. *)
let section_lines ~start ~stop text =
  let rec drop = function
    | [] -> []
    | l :: rest -> if String.starts_with ~prefix:start l then rest else drop rest
  in
  let rec take = function
    | [] -> []
    | l :: rest -> if String.starts_with ~prefix:stop l then [] else l :: take rest
  in
  take (drop (String.split_on_char '\n' text))

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

let test_experiments_table4_matches_report () =
  let doc = "../EXPERIMENTS.md" and golden = "golden/bench_report.txt" in
  if not (Sys.file_exists doc && Sys.file_exists golden) then Alcotest.skip ();
  (* "o_oldtb0        0.899      0.786      13%" *)
  let report =
    section_lines ~start:"Table 4:" ~stop:"Expected shape" (Harness.read_file golden)
    |> List.filter_map (fun l ->
           match words l with
           | [ id; default; coign; savings ] when Float.of_string_opt default <> None ->
               Some (id, (default, coign, savings))
           | _ -> None)
  in
  (* "| o_oldtb0 | 1.058 → 1.048 (1%) | 0.899 → 0.786 (13%) |" *)
  let quoted =
    section_lines ~start:"## Table 4" ~stop:"## " (Harness.read_file doc)
    |> List.filter_map (fun l ->
           match List.map String.trim (String.split_on_char '|' l) with
           | [ ""; id; _paper; ours; "" ] -> (
               match words ours with
               | [ default; "→"; coign; savings ] when Float.of_string_opt default <> None ->
                   let savings = String.sub savings 1 (String.length savings - 2) in
                   Some (id, (default, coign, savings))
               | _ -> None)
           | _ -> None)
  in
  Alcotest.(check int) "every report scenario quoted once" (List.length report)
    (List.length quoted);
  List.iter
    (fun (id, row) ->
      match List.assoc_opt id quoted with
      | None -> Alcotest.failf "EXPERIMENTS.md Table 4 lacks %s" id
      | Some q ->
          Alcotest.(check (triple string string string)) (id ^ ": ours column = report") row q)
    report

(* The text after the first [marker] in [text]. *)
let after marker text =
  let n = String.length marker in
  let rec go i =
    if i + n > String.length text then Alcotest.failf "%S not found" marker
    else if String.sub text i n = marker then String.sub text (i + n) (String.length text - i - n)
    else go (i + 1)
  in
  go 0

(* Figures 4-8's instance counts and Table 5's worst error, as quoted in
   EXPERIMENTS.md, are the pinned report's. *)
let test_experiments_figures_and_table5_match_report () =
  let doc = "../EXPERIMENTS.md" and golden = "golden/bench_report.txt" in
  if not (Sys.file_exists doc && Sys.file_exists golden) then Alcotest.skip ();
  let doc = Harness.read_file doc and golden = Harness.read_file golden in
  let section ~start ~stop text = String.concat " " (section_lines ~start ~stop text) in
  List.iter
    (fun (fig, next) ->
      let reported = section ~start:(Printf.sprintf "Figure %d:" fig) ~stop:next golden in
      (* "Coign places 10 of 154 component instances on the server", or
         Figure 6's "Of 246 component instances, Coign places 27 on the
         middle tier". *)
      let placed, total =
        if fig = 6 then
          Scanf.sscanf (after "Of " reported) "%d component instances, Coign places %d"
            (fun total placed -> (placed, total))
        else Scanf.sscanf (after "Coign places " reported) "%d of %d" (fun p t -> (p, t))
      in
      (* "Ours: 10 of 154 — ..." *)
      let quoted =
        section ~start:(Printf.sprintf "## Figure %d" fig) ~stop:"## " doc
        |> after "Ours: "
        |> fun s -> Scanf.sscanf s " %d of %d" (fun p t -> (p, t))
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "Figure %d: placed of total = report" fig)
        (placed, total) quoted)
    [ (4, "Figure 5:"); (5, "Figure 6:"); (6, "Figure 7:"); (7, "Figure 8:"); (8, "Table 4:") ];
  (* "o_newdoc          0.175         0.172    +1%" *)
  let table5 = section_lines ~start:"Table 5:" ~stop:"Worst absolute error" golden in
  let scenarios =
    List.length
      (List.filter
         (fun l ->
           match words l with
           | [ _; predicted; _; _ ] -> Float.of_string_opt predicted <> None
           | _ -> false)
         table5)
  in
  let worst = Scanf.sscanf (after "Worst absolute error: " golden) "%f%%" Fun.id in
  let quoted_scenarios, quoted_worst =
    Scanf.sscanf
      (after "Worst absolute error across all " doc)
      "%d scenarios: **%f%%" (fun n e -> (n, e))
  in
  Alcotest.(check int) "Table 5: scenario count = report" scenarios quoted_scenarios;
  Alcotest.(check (float 0.)) "Table 5: worst error = report" worst quoted_worst

let suite =
  [
    Alcotest.test_case "experiment row basics" `Quick test_row_basics;
    Alcotest.test_case "EXPERIMENTS.md Table 4 quotes the pinned report" `Quick
      test_experiments_table4_matches_report;
    Alcotest.test_case "EXPERIMENTS.md Figures 4-8 and Table 5 quote the pinned report" `Quick
      test_experiments_figures_and_table5_match_report;
    Alcotest.test_case "benefits moves caches" `Quick test_benefits_moves_caches;
    Alcotest.test_case "photodraw property sets server" `Quick
      test_photodraw_property_sets_server;
    Alcotest.test_case "octarine reader server" `Quick test_octarine_reader_server;
    Alcotest.test_case "across networks monotone" `Quick test_across_networks_monotone_comm;
    Alcotest.test_case "overhead shape" `Quick test_overhead_shape;
    Alcotest.test_case "table 4 expected shape" `Quick test_table4_expected_shape;
    Alcotest.test_case "figure 8 expected shape" `Quick test_figure8_expected_shape;
    Alcotest.test_case "sec 4.4 placement moves with the network" `Quick
      test_adaptive_placement_moves;
    Alcotest.test_case "run_suite parallel deterministic" `Quick
      test_run_suite_parallel_deterministic;
    Alcotest.test_case "sweep parallel deterministic" `Quick test_sweep_parallel_deterministic;
    Alcotest.test_case "table2 incremental straw man" `Slow test_table2_incremental_straw_man;
    Alcotest.test_case "table2 context classifiers stable" `Slow
      test_table2_context_classifiers_stable;
    Alcotest.test_case "table2 granularity ordering" `Slow test_table2_granularity_ordering;
    Alcotest.test_case "table2 accuracy ordering" `Slow test_table2_accuracy_ordering;
    Alcotest.test_case "table3 depth monotone" `Slow test_table3_depth_monotone;
  ]
