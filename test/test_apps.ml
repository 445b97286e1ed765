open Coign_com
open Coign_core
open Coign_apps

let run_bare (app : App.t) (sc : App.scenario) =
  let ctx = Runtime.create_ctx app.App.app_registry in
  sc.App.sc_run ctx;
  ctx

let test_suite_shape () =
  Alcotest.(check int) "four applications" 4 (List.length Suite.all);
  Alcotest.(check int) "27 scenarios (Table 1 plus ingest)" 27 (List.length Suite.table1);
  List.iter
    (fun (app : App.t) ->
      Alcotest.(check bool)
        (app.App.app_name ^ " has exactly one bigone")
        true
        (List.length (List.filter (fun s -> s.App.sc_bigone) app.App.app_scenarios) = 1))
    Suite.all

let test_find_scenario () =
  let app, sc = Suite.find_scenario "p_oldmsr" in
  Alcotest.(check string) "app" "photodraw" app.App.app_name;
  Alcotest.(check string) "id" "p_oldmsr" sc.App.sc_id;
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (Suite.find_scenario "nope");
       false
     with Not_found -> true)

let test_all_scenarios_run_bare () =
  (* Every scenario must execute without a Coign runtime installed —
     instrumentation must be behaviour-preserving, so the baseline
     behaviour must exist. *)
  List.iter
    (fun (app : App.t) ->
      List.iter
        (fun (sc : App.scenario) ->
          let ctx = run_bare app sc in
          (* Ingest's single-scenario boots create 9 instances; the
             Table 1 apps create 11+. *)
          Alcotest.(check bool)
            (sc.App.sc_id ^ " creates components")
            true
            (Runtime.instance_count ctx > 8))
        app.App.app_scenarios)
    Suite.all

let test_instrumented_behaviour_identical () =
  (* The instrumented application behaves identically: same instance
     count, same compute charges. *)
  List.iter
    (fun id ->
      let app, sc = Suite.find_scenario id in
      let bare = run_bare app sc in
      let ctx = Runtime.create_ctx app.App.app_registry in
      let rte = Rte.install_profiling ~classifier:(Classifier.create Classifier.Ifcb) ctx in
      sc.App.sc_run ctx;
      Rte.uninstall rte;
      Alcotest.(check int)
        (id ^ " same instance count")
        (Runtime.instance_count bare)
        (Runtime.instance_count ctx);
      Alcotest.(check (float 1e-6))
        (id ^ " same compute")
        (Runtime.compute_us bare) (Runtime.compute_us ctx))
    [ "o_oldwp0"; "o_newtbl"; "p_oldcur"; "b_vueone" ]

let test_scenarios_deterministic () =
  List.iter
    (fun id ->
      let app, sc = Suite.find_scenario id in
      let a = Runtime.instance_count (run_bare app sc) in
      let b = Runtime.instance_count (run_bare app sc) in
      Alcotest.(check int) (id ^ " deterministic") a b)
    [ "o_oldbth"; "p_oldmsr"; "b_delone" ]

let instance_counts (app : App.t) (sc : App.scenario) =
  let ctx = run_bare app sc in
  Runtime.instance_count ctx

let test_bigone_is_superset () =
  List.iter
    (fun (app : App.t) ->
      let big = instance_counts app (App.bigone app) in
      let max_single =
        List.fold_left
          (fun acc sc -> max acc (instance_counts app sc))
          0 (App.non_bigone app)
      in
      Alcotest.(check bool)
        (app.App.app_name ^ " bigone bigger than any single scenario")
        true (big > max_single))
    Suite.all

let test_octarine_scale () =
  let app = Octarine.app in
  let n = instance_counts app (App.scenario app "o_oldwp0") in
  Alcotest.(check bool) "hundreds of components" true (n > 250 && n < 1_000)

let test_photodraw_non_remotable_interfaces () =
  (* Profile a PhotoDraw scenario and verify non-remotable ICC entries
     exist (the sprite shared-memory web of Figure 4). *)
  let app = Photodraw.app in
  let sc = App.scenario app "p_oldmsr" in
  let ctx = Runtime.create_ctx app.App.app_registry in
  let rte = Rte.install_profiling ~classifier:(Classifier.create Classifier.Ifcb) ctx in
  sc.App.sc_run ctx;
  Rte.uninstall rte;
  let entries = Icc.entries (Rte.icc rte) in
  Alcotest.(check bool) "non-remotable entries present" true
    (List.exists (fun e -> not e.Icc.remotable) entries);
  Alcotest.(check bool) "sprite interface among them" true
    (List.exists (fun e -> (not e.Icc.remotable) && e.Icc.iface = "ISprite") entries)

let test_octarine_gui_non_remotable () =
  let app = Octarine.app in
  let sc = App.scenario app "o_oldwp0" in
  let ctx = Runtime.create_ctx app.App.app_registry in
  let rte = Rte.install_profiling ~classifier:(Classifier.create Classifier.Ifcb) ctx in
  sc.App.sc_run ctx;
  Rte.uninstall rte;
  Alcotest.(check bool) "paint interface non-remotable" true
    (List.exists
       (fun e -> (not e.Icc.remotable) && e.Icc.iface = "IPaint")
       (Icc.entries (Rte.icc rte)))

let test_default_placements () =
  Alcotest.(check bool) "octarine default all-client" true
    (Octarine.app.App.app_default_placement "Octarine.Story" = Constraints.Client);
  Alcotest.(check bool) "file server on server" true
    (Octarine.app.App.app_default_placement Common.file_server_class_name = Constraints.Server);
  Alcotest.(check bool) "benefits logic on middle tier" true
    (Benefits.app.App.app_default_placement "Benefits.EmployeeLogic" = Constraints.Server);
  Alcotest.(check bool) "benefits form on client" true
    (Benefits.app.App.app_default_placement "Benefits.LoginForm" = Constraints.Client)

let test_images_carry_api_refs () =
  List.iter
    (fun (app : App.t) ->
      let img = app.App.app_image in
      Alcotest.(check bool)
        (app.App.app_name ^ " has GUI classes")
        true
        (List.exists
           (fun (_, v) -> v = Static_analysis.Pin_client)
           (Static_analysis.image_verdicts img));
      Alcotest.(check bool)
        (app.App.app_name ^ " has storage classes")
        true
        (List.exists
           (fun (_, v) -> v = Static_analysis.Pin_server)
           (Static_analysis.image_verdicts img)))
    Suite.all

let test_vfs_missing_file () =
  let ctx = Runtime.create_ctx Octarine.app.App.app_registry in
  let fs = Common.create_file_server ctx in
  Alcotest.(check bool) "missing file fails" true
    (try
       ignore
         (Common.call_ret_int ctx fs Common.file_read_open_file
            [ Coign_idl.Value.Str "ghost.doc" ]);
       false
     with Hresult.Com_error (Hresult.E_fail _) -> true)

let test_file_server_reads () =
  let ctx = Runtime.create_ctx Octarine.app.App.app_registry in
  Common.Vfs.add ctx ~name:"f.dat" ~bytes:10_000;
  let fs = Common.create_file_server ctx in
  let fh =
    Common.call_ret_int ctx fs Common.file_read_open_file [ Coign_idl.Value.Str "f.dat" ]
  in
  Alcotest.(check int) "size" 10_000
    (Common.call_ret_int ctx fs Common.file_read_file_size [ Coign_idl.Value.Int fh ]);
  Alcotest.(check int) "block clipped at eof" 2_000
    (Common.call_ret_blob ctx fs Common.file_read_read_block
       [ Coign_idl.Value.Int fh; Coign_idl.Value.Int 8_000; Coign_idl.Value.Int 4_096 ]);
  Alcotest.(check int) "read_all" 10_000
    (Common.call_ret_blob ctx fs Common.file_read_read_all [ Coign_idl.Value.Str "f.dat" ])

let suite =
  [
    Alcotest.test_case "suite shape" `Quick test_suite_shape;
    Alcotest.test_case "find scenario" `Quick test_find_scenario;
    Alcotest.test_case "all scenarios run bare" `Slow test_all_scenarios_run_bare;
    Alcotest.test_case "instrumentation behaviour-preserving" `Quick
      test_instrumented_behaviour_identical;
    Alcotest.test_case "scenarios deterministic" `Quick test_scenarios_deterministic;
    Alcotest.test_case "bigone is superset" `Slow test_bigone_is_superset;
    Alcotest.test_case "octarine scale" `Quick test_octarine_scale;
    Alcotest.test_case "photodraw non-remotable web" `Quick
      test_photodraw_non_remotable_interfaces;
    Alcotest.test_case "octarine gui non-remotable" `Quick test_octarine_gui_non_remotable;
    Alcotest.test_case "default placements" `Quick test_default_placements;
    Alcotest.test_case "images carry api refs" `Quick test_images_carry_api_refs;
    Alcotest.test_case "vfs missing file" `Quick test_vfs_missing_file;
    Alcotest.test_case "file server reads" `Quick test_file_server_reads;
  ]
