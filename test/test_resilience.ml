(* The adaptive resilience layer: circuit breaker, fallback ladder,
   live failover in the distributed RTE, and the resilience grid.
   Counter expectations are hand-computed from the fixed retry policy
   (1 ms timeout, 3 attempts, 500 us backoff doubling): one exhausted
   cycle costs exactly 4500 us, 3 drops, 2 retries. *)

open Coign_idl
open Coign_com
open Coign_netsim
open Coign_core
open Coign_apps
open Coign_sim
open Coign_util

let check_bits = Harness.check_bits

(* --- The breaker in isolation ---------------------------------------- *)

let policy ?(threshold = 2) ?(cooloff = 5_000.) ?(mult = 2.) ?(max = 1e6) ?(probes = 1)
    ?(alpha = 0.5) () =
  {
    Health.hp_failure_threshold = threshold;
    hp_cooloff_us = cooloff;
    hp_cooloff_mult = mult;
    hp_cooloff_max_us = max;
    hp_probe_successes = probes;
    hp_ewma_alpha = alpha;
  }

let test_breaker_trips_at_threshold () =
  let h = Health.create ~policy:(policy ()) () in
  Alcotest.(check bool) "starts closed" true (Health.state h = Health.Closed);
  Alcotest.(check bool) "first failure keeps it closed" true
    (Health.record_failure h ~now_us:10_000. = None);
  (match Health.record_failure h ~now_us:20_000. with
  | Some { Health.tr_from = Health.Closed; tr_to = Health.Open; tr_at_us } ->
      check_bits "trips at the second failure" 20_000. tr_at_us
  | _ -> Alcotest.fail "expected Closed -> Open");
  Alcotest.(check bool) "open rejects immediately" false (Health.allows h ~now_us:20_000.);
  check_bits "cooloff expiry" 25_000. (Health.cooloff_expires_at h);
  Alcotest.(check bool) "still rejects just before expiry" false
    (Health.allows h ~now_us:24_999.);
  Alcotest.(check bool) "admits a probe at expiry" true (Health.allows h ~now_us:25_000.)

let test_breaker_probe_closes_and_resets_cooloff () =
  let h = Health.create ~policy:(policy ()) () in
  ignore (Health.record_failure h ~now_us:0.);
  ignore (Health.record_failure h ~now_us:1.);
  (* Waiting out the cooloff admits a probe via Half_open... *)
  (match Health.observe h ~now_us:5_001. with
  | Some { Health.tr_from = Health.Open; tr_to = Health.Half_open; _ } -> ()
  | _ -> Alcotest.fail "expected Open -> Half_open after the cooloff");
  (* ...a failed probe reopens with an escalated cooloff... *)
  (match Health.record_failure h ~now_us:5_100. with
  | Some { Health.tr_to = Health.Open; _ } -> ()
  | _ -> Alcotest.fail "expected Half_open -> Open on probe failure");
  check_bits "cooloff doubled" 10_000. (Health.cooloff_us h);
  (* ...and a successful probe closes, restoring the initial cooloff. *)
  ignore (Health.observe h ~now_us:20_000.);
  (match Health.record_success h ~now_us:20_050. with
  | Some { Health.tr_from = Health.Half_open; tr_to = Health.Closed; _ } -> ()
  | _ -> Alcotest.fail "expected Half_open -> Closed on probe success");
  check_bits "cooloff reset on close" 5_000. (Health.cooloff_us h)

let test_breaker_cooloff_capped () =
  let h = Health.create ~policy:(policy ~threshold:1 ~cooloff:100. ~mult:10. ~max:250. ()) () in
  ignore (Health.record_failure h ~now_us:0.);
  ignore (Health.observe h ~now_us:100.);
  ignore (Health.record_failure h ~now_us:100.);
  check_bits "escalation capped" 250. (Health.cooloff_us h)

let test_breaker_ewma_blends () =
  let h = Health.create ~policy:(policy ~threshold:10 ()) () in
  check_bits "starts healthy" 1. (Health.ewma h);
  ignore (Health.record_failure h ~now_us:1.);
  check_bits "failure halves it (alpha 0.5)" 0.5 (Health.ewma h);
  ignore (Health.record_success h ~now_us:2.);
  check_bits "success pulls it back" 0.75 (Health.ewma h);
  Alcotest.(check int) "outcomes counted" 1 (Health.successes h);
  Alcotest.(check int) "failures counted" 1 (Health.failures h)

let test_breaker_rejects_bad_policy () =
  let bad p = try ignore (Health.create ~policy:p ()) ; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero threshold" true (bad (policy ~threshold:0 ()));
  Alcotest.(check bool) "negative cooloff" true (bad (policy ~cooloff:(-1.) ()));
  Alcotest.(check bool) "shrinking multiplier" true (bad (policy ~mult:0.5 ()));
  Alcotest.(check bool) "zero probes" true (bad (policy ~probes:0 ()));
  Alcotest.(check bool) "alpha out of range" true (bad (policy ~alpha:1.5 ()))

(* The gate the RTE relies on: an open breaker never admits a call
   before its cooloff expires, whatever outcome sequence produced it. *)
let prop_open_never_admits_before_cooloff =
  let gen =
    QCheck.Gen.(list_size (int_bound 60) (pair (int_range 1 2_000) bool))
  in
  QCheck.Test.make ~name:"open breaker never admits a call before cooloff expiry" ~count:300
    (QCheck.make gen) (fun steps ->
      let h = Health.create ~policy:(policy ~threshold:1 ~cooloff:1_000. ~max:8_000. ()) () in
      let now = ref 0. in
      List.for_all
        (fun (dt, ok) ->
          now := !now +. float_of_int dt;
          let before_expiry = !now < Health.cooloff_expires_at h in
          (match Health.observe h ~now_us:!now with
          | Some { Health.tr_to = Health.Half_open; _ } ->
              if before_expiry then Alcotest.fail "probe admitted before cooloff expiry"
          | _ -> ());
          let gated =
            (not (Health.state h = Health.Open && before_expiry))
            || not (Health.allows h ~now_us:!now)
          in
          (* Only issue the call when the breaker allows it, as the RTE
             does; outcomes feed back into the tracker. *)
          if Health.allows h ~now_us:!now then
            ignore
              (if ok then Health.record_success h ~now_us:!now
               else Health.record_failure h ~now_us:!now);
          gated)
        steps)

(* --- Live failover in the distributed RTE ----------------------------
   The Flt mini-app from the fault tests, renamed: Front (client)
   creates Back (server) and pumps 1000-byte blobs at it.  On 10BaseT
   the forwarded creation costs 714 + 742.8 = 1456.8 us, so with a
   partition opening at t = 2000 us the creation clears and every store
   attempt lands inside the window. *)

let fixed_retry =
  {
    Fault.rp_timeout_us = 1_000.;
    rp_max_attempts = 3;
    rp_backoff_us = 500.;
    rp_backoff_mult = 2.;
    rp_backoff_jitter = 0.;
  }

let i_front =
  Itype.declare "IRslFront" [ Idl_type.method_ "run" [ Idl_type.param "rounds" Idl_type.Int32 ] ]

let i_back =
  Itype.declare "IRslBack"
    [ Idl_type.method_ ~ret:Idl_type.Int32 "store" [ Idl_type.param "data" Idl_type.Blob ] ]

let c_back =
  Runtime.define_class "Rsl.Back" (fun _ctx _self ->
      let stored = ref 0 in
      [
        Combuild.iface i_back
          [
            ( "store",
              fun ctx args ->
                stored := !stored + Combuild.get_blob args 0;
                Runtime.charge ctx ~us:10.;
                Value.Int !stored );
          ];
      ])

let c_front =
  Runtime.define_class "Rsl.Front" (fun ctx0 _self ->
      let back = Runtime.create_instance ctx0 c_back.Runtime.clsid ~iid:(Itype.iid i_back) in
      [
        Combuild.iface i_front
          [
            ( "run",
              fun ctx args ->
                let rounds = Combuild.get_int args 0 in
                for _ = 1 to rounds do
                  ignore (Runtime.call_named ctx back "store" [ Value.Blob 1_000 ])
                done;
                Value.Unit );
          ];
      ])

let registry () = Runtime.registry [ c_front; c_back ]
let split cname = if String.equal cname "Rsl.Back" then Constraints.Server else Constraints.Client

(* Classifications are assigned in creation order by a fresh classifier,
   so one clean run tells us which index is Rsl.Back — deterministically
   the same in every subsequent run of the same scenario. *)
let discover =
  lazy
    (let ctx = Runtime.create_ctx (registry ()) in
     let classifier = Classifier.create Classifier.Ifcb in
     let rte =
       Rte.install_distributed ~classifier
         ~config:
           {
             Rte.dc_factory_policy = Factory.By_class split;
             dc_network = Network.ethernet_10;
             dc_jitter = 0.;
             dc_seed = 1L;
             dc_faults = None;
             dc_retry = fixed_retry;
             dc_resilience = None;
             dc_fleet = None;
             dc_watch = None;
           }
         ctx
     in
     let front = Runtime.create_instance ctx c_front.Runtime.clsid ~iid:(Itype.iid i_front) in
     ignore (Runtime.call_named ctx front "run" [ Value.Int 1 ]);
     Rte.uninstall rte;
     let n = Classifier.classification_count classifier in
     let cback = ref (-1) in
     for c = 0 to n - 1 do
       if String.equal (Classifier.class_of_classification classifier c) "Rsl.Back" then
         cback := c
     done;
     if !cback < 0 then Alcotest.fail "Rsl.Back was never classified";
     (n, !cback))

let dist placement =
  {
    Analysis.placement;
    cut_ns = 0;
    predicted_comm_us = 0.;
    server_count =
      Array.fold_left (fun a l -> if l = Constraints.Server then a + 1 else a) 0 placement;
    node_count = Array.length placement;
  }

let two_rung_ladder ~safe =
  let n, cback = Lazy.force discover in
  let primary = Array.make n Constraints.Client in
  primary.(cback) <- Constraints.Server;
  ( dist primary,
    Fallback.of_rungs
      ~migration_safe:(Array.make n safe)
      [
        ("primary", dist primary);
        ("all-client", dist (Array.make n Constraints.Client));
      ] )

let run_resil ?faults ?resilience ?(policy = None) ~rounds () =
  let primary, ladder = two_rung_ladder ~safe:true in
  let resilience =
    match resilience with Some r -> Some r | None -> Option.map (fun h -> Rte.resilience ~health:h ladder) policy
  in
  let ctx = Runtime.create_ctx (registry ()) in
  let classifier = Classifier.create Classifier.Ifcb in
  let rte =
    Rte.install_distributed ~classifier
      ~config:
        {
          Rte.dc_factory_policy = Factory.By_classification primary;
          dc_network = Network.ethernet_10;
          dc_jitter = 0.;
          dc_seed = 1L;
          dc_faults = faults;
          dc_retry = fixed_retry;
          dc_resilience = resilience;
          dc_fleet = None;
          dc_watch = None;
        }
      ctx
  in
  let front = Runtime.create_instance ctx c_front.Runtime.clsid ~iid:(Itype.iid i_front) in
  let completed =
    match Runtime.call_named ctx front "run" [ Value.Int rounds ] with
    | _ -> true
    | exception Hresult.Com_error (Hresult.E_unreachable _) -> false
  in
  Rte.uninstall rte;
  (Rte.stats rte, completed)

let breaker_policy =
  {
    Health.hp_failure_threshold = 2;
    hp_cooloff_us = 5_000.;
    hp_cooloff_mult = 2.;
    hp_cooloff_max_us = 1e6;
    hp_probe_successes = 1;
    hp_ewma_alpha = 0.2;
  }

let test_rte_failover_rescues_call () =
  (* Partition from t = 2000 forever.  The creation clears; the first
     store burns two full retry cycles (4500 us each), tripping the
     breaker at the second failure.  The failover migrates Back to the
     client, so the retried call finds its endpoints co-located and
     completes locally — the run finishes with no unreachable calls. *)
  let s, completed =
    run_resil
      ~faults:{ Fault.zero with Fault.fs_partitions_us = [ (2_000., 1e9) ] }
      ~policy:(Some breaker_policy) ~rounds:2 ()
  in
  Alcotest.(check bool) "run completes" true completed;
  Alcotest.(check int) "breaker opened once" 1 s.Rte.st_breaker_opens;
  Alcotest.(check int) "never closed again" 0 s.Rte.st_breaker_closes;
  Alcotest.(check int) "one failover" 1 s.Rte.st_failovers;
  Alcotest.(check int) "no failback" 0 s.Rte.st_failbacks;
  Alcotest.(check int) "back migrated" 1 s.Rte.st_migrations;
  Alcotest.(check int) "the failed call was rescued" 1 s.Rte.st_rescued_calls;
  Alcotest.(check int) "nothing stranded" 0 s.Rte.st_stranded_calls;
  Alcotest.(check int) "nothing unreachable" 0 s.Rte.st_unreachable;
  Alcotest.(check int) "run ends on the fallback rung" 1 s.Rte.st_final_rung;
  Alcotest.(check int) "only the creation crossed" 1 s.Rte.st_remote_calls;
  Alcotest.(check int) "two exhausted cycles" 4 s.Rte.st_retries;
  Alcotest.(check int) "three drops each" 6 s.Rte.st_drops;
  check_bits "fault time = two cycles" 9_000. s.Rte.st_fault_us

let test_rte_stranded_probe_failback () =
  (* Same schedule, but nothing may migrate and the partition ends at
     t = 28000.  The failover switches the policy yet moves no
     instance, so the call strands on the open breaker: it waits out
     the 5000 us cooloff, probes (another exhausted cycle), reopens
     with the cooloff doubled, waits again, and the second probe —
     issued at creation + 2 cycles + probe cycle + 15000 us of waiting
     = 29966.8 us, past the window — succeeds, closing the breaker and
     failing back to the primary rung. *)
  let _, ladder = two_rung_ladder ~safe:false in
  let s, completed =
    run_resil
      ~faults:{ Fault.zero with Fault.fs_partitions_us = [ (2_000., 28_000.) ] }
      ~resilience:(Rte.resilience ~health:breaker_policy ladder)
      ~rounds:2 ()
  in
  Alcotest.(check bool) "run completes" true completed;
  Alcotest.(check int) "opened, reopened after the failed probe" 2 s.Rte.st_breaker_opens;
  Alcotest.(check int) "closed by the second probe" 1 s.Rte.st_breaker_closes;
  Alcotest.(check int) "one failover" 1 s.Rte.st_failovers;
  Alcotest.(check int) "one failback" 1 s.Rte.st_failbacks;
  Alcotest.(check int) "nothing migrated" 0 s.Rte.st_migrations;
  Alcotest.(check int) "the call stranded once" 1 s.Rte.st_stranded_calls;
  Alcotest.(check int) "nothing rescued" 0 s.Rte.st_rescued_calls;
  Alcotest.(check int) "nothing unreachable" 0 s.Rte.st_unreachable;
  Alcotest.(check int) "back on the primary rung" 0 s.Rte.st_final_rung;
  Alcotest.(check int) "creation + both stores crossed" 3 s.Rte.st_remote_calls;
  Alcotest.(check int) "three exhausted cycles" 6 s.Rte.st_retries;
  Alcotest.(check int) "drops" 9 s.Rte.st_drops;
  check_bits "fault time = 3 cycles + 5000 + 10000 waited" 28_500. s.Rte.st_fault_us

let test_rte_zero_fault_bit_identity () =
  (* With no faults the breaker sees only successes: a resilience
     policy must leave every stat — including the comm bits — exactly
     as the PR 3 retry-only path produced them. *)
  let bare, _ = run_resil ~rounds:4 () in
  let watched, _ = run_resil ~policy:(Some breaker_policy) ~rounds:4 () in
  check_bits "comm bits identical" bare.Rte.st_comm_us watched.Rte.st_comm_us;
  check_bits "fault bits identical" bare.Rte.st_fault_us watched.Rte.st_fault_us;
  Alcotest.(check bool) "all counters identical" true (bare = watched);
  Alcotest.(check int) "no breaker activity" 0 watched.Rte.st_breaker_opens;
  Alcotest.(check int) "still on the primary rung" 0 watched.Rte.st_final_rung

(* --- The fallback ladder on a real profile ---------------------------- *)

let prepared_octarine =
  lazy
    (let app = Octarine.app in
     let sc = App.scenario app "o_oldwp0" in
     let image = Adps.instrument app.App.app_image in
     let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
     (image, app.App.app_registry, sc.App.sc_run))

let test_ladder_shape () =
  let image, _, _ = Lazy.force prepared_octarine in
  let net = Net_profiler.exact Network.ethernet_10 in
  let ladder = Adps.fallback_ladder ~image ~net () in
  let k = Fallback.rung_count ladder in
  Alcotest.(check bool) "at least primary + all-client" true (k >= 2);
  Alcotest.(check string) "rung 0 is the primary" "primary" (Fallback.rung ladder 0).Fallback.pr_name;
  let last = Fallback.rung ladder (k - 1) in
  Alcotest.(check string) "final rung is all-client" "all-client" last.Fallback.pr_name;
  Alcotest.(check int) "all-client has an empty server" 0
    last.Fallback.pr_distribution.Analysis.server_count;
  (* Rungs are deduplicated by placement. *)
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      Alcotest.(check bool) "distinct placements" false
        ((Fallback.rung ladder i).Fallback.pr_distribution.Analysis.placement
        = (Fallback.rung ladder j).Fallback.pr_distribution.Analysis.placement)
    done
  done;
  Alcotest.(check bool) "main is never migration-safe" false (Fallback.migration_safe ladder (-1))

let test_execute_zero_fault_identity_with_ladder () =
  (* The whole-pipeline version of the bit-identity guarantee: a real
     analyzed application, executed with and without the resilience
     policy attached, fault-free — every exec stat matches. *)
  let image, registry, scenario = Lazy.force prepared_octarine in
  let net = Net_profiler.exact Network.ethernet_10 in
  let ladder = Adps.fallback_ladder ~image ~net () in
  let image, _ = Adps.analyze ~image ~net () in
  let run resilience =
    Adps.execute ?resilience ~image ~registry ~network:Network.ethernet_10 ~jitter:0.01
      ~seed:77L scenario
  in
  let bare = run None in
  let watched = run (Some (Rte.resilience ladder)) in
  check_bits "comm bits identical" bare.Adps.es_comm_us watched.Adps.es_comm_us;
  Alcotest.(check bool) "exec stats identical" true (bare = watched)

(* --- The resilience grid ---------------------------------------------- *)

let test_resilsim_improves_availability () =
  (* Sustained mid-run partition: the retry-only baseline aborts
     partway (availability < 1) while the resilient run fails over and
     finishes. PhotoDraw shows every step; across the three apps,
     availability must strictly improve on at least two. *)
  let partition_cell app sc_id =
    let sc = App.scenario app sc_id in
    let image = Adps.instrument app.App.app_image in
    let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
    let grid =
      Fleetsim.run ~image ~registry:app.App.app_registry ~network:Network.atm_155
        (Fleetsim.Resilience
           { drop_rates = [ 0. ]; partitions_us = [ 500_000. ]; partition_start_us = 50_000. })
        sc.App.sc_run
    in
    match grid.Fleetsim.g_rows with
    | [ Fleetsim.Resilience_row { retry; ladder; _ } ] ->
        (Fleetsim.availability grid, (retry, ladder))
    | rows -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length rows))
  in
  let rows =
    List.map
      (fun (app, sc_id) -> (app.App.app_name, partition_cell app sc_id))
      [ (Octarine.app, "o_oldwp0"); (Photodraw.app, "p_oldmsr"); (Benefits.app, "b_vueone") ]
  in
  let avail, (baseline, resilient) = List.assoc "photodraw" rows in
  Alcotest.(check bool) "baseline is cut short" false baseline.Adps.es_completed;
  Alcotest.(check bool) "resilient run completes" true resilient.Adps.es_completed;
  Alcotest.(check bool) "availability strictly improves" true
    (avail resilient > avail baseline);
  Alcotest.(check bool) "the ladder was used" true (resilient.Adps.es_failovers > 0);
  let improved = List.filter (fun (_, (avail, (b, r))) -> avail r > avail b) rows in
  Alcotest.(check bool)
    (Printf.sprintf "availability improves on at least 2 of 3 apps: %s"
       (String.concat ", "
          (List.map
             (fun (name, (avail, (b, r))) ->
               Printf.sprintf "%s %.3f -> %.3f" name (avail b) (avail r))
             rows)))
    true
    (List.length improved >= 2)

let test_resilsim_deterministic_across_domains () =
  let image, registry, scenario = Lazy.force prepared_octarine in
  let go pool =
    Jsonu.to_string
      (Fleetsim.to_json
         (Fleetsim.run ?pool ~seed:0xD1CEL ~jitter:0.02 ~image ~registry
            ~network:Network.ethernet_10
            (Fleetsim.Resilience
               { drop_rates = [ 0.; 0.1 ]; partitions_us = [ 0.; 20_000. ]; partition_start_us = 0. })
            scenario))
  in
  let j1 = go None in
  let j2 = go None in
  let pool = Parallel.create ~domains:3 () in
  let j3 = Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> go (Some pool)) in
  Alcotest.(check string) "sequential runs identical" j1 j2;
  Alcotest.(check string) "pooled run identical" j1 j3;
  match Jsonu.parse j1 with
  | Ok (Jsonu.Arr cells) -> Alcotest.(check int) "one JSON object per cell" 4 (List.length cells)
  | Ok _ -> Alcotest.fail "grid JSON is not an array"
  | Error e -> Alcotest.fail ("grid JSON does not parse: " ^ e)

(* --- Golden CLI output ------------------------------------------------ *)

let test_resilience_golden () =
  let golden = "golden/resilience_octarine.txt" in
  let golden_json = "golden/resilience_octarine.json" in
  Harness.in_tmp ~needs:[ golden; golden_json ] (fun dir ->
      let img = Harness.profiled_octarine dir in
      let args =
        [
          "resilience"; img; "--scenario"; "o_oldwp0"; "--network"; "atm"; "--drops"; "0,0.1";
          "--partitions-ms"; "0,500"; "--partition-start-ms"; "50"; "--jobs"; "1";
        ]
      in
      Harness.check_golden ~dir ~golden "resilience" args;
      Harness.check_golden_json ~dir ~golden:golden_json "resilience" (args @ [ "--json" ]))

(* --- Migration on a re-partition --------------------------------------- *)

(* Live instances move to [Analysis.location_of]'s home when their
   classification is migration-safe. An instance of a classification the
   distribution never saw belongs on the client, as the factory would
   place it: on the server it is left behind, not silently kept. *)
let test_migrate_unprofiled_targets_client () =
  let env = Rte_env.create (Runtime.create_ctx Benefits.app.App.app_registry) in
  List.iter
    (fun (inst, c) ->
      env.Rte_env.classifications <- Rte_env.store env.Rte_env.classifications inst c)
    [ (1, 0); (2, 1); (3, 5); (4, 6) ];
  let factory = Factory.create Factory.All_client in
  List.iter
    (fun (inst, loc) -> Factory.record_instance factory ~inst loc)
    [
      (1, Constraints.Server);
      (2, Constraints.Client);
      (3, Constraints.Server);
      (4, Constraints.Client);
    ];
  let dist =
    {
      Analysis.placement = [| Constraints.Client; Constraints.Server |];
      cut_ns = 0;
      predicted_comm_us = 0.;
      server_count = 1;
      node_count = 2;
    }
  in
  let migrated, left, moves =
    Rte_env.migrate_instances env factory ~safe:[| true; true |] ~dist
  in
  Alcotest.(check int) "profiled instances migrated" 2 migrated;
  Alcotest.(check int) "unprofiled server instance left behind" 1 left;
  Alcotest.(check bool) "moves in instance order" true
    (moves
    = [ (1, 0, Constraints.Server, Constraints.Client); (2, 1, Constraints.Client, Constraints.Server) ]);
  Alcotest.(check bool) "the left instance keeps its machine" true
    (Factory.machine_of factory 3 = Constraints.Server);
  Alcotest.(check bool) "new instances follow the distribution" true
    (Factory.decide factory ~cname:"X" ~classification:5 ~creator_machine:Constraints.Server
    = Constraints.Client)

let suite =
  [
    Alcotest.test_case "breaker trips at the failure threshold" `Quick
      test_breaker_trips_at_threshold;
    Alcotest.test_case "breaker probe closes and resets cooloff" `Quick
      test_breaker_probe_closes_and_resets_cooloff;
    Alcotest.test_case "breaker cooloff escalation is capped" `Quick test_breaker_cooloff_capped;
    Alcotest.test_case "breaker ewma blends outcomes" `Quick test_breaker_ewma_blends;
    Alcotest.test_case "breaker rejects bad policies" `Quick test_breaker_rejects_bad_policy;
    QCheck_alcotest.to_alcotest ~long:false prop_open_never_admits_before_cooloff;
    Alcotest.test_case "rte: failover rescues the failed call" `Quick
      test_rte_failover_rescues_call;
    Alcotest.test_case "rte: stranded call probes and fails back" `Quick
      test_rte_stranded_probe_failback;
    Alcotest.test_case "rte: zero-fault bit identity with resilience" `Quick
      test_rte_zero_fault_bit_identity;
    Alcotest.test_case "migration targets an unprofiled classification to the client" `Quick
      test_migrate_unprofiled_targets_client;
    Alcotest.test_case "ladder shape" `Slow test_ladder_shape;
    Alcotest.test_case "execute: zero-fault identity with ladder" `Slow
      test_execute_zero_fault_identity_with_ladder;
    Alcotest.test_case "resilsim improves availability under partition" `Slow
      test_resilsim_improves_availability;
    Alcotest.test_case "resilsim deterministic across domains" `Slow
      test_resilsim_deterministic_across_domains;
    Alcotest.test_case "cli resilience golden output" `Slow test_resilience_golden;
  ]
