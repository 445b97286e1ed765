(* The exhaustive distribution checker.  The 2-rung closures are
   enumerated by hand below and checked state-for-state; seeded lying
   safety tables must produce CG008/CG009 counterexamples whose traces
   replay to the violation both through the replay harness and through
   the real distributed RTE; and the three bundled apps' ladders must
   verify clean.

   Hand enumeration for the safe 2-rung model (one main group pinned to
   the client, one safe group Server@0 -> Client@1, one remotable edge,
   threshold 2, 1 probe, cooloff chain [5000; 10000]):

     S0 (0, Closed cf=0, c s)   S5 (1, Open   idx1, c s)
     S1 (0, Closed cf=1, c s)   S6 (1, HalfOp idx0, c c)  dead end
     S2 (1, Open   idx0, c s)   S7 (1, HalfOp idx1, c s)
     S3 (1, HalfOp idx0, c s)   S8 (1, Open   idx1, c c)
     S4 (1, Open   idx0, c c)   S9 (1, HalfOp idx1, c c)  dead end

   10 states; 16 event applications (S0:2 S1:2 S2:2 S3:3 S4:1 S5:2
   S7:3 S8:1 plus no successors from S6/S9), 7 of which land on known
   states (S0<-ok from S0's own loop, from S1, from S3 and the probe-ok
   from S7; S5<-fail from S7; S6<-cooloff from S4; S9<-cooloff from
   S8); deepest layer 6
   (S0-fail-S1-fail-S2-cooloff-S3-fail-S5-migrate-S8-cooloff-S9).
   With the group ladder-unsafe the migration events disappear and the
   closure shrinks to {S0,S1,S2,S3,S5,S7}: 6 states, 10 applications. *)

open Coign_idl
open Coign_com
open Coign_netsim
open Coign_core
open Coign_apps
open Coign_util
open Coign_verify

let check_bits = Harness.check_bits

(* --- Hand-built models ------------------------------------------------ *)

let vpolicy =
  {
    Health.hp_failure_threshold = 2;
    hp_cooloff_us = 5_000.;
    hp_cooloff_mult = 2.;
    hp_cooloff_max_us = 10_000.;
    hp_probe_successes = 1;
    hp_ewma_alpha = 0.2;
  }

let group id members subject targets ~ladder ~truth =
  {
    Model.g_id = id;
    g_members = members;
    g_subject = subject;
    g_targets = targets;
    g_ladder_safe = ladder;
    g_truth_safe = truth;
  }

let edge a b iface ~remotable ~non_remotable =
  { Model.e_a = a; e_b = b; e_iface = iface; e_remotable = remotable; e_non_remotable = non_remotable }

let hand_model ?(policy = vpolicy) ?pool_sizes ~groups ~edges ~rungs () =
  let rungs = Array.of_list rungs in
  {
    Model.m_groups = Array.of_list groups;
    m_edges = Array.of_list edges;
    m_rung_names = rungs;
    m_policy = policy;
    m_cooloffs = Model.cooloff_chain policy;
    m_classifications =
      List.fold_left (fun a g -> a + List.length g.Model.g_members) 0 groups;
    m_pool_sizes =
      (match pool_sizes with
      | None -> Array.make (Array.length rungs) 1
      | Some l -> Array.of_list l);
  }

let two_rung ~safe =
  hand_model
    ~groups:
      [
        group 0 [ -1 ] "main" [| Constraints.Client; Constraints.Client |] ~ladder:false
          ~truth:false;
        group 1 [ 0 ] "Hand.Back" [| Constraints.Server; Constraints.Client |] ~ladder:safe
          ~truth:safe;
      ]
    ~edges:[ edge 0 1 "IHandBack" ~remotable:true ~non_remotable:false ]
    ~rungs:[ "primary"; "all-client" ] ()

let test_cooloff_chain () =
  let chain = Model.cooloff_chain vpolicy in
  Alcotest.(check int) "two escalation values" 2 (Array.length chain);
  check_bits "base" 5_000. chain.(0);
  check_bits "capped double" 10_000. chain.(1);
  let m = two_rung ~safe:true in
  Alcotest.(check int) "base indexes 0" 0 (Model.cooloff_index m 5_000.);
  Alcotest.(check int) "cap indexes 1" 1 (Model.cooloff_index m 10_000.);
  Alcotest.(check bool) "off-chain value rejected" true
    (try ignore (Model.cooloff_index m 7_500.) ; false with Invalid_argument _ -> true)

let test_two_rung_closure_hand_counted () =
  let r = Explore.run (two_rung ~safe:true) in
  Alcotest.(check int) "10 states" 10 r.Explore.r_stats.Explore.sr_states;
  Alcotest.(check int) "16 event applications" 16 r.Explore.r_stats.Explore.sr_transitions;
  Alcotest.(check int) "7 dedup hits" 7 r.Explore.r_stats.Explore.sr_dedup_hits;
  Alcotest.(check int) "deepest layer 6" 6 r.Explore.r_stats.Explore.sr_depth;
  Alcotest.(check bool) "complete" true r.Explore.r_stats.Explore.sr_complete;
  Alcotest.(check bool) "both rungs installed" true
    (r.Explore.r_stats.Explore.sr_rungs_reached = [| true; true |]);
  Alcotest.(check int) "no violations" 0 (List.length r.Explore.r_violations);
  Alcotest.(check int) "no diagnostics" 0
    (List.length (Explore.diagnostics (two_rung ~safe:true) r))

let test_two_rung_unsafe_closure_shrinks () =
  let r = Explore.run (two_rung ~safe:false) in
  Alcotest.(check int) "6 states without migrations" 6 r.Explore.r_stats.Explore.sr_states;
  Alcotest.(check int) "10 event applications" 10 r.Explore.r_stats.Explore.sr_transitions;
  Alcotest.(check bool) "complete" true r.Explore.r_stats.Explore.sr_complete;
  Alcotest.(check bool) "both rungs still installed" true
    (r.Explore.r_stats.Explore.sr_rungs_reached = [| true; true |]);
  Alcotest.(check int) "no violations" 0 (List.length r.Explore.r_violations)

let test_depth_bound_truncates () =
  let r = Explore.run ~depth:2 (two_rung ~safe:true) in
  Alcotest.(check bool) "truncated" false r.Explore.r_stats.Explore.sr_complete;
  Alcotest.(check bool) "fewer states than the closure" true
    (r.Explore.r_stats.Explore.sr_states < 10);
  Alcotest.(check bool) "depth <= bound" true (r.Explore.r_stats.Explore.sr_depth <= 2);
  Alcotest.(check bool) "depth < 1 rejected" true
    (try ignore (Explore.run ~depth:0 (two_rung ~safe:true)) ; false
     with Invalid_argument _ -> true)

(* A ladder table that lies: Lie.Back1 is marked migration-safe but the
   static facts say otherwise (it talks to Lie.Back2 over a
   non-remotable interface, and Back2 stays on the server).  The
   shortest counterexample is forced: two failures trip the breaker and
   install rung 1, then the one risky migration manifests both the
   unsafe move (CG009) and the separated non-remotable pair (CG008). *)
let lying_model () =
  hand_model
    ~groups:
      [
        group 0 [ -1 ] "main" [| Constraints.Client; Constraints.Client |] ~ladder:false
          ~truth:false;
        group 1 [ 0 ] "Lie.Back1" [| Constraints.Server; Constraints.Client |] ~ladder:true
          ~truth:false;
        group 2 [ 1 ] "Lie.Back2" [| Constraints.Server; Constraints.Client |] ~ladder:false
          ~truth:false;
      ]
    ~edges:
      [
        edge 0 1 "ILieStore" ~remotable:true ~non_remotable:false;
        edge 1 2 "ILieRaw" ~remotable:false ~non_remotable:true;
      ]
    ~rungs:[ "primary"; "all-client" ] ()

let expected_lie_trace = [ Explore.Link_fail; Explore.Link_fail; Explore.Migrate 1 ]

let test_seeded_lie_counterexamples () =
  let m = lying_model () in
  let r = Explore.run m in
  Alcotest.(check bool) "complete" true r.Explore.r_stats.Explore.sr_complete;
  (match r.Explore.r_violations with
  | [ cg8; cg9 ] ->
      Alcotest.(check string) "CG008 reported" "CG008" cg8.Explore.vl_code;
      Alcotest.(check string) "CG008 names the interface" "ILieRaw" cg8.Explore.vl_subject;
      Alcotest.(check string) "CG009 reported" "CG009" cg9.Explore.vl_code;
      Alcotest.(check string) "CG009 names the class" "Lie.Back1" cg9.Explore.vl_subject;
      Alcotest.(check bool) "CG008 counterexample is the forced shortest trace" true
        (cg8.Explore.vl_trace = expected_lie_trace);
      Alcotest.(check bool) "CG009 counterexample is the same trace" true
        (cg9.Explore.vl_trace = expected_lie_trace)
  | vs -> Alcotest.fail (Printf.sprintf "expected exactly 2 violations, got %d" (List.length vs)));
  (* Both violations replay through the real breaker + factory. *)
  let outcome = Replay.run m expected_lie_trace in
  Alcotest.(check bool) "trace is executable" true (outcome.Replay.ro_invalid = None);
  Alcotest.(check bool) "replay manifests CG008" true (Replay.confirms outcome "CG008");
  Alcotest.(check bool) "replay manifests CG009" true (Replay.confirms outcome "CG009");
  (* The counterexamples survive an id round-trip (the JSON surface). *)
  List.iter
    (fun ev ->
      Alcotest.(check bool) "event id round-trips" true
        (Explore.event_of_id m (Explore.event_id m ev) = Some ev))
    expected_lie_trace

let test_unreachable_rung_warns () =
  (* No separated remotable traffic at rung 0: the breaker never sees a
     call outcome, never trips, and rung 1 is never installed. *)
  let m =
    hand_model
      ~groups:
        [ group 0 [ -1; 0 ] "main" [| Constraints.Client; Constraints.Client |] ~ladder:false ~truth:false ]
      ~edges:[] ~rungs:[ "primary"; "all-client" ] ()
  in
  let r = Explore.run m in
  Alcotest.(check int) "only the initial state" 1 r.Explore.r_stats.Explore.sr_states;
  Alcotest.(check bool) "complete" true r.Explore.r_stats.Explore.sr_complete;
  Alcotest.(check int) "no violations" 0 (List.length r.Explore.r_violations);
  match Explore.diagnostics m r with
  | [ d ] ->
      Alcotest.(check string) "CG010" "CG010" d.Lint.code;
      Alcotest.(check bool) "warning severity" true (d.Lint.severity = Lint.Warning);
      Alcotest.(check string) "names the dead rung" "all-client" d.Lint.subject
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 diagnostic, got %d" (List.length ds))

let test_pool_determinism () =
  let m = lying_model () in
  let seq = Explore.run m in
  let pool = Parallel.create ~domains:3 () in
  let par =
    Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> Explore.run ~pool m)
  in
  Alcotest.(check bool) "stats identical under a pool" true
    (seq.Explore.r_stats = par.Explore.r_stats);
  Alcotest.(check bool) "violations and traces identical under a pool" true
    (seq.Explore.r_violations = par.Explore.r_violations)

(* --- Property: the mutable breaker API IS the pure transition --------- *)

let prop_pure_transition_lockstep =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 3) (list_size (int_bound 80) (pair (int_range 1 3_000) (int_bound 2))))
  in
  QCheck.Test.make ~name:"mutable breaker API tracks the pure transition bit for bit" ~count:200
    (QCheck.make gen) (fun (threshold, steps) ->
      let policy =
        {
          vpolicy with
          Health.hp_failure_threshold = threshold;
          hp_cooloff_us = 1_000.;
          hp_cooloff_max_us = 4_000.;
        }
      in
      let h = Health.create ~policy () in
      let snap = ref (Health.initial_snapshot policy) in
      let now = ref 0. in
      List.for_all
        (fun (dt, which) ->
          now := !now +. float_of_int dt;
          let input =
            match which with 0 -> Health.Observe | 1 -> Health.Success | _ -> Health.Failure
          in
          let tr_mut =
            match input with
            | Health.Observe -> Health.observe h ~now_us:!now
            | Health.Success -> Health.record_success h ~now_us:!now
            | Health.Failure -> Health.record_failure h ~now_us:!now
          in
          let snap', tr_pure = Health.transition policy !snap ~at_us:!now input in
          snap := snap';
          tr_mut = tr_pure && Health.snapshot h = !snap)
        steps)

(* --- Property: every counterexample replays --------------------------- *)

let gen_model =
  QCheck.Gen.(
    let* extra = int_range 1 3 in
    let gen_loc = map (fun b -> if b then Constraints.Server else Constraints.Client) bool in
    let* specs = list_repeat extra (quad bool bool gen_loc gen_loc) in
    let n = extra + 1 in
    let* kinds = list_repeat (n * (n - 1) / 2) (int_bound 3) in
    let groups =
      group 0 [ -1 ] "main" [| Constraints.Client; Constraints.Client |] ~ladder:false
        ~truth:false
      :: List.mapi
           (fun i (ladder, truth, t0, t1) ->
             group (i + 1) [ i ] (Printf.sprintf "G%d" (i + 1)) [| t0; t1 |] ~ladder ~truth)
           specs
    in
    let edges = ref [] and k = ref kinds in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        (match !k with
        | kind :: rest ->
            k := rest;
            if kind > 0 then
              edges :=
                edge a b
                  (Printf.sprintf "IE%d_%d" a b)
                  ~remotable:(kind land 1 = 1)
                  ~non_remotable:(kind land 2 = 2)
                :: !edges
        | [] -> ())
      done
    done;
    return (hand_model ~groups ~edges:(List.rev !edges) ~rungs:[ "primary"; "all-client" ] ()))

let prop_counterexamples_replay =
  QCheck.Test.make ~name:"every explorer counterexample replays to its violation" ~count:60
    (QCheck.make gen_model) (fun m ->
      let r = Explore.run m in
      List.for_all
        (fun v ->
          let outcome = Replay.run m v.Explore.vl_trace in
          outcome.Replay.ro_invalid = None && Replay.confirms outcome v.Explore.vl_code)
        r.Explore.r_violations)

(* --- The RTE acceptance run ------------------------------------------
   Vfy: Front (client) pumps blobs at Back (server); Back's constructor
   creates Helper (server) and every store touches it over a
   non-remotable interface (an Opaque handle).  A ladder whose safety
   table falsely marks Back migration-safe — while Helper correctly
   stays unsafe — lets a live failover migrate Back alone: the very
   next store faults at the marshaling layer, which is exactly the
   CG008/CG009 counterexample the verifier reports for the same
   model. *)

let fixed_retry =
  {
    Fault.rp_timeout_us = 1_000.;
    rp_max_attempts = 3;
    rp_backoff_us = 500.;
    rp_backoff_mult = 2.;
    rp_backoff_jitter = 0.;
  }

let breaker_policy =
  {
    Health.hp_failure_threshold = 2;
    hp_cooloff_us = 5_000.;
    hp_cooloff_mult = 2.;
    hp_cooloff_max_us = 1e6;
    hp_probe_successes = 1;
    hp_ewma_alpha = 0.2;
  }

let i_vfront =
  Itype.declare "IVfyFront" [ Idl_type.method_ "run" [ Idl_type.param "rounds" Idl_type.Int32 ] ]

let i_vstore =
  Itype.declare "IVfyStore"
    [ Idl_type.method_ ~ret:Idl_type.Int32 "store" [ Idl_type.param "data" Idl_type.Blob ] ]

let i_vraw =
  Itype.declare "IVfyRaw"
    [ Idl_type.method_ "touch" [ Idl_type.param "p" (Idl_type.Opaque "SHM") ] ]

let c_vhelper =
  Runtime.define_class "Vfy.Helper" (fun _ctx _self ->
      [
        Combuild.iface i_vraw
          [
            ( "touch",
              fun ctx args ->
                Runtime.charge ctx ~us:5.;
                Combuild.echo args Value.Unit );
          ];
      ])

let c_vback =
  Runtime.define_class "Vfy.Back" (fun ctx0 _self ->
      let helper =
        Runtime.create_instance ctx0 c_vhelper.Runtime.clsid ~iid:(Itype.iid i_vraw)
      in
      let stored = ref 0 in
      [
        Combuild.iface i_vstore
          [
            ( "store",
              fun ctx args ->
                stored := !stored + Combuild.get_blob args 0;
                ignore (Runtime.call_named ctx helper "touch" [ Value.Opaque_handle "SHM" ]);
                Runtime.charge ctx ~us:10.;
                Combuild.echo args (Value.Int !stored) );
          ];
      ])

let c_vfront =
  Runtime.define_class "Vfy.Front" (fun ctx0 _self ->
      let back = Runtime.create_instance ctx0 c_vback.Runtime.clsid ~iid:(Itype.iid i_vstore) in
      [
        Combuild.iface i_vfront
          [
            ( "run",
              fun ctx args ->
                let rounds = Combuild.get_int args 0 in
                for _ = 1 to rounds do
                  ignore (Runtime.call_named ctx back "store" [ Value.Blob 1_000 ])
                done;
                Combuild.echo args Value.Unit );
          ];
      ])

let vregistry () = Runtime.registry [ c_vfront; c_vback; c_vhelper ]

let vsplit cname =
  if String.equal cname "Vfy.Front" then Constraints.Client else Constraints.Server

(* One clean run pins down the (deterministic, creation-ordered)
   classifications of Back and Helper, and the classifier itself for
   model subjects. *)
let vdiscover =
  lazy
    (let ctx = Runtime.create_ctx (vregistry ()) in
     let classifier = Classifier.create Classifier.Ifcb in
     let rte =
       Rte.install_distributed ~classifier
         ~config:
           {
             Rte.dc_factory_policy = Factory.By_class vsplit;
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
     let front = Runtime.create_instance ctx c_vfront.Runtime.clsid ~iid:(Itype.iid i_vfront) in
     ignore (Runtime.call_named ctx front "run" [ Value.Int 1 ]);
     Rte.uninstall rte;
     let n = Classifier.classification_count classifier in
     let find name =
       let found = ref (-1) in
       for c = 0 to n - 1 do
         if String.equal (Classifier.class_of_classification classifier c) name then found := c
       done;
       if !found < 0 then Alcotest.fail (name ^ " was never classified");
       !found
     in
     (classifier, n, find "Vfy.Front", find "Vfy.Back", find "Vfy.Helper"))

let vdist placement =
  {
    Analysis.placement;
    cut_ns = 0;
    predicted_comm_us = 0.;
    server_count =
      Array.fold_left (fun a l -> if l = Constraints.Server then a + 1 else a) 0 placement;
    node_count = Array.length placement;
    algorithm = Coign_flowgraph.Mincut.Dinic;
  }

let lying_vfy_ladder () =
  let _, n, _, cback, chelper = Lazy.force vdiscover in
  let primary = Array.make n Constraints.Client in
  primary.(cback) <- Constraints.Server;
  primary.(chelper) <- Constraints.Server;
  let safe = Array.make n false in
  safe.(cback) <- true;
  Fallback.of_rungs ~migration_safe:safe
    [
      { Fallback.rg_name = "primary"; rg_distribution = vdist primary };
      {
        Fallback.rg_name = "all-client";
        rg_distribution = vdist (Array.make n Constraints.Client);
      };
    ]

let test_rte_unsafe_migration_faults () =
  (* Partition from t = 4000 forever — past both forwarded creations
     (Back's then Helper's nested one, ~2914 us of comm), so the
     topology starts intact.  The first store burns two retry cycles,
     trips the breaker, and the failover installs rung 1, migrating
     exactly the lying table's one "safe" classification — Back.  The
     rescued call completes (its body already ran server-side), but the
     second store's body now crosses Back(client) -> Helper(server) on
     the Opaque interface and faults at the marshaling layer. *)
  let _, _, _, cback, chelper = Lazy.force vdiscover in
  let ladder = lying_vfy_ladder () in
  let primary = (Fallback.rung ladder 0).Fallback.rg_distribution in
  let logger, events = Logger.event_recorder () in
  let ctx = Runtime.create_ctx (vregistry ()) in
  let classifier = Classifier.create Classifier.Ifcb in
  let rte =
    Rte.install_distributed ~classifier ~loggers:[ logger ]
      ~config:
        {
          Rte.dc_factory_policy = Factory.By_classification primary;
          dc_network = Network.ethernet_10;
          dc_jitter = 0.;
          dc_seed = 1L;
          dc_faults = Some { Fault.zero with Fault.fs_partitions_us = [ (4_000., 1e9) ] };
          dc_retry = fixed_retry;
          dc_resilience = Some (Rte.resilience ~health:breaker_policy ladder);
          dc_fleet = None;
          dc_watch = None;
        }
      ctx
  in
  let front = Runtime.create_instance ctx c_vfront.Runtime.clsid ~iid:(Itype.iid i_vfront) in
  let marshal_fault =
    match Runtime.call_named ctx front "run" [ Value.Int 2 ] with
    | _ -> false
    | exception Hresult.Com_error (Hresult.E_cannot_marshal _) -> true
  in
  let stats = Rte.stats rte in
  Rte.uninstall rte;
  Alcotest.(check bool) "the unsafe migration faults at the marshaling layer" true marshal_fault;
  Alcotest.(check int) "breaker opened" 1 stats.Rte.st_breaker_opens;
  Alcotest.(check int) "one failover" 1 stats.Rte.st_failovers;
  Alcotest.(check int) "exactly one instance migrated" 1 stats.Rte.st_migrations;
  let migrations =
    List.filter_map
      (function
        | Event.Instance_migrated { classification; from_loc; to_loc; _ } ->
            Some (classification, from_loc, to_loc)
        | _ -> None)
      (events ())
  in
  Alcotest.(check bool) "the migration event names Back, server -> client" true
    (migrations = [ (cback, "server", "client") ]);
  Alcotest.(check bool) "Helper never moved" true
    (not (List.exists (fun (c, _, _) -> c = chelper) migrations))

let test_verifier_flags_the_vfy_lie () =
  (* The same lying ladder, checked statically: the verifier finds the
     CG009 unsafe migration and the CG008 separation the RTE run just
     manifested, with a replayable trace. *)
  let classifier, n, cfront, cback, chelper = Lazy.force vdiscover in
  let ladder = lying_vfy_ladder () in
  let icc = Icc.create () in
  Icc.record icc ~src:cfront ~dst:cback ~iface:"IVfyStore" ~remotable:true ~request:1_000
    ~reply:8;
  Icc.record icc ~src:cback ~dst:chelper ~iface:"IVfyRaw" ~remotable:false ~request:8 ~reply:0;
  let m =
    Model.build ~policy:vpolicy ~classifier ~icc ~ladder ~truth:(Array.make n false) ()
  in
  let r = Explore.run m in
  Alcotest.(check bool) "complete" true r.Explore.r_stats.Explore.sr_complete;
  let codes = List.map (fun v -> v.Explore.vl_code) r.Explore.r_violations in
  Alcotest.(check bool) "CG008 found" true (List.mem "CG008" codes);
  Alcotest.(check bool) "CG009 found" true (List.mem "CG009" codes);
  let cg9 =
    List.find (fun v -> String.equal v.Explore.vl_code "CG009") r.Explore.r_violations
  in
  Alcotest.(check string) "CG009 names Back" "Vfy.Back" cg9.Explore.vl_subject;
  let outcome = Replay.run m cg9.Explore.vl_trace in
  Alcotest.(check bool) "counterexample replays" true
    (outcome.Replay.ro_invalid = None && Replay.confirms outcome "CG009")

(* --- The bundled apps verify clean ------------------------------------ *)

let app_model app sc_id =
  let sc = App.scenario app sc_id in
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let classifier, icc =
    match Adps.load_profile image with
    | Some p -> p
    | None -> Alcotest.fail "profiled image holds no profile"
  in
  let session = Adps.analysis_session image in
  let net = Net_profiler.exact Network.ethernet_10 in
  let ladder = Adps.fallback_ladder ~image ~net () in
  let truth = Fallback.migration_safety session in
  Model.build ~classifier ~icc ~ladder ~truth ()

let test_apps_verify_clean () =
  List.iter
    (fun (app, sc_id) ->
      let m = app_model app sc_id in
      let r = Explore.run m in
      let name = app.App.app_name in
      Alcotest.(check bool) (name ^ ": exploration complete") true
        r.Explore.r_stats.Explore.sr_complete;
      Alcotest.(check int) (name ^ ": no violations") 0 (List.length r.Explore.r_violations);
      Alcotest.(check bool) (name ^ ": every rung installed") true
        (Array.for_all Fun.id r.Explore.r_stats.Explore.sr_rungs_reached);
      Alcotest.(check int) (name ^ ": no diagnostics") 0
        (List.length (Explore.diagnostics m r));
      Alcotest.(check bool) (name ^ ": symmetry reduction bites") true
        (Model.group_count m < m.Model.m_classifications))
    [ (Octarine.app, "o_oldwp0"); (Photodraw.app, "p_oldmsr"); (Benefits.app, "b_bigone") ]

(* --- Golden CLI output and the exit-code contract --------------------- *)

let test_verify_golden () =
  let golden = "golden/verify_octarine.txt" in
  Harness.in_tmp ~needs:[ golden ] (fun dir ->
      let img = Harness.profiled_octarine dir in
      Harness.check_golden ~dir ~golden "verify" [ "verify"; img ];
      (* Exit-code contract: a clean verify stays 0 under --strict;
         lint on the same image carries warnings, so --strict gates
         it to 1 while the default run stays 0. *)
      Alcotest.(check int) "verify --strict still 0" 0 (Harness.run [ "verify"; img; "--strict" ]);
      Alcotest.(check int) "lint without --strict passes" 0 (Harness.run [ "lint"; img ]);
      Alcotest.(check int) "lint --strict gates warnings" 1 (Harness.run [ "lint"; img; "--strict" ]);
      (* A missing image is a usage error: cmdliner's 124, matching
         every other image-taking subcommand. *)
      Alcotest.(check int) "verify on a missing image fails" 124
        (Harness.run [ "verify"; Filename.concat dir "nope.img" ]))

let suite =
  [
    Alcotest.test_case "cooloff escalation chain and index" `Quick test_cooloff_chain;
    Alcotest.test_case "two-rung closure matches the hand count" `Quick
      test_two_rung_closure_hand_counted;
    Alcotest.test_case "unsafe-table closure shrinks to 6 states" `Quick
      test_two_rung_unsafe_closure_shrinks;
    Alcotest.test_case "depth bound truncates and is reported" `Quick test_depth_bound_truncates;
    Alcotest.test_case "seeded lying table yields CG008/CG009 counterexamples" `Quick
      test_seeded_lie_counterexamples;
    Alcotest.test_case "unreachable rung warns CG010" `Quick test_unreachable_rung_warns;
    Alcotest.test_case "exploration deterministic across domains" `Quick test_pool_determinism;
    QCheck_alcotest.to_alcotest ~long:false prop_pure_transition_lockstep;
    QCheck_alcotest.to_alcotest ~long:false prop_counterexamples_replay;
    Alcotest.test_case "rte: the lying table's migration faults live" `Quick
      test_rte_unsafe_migration_faults;
    Alcotest.test_case "verifier flags the same lie statically" `Quick
      test_verifier_flags_the_vfy_lie;
    Alcotest.test_case "bundled apps verify clean" `Slow test_apps_verify_clean;
    Alcotest.test_case "cli verify golden output and exit codes" `Slow test_verify_golden;
  ]
