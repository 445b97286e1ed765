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
module Replay = Oracles.Replay

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

let vnet = Net_profiler.exact Network.ethernet_10

(* One host per rung: host 0 where the group is server-side, none
   where it is client-side. *)
let group id members subject targets ~ladder ~truth =
  {
    Model.g_id = id;
    g_members = members;
    g_subject = subject;
    g_targets = targets;
    g_hosts = Array.map (fun _ -> 0) targets;
    g_promote = Array.map (fun _ -> -1) targets;
    g_ladder_safe = ladder;
    g_truth_safe = truth;
  }

let edge a b iface ~remotable ~non_remotable =
  { Model.e_a = a; e_b = b; e_iface = iface; e_remotable = remotable; e_non_remotable = non_remotable }

let hand_model ~groups ~edges ~rungs () =
  let rungs = Array.of_list rungs in
  {
    Model.m_groups = Array.of_list groups;
    m_edges = Array.of_list edges;
    m_rung_names = rungs;
    m_policy = vpolicy;
    (* vpolicy's escalation chain (test_cooloff_chain checks it). *)
    m_cooloffs = [| 5_000.; 10_000. |];
    m_classifications =
      List.fold_left (fun a g -> a + List.length g.Model.g_members) 0 groups;
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
  Alcotest.(check bool) "replay manifests CG008" true (List.mem "CG008" outcome.Replay.ro_codes);
  Alcotest.(check bool) "replay manifests CG009" true (List.mem "CG009" outcome.Replay.ro_codes)

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
          outcome.Replay.ro_invalid = None && List.mem v.Explore.vl_code outcome.Replay.ro_codes)
        r.Explore.r_violations)

(* --- Property: the explorer is the reference explorer ------------------
   [Oracles.Verify_ref] is the string-keyed explorer the int-keyed one
   replaced.  The generated models gain up to two pool rungs in front
   of the two-host pair, each placing every non-main group client-side
   or on a replica ring of 2–3 consecutive hosts of a 2- or 3-host pool,
   so promotions and host splits are exercised alongside migrations,
   lying tables and truncation at every depth bound. *)

let gen_pool_model =
  QCheck.Gen.(
    let* m = gen_model in
    let* ks = list_size (int_range 0 2) (int_range 2 3) in
    let g = Array.length m.Model.m_groups in
    let* cells = list_repeat (List.length ks * g) (triple bool (int_bound 2) (int_range 2 3)) in
    let cells = Array.of_list cells in
    let pool_rung j k gi =
      let server, primary, len = cells.((j * g) + gi) in
      if gi = 0 || not server then (Constraints.Client, 0, -1)
      else (Constraints.Server, primary, if min len k > 1 then (primary + 1) mod k else -1)
    in
    let groups =
      Array.mapi
        (fun gi grp ->
          let extra = Array.of_list (List.mapi (fun j k -> pool_rung j k gi) ks) in
          {
            grp with
            Model.g_targets =
              Array.append (Array.map (fun (loc, _, _) -> loc) extra) grp.Model.g_targets;
            g_hosts = Array.append (Array.map (fun (_, h, _) -> h) extra) grp.Model.g_hosts;
            g_promote = Array.append (Array.map (fun (_, _, p) -> p) extra) grp.Model.g_promote;
          })
        m.Model.m_groups
    in
    let names = List.mapi (fun j k -> Printf.sprintf "pool-%d/%d" k j) ks in
    return
      {
        m with
        Model.m_groups = groups;
        m_rung_names = Array.append (Array.of_list names) m.Model.m_rung_names;
      })

let prop_explorer_is_the_reference =
  QCheck.Test.make ~name:"explorer equals the reference explorer, sequential and pooled"
    ~count:150
    (QCheck.make QCheck.Gen.(pair gen_pool_model (int_range 1 40)))
    (fun (m, depth) ->
      let expected = Oracles.Verify_ref.run ~depth m in
      let same r =
        r.Explore.r_stats = expected.Explore.r_stats
        && r.Explore.r_violations = expected.Explore.r_violations
      in
      same (Explore.run ~depth m) && same (Explore.run ~pool:(Parallel.default ()) ~depth m))

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
              fun ctx _args ->
                Runtime.charge ctx ~us:5.;
                Value.Unit );
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
                ignore (Oracles.call_named ctx helper "touch" [ Value.Opaque_handle "SHM" ]);
                Runtime.charge ctx ~us:10.;
                Value.Int !stored );
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
                  ignore (Oracles.call_named ctx back "store" [ Value.Blob 1_000 ])
                done;
                Value.Unit );
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
     ignore (Oracles.call_named ctx front "run" [ Value.Int 1 ]);
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
      ("primary", vdist primary);
      ("all-client", vdist (Array.make n Constraints.Client));
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
  let primary = (Fallback.rung ladder 0).Fallback.pr_distribution in
  let logger, events = Coign_obs.Sink.collector () in
  let ctx = Runtime.create_ctx (vregistry ()) in
  let classifier = Classifier.create Classifier.Ifcb in
  let rte =
    Rte.install_distributed ~classifier ~logger
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
    match Oracles.call_named ctx front "run" [ Value.Int 2 ] with
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

(* The profile the Vfy app produces: Front -> Back blobs, Back -> Helper
   over the non-remotable interface. *)
let vfy_icc () =
  let _, _, cfront, cback, chelper = Lazy.force vdiscover in
  let icc = Icc.create () in
  Icc.record icc ~src:cfront ~dst:cback ~iface:"IVfyStore" ~remotable:true ~request:1_000
    ~reply:8;
  Icc.record icc ~src:cback ~dst:chelper ~iface:"IVfyRaw" ~remotable:false ~request:8 ~reply:0;
  icc

(* The escalation chain a built model derives from its policy: 5 ms
   doubling to the 10 ms cap. *)
let test_cooloff_chain () =
  let classifier, n, _, _, _ = Lazy.force vdiscover in
  let m =
    Model.build ~policy:vpolicy ~classifier ~icc:(vfy_icc ()) ~ladder:(lying_vfy_ladder ())
      ~truth:(Array.make n false) ()
  in
  let chain = m.Model.m_cooloffs in
  Alcotest.(check int) "two escalation values" 2 (Array.length chain);
  check_bits "base" 5_000. chain.(0);
  check_bits "capped double" 10_000. chain.(1);
  Alcotest.(check int) "base indexes 0" 0 (Model.cooloff_index m 5_000.);
  Alcotest.(check int) "cap indexes 1" 1 (Model.cooloff_index m 10_000.);
  Alcotest.(check bool) "off-chain value rejected" true
    (try ignore (Model.cooloff_index m 7_500.) ; false with Invalid_argument _ -> true)

let test_verifier_flags_the_vfy_lie () =
  (* The same lying ladder, checked statically: the verifier finds the
     CG009 unsafe migration and the CG008 separation the RTE run just
     manifested, with a replayable trace. *)
  let classifier, n, _, _, _ = Lazy.force vdiscover in
  let ladder = lying_vfy_ladder () in
  let icc = vfy_icc () in
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
    (outcome.Replay.ro_invalid = None && List.mem "CG009" outcome.Replay.ro_codes)

let test_pool_lie_counterexamples () =
  (* The same lie on a pool-2 ladder built over the lying table: Back
     and Helper form one component (the non-remotable edge joins them)
     whose Helper the table marks unsafe, so the ladder pins both to
     shard 0 on host 0 without replicas.  No promotion is possible; the
     breaker walks pool-2 -> primary -> all-client, and the one risky
     migration on the last rung manifests CG008 and CG009 as before. *)
  let classifier, n, _, cback, _ = Lazy.force vdiscover in
  let ladder = lying_vfy_ladder () in
  let icc = vfy_icc () in
  let session = Oracles.session ~classifier ~icc ~constraints:Constraints.empty in
  let pool = Fallback.pool_ladder ~hosts:2 session ~net:vnet ladder in
  let m =
    Model.build ~policy:vpolicy ~classifier ~icc ~ladder:pool ~truth:(Array.make n false) ()
  in
  Alcotest.(check (list string)) "pool-2 rung on top of the base ladder"
    [ "pool-2"; "primary"; "all-client" ] (Array.to_list m.Model.m_rung_names);
  let back =
    let holds_back g = List.mem cback g.Model.g_members in
    match List.filter holds_back (Array.to_list m.Model.m_groups) with
    | [ g ] -> g
    | _ -> Alcotest.fail "Back is not in exactly one group"
  in
  Alcotest.(check (pair int int)) "Back pinned to host 0 without replicas on pool-2" (0, -1)
    (back.Model.g_hosts.(0), back.Model.g_promote.(0));
  let r = Explore.run m in
  Alcotest.(check bool) "complete" true r.Explore.r_stats.Explore.sr_complete;
  let codes = List.map (fun v -> v.Explore.vl_code) r.Explore.r_violations in
  Alcotest.(check bool) "CG008 found" true (List.mem "CG008" codes);
  Alcotest.(check bool) "CG009 found" true (List.mem "CG009" codes);
  List.iter
    (fun v ->
      Alcotest.(check bool) (v.Explore.vl_code ^ ": no promotion in the trace") false
        (List.exists (function Explore.Promote _ -> true | _ -> false) v.Explore.vl_trace);
      let outcome = Replay.run m v.Explore.vl_trace in
      Alcotest.(check bool)
        (v.Explore.vl_code ^ " counterexample replays")
        true
        (outcome.Replay.ro_invalid = None && List.mem v.Explore.vl_code outcome.Replay.ro_codes))
    r.Explore.r_violations

(* --- The bundled apps verify clean ------------------------------------ *)

(* Everything [coign verify] builds from a profiled image: the profile,
   the analysis session, the base ladder and the static safety facts. *)
type facts = {
  f_classifier : Classifier.t;
  f_icc : Icc.t;
  f_session : Analysis.Session.t;
  f_ladder : Fallback.t;
  f_truth : bool array;
}

let app_facts app sc_id =
  let sc = App.scenario app sc_id in
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let classifier, icc =
    match Adps.load_profile image with
    | Some p -> p
    | None -> Alcotest.fail "profiled image holds no profile"
  in
  let session = Adps.analysis_session image in
  {
    f_classifier = classifier;
    f_icc = icc;
    f_session = session;
    f_ladder = Adps.fallback_ladder ~image ~net:vnet ();
    f_truth = Fallback.migration_safety session;
  }

let facts_model ?ladder f =
  Model.build ~classifier:f.f_classifier ~icc:f.f_icc
    ~ladder:(Option.value ladder ~default:f.f_ladder) ~truth:f.f_truth ()

let app_model app sc_id = facts_model (app_facts app sc_id)

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

(* --- One shard rule ----------------------------------------------------
   The verifier, the pool ladder and the RTE answer "which host" the
   same way on every app at pools 2 and 3.  The model's host for a
   group is its ring's primary; the ladder's is [Pool.host_of] of the
   rung's [pr_shard_of]; the RTE routes by a copy of rung 0's table,
   homing each shard on its primary ([Route.link] shows it at rung 0)
   and re-homing every shard by [Pool.host_of] at each resize. *)

let four_apps =
  [
    (Octarine.app, "o_oldwp0");
    (Photodraw.app, "p_oldmsr");
    (Benefits.app, "b_bigone");
    (Ingest.app, "i_strm1");
  ]

let pool_cases =
  lazy
    (List.concat_map
       (fun (app, sc_id) ->
         let f = app_facts app sc_id in
         List.map
           (fun hosts ->
             let pl = Fallback.pool_ladder ~hosts f.f_session ~net:vnet f.f_ladder in
             (app, hosts, pl, facts_model ~ladder:pl f))
           [ 2; 3 ])
       four_apps)

(* The host a fresh fleet route sends a server-bound call for [c] to. *)
let route_host app pl =
  let env = Rte_env.create (Runtime.create_ctx app.App.app_registry) in
  let route =
    Route.create ~env ~factory:(Factory.create Factory.All_client) ~pool:true
      ~network:Network.ethernet_10 ~jitter:0. ~seed:1L ~retry:Fault.default_retry ~faults:None
      (Route.config pl)
  in
  fun c ->
    Route.link route ~src:Constraints.Client ~dst:Constraints.Server ~caller_cls:(-1)
      ~callee_cls:c

let test_one_shard_rule () =
  List.iter
    (fun (app, hosts, pl, m) ->
      let what = Printf.sprintf "%s pool-%d" app.App.app_name hosts in
      let rung r = Fallback.rung pl r in
      let table0 = (rung 0).Fallback.pr_shard_of in
      let rte_host r c = Pool.host_of (rung r).Fallback.pr_shape (Pool.shard_in table0 c) in
      let route = route_host app pl in
      let server r g = g.Model.g_targets.(r) = Constraints.Server in
      let members g = List.filter (fun c -> c >= 0) g.Model.g_members in
      for r = 0 to Model.rung_count m - 1 do
        Array.iter
          (fun g ->
            if server r g then
              List.iter
                (fun c ->
                  let pr = rung r in
                  let s = pr.Fallback.pr_shard_of.(c) in
                  Alcotest.(check bool) (what ^ ": server-side member is sharded") true (s >= 0);
                  let ladder_host = Pool.host_of pr.Fallback.pr_shape s in
                  Alcotest.(check int)
                    (Printf.sprintf "%s rung %d: model host of %d is the ladder's" what r c)
                    ladder_host g.Model.g_hosts.(r);
                  Alcotest.(check int)
                    (Printf.sprintf "%s rung %d: RTE host of %d is the ladder's" what r c)
                    ladder_host (rte_host r c);
                  if r = 0 then
                    Alcotest.(check int)
                      (Printf.sprintf "%s: the route sends %d to the ladder's host" what c)
                      ladder_host (route c))
                (members g))
          m.Model.m_groups
      done;
      (* At every resize, the groups the model moves between hosts are
         exactly the groups whose members the RTE re-homes. *)
      for r = 0 to Model.rung_count m - 2 do
        let from_k = (rung r).Fallback.pr_shape.Pool.sh_hosts in
        let to_k = (rung (r + 1)).Fallback.pr_shape.Pool.sh_hosts in
        if from_k <> to_k then begin
          let stays g = server r g && server (r + 1) g in
          let model_moves =
            Array.to_list m.Model.m_groups
            |> List.filter (fun g ->
                   stays g && g.Model.g_hosts.(r) <> g.Model.g_hosts.(r + 1))
            |> List.map (fun g -> g.Model.g_id)
          in
          let rte_moves =
            Array.to_list m.Model.m_groups
            |> List.filter (fun g ->
                   stays g && List.exists (fun c -> rte_host r c <> rte_host (r + 1) c) (members g))
            |> List.map (fun g -> g.Model.g_id)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s: groups moved by the %d -> %d resize" what from_k to_k)
            rte_moves model_moves
        end
      done)
    (Lazy.force pool_cases)

let test_apps_verify_clean_pooled () =
  List.iter
    (fun (app, hosts, _, m) ->
      let r = Explore.run m in
      let what = Printf.sprintf "%s pool-%d" app.App.app_name hosts in
      Alcotest.(check bool) (what ^ ": exploration complete") true
        r.Explore.r_stats.Explore.sr_complete;
      Alcotest.(check int) (what ^ ": no violations") 0 (List.length r.Explore.r_violations);
      Alcotest.(check int) (what ^ ": no diagnostics") 0 (List.length (Explore.diagnostics m r)))
    (Lazy.force pool_cases)

(* --- A pool of one is the two-host ladder --------------------------------
   Widening a two-host ladder onto one host changes nothing the RTE or
   the verifier reads: the same rungs, shards, replica flags, shapes and
   safety table on every app and scenario, and so the same model. *)

let test_pool_of_one_is_the_ladder () =
  List.iter
    (fun (app, _) ->
      List.iter
        (fun sc ->
          let f = app_facts app sc.App.sc_id in
          let l = f.f_ladder in
          let p = Fallback.pool_ladder ~hosts:1 f.f_session ~net:vnet l in
          let what = Printf.sprintf "%s %s" app.App.app_name sc.App.sc_id in
          Alcotest.(check int) (what ^ ": rung count") (Fallback.rung_count l)
            (Fallback.rung_count p);
          for r = 0 to Fallback.rung_count l - 1 do
            let a = Fallback.rung l r and b = Fallback.rung p r in
            let what = Printf.sprintf "%s rung %d" what r in
            Alcotest.(check string) (what ^ ": name") a.Fallback.pr_name b.Fallback.pr_name;
            Alcotest.(check string) (what ^ ": distribution")
              (Analysis.encode a.Fallback.pr_distribution)
              (Analysis.encode b.Fallback.pr_distribution);
            Alcotest.(check (array int)) (what ^ ": shards") a.Fallback.pr_shard_of
              b.Fallback.pr_shard_of;
            Alcotest.(check (array bool)) (what ^ ": replicated") a.Fallback.pr_replicated
              b.Fallback.pr_replicated;
            Alcotest.(check bool) (what ^ ": shape") true
              (a.Fallback.pr_shape = b.Fallback.pr_shape)
          done;
          Alcotest.(check (array bool)) (what ^ ": safety table")
            (Fallback.migration_safety_table l) (Fallback.migration_safety_table p);
          let ml = facts_model f and mp = facts_model ~ladder:p f in
          Alcotest.(check bool) (what ^ ": model groups") true
            (ml.Model.m_groups = mp.Model.m_groups);
          Alcotest.(check bool) (what ^ ": model edges") true (ml.Model.m_edges = mp.Model.m_edges);
          Alcotest.(check (array string)) (what ^ ": model rung names") ml.Model.m_rung_names
            mp.Model.m_rung_names)
        app.App.app_scenarios)
    four_apps

(* --- The model and the exploration are the reference's ----------------
   On every scenario of the four apps and pools 1–4, the int-signature
   model builder returns exactly the reference builder's groups, members,
   edges and rung names, and the explorer exactly the reference
   explorer's stats and violations. *)

let test_matches_reference_on_apps () =
  List.iter
    (fun (app, _) ->
      List.iter
        (fun sc ->
          let f = app_facts app sc.App.sc_id in
          List.iter
            (fun hosts ->
              let ladder =
                if hosts = 1 then f.f_ladder
                else Fallback.pool_ladder ~hosts f.f_session ~net:vnet f.f_ladder
              in
              let what = Printf.sprintf "%s %s pool %d" app.App.app_name sc.App.sc_id hosts in
              let m = facts_model ~ladder f in
              let expected =
                Oracles.Verify_ref.build ~classifier:f.f_classifier ~icc:f.f_icc ~ladder
                  ~truth:f.f_truth ()
              in
              Alcotest.(check bool) (what ^ ": groups") true
                (m.Model.m_groups = expected.Model.m_groups);
              Alcotest.(check bool) (what ^ ": edges") true
                (m.Model.m_edges = expected.Model.m_edges);
              Alcotest.(check bool) (what ^ ": the rest of the model") true (m = expected);
              let r = Explore.run m and r_ref = Oracles.Verify_ref.run m in
              Alcotest.(check bool) (what ^ ": stats") true
                (r.Explore.r_stats = r_ref.Explore.r_stats);
              Alcotest.(check bool) (what ^ ": violations") true
                (r.Explore.r_violations = r_ref.Explore.r_violations))
            [ 1; 2; 3; 4 ])
        app.App.app_scenarios)
    four_apps

(* --- Allocation ----------------------------------------------------------
   The verifier allocates per group and per state, in ints.  On the
   profiled o_oldwp0 image at pools 1, 2 and 3 (30 groups, 51 edges;
   18, 16 and 24 states), [Model.build] took 2,884 / 2,991 / 3,098
   minor words and [Explore.run] 1,882 / 2,046 / 2,547 (OCaml 5.1, dev
   build; a release build inlines across modules and allocates less).
   The string-keyed implementations took 15,238 / 15,355 / 15,472 and
   10,676 / 9,595 / 15,296: every bound is under a quarter of those. *)
let test_verify_allocation () =
  let f = app_facts Octarine.app "o_oldwp0" in
  List.iter
    (fun (hosts, model_bound, explore_bound) ->
      let ladder =
        if hosts = 1 then f.f_ladder
        else Fallback.pool_ladder ~hosts f.f_session ~net:vnet f.f_ladder
      in
      let build () = facts_model ~ladder f in
      let m = build () in
      let model = Harness.words_per_run 20 (fun () -> ignore (build ())) in
      let explore = Harness.words_per_run 20 (fun () -> ignore (Explore.run m)) in
      Alcotest.(check bool)
        (Printf.sprintf "pool %d: %.0f minor words per model" hosts model)
        true (model <= model_bound);
      Alcotest.(check bool)
        (Printf.sprintf "pool %d: %.0f minor words per exploration" hosts explore)
        true (explore <= explore_bound))
    [ (1, 2_884., 1_882.); (2, 2_991., 2_046.); (3, 3_098., 2_547.) ]

(* --- Golden CLI output and the exit-code contract --------------------- *)

let test_verify_golden () =
  let golden = "golden/verify_octarine.txt" in
  let pool_golden k = Printf.sprintf "golden/verify_octarine_pool%d.txt" k in
  Harness.in_tmp ~needs:[ golden; pool_golden 2; pool_golden 3 ] (fun dir ->
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
        (Harness.run [ "verify"; Filename.concat dir "nope.img" ]);
      (* --pool: 2 and 3 verify the pool ladder clean, with exactly the
         golden report; 4 verifies it clean too, as wide as
         [coign fleet --pool] goes; below 1 is rejected. *)
      let out = Filename.concat dir "pool.txt" in
      List.iter
        (fun k ->
          let flag = [ "verify"; img; "--pool"; string_of_int k ] in
          Alcotest.(check int) (Printf.sprintf "verify --pool %d exits 0" k) 0
            (Harness.run_to out flag);
          Alcotest.(check bool) (Printf.sprintf "verify --pool %d verifies the ladder" k) true
            (List.mem "no violations: ladder verified"
               (String.split_on_char '\n' (Harness.read_file out)));
          Harness.check_golden ~dir ~golden:(pool_golden k) (Printf.sprintf "verify-pool%d" k)
            flag)
        [ 2; 3 ];
      Alcotest.(check int) "verify --pool 4 exits 0" 0
        (Harness.run_to out [ "verify"; img; "--pool"; "4" ]);
      Alcotest.(check bool) "verify --pool 4 verifies the ladder" true
        (List.mem "no violations: ladder verified"
           (String.split_on_char '\n' (Harness.read_file out)));
      (* Any width compiles and explores: at --pool 1000 the ladder has
         1001 rungs, so the explorer stops at the depth bound and warns
         CG010 for the rungs it never reached, but the report is whole
         (a host above 207 once crashed the state key). *)
      Alcotest.(check int) "verify --pool 1000 exits 0" 0
        (Harness.run_to out [ "verify"; img; "--pool"; "1000" ]);
      (match String.split_on_char '\n' (Harness.read_file out) with
      | header :: model :: explored :: rest ->
          Alcotest.(check bool) "verify --pool 1000 warns CG010 for unreached rungs" true
            (List.exists (String.starts_with ~prefix:"warning CG010 pool-") rest);
          Alcotest.(check string) "verify --pool 1000 names the image"
            "verify: octarine on 10BaseT Ethernet, depth 40" header;
          Alcotest.(check bool) "verify --pool 1000 compiles 1001 rungs" true
            (String.ends_with ~suffix:", 1001 rungs" model);
          Alcotest.(check bool) "verify --pool 1000 is truncated at the depth bound" true
            (String.ends_with ~suffix:"depth 40, truncated" explored)
      | _ -> Alcotest.fail "verify --pool 1000 printed no report");
      let cmd = Filename.quote_command Harness.exe [ "verify"; img; "--pool"; "0" ] in
      Alcotest.(check int) "verify --pool 0 exits 1" 1
        (Sys.command (cmd ^ " > /dev/null 2> " ^ Filename.quote out));
      Alcotest.(check string) "verify --pool 0 names the bound" "error: --pool must be >= 1\n"
        (Harness.read_file out))

(* A profiled image whose config record also carries a stored
   distribution that breaks a static constraint (everything on the
   server, Octarine.App included, which is pinned to the client): the
   ladder refuses it as rung 0, and verify reports that as an error,
   exit 1, not an uncaught exception. *)
let test_verify_rejects_bad_distribution () =
  Harness.in_tmp (fun dir ->
      let img = Harness.profiled_octarine dir in
      let image = Coign_image.Binary_image.load img in
      let net = Net_profiler.exact Network.ethernet_10 in
      let d = Analysis.Session.solve (Adps.analysis_session image) ~net in
      let all_server =
        { d with Analysis.placement = Array.map (fun _ -> Constraints.Server) d.Analysis.placement }
      in
      let config =
        Coign_image.Config_record.set_entry
          (Option.get image.Coign_image.Binary_image.config)
          Config_keys.distribution (Analysis.encode all_server)
      in
      let bad = Filename.concat dir "bad.img" in
      Coign_image.Binary_image.save
        { image with Coign_image.Binary_image.config = Some config }
        bad;
      let err = Filename.concat dir "err.txt" in
      let cmd = Filename.quote_command Harness.exe [ "verify"; bad ] in
      Alcotest.(check int) "verify exits 1" 1
        (Sys.command (cmd ^ " > /dev/null 2> " ^ Filename.quote err));
      let msg = Harness.read_file err in
      let prefix = "error: fallback rung primary: " in
      Alcotest.(check string) "names the failing rung" prefix
        (String.sub msg 0 (min (String.length msg) (String.length prefix))))

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
    QCheck_alcotest.to_alcotest ~long:false prop_explorer_is_the_reference;
    Alcotest.test_case "model build and exploration allocate per group and state" `Quick
      test_verify_allocation;
    Alcotest.test_case "rte: the lying table's migration faults live" `Quick
      test_rte_unsafe_migration_faults;
    Alcotest.test_case "verifier flags the same lie statically" `Quick
      test_verifier_flags_the_vfy_lie;
    Alcotest.test_case "pool-2 ladder over the lying table yields CG008/CG009" `Quick
      test_pool_lie_counterexamples;
    Alcotest.test_case "bundled apps verify clean" `Slow test_apps_verify_clean;
    Alcotest.test_case "verifier, ladder and RTE share one shard rule" `Slow test_one_shard_rule;
    Alcotest.test_case "bundled apps verify clean at pools 2 and 3" `Slow
      test_apps_verify_clean_pooled;
    Alcotest.test_case "a pool of one is the two-host ladder on every scenario" `Slow
      test_pool_of_one_is_the_ladder;
    Alcotest.test_case "model and exploration equal the reference on every scenario" `Slow
      test_matches_reference_on_apps;
    Alcotest.test_case "cli verify golden output and exit codes" `Slow test_verify_golden;
    Alcotest.test_case "cli verify rejects a constraint-breaking distribution" `Slow
      test_verify_rejects_bad_distribution;
  ]
