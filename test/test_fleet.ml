(* The replicated server fleet: k-way pool execution, per-replica
   failover, and the pool-elastic ladder.  The promotion trace below is
   hand-computed from the fixed retry policy and the default breaker
   (failure threshold 2): the numbers in the assertions are derived in
   the comments, not transcribed from a run. *)

open Coign_idl
open Coign_com
open Coign_netsim
open Coign_core
open Coign_apps
open Coign_sim
open Coign_util

(* --- A two-component fleet app --------------------------------------
   Front (client) creates Back (server) and pumps 1000-byte blobs at
   it.  On 10BaseT the forwarded creation costs 1456.8 us, so a
   per-host fault window opening at t = 2000 us lets the creation
   clear and then partitions the store traffic. *)

let fixed_retry =
  {
    Fault.rp_timeout_us = 1_000.;
    rp_max_attempts = 3;
    rp_backoff_us = 500.;
    rp_backoff_mult = 2.;
    rp_backoff_jitter = 0.;
  }

let i_front =
  Itype.declare "IFltFront" [ Idl_type.method_ "run" [ Idl_type.param "rounds" Idl_type.Int32 ] ]

let i_back =
  Itype.declare "IFltBack"
    [ Idl_type.method_ ~ret:Idl_type.Int32 "store" [ Idl_type.param "data" Idl_type.Blob ] ]

let c_back =
  Runtime.define_class "Flt.Back" (fun _ctx _self ->
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
  Runtime.define_class "Flt.Front" (fun ctx0 _self ->
      let back = Runtime.create_instance ctx0 c_back.Runtime.clsid ~iid:(Itype.iid i_back) in
      [
        Combuild.iface i_front
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

let registry () = Runtime.registry [ c_front; c_back ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let run_scenario ctx rounds =
  let front = Runtime.create_instance ctx c_front.Runtime.clsid ~iid:(Itype.iid i_front) in
  ignore (Oracles.call_named ctx front "run" [ Value.Int rounds ])

(* Profile the app once to get a classifier and an analysis session —
   the same two-stage machinery [Adps.analysis_session] drives, without
   an image.  Classification order is deterministic, so the profiled
   classifier keeps working for every later distributed run. *)
let profiled =
  lazy
    (let ctx = Runtime.create_ctx (registry ()) in
     let classifier = Classifier.create Classifier.Ifcb in
     let rte = Rte.install_profiling ~classifier ctx in
     run_scenario ctx 4;
     Rte.uninstall rte;
     let icc = Rte.icc rte in
     let session = Oracles.session ~classifier ~icc ~constraints:Constraints.empty in
     let n = Classifier.classification_count classifier in
     let cback = ref (-1) in
     for c = 0 to n - 1 do
       if String.equal (Classifier.class_of_classification classifier c) "Flt.Back" then
         cback := c
     done;
     if !cback < 0 then Alcotest.fail "Flt.Back was never classified";
     (classifier, session, n, !cback))

let dist placement =
  {
    Analysis.placement;
    cut_ns = 0;
    predicted_comm_us = 0.;
    server_count =
      Array.fold_left (fun a l -> if l = Constraints.Server then a + 1 else a) 0 placement;
    node_count = Array.length placement;
  }

let mini_pool_ladder ~hosts =
  let _, session, n, cback = Lazy.force profiled in
  let primary = Array.make n Constraints.Client in
  primary.(cback) <- Constraints.Server;
  let base =
    Fallback.of_rungs
      ~migration_safe:(Array.make n true)
      [
        ("primary", dist primary);
        ("all-client", dist (Array.make n Constraints.Client));
      ]
  in
  ( dist primary,
    Fallback.pool_ladder ~hosts session ~net:(Net_profiler.exact Network.ethernet_10) base )

let run_fleet ?host_faults ?faults ?metrics ~rounds pl primary =
  let classifier, _, _, _ = Lazy.force profiled in
  let recorder, events = Coign_obs.Sink.collector () in
  let ctx = Runtime.create_ctx (registry ()) in
  let rte =
    Rte.install_distributed ~logger:recorder ?metrics ~classifier
      ~config:
        {
          Rte.dc_factory_policy = Factory.By_classification primary;
          dc_network = Network.ethernet_10;
          dc_jitter = 0.;
          dc_seed = 1L;
          dc_faults = faults;
          dc_retry = fixed_retry;
          dc_resilience = None;
          dc_fleet = Some (Rte.fleet ?host_faults pl);
          dc_watch = None;
        }
      ctx
  in
  run_scenario ctx rounds;
  let fs = Option.get (Rte.fleet_stats rte) in
  let st = Rte.stats rte in
  Rte.uninstall rte;
  (fs, st, events ())

(* --- Hand-computed promotion trace under a single-host crash --------- *)

let test_promotion_trace_hand_computed () =
  let _, _, _, cback = Lazy.force profiled in
  let primary, pl = mini_pool_ladder ~hosts:2 in
  (* The shard map is fixed across the ladder: with every component a
     single migration-safe classification, Back's shard is the plain
     keyed hash of its classification id, and its primary host is the
     shard modulo the pool size. *)
  let rung0 = Fallback.rung pl 0 in
  let expected_shard = Pool.shard_of ~shards:2 cback in
  Alcotest.(check int) "ladder shards Back by keyed hash" expected_shard
    rung0.Fallback.pr_shard_of.(cback);
  let crash = Pool.host_of rung0.Fallback.pr_shape expected_shard in
  let survivor = 1 - crash in
  (* Crash Back's primary host from t = 2 ms onward.  The trace is then
     fully determined:
       - the forwarded creation (1456.8 us on 10BaseT) clears;
       - the first store attempt inside the window fails its retry
         cycle, [go] records failure 1 and retries the same host;
       - the second failed cycle is consecutive failure 2 = the default
         threshold, so the breaker opens and — in the same transition —
         shard [s] is promoted to the only other host, which is healthy;
       - the re-read link routes the very same call to the survivor,
         where it succeeds; every later store follows it.
     So: 1 open, 1 promotion, nothing stranded (after the open the call
     targets the survivor's closed breaker), nothing rescued locally
     (the callee never leaves the server side), no rung switch, and the
     run is far shorter than the 50 ms cooloff, so no probe ever
     reopens or closes the breaker. *)
  let window = { Fault.zero with Fault.fs_partitions_us = [ (2_000., 1_000_000.) ] } in
  let fs, st, events = run_fleet ~host_faults:[ (crash, window) ] ~rounds:10 pl primary in
  Alcotest.(check int) "one breaker open" 1 st.Rte.st_breaker_opens;
  Alcotest.(check int) "no breaker close" 0 st.Rte.st_breaker_closes;
  Alcotest.(check int) "one promotion" 1 fs.Rte.fs_promotions;
  Alcotest.(check int) "no rung switch down" 0 st.Rte.st_failovers;
  Alcotest.(check int) "no rung switch up" 0 st.Rte.st_failbacks;
  Alcotest.(check int) "no resize" 0 fs.Rte.fs_resizes;
  Alcotest.(check int) "no split" 0 fs.Rte.fs_splits;
  Alcotest.(check int) "no stranded call" 0 st.Rte.st_stranded_calls;
  Alcotest.(check int) "no local rescue" 0 st.Rte.st_rescued_calls;
  Alcotest.(check int) "still on the widest rung" 0 st.Rte.st_final_rung;
  Alcotest.(check int) "both hosts standing" 2 fs.Rte.fs_final_hosts;
  Alcotest.(check int) "both shards mapped" 2 fs.Rte.fs_final_shards;
  (* The event log pins the trace bit for bit: exactly one open
     followed by exactly one promotion, with the hand-derived shard and
     host ids, both inside the fault window. *)
  let fleet_events =
    List.filter
      (function
        | Event.Breaker_opened _ | Event.Breaker_closed _ | Event.Failover _ | Event.Failback _
        | Event.Replica_promoted _ | Event.Shard_split _ | Event.Pool_resized _ ->
            true
        | _ -> false)
      events
  in
  (match fleet_events with
  | [ Event.Breaker_opened o; Event.Replica_promoted p ] ->
      Alcotest.(check int) "opened at the failure threshold" 2 o.failures;
      Alcotest.(check bool) "opened inside the window" true (o.at_us >= 2_000);
      Alcotest.(check int) "promoted Back's shard" expected_shard p.shard;
      Alcotest.(check int) "promoted off the crashed host" crash p.from_host;
      Alcotest.(check int) "promoted onto the survivor" survivor p.to_host;
      Alcotest.(check bool) "promotion at the open" true (p.at_us >= o.at_us)
  | evs ->
      Alcotest.failf "expected [breaker_opened; replica_promoted], got %d fleet events"
        (List.length evs));
  (* Availability: the promoted replica keeps every store remote, so
     the crashed run serves exactly what the clean pool serves. *)
  let clean_fs, clean_st, _ = run_fleet ~rounds:10 pl primary in
  Alcotest.(check int) "clean pool never opens" 0 clean_st.Rte.st_breaker_opens;
  Alcotest.(check int) "clean pool never promotes" 0 clean_fs.Rte.fs_promotions;
  Alcotest.(check int) "every remote call still served"
    clean_st.Rte.st_remote_calls st.Rte.st_remote_calls;
  Alcotest.(check int) "every intercepted call still ran"
    clean_st.Rte.st_intercepted st.Rte.st_intercepted

(* --- Routing metrics agree with the pool counters -----------------------
   Every route keeps one counter set and one instrument record, so a
   pool run's coign_resilience_* series equal its stats: under a
   single-host crash (a promotion, no failover) and under a global
   partition (both hosts open, the pool fails over to the base ladder,
   a stranded call probes and is rescued locally). The whole exposition
   of each run is golden, gauges (link EWMA, pool hosts, shards)
   included. *)

let test_pool_metrics_match_fleet_stats () =
  let _, _, _, cback = Lazy.force profiled in
  let primary, pl = mini_pool_ladder ~hosts:2 in
  let rung0 = Fallback.rung pl 0 in
  let crash = Pool.host_of rung0.Fallback.pr_shape (Pool.shard_of ~shards:2 cback) in
  let window = { Fault.zero with Fault.fs_partitions_us = [ (2_000., 1_000_000.) ] } in
  let check what ~golden ?host_faults ?faults () =
    let metrics = Coign_obs.Metrics.registry () in
    let _, st, _ = run_fleet ?host_faults ?faults ~metrics ~rounds:10 pl primary in
    Alcotest.(check string) (what ^ ": exposition matches golden") (Harness.read_file golden)
      (Coign_obs.Metrics.prometheus metrics);
    let series name =
      int_of_float
        (Coign_obs.Metrics.counter_value
           (Coign_obs.Metrics.counter metrics ("coign_resilience_" ^ name ^ "_total")))
    in
    Alcotest.(check int) (what ^ ": breaker opens") st.Rte.st_breaker_opens
      (series "breaker_opens");
    Alcotest.(check int) (what ^ ": failovers") st.Rte.st_failovers (series "failovers");
    Alcotest.(check int) (what ^ ": stranded calls") st.Rte.st_stranded_calls
      (series "stranded_calls");
    Alcotest.(check int) (what ^ ": rescued calls") st.Rte.st_rescued_calls
      (series "rescued_calls");
    st
  in
  let crashed =
    check "single-host crash" ~golden:"golden/fleet_metrics_crash.txt"
      ~host_faults:[ (crash, window) ] ()
  in
  Alcotest.(check int) "the crash opened one breaker" 1 crashed.Rte.st_breaker_opens;
  let partitioned =
    check "global partition" ~golden:"golden/fleet_metrics_partition.txt" ~faults:window ()
  in
  Alcotest.(check bool) "the partition failed the pool over" true
    (partitioned.Rte.st_failovers > 0);
  Alcotest.(check bool) "a stranded call was rescued" true
    (partitioned.Rte.st_stranded_calls > 0 && partitioned.Rte.st_rescued_calls > 0)

(* --- Decision event logs (golden) ---------------------------------------
   The full event log of the two runs above, one [Event.to_line] per
   line: every routing decision, its order and its payload. *)

let event_log events = String.concat "" (List.map (fun e -> Event.to_line e ^ "\n") events)

let test_fleet_event_logs_golden () =
  let _, _, _, cback = Lazy.force profiled in
  let primary, pl = mini_pool_ladder ~hosts:2 in
  let rung0 = Fallback.rung pl 0 in
  let crash = Pool.host_of rung0.Fallback.pr_shape (Pool.shard_of ~shards:2 cback) in
  let window = { Fault.zero with Fault.fs_partitions_us = [ (2_000., 1_000_000.) ] } in
  let check what ~golden ?host_faults ?faults () =
    let _, _, events = run_fleet ?host_faults ?faults ~rounds:10 pl primary in
    Alcotest.(check string) (what ^ ": event log matches golden") (Harness.read_file golden)
      (event_log events)
  in
  check "single-host crash" ~golden:"golden/fleet_events_crash.txt"
    ~host_faults:[ (crash, window) ] ();
  check "global partition" ~golden:"golden/fleet_events_partition.txt" ~faults:window ()

(* --- A hot shard splits -------------------------------------------------
   Spl.Front (client) creates eight server classes, each its own
   migration-safe component, and pumps 1000-byte blobs at whichever it
   is told; [idle] charges client compute, moving the virtual clock
   without traffic. *)

let spl_count = 5

let i_spl_front =
  Itype.declare "ISplFront"
    [
      Idl_type.method_ "pump"
        [ Idl_type.param "target" Idl_type.Int32; Idl_type.param "rounds" Idl_type.Int32 ];
      Idl_type.method_ "idle" [ Idl_type.param "ms" Idl_type.Int32 ];
    ]

let c_spl_backs =
  List.init spl_count (fun i ->
      Runtime.define_class (Printf.sprintf "Spl.S%d" i) (fun _ctx _self ->
          [
            Combuild.iface i_back
              [ ("store", fun _ctx args -> Value.Int (Combuild.get_blob args 0)) ];
          ]))

let c_spl_front =
  Runtime.define_class "Spl.Front" (fun ctx0 _self ->
      let backs =
        Array.of_list
          (List.map
             (fun c -> Runtime.create_instance ctx0 c.Runtime.clsid ~iid:(Itype.iid i_back))
             c_spl_backs)
      in
      [
        Combuild.iface i_spl_front
          [
            ( "pump",
              fun ctx args ->
                for _ = 1 to Combuild.get_int args 1 do
                  ignore
                    (Oracles.call_named ctx
                       backs.(Combuild.get_int args 0)
                       "store" [ Value.Blob 1_000 ])
                done;
                Value.Unit );
            ( "idle",
              fun ctx args ->
                Runtime.charge ctx ~us:(1_000. *. float_of_int (Combuild.get_int args 0));
                Value.Unit );
          ];
      ])

let spl_registry () = Runtime.registry (c_spl_front :: c_spl_backs)

(* Profile: create the front (and so every back), store once into each. *)
let spl_profiled =
  lazy
    (let ctx = Runtime.create_ctx (spl_registry ()) in
     let classifier = Classifier.create Classifier.Ifcb in
     let rte = Rte.install_profiling ~classifier ctx in
     let front =
       Runtime.create_instance ctx c_spl_front.Runtime.clsid ~iid:(Itype.iid i_spl_front)
     in
     for i = 0 to spl_count - 1 do
       ignore (Oracles.call_named ctx front "pump" [ Value.Int i; Value.Int 1 ])
     done;
     Rte.uninstall rte;
     let icc = Rte.icc rte in
     let n = Classifier.classification_count classifier in
     let cls i =
       let name = Printf.sprintf "Spl.S%d" i in
       List.find (fun c -> String.equal (Classifier.class_of_classification classifier c) name)
         (List.init n Fun.id)
     in
     (classifier, icc, n, Array.init spl_count cls))

(* The pool-2 ladder over the five backs, every back on the server in
   the primary: the rung's shard table puts four backs in one shard, the
   hot shard [hot], whose members come ascending by classification, and
   one, [other], in the other shard. *)
let spl_pool =
  lazy
    (let classifier, icc, n, cls = Lazy.force spl_profiled in
     let session = Oracles.session ~classifier ~icc ~constraints:Constraints.empty in
     let primary = Array.make n Constraints.Client in
     Array.iter (fun c -> primary.(c) <- Constraints.Server) cls;
     let base =
       Fallback.of_rungs ~migration_safe:(Array.make n true)
         [ ("primary", dist primary); ("all-client", dist (Array.make n Constraints.Client)) ]
     in
     let net = Net_profiler.exact Network.ethernet_10 in
     let pl = Fallback.pool_ladder ~hosts:2 session ~net base in
     let table = (Fallback.rung pl 0).Fallback.pr_shard_of in
     let in_shard s = List.filter (fun i -> table.(cls.(i)) = s) (List.init spl_count Fun.id) in
     let hot = if List.length (in_shard 0) >= List.length (in_shard 1) then 0 else 1 in
     let members = List.sort (fun a b -> compare cls.(a) cls.(b)) (in_shard hot) in
     (primary, pl, hot, members, in_shard (1 - hot)))

let split shard new_shard moved to_host =
  Printf.sprintf "split shard %d -> %d, %d moved, host %d" shard new_shard moved to_host

(* Drive the front under the distributed RTE on the pool ladder: [pump
   target rounds] stores [rounds] times into back [target], [idle ms]
   charges client compute. Returns the routing decisions as lines, the
   fleet stats and the run stats. *)
let run_spl ?(host_faults = []) drive =
  let classifier, _, _, _ = Lazy.force spl_profiled in
  let primary, pl, _, _, _ = Lazy.force spl_pool in
  let recorder, events = Coign_obs.Sink.collector () in
  let ctx = Runtime.create_ctx (spl_registry ()) in
  let rte =
    Rte.install_distributed ~logger:recorder ~classifier
      ~config:
        {
          Rte.dc_factory_policy = Factory.By_classification (dist primary);
          dc_network = Network.ethernet_10;
          dc_jitter = 0.;
          dc_seed = 1L;
          dc_faults = None;
          dc_retry = fixed_retry;
          dc_resilience = None;
          dc_fleet = Some (Rte.fleet ~host_faults pl);
          dc_watch = None;
        }
      ctx
  in
  let front =
    Runtime.create_instance ctx c_spl_front.Runtime.clsid ~iid:(Itype.iid i_spl_front)
  in
  let pump target rounds =
    ignore (Oracles.call_named ctx front "pump" [ Value.Int target; Value.Int rounds ])
  in
  let idle ms = ignore (Oracles.call_named ctx front "idle" [ Value.Int ms ]) in
  drive ~pump ~idle;
  let fs = Option.get (Rte.fleet_stats rte) in
  let st = Rte.stats rte in
  Rte.uninstall rte;
  let decisions =
    List.filter_map
      (function
        | Event.Shard_split { shard; new_shard; moved; to_host; _ } ->
            Some (split shard new_shard moved to_host)
        | Event.Replica_promoted { shard; from_host; to_host; _ } ->
            Some (Printf.sprintf "promote shard %d: %d -> %d" shard from_host to_host)
        | (Event.Breaker_opened _ | Event.Breaker_closed _ | Event.Failover _ | Event.Failback _
          | Event.Pool_resized _) as e ->
            Some (Event.kind_name e)
        | _ -> None)
      (events ())
  in
  (decisions, fs, st)

(* The split trace, derived from the ladder's shard table and the
   routing rule (a shard over 0.6 of the decayed load is hot, checked
   every 64 served remote calls; the upper half of its movable
   components moves to a new shard on the host serving the fewest
   shards, ties to the lowest). On a pool of 2 the five backs hash into
   shards 0 and 1, four into one of them, the hot shard [h], whose
   members c1 < c2 < c3 < c4 are each their own component. Store 64
   times into each of c1 and c2, alternately: every load is in [h].
   - Check 1, call 64: [h] holds c1..c4; c3 and c4 move to shard 2 on
     host 0 (shards per host 1/1: a tie, the lowest).
   - Check 2, call 128: [h] still carries every call and holds c1, c2;
     c2 moves to shard 3 on host 1 (shards per host 2/1).
   Then 10 s of client compute and 10 stores into c2 while host 1 is
   down from 5 s on. The second failed store opens host 1's breaker;
   the shards it serves, 1 and 3 (both replicated: the new shard
   replicates like every safe one), are promoted to host 0, and the
   route stays on its rung. *)
let test_hot_shard_splits () =
  let _, _, hot, members, _ = Lazy.force spl_pool in
  Alcotest.(check int) "four backs share the hot shard" 4 (List.length members);
  let c1 = List.nth members 0 and c2 = List.nth members 1 in
  let window = { Fault.zero with Fault.fs_crashes_us = [ (5_000_000., 1e12) ] } in
  let decisions, fs, st =
    run_spl ~host_faults:[ (1, window) ] (fun ~pump ~idle ->
        for _ = 1 to 64 do
          pump c1 1;
          pump c2 1
        done;
        idle 10_000;
        pump c2 10)
  in
  let promoted shard = Printf.sprintf "promote shard %d: 1 -> 0" shard in
  Alcotest.(check (list string)) "splits, then promotions"
    [ split hot 2 2 0; split hot 3 1 1; "breaker_opened"; promoted 1; promoted 3 ]
    decisions;
  Alcotest.(check int) "two splits" 2 fs.Rte.fs_splits;
  Alcotest.(check int) "four shards" 4 fs.Rte.fs_final_shards;
  Alcotest.(check int) "on the widest rung" 0 st.Rte.st_final_rung

(* The split threshold and the half-life, each at a check it decides.
   A store costs 2,183.2 µs of virtual time (request and reply, 1,104
   bytes between them over 10BaseT at 650 µs + 0.8 µs/byte each), so
   at a check a store k calls back weighs q^k, q = 2^(-2183.2/200000)
   ≈ 0.99246, and the 64 stores of a check span 0.7 half-lives. Each
   run makes exactly one check, at its 64th store, which splits [h] as
   in "a hot shard splits, twice": c3 and c4 move to shard 2 on
   host 0. *)

(* Two stores into c1, one into [other], 21 times, then one more into
   [other]: 42 of 64 stores in [h], spread evenly, so the decayed
   share is close to 42/64. Summing the weights: [h] 33.155 and the
   other shard 17.767, a share of 0.651. Over 0.6, so [h] splits; at a
   0.7 threshold it would not. *)
let test_split_share_threshold () =
  let _, _, hot, members, other = Lazy.force spl_pool in
  let c1 = List.nth members 0 and o = List.hd other in
  let decisions, fs, _ =
    run_spl (fun ~pump ~idle:_ ->
        for _ = 1 to 21 do
          pump c1 2;
          pump o 1
        done;
        pump o 1)
  in
  Alcotest.(check (list string)) "one split at a share of 0.651" [ split hot 2 2 0 ] decisions;
  Alcotest.(check int) "one split" 1 fs.Rte.fs_splits

(* 42 stores into [other], 400 ms of client compute, then 22 stores
   into c1. The idle spans two half-lives, so the older stores keep a
   quarter of their weight: [h] 20.343 against 7.645, a share of
   0.727, and [h] splits. With the half-life doubled the idle spans one
   half-life: [h] 21.149 against 17.900, a share of 0.542, and no shard
   splits. *)
let test_split_half_life () =
  let _, _, hot, members, other = Lazy.force spl_pool in
  let c1 = List.nth members 0 and o = List.hd other in
  let decisions, fs, _ =
    run_spl (fun ~pump ~idle ->
        pump o 42;
        idle 400;
        pump c1 22)
  in
  Alcotest.(check (list string)) "the old load decays below 0.4 of the total"
    [ split hot 2 2 0 ] decisions;
  Alcotest.(check int) "one split" 1 fs.Rte.fs_splits

(* --- Shard-map stability --------------------------------------------- *)

let qcheck_hash_shard_stable =
  QCheck.Test.make ~count:500 ~name:"hash shard map is pure and in range"
    QCheck.(pair (int_range 1 8) (int_range (-1) 999))
    (fun (k, c) ->
      let s = Pool.shard_of ~shards:k c in
      s >= 0 && s < k && s = Pool.shard_of ~shards:k c)

let qcheck_replica_ring =
  QCheck.Test.make ~count:500 ~name:"replica ring: primary first, distinct, round-robin"
    QCheck.(triple (int_range 1 6) (int_range 1 6) (int_range 0 20))
    (fun (k, r, s) ->
      let shape = Pool.shape ~replicas:(min r k) k in
      let primary = Pool.host_of shape s in
      (* The ring, read off the walk: each step admits only the hosts
         not yet seen. *)
      let rec walk seen =
        match Pool.first_replica shape s ~except:(-1) ~admits:(fun h -> not (List.mem h seen)) with
        | -1 -> List.rev seen
        | h -> walk (h :: seen)
      in
      let ring = walk [] in
      primary = s mod k
      && List.hd ring = primary
      && List.length ring = shape.Pool.sh_replicas
      && List.length (List.sort_uniq compare ring) = List.length ring
      && List.for_all2 (fun i h -> h = (primary + i) mod k)
           (List.init (List.length ring) Fun.id)
           ring
      && Pool.first_replica shape s ~except:primary ~admits:(fun _ -> true)
         = if shape.Pool.sh_replicas > 1 then (primary + 1) mod k else -1)

let test_ladder_shards_stable_across_rungs () =
  (* "A key's shard never changes as the pool breathes": wherever a
     classification is server-side on two rungs, it sits in the same
     shard on both. *)
  let _, pl = mini_pool_ladder ~hosts:4 in
  let rungs = List.init (Fallback.rung_count pl) (Fallback.rung pl) in
  List.iter
    (fun (r1 : Fallback.rung) ->
      List.iter
        (fun (r2 : Fallback.rung) ->
          Array.iteri
            (fun c s1 ->
              let s2 = r2.Fallback.pr_shard_of.(c) in
              if s1 >= 0 && s2 >= 0 then
                Alcotest.(check int)
                  (Printf.sprintf "shard of %d stable between %s and %s" c r1.Fallback.pr_name
                     r2.Fallback.pr_name)
                  s1 s2)
            r1.Fallback.pr_shard_of)
        rungs)
    rungs

(* --- Pool of one is the PR 5 resilience path, bit for bit ------------ *)

let prepared_octarine =
  lazy
    (let app = Suite.find_app "octarine" in
     let sc = App.scenario app "o_oldwp0" in
     let image = Adps.instrument app.App.app_image in
     let profiled, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
     let analyzed, _ =
       Adps.analyze ~image:profiled ~net:(Net_profiler.exact Network.ethernet_10) ()
     in
     (app, profiled, analyzed, sc))

let test_pool1_bit_identity () =
  let app, profiled, image, sc = Lazy.force prepared_octarine in
  let net = Net_profiler.exact Network.ethernet_10 in
  let base = Adps.fallback_ladder ~image:profiled ~net () in
  let pl = Adps.pool_fallback_ladder ~hosts:1 ~image:profiled ~net () in
  let faults = { Fault.zero with Fault.fs_partitions_us = [ (50_000., 550_000.) ] } in
  let resil =
    Adps.execute ~image ~registry:app.App.app_registry ~network:Network.ethernet_10
      ~seed:0x5EEDL ~faults ~resilience:(Rte.resilience base) sc.App.sc_run
  in
  let fleet_es, fstats =
    Adps.execute_fleet ~image ~registry:app.App.app_registry ~network:Network.ethernet_10
      ~seed:0x5EEDL ~faults ~fleet:(Rte.fleet pl) sc.App.sc_run
  in
  Alcotest.(check bool) "pool-1 run is bit-identical to the two-host ladder" true
    (resil = fleet_es);
  Alcotest.(check int) "one host" 1 fstats.Rte.fs_final_hosts;
  Alcotest.(check int) "one shard" 1 fstats.Rte.fs_final_shards;
  Alcotest.(check int) "no promotions on a pool of one" 0 fstats.Rte.fs_promotions;
  Alcotest.(check int) "no resizes on a pool of one" 0 fstats.Rte.fs_resizes;
  (* Observed, the two are still one route: equal event logs and
     byte-identical Prometheus exposition. *)
  let observed run =
    let recorder, events = Coign_obs.Sink.collector () in
    let metrics = Coign_obs.Metrics.registry () in
    run ~logger:recorder ~metrics;
    (events (), Coign_obs.Metrics.prometheus metrics)
  in
  let resil_events, resil_text =
    observed (fun ~logger ~metrics ->
        ignore
          (Adps.execute ~logger ~metrics ~image ~registry:app.App.app_registry
             ~network:Network.ethernet_10 ~seed:0x5EEDL ~faults
             ~resilience:(Rte.resilience base) sc.App.sc_run))
  in
  let fleet_events, fleet_text =
    observed (fun ~logger ~metrics ->
        ignore
          (Adps.execute_fleet ~logger ~metrics ~image ~registry:app.App.app_registry
             ~network:Network.ethernet_10 ~seed:0x5EEDL ~faults ~fleet:(Rte.fleet pl)
             sc.App.sc_run))
  in
  Alcotest.(check bool) "pool-1 event log equals the two-host ladder's" true
    (resil_events = fleet_events);
  Alcotest.(check string) "pool-1 Prometheus exposition is byte-identical" resil_text
    fleet_text;
  (* Retry-only is a route whose breaker never opens: it registers no
     routing instruments at all. *)
  let metrics = Coign_obs.Metrics.registry () in
  ignore
    (Adps.execute ~metrics ~image ~registry:app.App.app_registry ~network:Network.ethernet_10
       ~seed:0x5EEDL ~faults sc.App.sc_run);
  let text = Coign_obs.Metrics.prometheus metrics in
  Alcotest.(check bool) "retry-only exposes no coign_resilience_* series" false
    (contains text "coign_resilience_");
  Alcotest.(check bool) "retry-only exposes no coign_fleet_* series" false
    (contains text "coign_fleet_")

(* --- The grid is deterministic across domains ------------------------ *)

(* The grid [coign fleet] runs by default: pools 1-3, two replicas, a
   500 ms fault window opening at 50 ms. *)
let fleet_view ?(pools = [ 1; 2; 3 ]) () =
  Fleetsim.Fleet { pools; replicas = 2; fault_window_us = Fleetsim.default_fault_window_us }

let test_fleetsim_deterministic_across_domains () =
  let app, image, _, sc = Lazy.force prepared_octarine in
  let go pool =
    Jsonu.to_string
      (Fleetsim.to_json
         (Fleetsim.run ?pool ~seed:0x5EEDL ~image ~registry:app.App.app_registry
            ~network:Network.ethernet_10 (fleet_view ~pools:[ 1; 2 ] ()) sc.App.sc_run))
  in
  let j1 = go None in
  let pool = Parallel.create ~domains:3 () in
  let j4 = Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> go (Some pool)) in
  Alcotest.(check string) "grid JSON byte-identical across domain counts" j1 j4;
  match Jsonu.parse j1 with
  | Ok (Jsonu.Arr cells) ->
      Alcotest.(check int) "one JSON object per cell" 6 (List.length cells)
  | Ok _ -> Alcotest.fail "grid JSON is not an array"
  | Error e -> Alcotest.fail ("grid JSON does not parse: " ^ e)

(* --- The replicated pool rides out a single-host crash ---------------- *)

(* On each of the three distributable apps, the default grid's
   pool-of-one cells (every regime) tie the two-host ladder field for
   field, and under the single-host crash every wider pool keeps
   strictly more of its remote calls remote than the ladder, which has
   retreated to all-client. At seed 0x5EED the served ratios are
   octarine 0.467 -> 1, photodraw 0.077 -> 1, benefits 0.392 -> 1. *)
let test_pool_serves_more_under_crash () =
  List.iter
    (fun (app, sc_id) ->
      let sc = App.scenario app sc_id in
      let registry = app.App.app_registry in
      let image = Adps.instrument app.App.app_image in
      let image, _ = Adps.profile ~image ~registry sc.App.sc_run in
      let grid =
        Fleetsim.run ~seed:0x5EEDL ~image ~registry ~network:Network.ethernet_10 (fleet_view ())
          sc.App.sc_run
      in
      let name = app.App.app_name in
      let crash = ref 0 in
      List.iter
        (function
          | Fleetsim.Fleet_row { pool; regime; ladder; fleet; _ } as r ->
              if pool = 1 then
                Alcotest.(check (option bool))
                  (Printf.sprintf "%s pool-1 %s ties the ladder" name (Fleetsim.regime_name regime))
                  (Some true) (Fleetsim.identical r)
              else if regime = Fleetsim.Crash then begin
                incr crash;
                let ladder = Fleetsim.served grid ladder in
                let pool_served = Fleetsim.served grid fleet in
                Alcotest.(check bool)
                  (Printf.sprintf "%s pool-%d serves more under crash: %.3f > %.3f" name pool
                     pool_served ladder)
                  true (pool_served > ladder)
              end
          | _ -> Alcotest.fail "fleet view returned a non-fleet row")
        grid.Fleetsim.g_rows;
      Alcotest.(check int) (name ^ ": crash cells for pools 2 and 3") 2 !crash)
    [ (Octarine.app, "o_oldwp0"); (Photodraw.app, "p_oldmsr"); (Benefits.app, "b_vueone") ]

(* --- Each distinct cell runs once ------------------------------------- *)

(* The default grid's 18 comparisons plus the clean run name 19 cells,
   but the ladder sees the crash and partition regimes as the same
   global partition for every pool size, and so does a pool of one: 11
   distinct cells, each executed once. *)
let test_default_grid_runs_distinct_cells () =
  let app, image, _, sc = Lazy.force prepared_octarine in
  let profiler = Coign_obs.Profiler.create () in
  let grid =
    Fleetsim.run ~profiler ~seed:0x5EEDL ~image ~registry:app.App.app_registry
      ~network:Network.ethernet_10 (fleet_view ()) sc.App.sc_run
  in
  Alcotest.(check int) "rows" 9 (List.length grid.Fleetsim.g_rows);
  match
    List.find_opt
      (fun ph -> ph.Coign_obs.Profiler.ph_name = "grid_cell")
      (Coign_obs.Profiler.phases profiler)
  with
  | Some ph -> Alcotest.(check int) "cell executions" 11 ph.Coign_obs.Profiler.ph_count
  | None -> Alcotest.fail "no grid_cell phase recorded"

(* --- Golden CLI output ------------------------------------------------ *)

let test_fleet_golden () =
  let golden = "golden/fleet_octarine.txt" in
  let golden_json = "golden/fleet_octarine.json" in
  Harness.in_tmp ~needs:[ golden; golden_json ] (fun dir ->
      let img = Harness.profiled_octarine dir in
      let args =
        [ "fleet"; img; "--scenario"; "o_oldwp0"; "--network"; "ethernet10"; "--jobs"; "1" ]
      in
      Harness.check_golden ~dir ~golden "fleet" args;
      Harness.check_golden_json ~dir ~golden:golden_json "fleet" (args @ [ "--json" ]))

let suite =
  [
    Alcotest.test_case "hand-computed promotion trace under single-host crash" `Quick
      test_promotion_trace_hand_computed;
    Alcotest.test_case "routing metrics match the pool counters" `Quick
      test_pool_metrics_match_fleet_stats;
    QCheck_alcotest.to_alcotest ~long:false qcheck_hash_shard_stable;
    QCheck_alcotest.to_alcotest ~long:false qcheck_replica_ring;
    Alcotest.test_case "pool ladder shards stable across rungs" `Quick
      test_ladder_shards_stable_across_rungs;
    Alcotest.test_case "pool of one is bit-identical to the resilience path" `Slow
      test_pool1_bit_identity;
    Alcotest.test_case "replicated pool serves more under a single-host crash" `Slow
      test_pool_serves_more_under_crash;
    Alcotest.test_case "fleet grid deterministic across domains" `Slow
      test_fleetsim_deterministic_across_domains;
    Alcotest.test_case "default grid runs each distinct cell once" `Slow
      test_default_grid_runs_distinct_cells;
    Alcotest.test_case "cli fleet golden output" `Slow test_fleet_golden;
    Alcotest.test_case "decision event logs (golden)" `Quick test_fleet_event_logs_golden;
    Alcotest.test_case "a hot shard splits, twice" `Quick test_hot_shard_splits;
    Alcotest.test_case "a split needs over 0.6 of the load" `Quick test_split_share_threshold;
    Alcotest.test_case "the split's load decays by half in 200 ms" `Quick test_split_half_life;
  ]
