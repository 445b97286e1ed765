open Coign_idl
open Coign_com
open Coign_netsim
open Coign_core
open Coign_apps
open Coign_sim
open Coign_util

(* --- The fault model in isolation ----------------------------------- *)

let mk ?(seed = 7L) sp = Fault.make ~seed sp

let fixed_retry =
  {
    Fault.rp_timeout_us = 1_000.;
    rp_max_attempts = 3;
    rp_backoff_us = 500.;
    rp_backoff_mult = 2.;
    rp_backoff_jitter = 0.;
  }

let test_zero_model_delivers () =
  let m = mk Fault.zero in
  for i = 0 to 999 do
    let at_us = float_of_int (i * 37) and bytes = (i * 91) mod 4096 in
    match Fault.verdict m ~at_us ~bytes with
    | Fault.Deliver -> ()
    | _ -> Alcotest.fail "zero model must deliver every message"
  done

let test_verdict_pure () =
  let sp =
    {
      Fault.fs_drop_rate = 0.5;
      fs_spike_rate = 0.3;
      fs_spike_mean_us = 200.;
      fs_partitions_us = [ (10_000., 12_000.) ];
      fs_crashes_us = [ (30_000., 31_000.) ];
    }
  in
  let m1 = mk sp and m2 = mk sp in
  for i = 0 to 499 do
    let at_us = float_of_int (i * 113) and bytes = i * 7 in
    let v = Fault.verdict m1 ~at_us ~bytes in
    Alcotest.(check bool) "verdict is a pure function" true (v = Fault.verdict m1 ~at_us ~bytes);
    Alcotest.(check bool) "verdict depends only on seed and spec" true
      (v = Fault.verdict m2 ~at_us ~bytes)
  done

let test_windows_force_drop () =
  let m =
    mk
      {
        Fault.zero with
        Fault.fs_partitions_us = [ (1_000., 2_000.) ];
        fs_crashes_us = [ (5_000., 6_000.) ];
      }
  in
  let v at = Fault.verdict m ~at_us:at ~bytes:100 in
  Alcotest.(check bool) "before partition" true (v 500. = Fault.Deliver);
  Alcotest.(check bool) "partition start is inclusive" true (v 1_000. = Fault.Drop);
  Alcotest.(check bool) "inside partition" true (v 1_500. = Fault.Drop);
  Alcotest.(check bool) "partition stop is exclusive" true (v 2_000. = Fault.Deliver);
  Alcotest.(check bool) "inside crash window" true (v 5_500. = Fault.Drop);
  Alcotest.(check bool) "after recovery" true (v 6_500. = Fault.Deliver)

let test_drop_rate_statistics () =
  let m = mk ~seed:0xACEL { Fault.zero with Fault.fs_drop_rate = 0.25 } in
  let n = 4_000 in
  let dropped = ref 0 in
  for i = 0 to n - 1 do
    match Fault.verdict m ~at_us:(float_of_int i *. 17.) ~bytes:256 with
    | Fault.Drop -> incr dropped
    | _ -> ()
  done;
  let rate = float_of_int !dropped /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "observed drop rate %.3f near 0.25" rate)
    true
    (rate > 0.20 && rate < 0.30)

(* --- One faulted call: hand-computed outcomes ----------------------- *)

(* A link whose request leg (50 bytes) takes 300 us and whose reply
   leg (100 bytes) takes 400 us. *)
let legs = Network.make ~name:"legs" ~latency_us:200. ~bandwidth_mbps:4. ~proc_us:0.

type outcome = {
  oc_ok : bool;
  oc_time_us : float;
  oc_retries : int;
  oc_drops : int;
  oc_spikes : int;
  oc_fault_us : float;
}

(* One call from zero totals; jitter draws come from [jitter_rng]. *)
let faulted_call ?model ?(retry = fixed_retry) ?(jitter = 0.) ?(jitter_rng = Prng.create 5L) () =
  let spent = Fault.spent () and counts = Fault.counts () in
  let ok =
    Fault.call ~model ~retry ~rng:(Prng.create 3L) ~network:legs ~jitter ~jitter_rng ~now_us:0.
      ~request_bytes:50 ~reply_bytes:100 ~spent ~counts
  in
  {
    oc_ok = ok;
    oc_time_us = spent.Fault.comm_us;
    oc_retries = counts.Fault.retries;
    oc_drops = counts.Fault.drops;
    oc_spikes = counts.Fault.spikes;
    oc_fault_us = spent.Fault.fault_us;
  }

(* A leg's time under 10% jitter, drawn from [rng]. *)
let jittered_leg rng mu = Float.max 0. (Prng.gaussian rng ~mu ~sigma:(0.1 *. mu))

let test_call_without_model () =
  let oc = faulted_call () in
  Alcotest.(check bool) "ok" true oc.oc_ok;
  Alcotest.(check (float 0.)) "clean round trip" 700. oc.oc_time_us;
  Alcotest.(check int) "no retries" 0 oc.oc_retries;
  Alcotest.(check (float 0.)) "no fault time" 0. oc.oc_fault_us;
  (* The reply time is drawn first — the historical jitter draw order
     the interface documents (and zero-fault bit-identity relies on). *)
  let draws = Prng.create 5L in
  let rp = jittered_leg draws 400. in
  let rq = jittered_leg draws 300. in
  Alcotest.(check int64) "reply drawn before request"
    (Int64.bits_of_float (rq +. rp))
    (Int64.bits_of_float (faulted_call ~jitter:0.1 ()).oc_time_us)

let test_call_full_drop_exhausts_retries () =
  let jitter_rng = Prng.create 5L in
  let oc =
    faulted_call ~model:(mk { Fault.zero with Fault.fs_drop_rate = 1.0 }) ~jitter:0.1 ~jitter_rng ()
  in
  (* Three attempts, all eaten on the request leg: two timeouts with
     backoffs 500 and 1000 between them, then the final timeout.
     1000 + 500 + 1000 + 1000 + 1000 = 4500, all of it fault time. *)
  Alcotest.(check bool) "abandoned" false oc.oc_ok;
  Alcotest.(check int) "retries" 2 oc.oc_retries;
  Alcotest.(check int) "drops" 3 oc.oc_drops;
  Alcotest.(check int) "no spikes" 0 oc.oc_spikes;
  Alcotest.(check (float 0.)) "elapsed" 4_500. oc.oc_time_us;
  Alcotest.(check (float 0.)) "all of it fault time" 4_500. oc.oc_fault_us;
  Alcotest.(check int64) "dropped requests draw no jitter"
    (Prng.next_int64 (Prng.create 5L))
    (Prng.next_int64 jitter_rng)

let test_call_partition_then_recovery () =
  (* Attempts start at t = 0, 1500, 3500; the partition covers the
     first two, the third completes cleanly. *)
  let oc = faulted_call ~model:(mk { Fault.zero with Fault.fs_partitions_us = [ (0., 2_000.) ] }) () in
  Alcotest.(check bool) "recovered" true oc.oc_ok;
  Alcotest.(check int) "retries" 2 oc.oc_retries;
  Alcotest.(check int) "drops" 2 oc.oc_drops;
  Alcotest.(check (float 0.)) "fault time = 2 timeouts + 2 backoffs" 3_500. oc.oc_fault_us;
  Alcotest.(check (float 0.)) "total = fault time + round trip" 4_200. oc.oc_time_us

let test_call_reply_leg_drop () =
  (* The request (sent at 0) clears the window, but the reply lands at
     t = 300 inside [200, 1200): one retry, which clears both legs. *)
  let oc =
    faulted_call ~model:(mk { Fault.zero with Fault.fs_partitions_us = [ (200., 1_200.) ] }) ()
  in
  Alcotest.(check bool) "recovered" true oc.oc_ok;
  Alcotest.(check int) "one retry" 1 oc.oc_retries;
  Alcotest.(check int) "one drop" 1 oc.oc_drops;
  Alcotest.(check (float 0.)) "fault time = 1 timeout + 1 backoff" 1_500. oc.oc_fault_us;
  Alcotest.(check (float 0.)) "total" 2_200. oc.oc_time_us

let test_call_spikes_counted () =
  let oc =
    faulted_call
      ~model:(mk { Fault.zero with Fault.fs_spike_rate = 1.0; fs_spike_mean_us = 100. })
      ()
  in
  Alcotest.(check bool) "delivered" true oc.oc_ok;
  Alcotest.(check int) "both legs spiked" 2 oc.oc_spikes;
  Alcotest.(check int) "no drops" 0 oc.oc_drops;
  Alcotest.(check bool) "spikes cost time" true (oc.oc_fault_us > 0.);
  Alcotest.(check (float 1e-9)) "total = round trip + spikes"
    (700. +. oc.oc_fault_us)
    oc.oc_time_us

(* --- The distributed RTE under a fault matrix ------------------------
   A miniature split application, as in the RTE tests: Front (client)
   creates Back (server) and pumps blobs at it, so the run has one
   forwarded instantiation plus one remote store per round. *)

let i_front = Itype.declare "IFltFront" [ Idl_type.method_ "run" [ Idl_type.param "rounds" Idl_type.Int32 ] ]

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
                  ignore (Runtime.call_named ctx back "store" [ Value.Blob 1_000 ])
                done;
                Value.Unit );
          ];
      ])

let registry () = Runtime.registry [ c_front; c_back ]
let split cname = if String.equal cname "Flt.Back" then Constraints.Server else Constraints.Client

let run_split ?(jitter = 0.) ?(seed = 1L) ?faults ?(retry = fixed_retry) rounds =
  let ctx = Runtime.create_ctx (registry ()) in
  let classifier = Classifier.create Classifier.Ifcb in
  let rte =
    Rte.install_distributed ~classifier
      ~config:
        {
          Rte.dc_factory_policy = Factory.By_class split;
          dc_network = Network.ethernet_10;
          dc_jitter = jitter;
          dc_seed = seed;
          dc_faults = faults;
          dc_retry = retry;
          dc_resilience = None;
          dc_fleet = None;
          dc_watch = None;
        }
      ctx
  in
  let front = Runtime.create_instance ctx c_front.Runtime.clsid ~iid:(Itype.iid i_front) in
  ignore (Runtime.call_named ctx front "run" [ Value.Int rounds ]);
  Rte.stats rte

let check_bits = Harness.check_bits

let test_rte_zero_fault_identity () =
  (* An installed all-zero model must be bit-identical to no model at
     all — with and without jitter, so the stream split is exercised. *)
  List.iter
    (fun jitter ->
      let clean = run_split ~jitter ~seed:5L 4 in
      let zeroed = run_split ~jitter ~seed:5L ~faults:Fault.zero 4 in
      check_bits
        (Printf.sprintf "comm identical at jitter %g" jitter)
        clean.Rte.st_comm_us zeroed.Rte.st_comm_us;
      Alcotest.(check int) "remote calls" clean.Rte.st_remote_calls zeroed.Rte.st_remote_calls;
      Alcotest.(check int) "remote bytes" clean.Rte.st_remote_bytes zeroed.Rte.st_remote_bytes;
      Alcotest.(check int) "no retries" 0 zeroed.Rte.st_retries;
      Alcotest.(check int) "no drops" 0 zeroed.Rte.st_drops;
      Alcotest.(check int) "no fallbacks" 0 zeroed.Rte.st_fallbacks;
      Alcotest.(check int) "no abandoned calls" 0 zeroed.Rte.st_unreachable;
      check_bits "no fault time" 0. zeroed.Rte.st_fault_us)
    [ 0.; 0.03 ]

let test_rte_full_drop_degrades_instantiation () =
  (* Every message is lost: the forwarded Back instantiation exhausts
     its three attempts (4500 us, computed as in the call tests) and
     degrades to the creator's machine — after which the whole run is
     local and nothing else is charged. *)
  let s = run_split ~faults:{ Fault.zero with Fault.fs_drop_rate = 1.0 } 3 in
  Alcotest.(check int) "one fallback" 1 s.Rte.st_fallbacks;
  Alcotest.(check int) "no completed remote calls" 0 s.Rte.st_remote_calls;
  Alcotest.(check int) "retries" 2 s.Rte.st_retries;
  Alcotest.(check int) "drops" 3 s.Rte.st_drops;
  Alcotest.(check int) "nothing abandoned mid-call" 0 s.Rte.st_unreachable;
  check_bits "fault time" 4_500. s.Rte.st_fault_us;
  check_bits "comm is all fault" 4_500. s.Rte.st_comm_us

let test_rte_crash_window_degrades_instantiation () =
  (* A server crash covering the whole run reads differently in the
     spec but must behave exactly like a total drop. *)
  let s = run_split ~faults:{ Fault.zero with Fault.fs_crashes_us = [ (0., 1e9) ] } 3 in
  Alcotest.(check int) "one fallback" 1 s.Rte.st_fallbacks;
  Alcotest.(check int) "no completed remote calls" 0 s.Rte.st_remote_calls;
  Alcotest.(check int) "drops" 3 s.Rte.st_drops;
  check_bits "fault time" 4_500. s.Rte.st_fault_us

let test_rte_partition_retry_recovers () =
  (* A 2 ms partition from t = 0: the forwarded instantiation (sent at
     t = 0) loses two attempts, succeeds on the third at t = 3500, and
     the rest of the run proceeds past the window untouched. The whole
     run therefore costs exactly the clean run plus 3500 us. *)
  let clean = run_split 3 in
  let s = run_split ~faults:{ Fault.zero with Fault.fs_partitions_us = [ (0., 2_000.) ] } 3 in
  Alcotest.(check int) "no fallback" 0 s.Rte.st_fallbacks;
  Alcotest.(check int) "same remote calls as clean run" clean.Rte.st_remote_calls
    s.Rte.st_remote_calls;
  Alcotest.(check int) "retries" 2 s.Rte.st_retries;
  Alcotest.(check int) "drops" 2 s.Rte.st_drops;
  check_bits "fault time = 2 timeouts + 2 backoffs" 3_500. s.Rte.st_fault_us;
  Alcotest.(check (float 1e-6)) "comm = clean + fault time"
    (clean.Rte.st_comm_us +. 3_500.)
    s.Rte.st_comm_us

let test_rte_partition_mid_run_unreachable () =
  (* The partition opens after the instantiation completes and never
     closes: the first remote store exhausts its retries and the RTE
     gives up with E_unreachable. *)
  let ctx = Runtime.create_ctx (registry ()) in
  let classifier = Classifier.create Classifier.Ifcb in
  let rte =
    Rte.install_distributed ~classifier
      ~config:
        {
          Rte.dc_factory_policy = Factory.By_class split;
          dc_network = Network.ethernet_10;
          dc_jitter = 0.;
          dc_seed = 1L;
          dc_faults = Some { Fault.zero with Fault.fs_partitions_us = [ (2_000., 1e9) ] };
          dc_retry = fixed_retry;
          dc_resilience = None;
          dc_fleet = None;
          dc_watch = None;
        }
      ctx
  in
  let front = Runtime.create_instance ctx c_front.Runtime.clsid ~iid:(Itype.iid i_front) in
  (match Runtime.call_named ctx front "run" [ Value.Int 2 ] with
  | _ -> Alcotest.fail "expected E_unreachable"
  | exception Hresult.Com_error (Hresult.E_unreachable _) -> ());
  let s = Rte.stats rte in
  Alcotest.(check int) "one abandoned call" 1 s.Rte.st_unreachable;
  Alcotest.(check int) "instantiation was not degraded" 0 s.Rte.st_fallbacks;
  Alcotest.(check int) "only the instantiation completed" 1 s.Rte.st_remote_calls;
  Alcotest.(check int) "the store burned all attempts" 3 s.Rte.st_drops

(* --- Replay under the same fault model ------------------------------- *)

let mini_trace () =
  let classifier = Classifier.create Classifier.Ifcb in
  let events =
    Replay.record_scenario ~registry:(registry ()) ~classifier (fun ctx ->
        let front = Runtime.create_instance ctx c_front.Runtime.clsid ~iid:(Itype.iid i_front) in
        ignore (Runtime.call_named ctx front "run" [ Value.Int 5 ]))
  in
  let placement c =
    if
      c >= 0
      && c < Classifier.classification_count classifier
      && String.equal (Classifier.class_of_classification classifier c) "Flt.Back"
    then Constraints.Server
    else Constraints.Client
  in
  (events, placement)

let test_replay_zero_fault_identity () =
  let events, placement = mini_trace () in
  let clean = Replay.replay ~events ~placement ~network:Network.ethernet_10 () in
  let zeroed =
    Replay.replay ~faults:(mk ~seed:9L Fault.zero) ~events ~placement
      ~network:Network.ethernet_10 ()
  in
  check_bits "comm identical" clean.Replay.re_comm_us zeroed.Replay.re_comm_us;
  Alcotest.(check int) "remote calls" clean.Replay.re_remote_calls zeroed.Replay.re_remote_calls;
  Alcotest.(check int) "remote bytes" clean.Replay.re_remote_bytes zeroed.Replay.re_remote_bytes;
  Alcotest.(check int) "no retries" 0 zeroed.Replay.re_retries;
  Alcotest.(check int) "no drops" 0 zeroed.Replay.re_drops;
  Alcotest.(check int) "no fallbacks" 0 zeroed.Replay.re_fallbacks;
  check_bits "no fault time" 0. zeroed.Replay.re_fault_us

let test_replay_full_drop_estimates_degradation () =
  let events, placement = mini_trace () in
  let est =
    Replay.replay
      ~faults:(mk { Fault.zero with Fault.fs_drop_rate = 1.0 })
      ~retry:fixed_retry ~events ~placement ~network:Network.ethernet_10 ()
  in
  Alcotest.(check int) "instantiation degrades" 1 est.Replay.re_fallbacks;
  Alcotest.(check int) "no completed remote calls" 0 est.Replay.re_remote_calls;
  Alcotest.(check int) "retries" 2 est.Replay.re_retries;
  Alcotest.(check int) "drops" 3 est.Replay.re_drops;
  Alcotest.(check int) "nothing abandoned" 0 est.Replay.re_unreachable;
  check_bits "fault time" 4_500. est.Replay.re_fault_us

let test_replay_counts_unreachable_and_continues () =
  (* Same mid-run partition as the RTE test — but the estimator counts
     every abandoned call instead of stopping at the first one. *)
  let events, placement = mini_trace () in
  let est =
    Replay.replay
      ~faults:(mk { Fault.zero with Fault.fs_partitions_us = [ (2_000., 1e9) ] })
      ~retry:fixed_retry ~events ~placement ~network:Network.ethernet_10 ()
  in
  Alcotest.(check int) "all five stores abandoned" 5 est.Replay.re_unreachable;
  Alcotest.(check int) "three drops each" 15 est.Replay.re_drops;
  Alcotest.(check int) "two retries each" 10 est.Replay.re_retries;
  Alcotest.(check int) "instantiation cleared before the window" 0 est.Replay.re_fallbacks;
  Alcotest.(check int) "only the instantiation completed" 1 est.Replay.re_remote_calls

(* --- Fault-grid reproducibility -------------------------------------- *)

let prepared_octarine =
  lazy
    (let app = Octarine.app in
     let sc = App.scenario app "o_oldwp0" in
     let image = Adps.instrument app.App.app_image in
     let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
     let net = Net_profiler.profile (Prng.create 42L) Network.ethernet_10 in
     let image, _ = Adps.analyze ~image ~net () in
     (image, app.App.app_registry, sc.App.sc_run))

let prop_faultsim_reproducible =
  QCheck.Test.make ~name:"faultsim grid byte-identical across runs and domain counts" ~count:4
    (QCheck.make
       QCheck.Gen.(pair (map Int64.of_int (int_bound 100_000)) (float_range 0. 0.3)))
    (fun (seed, drop) ->
      let image, registry, scenario = Lazy.force prepared_octarine in
      let go pool =
        Jsonu.to_string
          (Fleetsim.to_json
             (Fleetsim.run ?pool ~seed ~jitter:0.02 ~image ~registry
                ~network:Network.ethernet_10
                (Fleetsim.Faults
                   {
                     drop_rates = [ 0.; drop ];
                     partitions_us = [ 0.; 20_000. ];
                     partition_start_us = 0.;
                   })
                scenario))
      in
      let j1 = go None in
      let j2 = go None in
      let pool = Parallel.create ~domains:3 () in
      let j3 =
        Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> go (Some pool))
      in
      String.equal j1 j2 && String.equal j1 j3)

(* A network name carrying JSON's special characters still serializes
   to a grid that parses back to the same name. *)
let test_faultsim_json_escapes_network_name () =
  let image, registry, scenario = Lazy.force prepared_octarine in
  let name = "lab\n\t\"net\"\\1" in
  let network = { Network.ethernet_10 with Network.net_name = name } in
  let json =
    Jsonu.to_string
      (Fleetsim.to_json
         (Fleetsim.run ~image ~registry ~network
            (Fleetsim.Faults
               { drop_rates = [ 0. ]; partitions_us = [ 0. ]; partition_start_us = 0. })
            scenario))
  in
  match Jsonu.parse json with
  | Ok (Jsonu.Arr [ cell ]) -> (
      match Jsonu.member "network" cell with
      | Some (Jsonu.Str s) -> Alcotest.(check string) "network name round-trips" name s
      | _ -> Alcotest.fail "cell has no network string")
  | Ok _ -> Alcotest.fail "expected a one-cell JSON array"
  | Error e -> Alcotest.fail ("grid JSON does not parse: " ^ e)

(* --- Golden CLI output ------------------------------------------------ *)

let test_faultsim_golden () =
  let golden = "golden/faultsim_octarine.txt" in
  let golden_json = "golden/faultsim_octarine.json" in
  Harness.in_tmp ~needs:[ golden; golden_json ] (fun dir ->
      let img = Harness.profiled_octarine dir in
      Harness.check_ok "analyze"
        (Harness.run [ "analyze"; img; "--network"; "ethernet10"; "-o"; img ]);
      let args =
        [
          "faultsim"; img; "--scenario"; "o_oldwp0"; "--network"; "ethernet10"; "--drops";
          "0,0.05,0.1"; "--partitions-ms"; "0,50"; "--jobs"; "1";
        ]
      in
      Harness.check_golden ~dir ~golden "faultsim" args;
      Harness.check_golden_json ~dir ~golden:golden_json "faultsim" (args @ [ "--json" ]))

let suite =
  [
    Alcotest.test_case "zero model delivers everything" `Quick test_zero_model_delivers;
    Alcotest.test_case "verdicts are pure" `Quick test_verdict_pure;
    Alcotest.test_case "partition and crash windows force drops" `Quick test_windows_force_drop;
    Alcotest.test_case "drop rate statistics" `Quick test_drop_rate_statistics;
    Alcotest.test_case "call without model" `Quick test_call_without_model;
    Alcotest.test_case "call: full drop exhausts retries" `Quick
      test_call_full_drop_exhausts_retries;
    Alcotest.test_case "call: partition then recovery" `Quick test_call_partition_then_recovery;
    Alcotest.test_case "call: reply-leg drop" `Quick test_call_reply_leg_drop;
    Alcotest.test_case "call: spikes counted" `Quick test_call_spikes_counted;
    Alcotest.test_case "rte: zero-fault bit identity" `Quick test_rte_zero_fault_identity;
    Alcotest.test_case "rte: full drop degrades instantiation" `Quick
      test_rte_full_drop_degrades_instantiation;
    Alcotest.test_case "rte: crash window degrades instantiation" `Quick
      test_rte_crash_window_degrades_instantiation;
    Alcotest.test_case "rte: partition retry recovers" `Quick test_rte_partition_retry_recovers;
    Alcotest.test_case "rte: mid-run partition raises unreachable" `Quick
      test_rte_partition_mid_run_unreachable;
    Alcotest.test_case "replay: zero-fault bit identity" `Quick test_replay_zero_fault_identity;
    Alcotest.test_case "replay: full drop estimates degradation" `Quick
      test_replay_full_drop_estimates_degradation;
    Alcotest.test_case "replay: counts unreachable and continues" `Quick
      test_replay_counts_unreachable_and_continues;
    QCheck_alcotest.to_alcotest ~long:false prop_faultsim_reproducible;
    Alcotest.test_case "faultsim JSON escapes the network name" `Slow
      test_faultsim_json_escapes_network_name;
    Alcotest.test_case "cli faultsim golden output" `Slow test_faultsim_golden;
  ]
