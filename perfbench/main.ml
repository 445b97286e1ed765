(* perfbench: one benchmark for the whole Coign pipeline.

   Usage (from the repository root, after building):
     main.exe --workload suite|plan|adapt|load --seed N --seconds S --trace 0|1

   Every workload runs in one process on one domain, as a closed loop:
   each library call starts when the previous one returns. All random
   inputs (network-profile sampling, jitter, usage scales, fault
   streams, arrival draws) derive from --seed.

   --trace 0 sets the workload up three times, each time building its
   inputs and running one warm-up pass (setup_s is the median), then
   repeats timed passes for --seconds of wall-clock time and prints the
   end-to-end metrics: host times are CPU times scaled to the speed of a
   fixed reference computation timed just before each pass. --trace 1 sets up every workload and
   runs traced passes of all of them, so each per-layer metric is
   measured on the workload that exercises its layer; the layer shares
   and the tracing overhead are those of --workload. Spans are kept in
   memory and written to .bench_out/ at exit.

   Every pass checks its outputs. The last line of standard output is
   one JSON object {correct, attempted, failed, metrics}; a failed
   check makes the exit code 1. *)

open Coign_util
open Coign_core
open Coign_apps
open Coign_sim
module Net = Coign_netsim.Network
module NP = Coign_netsim.Net_profiler
module Fault = Coign_netsim.Fault
module Metrics = Coign_obs.Metrics
module Profiler = Coign_obs.Profiler

(* Host time is the process's CPU time (user + system), so a pass that
   waits for a core another process holds is not charged for the wait:
   the figures measure Coign, not the scheduler. *)
let now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let network = Net.ethernet_10
let jitter = 0.015

(* The cut is optimal for the sampled network profile, whose
   observations carry this relative noise ({!Coign_netsim.Net_profiler}'s
   default); against the true network a near-tie with the default may
   land on either side by up to that much. *)
let profile_noise = 0.02

(* ------------------------------------------------------------------ *)
(* Spans, meters, counters and checks                                  *)
(* ------------------------------------------------------------------ *)

let tracer : Spans.t option ref = ref None

let span name f = match !tracer with None -> f () | Some t -> Spans.record t name f

(* Host time and minor words spent inside the calls a workload counts
   as its operations. *)
type meter = { mutable m_secs : float; mutable m_words : float; mutable m_samples : float list }

let meter () = { m_secs = 0.; m_words = 0.; m_samples = [] }

(* Run [f] inside span [name], charging it to [m] and every meter in
   [also]. *)
let metered ?(also = []) m name f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = span name f in
  let dt = now () -. t0 and words = Gc.minor_words () -. w0 in
  List.iter
    (fun m ->
      m.m_secs <- m.m_secs +. dt;
      m.m_words <- m.m_words +. words;
      m.m_samples <- dt :: m.m_samples)
    (m :: also);
  r

(* Per-layer counters, summed over every pass of a run; the traced
   report divides them by the pass count. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let add key v =
  Hashtbl.replace counters key (v +. Option.value ~default:0. (Hashtbl.find_opt counters key))

let addi key n = add key (float_of_int n)
let counter key = Option.value ~default:0. (Hashtbl.find_opt counters key)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 8

let add_samples key xs =
  Hashtbl.replace samples key
    (List.rev_append xs (Option.value ~default:[] (Hashtbl.find_opt samples key)))

(* Operations attempted and failed, and what failed. *)
let attempted = ref 0
let failed = ref 0
let problems = ref []

let attempt ?(n = 1) ~bad what =
  attempted := !attempted + n;
  if bad > 0 then begin
    failed := !failed + bad;
    if List.length !problems < 20 then problems := what :: !problems
  end

let check ok what = attempt ~bad:(if ok then 0 else 1) what

let guard what f =
  match f () with
  | v -> Some v
  | exception e ->
      check false (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
      None

let bits = Int64.bits_of_float

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* One timed pass: host time, the operations it counts, host time and
   minor words inside them, the simulated headline (seconds), and the
   workload's own named figures. *)
type pass = {
  p_secs : float;
  p_ops : int;
  p_op_secs : float;
  p_op_words : float;
  p_sim : float;
  p_named : (string * string * float) list;  (** name, unit, value *)
}

type runner = {
  pass : unit -> pass;
  final : unit -> unit;  (** once-per-run checks after the timed passes *)
  extra : unit -> unit;
      (** configurations that exist only to split time between layers;
          traced runs only *)
}

let timed_pass body =
  Gc.full_major ();
  let t0 = now () in
  let r = span "pass" body in
  (now () -. t0, r)

(* --- suite: the paper's Section 4 pipeline on every scenario --- *)

let suite_setup seed =
  let tasks =
    Array.of_list
      (List.concat_map
         (fun (app : App.t) -> List.map (fun sc -> (app, sc)) app.App.app_scenarios)
         Suite.all)
  in
  let nets = Array.mapi (fun i _ -> NP.profile (Prng.create (Prng.stream seed i)) network) tasks in
  let pass () =
    let prof = meter () and cut = meter () and dflt = meter () and an = meter () in
    let inst = meter () in
    let profiler = Option.map (fun _ -> Profiler.create ()) !tracer in
    let comm = ref 0. and worst = ref 0. in
    let profile_calls = ref 0 and run_calls = ref 0 in
    let secs, outcomes =
      timed_pass (fun () ->
          Array.mapi
            (fun i ((app : App.t), (sc : App.scenario)) ->
              let registry = app.App.app_registry in
              guard sc.App.sc_id (fun () ->
                  let image = metered inst "image" (fun () -> Adps.instrument app.App.app_image) in
                  let image, ps =
                    metered prof "rte.profile" (fun () ->
                        Adps.profile ~image ~registry sc.App.sc_run)
                  in
                  let (image, dist), pairs =
                    metered an "analysis" (fun () ->
                        let session = Adps.analysis_session ?profiler image in
                        ( Adps.analyze_with ?profiler ~session ~image ~net:nets.(i) (),
                          Icc_graph.pair_count (Analysis.Session.graph session) ))
                  in
                  let classifier =
                    span "image" (fun () -> fst (Option.get (Adps.load_distribution image)))
                  in
                  let coign =
                    metered cut "rte.run" (fun () ->
                        Adps.execute ~image ~registry ~network ~jitter
                          ~seed:(Prng.stream seed (1000 + i)) sc.App.sc_run)
                  in
                  let default =
                    metered dflt "rte.run" (fun () ->
                        Adps.execute_with_policy ~registry
                          ~classifier:(Classifier.create (Classifier.kind classifier))
                          ~policy:(Factory.By_class app.App.app_default_placement) ~network
                          ~jitter ~seed:(Prng.stream seed (1000 + i)) sc.App.sc_run)
                  in
                  (ps, dist, pairs, coign, default)))
            tasks)
    in
    Array.iteri
      (fun i outcome ->
        let _, (sc : App.scenario) = tasks.(i) in
        match outcome with
        | None -> ()
        | Some ((ps : Adps.profile_stats), (dist : Analysis.distribution), pairs, coign, default)
          ->
            check
              (coign.Adps.es_completed && default.Adps.es_completed
              && coign.Adps.es_comm_us <= default.Adps.es_comm_us *. (1. +. profile_noise))
              (Printf.sprintf "%s: Coign cut comm %.1f us against the default's %.1f us"
                 sc.App.sc_id coign.Adps.es_comm_us default.Adps.es_comm_us);
            comm := !comm +. coign.Adps.es_comm_us;
            worst :=
              Float.max !worst
                (Float.abs
                   (Stats.ratio_error
                      ~predicted:(ps.Adps.ps_compute_us +. dist.Analysis.predicted_comm_us)
                      ~measured:coign.Adps.es_total_us));
            profile_calls := !profile_calls + ps.Adps.ps_calls;
            run_calls := !run_calls + coign.Adps.es_intercepted + default.Adps.es_intercepted;
            addi "suite.cut_calls" coign.Adps.es_intercepted;
            addi "suite.remote_calls" coign.Adps.es_remote_calls;
            addi "suite.remote_bytes" coign.Adps.es_remote_bytes;
            addi "suite.classifications" dist.Analysis.node_count;
            addi "suite.pairs" pairs)
      outcomes;
    let n = Array.length tasks in
    add "suite.passes" 1.;
    addi "suite.profile_calls" !profile_calls;
    addi "suite.run_calls" !run_calls;
    add "suite.instrument_s" inst.m_secs;
    add "suite.profile_s" prof.m_secs;
    add "suite.profile_words" prof.m_words;
    add "suite.cut_s" cut.m_secs;
    add "suite.run_words" (cut.m_words +. dflt.m_words);
    add "suite.pred_err_max" !worst;
    Option.iter
      (fun p ->
        add "suite.profiled_passes" 1.;
        List.iter
          (fun (ph : Profiler.phase) -> add ("suite.phase." ^ ph.Profiler.ph_name) ph.Profiler.ph_total_s)
          (Profiler.phases p))
      profiler;
    let calls = !profile_calls + !run_calls in
    {
      p_secs = secs;
      p_ops = calls;
      p_op_secs = prof.m_secs +. cut.m_secs +. dflt.m_secs;
      p_op_words = prof.m_words +. cut.m_words +. dflt.m_words;
      p_sim = !comm /. 1e6;
      p_named =
        [
          ("profile_us_per_call", "us", Pstats.us_per ~count:!profile_calls prof.m_secs);
          ("run_us_per_call", "us", Pstats.us_per ~count:!run_calls (cut.m_secs +. dflt.m_secs));
          ("analyze_ms", "ms", an.m_secs *. 1e3 /. float_of_int n);
          ("comm_s", "s", !comm /. 1e6);
          ("pred_err_max", "ratio", !worst);
          ("minor_words_per_call", "count",
           Pstats.per ~count:calls (prof.m_words +. cut.m_words +. dflt.m_words));
        ];
    }
  in
  (* Split configurations: the scenario with no RTE at all, and the
     distributed RTE with everything on the client over loopback. *)
  let extra () =
    let bare = meter () and allc = meter () in
    let calls = ref 0 in
    Array.iter
      (fun ((app : App.t), (sc : App.scenario)) ->
        let registry = app.App.app_registry in
        metered bare "com.bare" (fun () ->
            sc.App.sc_run (Coign_com.Runtime.create_ctx registry));
        let s =
          metered allc "rte.allclient" (fun () ->
              Adps.execute_with_policy ~registry ~classifier:(Classifier.create Classifier.Ifcb)
                ~policy:Factory.All_client ~network:Net.loopback sc.App.sc_run)
        in
        calls := !calls + s.Adps.es_intercepted)
      tasks;
    add "suite.split_runs" 1.;
    add "suite.bare_s" bare.m_secs;
    add "suite.allclient_s" allc.m_secs;
    addi "suite.allclient_calls" !calls
  in
  { pass; final = ignore; extra }

(* --- plan: analysis, fallback, verify and multiway from set-up profiles --- *)

let sweep_points = 8
let scale_count = 24
let machines = [ "client"; "middle"; "database" ]

type plan_app = {
  pa_app : App.t;
  pa_image : Coign_image.Binary_image.t;
  pa_classifier : Classifier.t;
  pa_icc : Icc.t;
  pa_scales : Icc_graph.scale array;
  pa_net : NP.t;
}

let plan_setup seed =
  let sweep =
    Array.of_list
      (Net.geometric_sweep ~points:sweep_points ~from_net:Net.isdn_128 ~to_net:Net.san_1g ())
  in
  let apps =
    Array.of_list
      (List.mapi
         (fun ai (app : App.t) ->
           let image =
             List.fold_left
               (fun image (sc : App.scenario) ->
                 fst (Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run))
               (Adps.instrument app.App.app_image)
               app.App.app_scenarios
           in
           let classifier, icc = Option.get (Adps.load_profile image) in
           let pairs = Icc_graph.pair_count (Analysis.Session.graph (Adps.analysis_session image)) in
           let rng = Prng.create (Prng.stream seed (100 + ai)) in
           let draw () = Array.init pairs (fun _ -> 0.25 +. Prng.float rng 2.) in
           let scales =
             Array.init scale_count (fun _ ->
                 let m = draw () in
                 { Icc_graph.sc_messages = m; sc_bytes = draw () })
           in
           {
             pa_app = app;
             pa_image = image;
             pa_classifier = classifier;
             pa_icc = icc;
             pa_scales = scales;
             pa_net = NP.profile (Prng.create (Prng.stream seed (200 + ai))) network;
           })
         Suite.all)
  in
  let pins (pa : plan_app) cname =
    if String.equal cname "Benefits.ValidationRules" then Some "middle"
    else
      match
        Static_analysis.class_verdict
          (Coign_image.Binary_image.class_api_refs pa.pa_app.App.app_image cname)
      with
      | Static_analysis.Pin_client -> Some "client"
      | Static_analysis.Pin_server -> Some "database"
      | Static_analysis.Free -> None
  in
  let iter = ref 0 in
  let pass () =
    let solve = meter () and fresh = meter () and memo = meter () and sample = meter () in
    let ladder = meter () and pool = meter () and model = meter () and explore = meter () in
    let multi = meter () in
    let predicted = ref 0. and solves = ref 0 in
    let secs, per_app =
      timed_pass (fun () ->
          Array.mapi
            (fun ai pa ->
              let session = span "analysis" (fun () -> Adps.analysis_session pa.pa_image) in
              let fresh_out =
                Array.mapi
                  (fun k net ->
                    let sampled =
                      metered sample "netsim" (fun () ->
                          NP.profile (Prng.create (Prng.stream seed ((1000 * ai) + k))) net)
                    in
                    let d =
                      guard "fresh solve" (fun () ->
                          metered ~also:[ solve ] fresh "analysis.solve" (fun () ->
                              Analysis.Session.solve session ~net:sampled))
                    in
                    (sampled, d))
                  sweep
              in
              let scaled_out =
                Array.map
                  (fun scale ->
                    guard "scaled solve" (fun () ->
                        metered ~also:[ solve ] memo "analysis.solve" (fun () ->
                            Analysis.Session.solve ~scale session ~net:pa.pa_net)))
                  pa.pa_scales
              in
              let plans =
                guard "plans" (fun () ->
                    let l =
                      metered ladder "fallback" (fun () ->
                          Adps.fallback_ladder ~image:pa.pa_image ~net:pa.pa_net ())
                    in
                    let p2 =
                      metered pool "fallback" (fun () ->
                          Adps.pool_fallback_ladder ~hosts:2 ~image:pa.pa_image ~net:pa.pa_net ())
                    in
                    let p3 =
                      metered pool "fallback" (fun () ->
                          Adps.pool_fallback_ladder ~hosts:3 ~image:pa.pa_image ~net:pa.pa_net ())
                    in
                    let m =
                      metered model "verify" (fun () ->
                          Coign_verify.Model.build ~classifier:pa.pa_classifier ~icc:pa.pa_icc
                            ~ladder:l ~truth:(Fallback.migration_safety session) ())
                    in
                    let r = metered explore "verify" (fun () -> Coign_verify.Explore.run m) in
                    let mw =
                      metered multi "multiway" (fun () ->
                          Multiway_analysis.choose ~classifier:pa.pa_classifier ~icc:pa.pa_icc
                            ~machines ~pins:(pins pa) ~net:pa.pa_net ())
                    in
                    (l, p2, p3, r, mw))
              in
              (session, fresh_out, scaled_out, plans))
            apps)
    in
    (* Checks, outside the timed pass: every solve validates, one
       sampled fresh solve per app matches a from-scratch choose, the
       ladders are well formed, exploration is exhaustive and clean,
       and the three-way cut places every classification. *)
    Array.iteri
      (fun ai (session, fresh_out, scaled_out, plans) ->
        let pa = apps.(ai) in
        let classifier = Analysis.Session.classifier session in
        let constraints = Analysis.Session.constraints session in
        let valid what = function
          | None -> ()
          | Some (d : Analysis.distribution) ->
              incr solves;
              predicted := !predicted +. d.Analysis.predicted_comm_us;
              check (Analysis.validate ~classifier ~constraints d = []) (what ^ " failed validation")
        in
        Array.iter (fun (_, d) -> valid "fresh solve" d) fresh_out;
        Array.iter (valid "scaled solve") scaled_out;
        let k = (!iter + ai) mod sweep_points in
        (match fresh_out.(k) with
        | net, Some d ->
            let again = Analysis.choose ~classifier ~icc:pa.pa_icc ~constraints ~net () in
            check
              (String.equal (Analysis.encode again) (Analysis.encode d))
              (pa.pa_app.App.app_name ^ ": session solve differs from a fresh choose")
        | _, None -> ());
        match plans with
        | None -> ()
        | Some (l, p2, p3, r, mw) ->
            let stats = r.Coign_verify.Explore.r_stats in
            check (Fallback.rung_count l >= 1) "empty fallback ladder";
            check (Fallback.pool_rung_count p2 >= Fallback.rung_count l) "short pool-2 ladder";
            check (Fallback.pool_rung_count p3 > Fallback.pool_rung_count p2) "short pool-3 ladder";
            check
              (stats.Coign_verify.Explore.sr_complete && r.Coign_verify.Explore.r_violations = [])
              (pa.pa_app.App.app_name ^ ": exploration incomplete or found violations");
            check
              (Array.length mw.Multiway_analysis.assignment
              = Classifier.classification_count pa.pa_classifier)
              "multiway cut misses classifications";
            addi "plan.states" stats.Coign_verify.Explore.sr_states;
            addi "plan.transitions" stats.Coign_verify.Explore.sr_transitions;
            addi "plan.dedup_hits" stats.Coign_verify.Explore.sr_dedup_hits)
      per_app;
    incr iter;
    add "plan.passes" 1.;
    add "plan.netsim_s" sample.m_secs;
    addi "plan.netsim_n" (List.length sample.m_samples);
    add_samples "plan.fresh" fresh.m_samples;
    add_samples "plan.memo" memo.m_samples;
    add_samples "plan.solve" solve.m_samples;
    add "plan.ladder_s" ladder.m_secs;
    add "plan.pool_s" pool.m_secs;
    add "plan.model_s" model.m_secs;
    add "plan.explore_s" explore.m_secs;
    add "plan.multiway_s" multi.m_secs;
    let solve_us = Array.of_list (List.map (fun s -> s *. 1e6) solve.m_samples) in
    {
      p_secs = secs;
      p_ops = !solves;
      p_op_secs = solve.m_secs;
      p_op_words = solve.m_words;
      p_sim = !predicted /. 1e6;
      p_named =
        [
          ("solve_us", "us", Pstats.median solve_us);
          ("solve_p99_us", "us", Pstats.percentile solve_us 99.);
          ("ladder_ms", "ms", (ladder.m_secs +. pool.m_secs +. model.m_secs +. explore.m_secs) *. 1e3);
          ("multiway_ms", "ms", multi.m_secs *. 1e3);
          ("predicted_comm_s", "s", !predicted /. 1e6);
        ];
    }
  in
  { pass; final = ignore; extra = ignore }

(* --- adapt: resilience, fleet and watch routing in the RTE --- *)

type regime = Clean | Crash | Partition

let regime_name = function Clean -> "clean" | Crash -> "crash" | Partition -> "partition"
let regimes = [ Clean; Crash; Partition ]
let pools = [ 1; 2; 3 ]

let window =
  { Fault.zero with Fault.fs_partitions_us = [ Coign_sim.Fleetsim.default_fault_window_us ] }

type adapt_case = {
  ac_app : App.t;
  ac_sc : App.scenario;
  ac_image : Coign_image.Binary_image.t;  (** distributed mode *)
  ac_session : Analysis.Session.t;
  ac_net : NP.t;
  ac_resilience : Rte.resilience_config;
  ac_fleets : ((int * regime) * Rte.fleet_config) list;
  ac_quiet : Rte.watch_config;
  ac_seed : int64;
  ac_calls : int;  (** intercepted calls of the clean retry-only run *)
}

let adapt_setup seed =
  let cases =
    List.mapi
      (fun ci (app_name, sc_id) ->
        let app = Suite.find_app app_name in
        let sc = App.scenario app sc_id in
        let registry = app.App.app_registry in
        let image, _ =
          Adps.profile ~image:(Adps.instrument app.App.app_image) ~registry sc.App.sc_run
        in
        let net = NP.exact network in
        let session = Adps.analysis_session image in
        let image, primary = Adps.analyze_with ~session ~image ~net () in
        let base = Fallback.compute ~primary session ~net () in
        let fleets =
          List.concat_map
            (fun k ->
              let ladder = Fallback.pool_ladder ~hosts:k session ~net base in
              List.map
                (fun r ->
                  let host_faults = if r = Crash && k > 1 then [ (0, window) ] else [] in
                  ((k, r), Rte.fleet ~host_faults ladder))
                regimes)
            pools
        in
        let ac_seed = Prng.stream seed (300 + ci) in
        let clean = Adps.execute ~image ~registry ~network ~jitter ~seed:ac_seed sc.App.sc_run in
        {
          ac_app = app;
          ac_sc = sc;
          ac_image = image;
          ac_session = session;
          ac_net = net;
          ac_resilience = Rte.resilience base;
          ac_fleets = fleets;
          ac_quiet = Rte.watch ~threshold:0. ~net (Analysis.Session.copy session);
          ac_seed;
          ac_calls = clean.Adps.es_intercepted;
        })
      [ ("octarine", "o_oldwp0"); ("photodraw", "p_oldmsr"); ("benefits", "b_vueone") ]
  in
  let octarine = List.hd cases in
  let drift_schedule = [ "o_oldwp0"; "o_oldwp7"; "o_oldwp7"; "o_oldwp7" ] in
  (* The wp0 -> wp7 shift under a live watch (the watch experiment's
     defaults), installed directly so the tap counts are readable. *)
  let drift metrics =
    let c = octarine in
    let classifier, dist = Option.get (Adps.load_distribution c.ac_image) in
    let ctx = Coign_com.Runtime.create_ctx c.ac_app.App.app_registry in
    let wc =
      Rte.watch ~threshold:0.90 ~check_every:64 ~min_dwell_us:750_000. ~min_window:16.
        ~half_life_us:750_000. ~sample_every:4 ~tap:Coign_obs.Tap.null_sink ~net:c.ac_net
        (Analysis.Session.copy c.ac_session)
    in
    let rte =
      Rte.install_distributed ~metrics ~classifier
        ~config:
          {
            Rte.dc_factory_policy = Factory.By_classification dist;
            dc_network = network;
            dc_jitter = jitter;
            dc_seed = c.ac_seed;
            dc_faults = None;
            dc_retry = Fault.default_retry;
            dc_resilience = None;
            dc_fleet = None;
            dc_watch = Some wc;
          }
        ctx
    in
    List.iter (fun id -> (App.scenario c.ac_app id).App.sc_run ctx) drift_schedule;
    Rte.uninstall rte;
    (Rte.stats rte, Rte.watch_tap_counts rte)
  in
  let exec ?metrics ?faults ?resilience ?watch c =
    Adps.execute ?metrics ~image:c.ac_image ~registry:c.ac_app.App.app_registry ~network ~jitter
      ~seed:c.ac_seed ?faults ?resilience ?watch c.ac_sc.App.sc_run
  in
  let faults_of = function Clean -> None | Crash | Partition -> Some window in
  let pass () =
    let runs = meter () and watch = meter () and quiet = meter () in
    let quiet_calls = ref 0 in
    let per_mode = Hashtbl.create 16 in
    let mode_meter key =
      match Hashtbl.find_opt per_mode key with
      | Some m -> m
      | None ->
          let m = meter () in
          Hashtbl.replace per_mode key m;
          m
    in
    let calls = Hashtbl.create 16 in
    let count key n =
      Hashtbl.replace calls key (n + Option.value ~default:0 (Hashtbl.find_opt calls key))
    in
    let registry = Metrics.registry () in
    let fleet_comm = ref 0. in
    let clean_runs = ref [] and identities = ref [] and stats = ref [] and fleet_stats = ref [] in
    let secs, drift_out =
      timed_pass (fun () ->
          List.iter
            (fun c ->
              let retry_clean = ref None in
              List.iter
                (fun r ->
                  let faults = faults_of r in
                  let mode name layer f =
                    let m = mode_meter (name ^ "." ^ regime_name r) in
                    let s = metered ~also:[ m ] runs layer f in
                    count (name ^ "." ^ regime_name r) s.Adps.es_intercepted;
                    s
                  in
                  let retry = mode "retry" "rte.retry" (fun () -> exec ~metrics:registry ?faults c) in
                  let resil =
                    mode "resil" "rte.resil" (fun () ->
                        exec ~metrics:registry ?faults ~resilience:c.ac_resilience c)
                  in
                  stats := resil :: !stats;
                  if r = Clean then begin
                    retry_clean := Some retry;
                    clean_runs := (c, retry) :: (c, resil) :: !clean_runs
                  end;
                  List.iter
                    (fun k ->
                      let fleet = List.assoc (k, r) c.ac_fleets in
                      let fleet_faults = if r = Crash && k > 1 then None else faults in
                      let m = mode_meter (Printf.sprintf "fleet%d" k) in
                      let s, fs =
                        metered ~also:[ m ] runs "rte.fleet" (fun () ->
                            Adps.execute_fleet ~metrics:registry ~image:c.ac_image
                              ~registry:c.ac_app.App.app_registry ~network ~jitter
                              ~seed:c.ac_seed ?faults:fleet_faults ~fleet c.ac_sc.App.sc_run)
                      in
                      count (Printf.sprintf "fleet%d" k) s.Adps.es_intercepted;
                      if k = 1 then
                        identities :=
                          ( s = resil,
                            Printf.sprintf "%s %s: pool-1 fleet differs from resilience"
                              c.ac_sc.App.sc_id (regime_name r) )
                          :: !identities
                      else begin
                        fleet_stats := (s, fs) :: !fleet_stats;
                        if r = Clean then begin
                          fleet_comm := !fleet_comm +. s.Adps.es_comm_us;
                          clean_runs := (c, s) :: !clean_runs
                        end
                      end)
                    pools)
                regimes;
              let q =
                metered ~also:[ quiet ] watch "rte.watch" (fun () ->
                    exec ~metrics:registry ~watch:c.ac_quiet c)
              in
              count "watch" q.Adps.es_intercepted;
              quiet_calls := !quiet_calls + q.Adps.es_intercepted;
              clean_runs := (c, q) :: !clean_runs;
              let unwatched = Option.get !retry_clean in
              identities :=
                ( bits q.Adps.es_comm_us = bits unwatched.Adps.es_comm_us,
                  c.ac_sc.App.sc_id ^ ": quiet watch moved comm" )
                :: !identities)
            cases;
          let st, taps = metered watch "rte.watch" (fun () -> drift registry) in
          count "watch" st.Rte.st_intercepted;
          (st, taps))
    in
    let st, taps = drift_out in
    (* Each clean run is attempted call by call: a call fails when it
       is abandoned or never reached. *)
    List.iter
      (fun (c, (s : Adps.exec_stats)) ->
        attempt ~n:c.ac_calls
          ~bad:(min c.ac_calls (s.Adps.es_unreachable + max 0 (c.ac_calls - s.Adps.es_intercepted)))
          (c.ac_sc.App.sc_id ^ ": clean run lost calls"))
      !clean_runs;
    List.iter (fun (ok, what) -> check ok what) !identities;
    check
      (st.Rte.st_drift_detections >= 1 && st.Rte.st_repartitions >= 1)
      "octarine wp0 -> wp7 drift was not detected and re-cut";
    let total_calls = Hashtbl.fold (fun _ n acc -> acc + n) calls 0 in
    let watch_calls = Option.value ~default:0 (Hashtbl.find_opt calls "watch") in
    add "adapt.passes" 1.;
    Hashtbl.iter
      (fun key (m : meter) ->
        add ("adapt.s." ^ key) m.m_secs;
        addi ("adapt.calls." ^ key) (Option.value ~default:0 (Hashtbl.find_opt calls key)))
      per_mode;
    List.iter
      (fun (s : Adps.exec_stats) ->
        addi "adapt.retries" s.Adps.es_retries;
        addi "adapt.attempts" (s.Adps.es_remote_calls + s.Adps.es_retries);
        addi "adapt.failovers" s.Adps.es_failovers;
        addi "adapt.rescued" s.Adps.es_rescued_calls;
        addi "adapt.stranded" s.Adps.es_stranded_calls)
      !stats;
    List.iter
      (fun ((s : Adps.exec_stats), (fs : Rte.fleet_stats)) ->
        addi "adapt.promotions" fs.Rte.fs_promotions;
        addi "adapt.splits" fs.Rte.fs_splits;
        addi "adapt.inter_host" fs.Rte.fs_inter_host_calls;
        addi "adapt.fleet_remote" s.Adps.es_remote_calls)
      !fleet_stats;
    add "adapt.quiet_s" quiet.m_secs;
    addi "adapt.quiet_calls" !quiet_calls;
    addi "adapt.checks" st.Rte.st_drift_checks;
    addi "adapt.detections" st.Rte.st_drift_detections;
    addi "adapt.repartitions" st.Rte.st_repartitions;
    (match taps with
    | Some (offered, sampled) ->
        addi "adapt.tap_offered" offered;
        addi "adapt.tap_sampled" sampled
    | None -> ());
    let op_secs = runs.m_secs +. watch.m_secs in
    {
      p_secs = secs;
      p_ops = total_calls;
      p_op_secs = op_secs;
      p_op_words = runs.m_words +. watch.m_words;
      p_sim = !fleet_comm /. 1e6;
      p_named =
        [
          ("adapt_us_per_call", "us", Pstats.us_per ~count:(total_calls - watch_calls) runs.m_secs);
          ("watch_us_per_call", "us", Pstats.us_per ~count:watch_calls watch.m_secs);
          ("fleet_comm_s", "s", !fleet_comm /. 1e6);
        ];
    }
  in
  (* A deployed runtime exports metrics; without the registry the
     virtual clock must not move a bit. *)
  let detached () =
    let on = meter () and off = meter () in
    List.iter
      (fun c ->
        let attached = metered on "rte.retry" (fun () -> exec ~metrics:(Metrics.registry ()) c) in
        let detached = metered off "rte.retry" (fun () -> exec c) in
        check
          (bits detached.Adps.es_comm_us = bits attached.Adps.es_comm_us)
          (c.ac_sc.App.sc_id ^ ": metrics registry moved comm");
        addi "adapt.split_calls" detached.Adps.es_intercepted)
      cases;
    add "adapt.attached_s" on.m_secs;
    add "adapt.detached_s" off.m_secs
  in
  { pass; final = detached; extra = detached }

(* --- load: open-loop Poisson sessions through Loadsim --- *)

let load_sessions = 1_000_000

type mix = {
  mx_app : App.t;
  mx_scenarios : string list;
  mx_rate : float;
  mx_deadline_us : float;
  mx_image : Coign_image.Binary_image.t;
  mx_seed : int64;
}

let load_setup seed =
  let mixes =
    List.mapi
      (fun mi (name, scenarios, rate, deadline_us) ->
        let app = Suite.find_app name in
        let image =
          List.fold_left
            (fun image id ->
              fst
                (Adps.profile ~image ~registry:app.App.app_registry
                   (App.scenario app id).App.sc_run))
            (Adps.instrument app.App.app_image) scenarios
        in
        let net = NP.profile (Prng.create (Prng.stream seed (400 + mi))) network in
        {
          mx_app = app;
          mx_scenarios = scenarios;
          mx_rate = rate;
          mx_deadline_us = deadline_us;
          mx_image = fst (Adps.analyze ~image ~net ());
          mx_seed = Prng.stream seed (500 + mi);
        })
      [
        ("octarine", [ "o_oldwp0"; "o_oldtb0" ], 2.0, 600e6);
        ("ingest", [ "i_strm1"; "i_replay" ], 15.0, 60e6);
      ]
  in
  let run ?queueing ?(sessions = load_sessions) ?scenarios mx =
    Loadsim.run ?queueing ~deadline_us:mx.mx_deadline_us
      ~scenarios:(Option.value ~default:mx.mx_scenarios scenarios)
      ~sessions ~arrival:(Loadsim.Poisson mx.mx_rate) ~seed:mx.mx_seed ~image:mx.mx_image
      ~network ()
  in
  let pass () =
    let m = meter () in
    let secs, results =
      timed_pass (fun () -> List.map (fun mx -> (mx, metered m "loadsim" (fun () -> run mx))) mixes)
    in
    let sessions = ref 0 and ops = ref 0 in
    List.iter
      (fun (mx, (r : Loadsim.result)) ->
        let missed =
          r.Loadsim.r_sessions
          - int_of_float (Float.round (r.Loadsim.r_availability *. float_of_int r.Loadsim.r_sessions))
        in
        attempt ~n:r.Loadsim.r_sessions ~bad:missed
          (mx.mx_app.App.app_name ^ ": sessions missed the deadline");
        sessions := !sessions + r.Loadsim.r_sessions;
        ops := !ops + r.Loadsim.r_total_ops;
        let unloaded =
          List.fold_left
            (fun acc c -> acc +. (float_of_int c.Loadsim.cs_sessions *. c.Loadsim.cs_comm_us))
            0. r.Loadsim.r_classes
          /. float_of_int r.Loadsim.r_sessions
        in
        add "load.link_util" r.Loadsim.r_link_util;
        add "load.queue_wait_us" (r.Loadsim.r_mean_us -. unloaded))
      results;
    let p99 = (snd (List.hd results)).Loadsim.r_p99_us in
    add "load.passes" 1.;
    add "load.run_s" m.m_secs;
    add "load.run_words" m.m_words;
    addi "load.sessions" !sessions;
    {
      p_secs = secs;
      p_ops = !sessions;
      p_op_secs = m.m_secs;
      p_op_words = m.m_words;
      p_sim = p99 /. 1e6;
      p_named =
        [
          ("load_sessions_per_s", "1/s", float_of_int !sessions /. m.m_secs);
          ("sim_p99_ms", "ms", p99 /. 1e3);
          ("simulated_ops", "count", float_of_int !ops);
        ];
    }
  in
  (* A single session without queueing is the Replay estimate, bit for
     bit: the load layer queues on the same cost model. *)
  let final () =
    List.iter
      (fun mx ->
        let classifier, dist = Option.get (Adps.load_distribution mx.mx_image) in
        List.iter
          (fun id ->
            let events =
              Replay.record_scenario ~registry:mx.mx_app.App.app_registry ~classifier
                (App.scenario mx.mx_app id).App.sc_run
            in
            let est = Replay.what_if ~events ~distribution:dist ~network () in
            let r = run ~queueing:false ~sessions:1 ~scenarios:[ id ] mx in
            check
              (bits r.Loadsim.r_p50_us = bits est.Replay.re_comm_us)
              (id ^ ": single-session Loadsim differs from Replay.what_if"))
          mx.mx_scenarios)
      mixes
  in
  (* The layers inside one Loadsim.run, called one by one. *)
  let extra () =
    let record = meter () and compile = meter () and gen = meter () and sim = meter () in
    let ops = ref 0 in
    List.iter
      (fun mx ->
        let classifier, dist = Option.get (Adps.load_distribution mx.mx_image) in
        let classes =
          Array.of_list
            (List.map
               (fun id ->
                 let events =
                   metered record "replay" (fun () ->
                       Replay.record_scenario ~registry:mx.mx_app.App.app_registry ~classifier
                         (App.scenario mx.mx_app id).App.sc_run)
                 in
                 metered compile "loadsim.compile" (fun () ->
                     Loadsim.class_of_ops ~network ~scenario:id
                       (Loadsim.ops_of_events ~placement:(Analysis.location_of dist) events)))
               mx.mx_scenarios)
        in
        let arrivals, class_of =
          metered gen "loadsim.gen" (fun () ->
              Loadsim.gen_arrivals ~seed:mx.mx_seed ~sessions:load_sessions
                ~classes:(Array.length classes) (Loadsim.Poisson mx.mx_rate))
        in
        let totals =
          metered sim "loadsim.simulate" (fun () -> Loadsim.simulate ~classes ~arrivals ~class_of ())
        in
        ops := !ops + totals.Loadsim.st_ops)
      mixes;
    add "load.split_runs" 1.;
    add "load.record_s" record.m_secs;
    add "load.compile_s" compile.m_secs;
    add "load.gen_s" gen.m_secs;
    add "load.simulate_s" sim.m_secs;
    addi "load.simulate_ops" !ops
  in
  { pass; final; extra }

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "perfbench: a metric is not a finite number"

let print_result metrics =
  let correct = !failed = 0 in
  List.iter (fun p -> Printf.printf "FAILED CHECK: %s\n" p) (List.rev !problems);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
          metrics));
  if not correct then exit 1

(* Host time depends on how fast the shared machine runs at that moment:
   the same pass can take 40% longer for seconds at a time. Before and
   after every pass and set-up the benchmark times a fixed computation
   of its own, which never changes with the library, and reports host
   times scaled to that computation's speed at rest. [Compute] (hashing, allocation,
   sorting, list traversal) tracks the RTE and analysis workloads;
   [Mixed] adds a strided walk over 16 MB that misses the cache, for the
   simulator, which streams large arrays. The pair was chosen by how
   well it cancels the machine's drift in repeated runs (see
   steady.py). *)
type reference = Compute | Mixed

let reference_compute () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 50_000 do
    Hashtbl.replace h (i land 16383) (i, string_of_int i);
    acc := !acc + Hashtbl.hash (i * 7919)
  done;
  let a = Array.init 25_000 (fun i -> i * 7919 mod 25_013) in
  Array.sort compare a;
  let l = List.init 25_000 float_of_int in
  ignore (Sys.opaque_identity (List.fold_left ( +. ) 0. (List.rev_map sqrt l)));
  !acc + a.(0)

let reference_memory = lazy (Array.init (2 * 1024 * 1024) (fun i -> i))

let reference_walk () =
  let m = Lazy.force reference_memory in
  let n = Array.length m in
  let acc = ref 0 and j = ref 0 in
  for _ = 1 to 1_500_000 do
    acc := !acc + m.(!j);
    j := (!j + 4099) land (n - 1)
  done;
  !acc

(* The reference's CPU time; each part takes about 15 ms on a 2-core
   VM at rest (OCaml 5.1). *)
let reference_s kind =
  let t0 = now () in
  ignore (Sys.opaque_identity (reference_compute ()));
  let compute = now () -. t0 in
  match kind with
  | Compute -> compute
  | Mixed ->
      let t1 = now () in
      ignore (Sys.opaque_identity (reference_walk ()));
      (* The simulator slows down with either part, so it is scaled by
         their geometric mean. *)
      Float.sqrt (compute *. (now () -. t1))

let reference_nominal_s = 0.015

(* [secs] measured between two reference runs that took [before] and
   [after], expressed at the reference's speed at rest. Averaging the
   two follows a machine that changed speed during the measurement. *)
let at_reference_speed ~before ~after secs =
  secs *. reference_nominal_s /. ((before +. after) /. 2.)

(* Timed passes for [seconds] of wall-clock time (whatever share of it
   the process gets), each paired with the references around it. *)
let run_passes ~seconds ~reference runner =
  let t0 = Unix.gettimeofday () in
  let rec loop acc before =
    let p = runner.pass () in
    let after = reference_s reference in
    let acc = (p, before, after) :: acc in
    if Unix.gettimeofday () -. t0 >= seconds && List.length acc >= 3 then List.rev acc
    else loop acc after
  in
  loop [] (reference_s reference)

let end_to_end ~name ~setup ~reference ~seed ~seconds =
  let setups =
    List.init 3 (fun _ ->
        Gc.full_major ();
        let before = reference_s reference in
        let t0 = now () in
        let r = setup seed in
        ignore (r.pass ());
        let secs = now () -. t0 in
        (at_reference_speed ~before ~after:(reference_s reference) secs, r))
  in
  let setup_s = Pstats.median (Array.of_list (List.map fst setups)) in
  let runner = snd (List.nth setups 2) in
  let timed = run_passes ~seconds ~reference runner in
  let passes = List.map (fun (p, _, _) -> p) timed in
  runner.final ();
  (* The simulated headline is a pure function of the seed. *)
  let sims = List.map (fun p -> bits p.p_sim) passes in
  check (List.for_all (( = ) (List.hd sims)) sims) "simulated results differ between passes";
  let med f = Pstats.median (Array.of_list (List.map f passes)) in
  let scaled f =
    Pstats.median
      (Array.of_list
         (List.map (fun (p, before, after) -> at_reference_speed ~before ~after (f p)) timed))
  in
  Printf.printf "workload %s: seed %Ld, %d passes, %d ops per pass\n" name seed
    (List.length passes) (List.hd passes).p_ops;
  List.iter
    (fun (metric, unit, _) ->
      Printf.printf "  %-22s %14.6g %s\n" metric
        (med (fun p ->
             let _, _, v = List.find (fun (m, _, _) -> m = metric) p.p_named in
             v))
        unit)
    (List.hd passes).p_named;
  Printf.printf "  %-22s %14.6g ms\n" "reference_ms"
    (1e3 *. Pstats.median (Array.of_list (List.map (fun (_, before, _) -> before) timed)));
  Printf.printf "  %-22s %14.6g ratio\n" "fail_frac"
    (Pstats.fail_frac ~failed:!failed ~attempted:(max 1 !attempted));
  print_result
    [
      ("setup_s", "s", setup_s);
      ("pass_ms", "ms", scaled (fun p -> p.p_secs *. 1e3));
      ("op_us", "us", scaled (fun p -> Pstats.us_per ~count:p.p_ops p.p_op_secs));
      ("minor_words_per_op", "count", med (fun p -> Pstats.per ~count:p.p_ops p.p_op_words));
      ("sim_cost_s", "s", med (fun p -> p.p_sim));
    ]

let workloads =
  [
    ("suite", (suite_setup, Compute)); ("plan", (plan_setup, Compute));
    ("adapt", (adapt_setup, Compute)); ("load", (load_setup, Mixed));
  ]

let layer_names =
  [
    "image"; "rte.profile"; "analysis"; "analysis.solve"; "netsim"; "rte.run"; "fallback";
    "verify"; "multiway"; "rte.retry"; "rte.resil"; "rte.fleet"; "rte.watch"; "loadsim";
  ]

let write_spans name seed traced =
  let dir = ".bench_out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s-%Ld.tsv" name seed) in
  let oc = open_out path in
  output_string oc "workload\tid\tname\tparent\titer\tstart\tstop\n";
  List.iter
    (fun (w, t) ->
      List.iter
        (fun (s : Spans.span) ->
          Printf.fprintf oc "%s\t%d\t%s\t%d\t%d\t%.6f\t%.6f\n" w s.Spans.sp_id s.Spans.sp_name
            s.Spans.sp_parent s.Spans.sp_iter s.Spans.sp_start s.Spans.sp_stop)
        (Spans.spans t))
    traced;
  close_out oc

let traced_run ~name ~seed ~seconds =
  let runners = List.map (fun (w, (setup, _)) -> (w, setup seed)) workloads in
  let traced = List.map (fun (w, _) -> (w, Spans.create ~clock:now ())) workloads in
  let plain = ref [] and with_spans = ref [] in
  let t0 = Unix.gettimeofday () in
  let round = ref 0 in
  while !round = 0 || Unix.gettimeofday () -. t0 < seconds do
    List.iter
      (fun (w, runner) ->
        let t = List.assoc w traced in
        let traced_pass () =
          Spans.set_iter t !round;
          tracer := Some t;
          let p = Fun.protect ~finally:(fun () -> tracer := None) runner.pass in
          if w = name then with_spans := p.p_secs :: !with_spans
        in
        let plain_pass () = if w = name then plain := (runner.pass ()).p_secs :: !plain in
        (* Alternate which goes first, so warm-up favours neither. *)
        if !round mod 2 = 0 then (plain_pass (); traced_pass ())
        else (traced_pass (); plain_pass ());
        runner.extra ())
      runners;
    incr round
  done;
  List.iter (fun (_, runner) -> runner.final ()) runners;
  write_spans name seed traced;
  let self = Spans.self_by_name (Spans.spans (List.assoc name traced)) in
  let pass_total = List.fold_left ( +. ) 0. !with_spans in
  let share n = Option.value ~default:0. (List.assoc_opt n self) /. pass_total in
  let c = counter in
  (* Counters summed over passes (or split runs) read per pass. *)
  let per_n n key = c key /. Float.max 1. (c n) in
  let per key = per_n (String.sub key 0 (String.index key '.') ^ ".passes") key in
  let bare = Pstats.us_per ~count:(int_of_float (c "suite.allclient_calls")) (c "suite.bare_s") in
  let per_call s n = Pstats.us_per ~count:(int_of_float (c n)) (c s) in
  let ratio a b = if c b = 0. then 0. else c a /. c b in
  (* Profiler phases, recorded on traced suite passes only. *)
  let phase_ms p = 1e3 *. per_n "suite.profiled_passes" ("suite.phase." ^ p) in
  let scenarios = List.length (List.concat_map (fun (a : App.t) -> a.App.app_scenarios) Suite.all) in
  let phase_us p = phase_ms p *. 1e3 /. float_of_int scenarios in
  let split key = 1e3 *. per_n "load.split_runs" key in
  let pct key p =
    match Hashtbl.find_opt samples key with
    | Some xs -> Pstats.percentile (Array.of_list (List.map (fun s -> s *. 1e6) xs)) p
    | None -> 0.
  in
  let adapt_call mode = per_call ("adapt.s." ^ mode) ("adapt.calls." ^ mode) in
  let metrics =
    List.map (fun n -> ("share." ^ n, "ratio", share n)) layer_names
    @ [
        ("share.unattributed", "ratio", share "pass");
        ( "trace.overhead_frac", "ratio",
          Pstats.median (Array.of_list !with_spans) /. Pstats.median (Array.of_list !plain) -. 1. );
        ("com.bare_us_per_call", "us", bare);
        ("image.instrument_ms", "ms", 1e3 *. per "suite.instrument_s");
        ("image.load_profile_ms", "ms", phase_ms "profile_load");
        ("rte.profile_self_us_per_call", "us", per_call "suite.profile_s" "suite.profile_calls" -. bare);
        ("rte.profile_minor_words_per_call", "count", ratio "suite.profile_words" "suite.profile_calls");
        ("rte.allclient_self_us_per_call", "us", per_call "suite.allclient_s" "suite.allclient_calls" -. bare);
        ("rte.cut_self_us_per_call", "us", per_call "suite.cut_s" "suite.cut_calls" -. bare);
        ("rte.run_minor_words_per_call", "count", ratio "suite.run_words" "suite.run_calls");
        ("rte.remote_calls", "count", per "suite.remote_calls");
        ("rte.remote_bytes", "count", per "suite.remote_bytes");
        ("analysis.session_ms", "ms", phase_ms "icc_graph_build");
        ("analysis.classifications", "count", per "suite.classifications");
        ("analysis.pairs", "count", per "suite.pairs");
        ("analysis.pricing_us", "us", phase_us "pricing");
        ("flowgraph.cut_us", "us", phase_us "cut");
        ("analysis.validate_us", "us", phase_us "validation");
        ("analysis.pred_err_max", "ratio", per "suite.pred_err_max");
        ("netsim.profile_us", "us", per_call "plan.netsim_s" "plan.netsim_n");
        ("netsim.fresh_solve_us", "us", pct "plan.fresh" 50.);
        ("netsim.memo_solve_us", "us", pct "plan.memo" 50.);
        ("plan.solve_p50_us", "us", pct "plan.solve" 50.);
        ("plan.solve_p99_us", "us", pct "plan.solve" 99.);
        ("fallback.ladder_ms", "ms", 1e3 *. per "plan.ladder_s");
        ("fallback.pool_ladder_ms", "ms", 1e3 *. per "plan.pool_s");
        ("verify.model_ms", "ms", 1e3 *. per "plan.model_s");
        ("verify.explore_ms", "ms", 1e3 *. per "plan.explore_s");
        ("verify.states", "count", per "plan.states");
        ("verify.dedup_ratio", "ratio", ratio "plan.dedup_hits" "plan.transitions");
        ("multiway.choose_ms", "ms", 1e3 *. per "plan.multiway_s");
      ]
    @ List.concat_map
        (fun r ->
          let r = regime_name r in
          [
            ("rte.retry_us_per_call." ^ r, "us", adapt_call ("retry." ^ r));
            ("rte.resil_us_per_call." ^ r, "us", adapt_call ("resil." ^ r));
          ])
        regimes
    @ [
        ("resil.retries_per_attempt", "ratio", ratio "adapt.retries" "adapt.attempts");
        ("resil.failovers", "count", per "adapt.failovers");
        ("resil.rescued_per_stranded", "ratio", ratio "adapt.rescued" "adapt.stranded");
        ("rte.fleet2_us_per_call", "us", adapt_call "fleet2");
        ("rte.fleet3_us_per_call", "us", adapt_call "fleet3");
        ("fleet.promotions", "count", per "adapt.promotions");
        ("fleet.splits", "count", per "adapt.splits");
        ("fleet.inter_host_per_remote", "ratio", ratio "adapt.inter_host" "adapt.fleet_remote");
        ( "rte.watch_quiet_self_us_per_call", "us",
          per_call "adapt.quiet_s" "adapt.quiet_calls" -. adapt_call "retry.clean" );
        ("watch.checks", "count", per "adapt.checks");
        ("watch.recuts_per_detection", "ratio", ratio "adapt.repartitions" "adapt.detections");
        ("watch.tap_sampled_per_offered", "ratio", ratio "adapt.tap_sampled" "adapt.tap_offered");
        ( "obs.metrics_self_us_per_call", "us",
          per_call "adapt.attached_s" "adapt.split_calls"
          -. per_call "adapt.detached_s" "adapt.split_calls" );
        ("replay.record_ms", "ms", split "load.record_s");
        ("loadsim.compile_ms", "ms", split "load.compile_s");
        ("loadsim.gen_arrivals_ms", "ms", split "load.gen_s");
        ("loadsim.simulate_ns_per_op", "ns", 1e9 *. ratio "load.simulate_s" "load.simulate_ops");
        ("loadsim.minor_words_per_session", "count", ratio "load.run_words" "load.sessions");
        ("loadsim.link_util", "ratio", per "load.link_util" /. 2.);
        ("loadsim.mean_queue_wait_ms", "ms", per "load.queue_wait_us" /. 2e3);
      ]
  in
  Printf.printf "traced run: %d rounds; spans written to .bench_out/\n" !round;
  print_result metrics

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload suite|plan|adapt|load --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := Int64.of_string_opt v;
        if !seed = None then usage ();
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Float.of_string_opt v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace when seconds > 0. -> (
      match List.assoc_opt name workloads with
      | None -> usage ()
      | Some (setup, reference) ->
          if trace then traced_run ~name ~seed ~seconds
          else end_to_end ~name ~setup ~reference ~seed ~seconds)
  | _ -> usage ()
