open Coign_util
module Metrics = Coign_obs.Metrics
module Tap = Coign_obs.Tap

type config = {
  wc_session : Analysis.Session.t;
  wc_net : Coign_netsim.Net_profiler.t;
  wc_threshold : float;
  wc_check_every : int;
  wc_min_dwell_us : float;
  wc_min_window : float;
  wc_half_life_us : float;
  wc_sample_every : int;
  wc_tap : Tap.sink option;
}

let config ?(threshold = 0.90) ?(check_every = 256) ?(min_dwell_us = 50_000.)
    ?(min_window = 32.) ?(half_life_us = 200_000.) ?(sample_every = 16) ?tap ~net session =
  if not (threshold >= 0. && threshold <= 1.) then
    invalid_arg "Rte.watch: threshold must be in [0, 1]";
  if check_every < 1 then invalid_arg "Rte.watch: check_every must be >= 1";
  if not (Float.is_finite min_dwell_us && min_dwell_us >= 0.) then
    invalid_arg "Rte.watch: min_dwell_us must be finite and >= 0";
  if not (Float.is_finite min_window && min_window >= 0.) then
    invalid_arg "Rte.watch: min_window must be finite and >= 0";
  if not (half_life_us > 0.) then invalid_arg "Rte.watch: half_life_us must be > 0";
  if sample_every < 1 then invalid_arg "Rte.watch: sample_every must be >= 1";
  {
    wc_session = session;
    wc_net = net;
    wc_threshold = threshold;
    wc_check_every = check_every;
    wc_min_dwell_us = min_dwell_us;
    wc_min_window = min_window;
    wc_half_life_us = half_life_us;
    wc_sample_every = sample_every;
    wc_tap = tap;
  }

type action =
  | W_steady
  | W_unchanged
  | W_repartitioned of { wa_migrated : int; wa_left : int; wa_servers : int }
  | W_rejected of int  (* constraint violations in the candidate cut *)

type checkpoint = {
  wk_at_us : float;
  wk_similarity : float;
  wk_window_pairs : int;
  wk_action : action;
}

(* Mutable watch state: window, adopted baseline, installed cut. *)
type t = {
  w_config : config;
  w_env : Rte_env.t;
  w_factory : Factory.t;
  w_window : Window.t;
  (* Always present: besides feeding the optional sink, the tap's
     seeded sampler decides which observations get their message sizes
     measured — the window's byte dimension. *)
  w_tap : Tap.t;
  w_safe : bool array;          (* per-classification migration safety *)
  w_msgs : float array;         (* profile's per-pair messages *)
  w_bytes : float array;        (* profile's per-pair bytes *)
  w_totals : float array;       (* [| messages; bytes |] summed, unboxed *)
  w_scale : Icc_graph.scale;    (* scratch scale vectors, pair-id order *)
  w_clock : float array;        (* one cell: the current observation's time *)
  mutable w_baseline : Window.baseline;        (* message counts *)
  mutable w_baseline_bytes : Window.baseline;  (* byte volumes *)
  mutable w_current : Analysis.distribution;
  mutable w_last_switch_us : float;
  mutable w_since_check : int;
  mutable w_checks : int;
  mutable w_detections : int;
  mutable w_repartitions : int;
  mutable w_migrations : int;
  mutable w_unchanged : int;
  mutable w_rejected : int;
  mutable w_last_similarity : float;
  mutable w_last_mass : float;  (* window mass at the last check *)
  mutable w_timeline : checkpoint list;  (* reversed *)
}

let create ~env ~factory ~seed ~dist wc =
  let graph = Analysis.Session.graph wc.wc_session in
  let main = Icc_graph.main_node graph in
  let cls v = if v = main then -1 else v in
  (* Graph pairs in pair-id order, mapped from node space to
     classification space — the window's slot layout, so a window
     snapshot is directly a scale vector. *)
  let n = Icc_graph.pair_count graph in
  let a = Array.init n (fun p -> cls (Icc_graph.pair_a graph p)) in
  let b = Array.init n (fun p -> cls (Icc_graph.pair_b graph p)) in
  let msgs = Icc_graph.pair_messages graph in
  let pbytes = Icc_graph.pair_bytes graph in
  let window = Window.create ~half_life_us:wc.wc_half_life_us ~a ~b in
  {
    w_config = wc;
    w_env = env;
    w_factory = factory;
    w_window = window;
    w_tap =
      Tap.create ~sample_every:wc.wc_sample_every ~seed:(Prng.stream seed 3)
        (Option.value ~default:Tap.null_sink wc.wc_tap);
    w_safe = Analysis.Session.migration_safety wc.wc_session;
    w_msgs = msgs;
    w_bytes = pbytes;
    w_totals = [| Array.fold_left ( +. ) 0. msgs; Array.fold_left ( +. ) 0. pbytes |];
    w_scale = { Icc_graph.sc_messages = Array.make n 1.; sc_bytes = Array.make n 1. };
    w_clock = [| 0. |];
    w_baseline = Window.baseline window Window.Calls msgs;
    w_baseline_bytes = Window.baseline window Window.Bytes pbytes;
    w_current = dist;
    w_last_switch_us = 0.;
    w_since_check = 0;
    w_checks = 0;
    w_detections = 0;
    w_repartitions = 0;
    w_migrations = 0;
    w_unchanged = 0;
    w_rejected = 0;
    w_last_similarity = 1.;
    w_last_mass = 0.;
    w_timeline = [];
  }

(* The window said usage drifted: re-price the profiled graph with the
   window's per-pair volumes, validate the candidate cut, and — when it
   differs from the installed one — atomically switch the factory and
   migrate the statically-safe instances. Either way the window
   snapshot becomes the new comparison baseline, so similarity snaps
   back to 1 and the loop cannot flap on the same shift. Reads the
   window as the check's refresh left it. *)
let repartition w ~now ~similarity =
  let env = w.w_env in
  let cfg = w.w_config in
  let window = w.w_window in
  let adopt_baseline () =
    w.w_baseline <- Window.adopt window Window.Calls;
    w.w_baseline_bytes <- Window.adopt window Window.Bytes;
    w.w_last_switch_us <- now
  in
  let win_total = Window.mass window in
  let byte_total = Window.byte_mass window in
  let prof_total = w.w_totals.(0) and prof_byte_total = w.w_totals.(1) in
  for p = 0 to Array.length w.w_scale.Icc_graph.sc_messages - 1 do
    (* Each window share over the profile's share of the same pair. *)
    let ms = Window.slot_count window p /. win_total /. (w.w_msgs.(p) /. prof_total) in
    w.w_scale.Icc_graph.sc_messages.(p) <- ms;
    (* Pairs the profile priced by count alone (no measured bytes), or
       a window that has not yet seen a remote payload, fall back to
       the message multiplier: the byte dimension carries no signal. *)
    let byte_share = if prof_byte_total = 0. then 0. else w.w_bytes.(p) /. prof_byte_total in
    w.w_scale.Icc_graph.sc_bytes.(p) <-
      (if byte_total = 0. || byte_share = 0. then ms
       else Window.slot_bytes window p /. byte_total /. byte_share)
  done;
  let candidate = Analysis.Session.solve cfg.wc_session ~scale:w.w_scale ~net:cfg.wc_net in
  let violations = Analysis.Session.validate cfg.wc_session candidate in
  if violations <> [] then begin
    (* Cannot happen for a cut the session itself computed (the
       constraint edges are infinite), but the lint gate is cheap and
       keeps a bad candidate from ever reaching the factory. *)
    w.w_rejected <- w.w_rejected + 1;
    w.w_last_switch_us <- now;
    W_rejected (List.length violations)
  end
  else if candidate.Analysis.placement = w.w_current.Analysis.placement then begin
    w.w_unchanged <- w.w_unchanged + 1;
    adopt_baseline ();
    W_unchanged
  end
  else begin
    let from_servers = w.w_current.Analysis.server_count in
    let migrated, left, moved =
      Rte_env.migrate_instances env w.w_factory ~safe:w.w_safe ~dist:candidate
    in
    w.w_repartitions <- w.w_repartitions + 1;
    w.w_migrations <- w.w_migrations + migrated;
    if env.observed then
      Rte_env.emit env ~at_us:now
        (Event.Repartitioned
           {
             at_us = int_of_float now;
             similarity;
             from_servers;
             to_servers = candidate.Analysis.server_count;
             migrated;
             left;
           });
    Rte_env.log_migrations env ~at_us:now moved;
    w.w_current <- candidate;
    adopt_baseline ();
    W_repartitioned
      { wa_migrated = migrated; wa_left = left; wa_servers = candidate.Analysis.server_count }
  end

(* One drift check on the virtual clock: decay the window once and
   compare it against the adopted baseline; below the threshold — with
   enough evidence in the window and outside the dwell period — re-cut. *)
let check w ~now =
  let env = w.w_env in
  let cfg = w.w_config in
  let window = w.w_window in
  w.w_checks <- w.w_checks + 1;
  Window.refresh window ~now_us:now;
  (* Drift in either dimension is drift: a usage shift that keeps the
     call mix but fattens payloads only moves the byte signature. The
     byte dimension is built from the tap's subsample, so it only
     speaks once enough sampled sizes back it. *)
  let count_sim = Window.similarity window w.w_baseline in
  let similarity =
    if float_of_int (Window.byte_observed window) < cfg.wc_min_window then count_sim
    else Float.min count_sim (Window.similarity window w.w_baseline_bytes)
  in
  let window_pairs = Window.live_pairs window in
  let mass = Window.mass window in
  w.w_last_similarity <- similarity;
  w.w_last_mass <- mass;
  let drifted =
    similarity < cfg.wc_threshold
    && mass >= cfg.wc_min_window
    && now -. w.w_last_switch_us >= cfg.wc_min_dwell_us
  in
  let action =
    if not drifted then W_steady
    else begin
      w.w_detections <- w.w_detections + 1;
      if env.observed then
        Rte_env.emit env ~at_us:now
          (Event.Drift_detected
             { at_us = int_of_float now; similarity; threshold = cfg.wc_threshold; window_pairs });
      repartition w ~now ~similarity
    end
  in
  w.w_timeline <-
    { wk_at_us = now; wk_similarity = similarity; wk_window_pairs = window_pairs;
      wk_action = action }
    :: w.w_timeline

let sample w = Tap.accept w.w_tap

(* Every observation lands in the window; the tap's seeded 1-in-k
   subsample alone carries a measured size (and reaches the sink), so
   the window's per-pair byte shares estimate the full traffic without
   per-call measurement cost. *)
let observe w ~sampled ~kind ~caller_cls ~callee_cls ~bytes =
  (* The time reaches the window through [w_clock] and is boxed only
     for a sampled observation or a check. *)
  Rte_env.now_into w.w_env w.w_clock;
  if sampled then
    Tap.emit w.w_tap ~at_us:w.w_clock.(0) ~kind ~caller:caller_cls ~callee:callee_cls ~bytes;
  Window.observe w.w_window ~clock:w.w_clock ~caller:caller_cls ~callee:callee_cls ~bytes;
  w.w_since_check <- w.w_since_check + 1;
  if w.w_since_check >= w.w_config.wc_check_every then begin
    w.w_since_check <- 0;
    check w ~now:w.w_clock.(0)
  end

let timeline w = List.rev w.w_timeline
let placement w = w.w_current
let tap_counts w = (Tap.offered w.w_tap, Tap.sampled w.w_tap)

(* Add the watch's totals to [reg]; the drift gauges take the last
   check's values, and stay untouched by a watch that ran no check. *)
let publish w reg =
  let count ~help name n = Metrics.inc_int (Metrics.counter reg ~help name) n in
  let gauge ~help name = Metrics.gauge reg ~help name in
  let similarity =
    gauge ~help:"Window-vs-baseline usage similarity at the last drift check."
      "coign_drift_similarity"
  in
  let window_pairs =
    gauge ~help:"Distinct pairs carrying window mass at the last drift check."
      "coign_drift_window_pairs"
  in
  let window_mass =
    gauge ~help:"Decayed observation mass in the window at the last drift check."
      "coign_drift_window_mass"
  in
  (match w.w_timeline with
  | [] -> ()
  | last :: _ ->
      Metrics.set similarity last.wk_similarity;
      Metrics.set window_pairs (float_of_int last.wk_window_pairs);
      Metrics.set window_mass w.w_last_mass);
  count ~help:"Drift checks performed." "coign_drift_checks_total" w.w_checks;
  count ~help:"Drift checks that crossed the threshold." "coign_drift_detections_total"
    w.w_detections;
  count ~help:"Placement switches installed by the watch loop." "coign_watch_repartitions_total"
    w.w_repartitions;
  count ~help:"Instances migrated live by watch re-partitions."
    "coign_watch_migrated_instances_total" w.w_migrations;
  count ~help:"Drift detections whose re-cut chose the installed placement."
    "coign_watch_unchanged_cuts_total" w.w_unchanged;
  count ~help:"Candidate cuts rejected by constraint validation."
    "coign_watch_rejected_cuts_total" w.w_rejected

type stats = {
  checks : int;
  detections : int;
  repartitions : int;
  migrations : int;
  unchanged : int;
  rejected : int;
  last_similarity : float;
}

let stats w =
  {
    checks = w.w_checks;
    detections = w.w_detections;
    repartitions = w.w_repartitions;
    migrations = w.w_migrations;
    unchanged = w.w_unchanged;
    rejected = w.w_rejected;
    last_similarity = w.w_last_similarity;
  }
