(* Online re-partitioning: the observation window's decay arithmetic,
   the streaming sample tap, scaled re-pricing through the analysis
   session, the watch's zero-cost-when-quiet guarantee, and the
   closed-loop Watchsim verdict — detection, live re-cut, convergence
   to the offline oracle, and byte-identical reports across domains. *)

open Coign_util
open Coign_netsim
open Coign_core
open Coign_apps
module Tap = Coign_obs.Tap
module Window = Coign_core.Window

let check_bits = Harness.check_bits

(* A window whose slot [s] tracks [pairs.(s)]. *)
let window ~half_life_us pairs =
  Window.create ~half_life_us ~a:(Array.map fst pairs) ~b:(Array.map snd pairs)

(* --- Window decay (hand-computed, power-of-two half-life) ----------- *)

let test_window_decay_hand_computed () =
  let w = window ~half_life_us:100. [| (0, 1); (1, 2) |] in
  Window.observe w ~clock:[| 0. |] ~caller:0 ~callee:1 ~bytes:8;
  (* One half-life later the weight is exactly 1/2 (2^(-dt/h) is exact
     at powers of two). *)
  check_bits "one half-life" 0.5 (Window.counts_at w ~now_us:100.).(0);
  check_bits "two half-lives" 0.25 (Window.counts_at w ~now_us:200.).(0);
  check_bits "bytes decay too" 2. (Window.bytes_at w ~now_us:200.).(0);
  (* A second observation folds in on top of the decayed first. *)
  Window.observe w ~clock:[| 100. |] ~caller:1 ~callee:0 ~bytes:0;
  check_bits "1/2 + 1 at the bump" 1.5 (Window.counts_at w ~now_us:100.).(0);
  check_bits "untouched slot stays zero" 0. (Window.counts_at w ~now_us:100.).(1);
  Alcotest.(check int) "only the sized one counted" 1 (Window.byte_observed w);
  (* Reads are pure: asking at a later time does not mutate. *)
  let before = (Window.counts_at w ~now_us:100.).(0) in
  ignore (Window.counts_at w ~now_us:1_000.);
  check_bits "snapshot did not mutate" before (Window.counts_at w ~now_us:100.).(0)

let test_window_extras_and_signature () =
  let w = window ~half_life_us:64. [| (0, 1) |] in
  Window.observe w ~clock:[| 0. |] ~caller:0 ~callee:1 ~bytes:10;
  (* A pair outside the creation-time set accumulates on the side and
     surfaces in the signature and totals. *)
  Window.observe w ~clock:[| 0. |] ~caller:5 ~callee:3 ~bytes:30;
  Alcotest.(check int) "one extra pair" 1 (Window.extra_pairs w);
  Window.refresh w ~now_us:0.;
  check_bits "total mass" 2. (Window.mass w);
  check_bits "byte total" 40. (Window.byte_mass w);
  Alcotest.(check int) "both pairs in signature" 2 (Window.live_pairs w);
  (* Against the slot alone, the extra's weight shows: 1/sqrt 2 by
     calls, 10*10 / (10 * sqrt (10^2 + 30^2)) by bytes. *)
  check_bits "call similarity" (1. /. (1. *. sqrt 2.))
    (Window.similarity w (Window.baseline w Window.Calls [| 1. |]));
  check_bits "byte similarity" (100. /. (sqrt 100. *. sqrt 1000.))
    (Window.similarity w (Window.baseline w Window.Bytes [| 10. |]));
  check_bits "slot bytes" 10. (Window.slot_bytes w 0);
  (* The same pair the other way round is the same extra. *)
  Window.observe w ~clock:[| 0. |] ~caller:3 ~callee:5 ~bytes:0;
  Alcotest.(check int) "extra normalized to (min,max)" 1 (Window.extra_pairs w);
  Window.refresh w ~now_us:0.;
  check_bits "extra bumped" 3. (Window.mass w);
  (* A classification too wide to pack into the slot index still gets
     one cell, whichever way round it is observed. *)
  Window.observe w ~clock:[| 0. |] ~caller:max_int ~callee:7 ~bytes:0;
  Window.observe w ~clock:[| 0. |] ~caller:7 ~callee:max_int ~bytes:0;
  Alcotest.(check int) "wide pair is one extra" 2 (Window.extra_pairs w);
  Window.refresh w ~now_us:0.;
  check_bits "wide pair bumped" 5. (Window.mass w);
  (* An adopted baseline is the window itself. *)
  Alcotest.(check (float 1e-12)) "adopted calls" 1.
    (Window.similarity w (Window.adopt w Window.Calls));
  Alcotest.(check (float 1e-12)) "adopted bytes" 1.
    (Window.similarity w (Window.adopt w Window.Bytes))

let test_window_rejects_bad_args () =
  Alcotest.(check bool) "non-positive half-life" true
    (try
       ignore (window ~half_life_us:0. [||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate pair (unordered)" true
    (try
       ignore (window ~half_life_us:1. [| (0, 1); (1, 0) |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "one b per a" true
    (try
       ignore (Window.create ~half_life_us:1. ~a:[| 0; 1 |] ~b:[| 1 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "slot classification too wide to pack" true
    (try
       ignore (window ~half_life_us:1. [| (0, 1 lsl 30) |]);
       false
     with Invalid_argument _ -> true)

(* --- Drift checks against a cell-order reference (oracle) ------------ *)

(* The window recomputed from its whole history: every cell folded from
   its observations in order, decayed to [now_us], listed in cell order
   (slots, then extras as first observed) as (count, bytes). *)
let reference_cells ~half_life_us ~slots history ~now_us =
  let decay last now v =
    if now <= last then v else v *. Float.pow 2. (-.(now -. last) /. half_life_us)
  in
  let key (a, b) = (min a b, max a b) in
  let cells = Hashtbl.create 64 and order = ref [] in
  let cell k =
    match Hashtbl.find_opt cells k with
    | Some c -> c
    | None ->
        order := k :: !order;
        (0., 0., 0.)
  in
  Array.iter (fun p -> Hashtbl.replace cells (key p) (cell (key p))) slots;
  List.iter
    (fun (at, p, bytes) ->
      let n, b, last = cell (key p) in
      Hashtbl.replace cells (key p)
        (decay last at n +. 1., decay last at b +. float_of_int bytes, at))
    (List.rev history);
  List.rev_map
    (fun k ->
      let n, b, last = Hashtbl.find cells k in
      (decay last now_us n, decay last now_us b))
    !order

(* The cosine written out over a baseline's cells (those that existed
   when it was taken) and the current ones, every sum in cell order. *)
let reference_cosine base cur =
  let sum = List.fold_left ( +. ) 0. and pos v = if v > 0. then v else 0. in
  let base = base @ List.init (List.length cur - List.length base) (fun _ -> 0.) in
  let dot = sum (List.map2 (fun b v -> pos b *. pos v) base cur) in
  let na = sum (List.map (fun b -> pos b *. pos b) base) in
  let nb = sum (List.map (fun v -> pos v *. pos v) cur) in
  if na = 0. && nb = 0. then 1. else if na = 0. || nb = 0. then 0. else dot /. (sqrt na *. sqrt nb)

(* One random window history, fed to the window and checked against the
   reference at random times; the first difference, by
   [Int64.bits_of_float]. Classifications -1..39 give 820 pairs: up to
   300 slots, the rest extras, so signatures reach several hundred
   weighted pairs and extras keep appearing between checks, arriving in
   either orientation. Time mostly moves forward; it sometimes stands
   still, steps back, or jumps far enough that old cells decay to
   exactly zero. *)
let window_history_agrees seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let pairs = ref [] in
  for a = -1 to 39 do
    for b = a to 39 do
      pairs := (if int 2 = 0 then (a, b) else (b, a)) :: !pairs
    done
  done;
  let pairs = Array.of_list !pairs in
  for i = Array.length pairs - 1 downto 1 do
    let j = int (i + 1) in
    let p = pairs.(i) in
    pairs.(i) <- pairs.(j);
    pairs.(j) <- p
  done;
  let n = int 301 in
  let slots = Array.sub pairs 0 n in
  let extras = Array.sub pairs n (int 200) in
  let active = Array.append (Array.sub slots 0 (int (n + 1))) extras in
  let half_life_us =
    if int 2 = 0 then Float.pow 2. (float_of_int (int 21))
    else 1. +. Random.State.float rng 1e6
  in
  let w = window ~half_life_us slots in
  let weights () =
    Array.init n (fun _ -> if int 4 = 0 then 0. else Random.State.float rng 1e4)
  in
  let calls = weights () and bytes = weights () in
  let base = ref (Window.baseline w Window.Calls calls, Array.to_list calls) in
  let base_bytes = ref (Window.baseline w Window.Bytes bytes, Array.to_list bytes) in
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
  let clock = ref 0. and history = ref [] and failed = ref None in
  let check () =
    let now_us = !clock +. if int 3 = 0 then Random.State.float rng half_life_us else 0. in
    Window.refresh w ~now_us;
    let cells = reference_cells ~half_life_us ~slots !history ~now_us in
    let counts = List.map fst cells and bytes = List.map snd cells in
    let slot_reads = List.concat_map (List.filteri (fun c _ -> c < n)) [ counts; bytes ] in
    let live = List.length (List.filter (fun v -> v > 0.) counts) in
    List.iter
      (fun (what, got, want) ->
        if !failed = None && not (List.equal same got want) then
          failed := Some (Printf.sprintf "%s at %h (%d live pairs)" what now_us live))
      [
        ( "similarities",
          [ Window.similarity w (fst !base); Window.similarity w (fst !base_bytes) ],
          [ reference_cosine (snd !base) counts; reference_cosine (snd !base_bytes) bytes ] );
        ( "masses", [ Window.mass w; Window.byte_mass w ],
          List.map (List.fold_left ( +. ) 0.) [ counts; bytes ] );
        ( "pair counts", List.map float_of_int [ Window.live_pairs w; Window.extra_pairs w ],
          List.map float_of_int [ live; List.length cells - n ] );
        ( "counts_at, bytes_at",
          Array.to_list (Window.counts_at w ~now_us) @ Array.to_list (Window.bytes_at w ~now_us),
          slot_reads );
        ( "slot_count, slot_bytes",
          List.init n (Window.slot_count w) @ List.init n (Window.slot_bytes w), slot_reads );
      ];
    if int 4 = 0 then begin
      base := (Window.adopt w Window.Calls, counts);
      base_bytes := (Window.adopt w Window.Bytes, bytes)
    end
  in
  if Array.length active > 0 then
    for _ = 1 to int 1500 do
      (match int 400 with
      | 0 -> clock := !clock +. (2000. *. half_life_us)
      | k when k < 5 -> clock := !clock -. Random.State.float rng half_life_us
      | k when k < 120 -> ()
      | _ -> clock := !clock +. Random.State.float rng (half_life_us /. 50.));
      let a, b = active.(int (Array.length active)) in
      let bytes = if int 3 = 0 then 0 else int 100_000 in
      Window.observe w ~clock:[| !clock |] ~caller:a ~callee:b ~bytes;
      history := (!clock, (a, b), bytes) :: !history;
      if int 40 = 0 then check ()
    done;
  check ();
  !failed

let prop_window_matches_reference =
  QCheck.Test.make ~name:"window checks equal a cell-order reference bit for bit" ~count:150
    QCheck.int (fun seed ->
      match window_history_agrees seed with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "%s differs" what)

(* --- Allocation ------------------------------------------------------- *)

(* Observing a pair that already has a cell, a slot or an extra,
   allocates nothing: a block is at least two words, so under one word
   per observation means no allocation at all. A check's reads (one
   refresh, both similarities, the pair count and the mass) allocate
   nothing that grows with the window, even right after a new extra
   pair appears: measured 6 words at 10 and at 300 slots with OCaml 5.1
   in the default (dev) build, the three returned floats boxed across
   the module boundary (2 words each). The check bound leaves the 1.5
   words of headroom of the RTE's gates; a similarity may allocate
   nothing but its boxed result. *)
let test_window_allocation () =
  let observe_words w ~caller ~callee =
    (* Each observation a microsecond after the last, in the one clock
       cell, so the loop itself allocates nothing. *)
    let clock = [| 0. |] in
    Harness.words_per_run 1_000 (fun () ->
        clock.(0) <- clock.(0) +. 1.;
        Window.observe w ~clock ~caller ~callee ~bytes:8)
  in
  let w = window ~half_life_us:64. [| (0, 1); (1, 2) |] in
  Window.observe w ~clock:[| 0. |] ~caller:5 ~callee:3 ~bytes:30;
  List.iter
    (fun (what, caller, callee) ->
      let words = observe_words w ~caller ~callee in
      Alcotest.(check bool)
        (Printf.sprintf "observe %s: %.2f words" what words) true (words < 1.))
    [ ("a slot", 1, 0); ("a seen extra", 3, 5) ];
  (* Per check and per similarity, each check right after a new extra
     pair (whose cell may grow the arrays, unmeasured). *)
  let check_words slots =
    let w = window ~half_life_us:1e6 (Array.init slots (fun s -> (s, s + 1))) in
    for s = 0 to slots - 1 do
      Window.observe w ~clock:[| float_of_int s |] ~caller:s ~callee:(s + 1) ~bytes:s
    done;
    Window.refresh w ~now_us:1e3;
    let calls = Window.adopt w Window.Calls and bytes = Window.adopt w Window.Bytes in
    let check = ref 0. and sim = ref 0. in
    for k = 1 to 100 do
      Window.observe w ~clock:[| 0. |] ~caller:(-k) ~callee:(-k) ~bytes:k;
      let before = Gc.minor_words () in
      Window.refresh w ~now_us:2e3;
      let sims = Gc.minor_words () in
      ignore (Window.similarity w calls);
      ignore (Window.similarity w bytes);
      sim := !sim +. (Gc.minor_words () -. sims);
      ignore (Window.live_pairs w);
      ignore (Window.mass w);
      check := !check +. (Gc.minor_words () -. before)
    done;
    (!check /. 100., !sim /. 200.)
  in
  let small, small_sim = check_words 10 and large, large_sim = check_words 300 in
  let bound = 7.5 in
  Alcotest.(check bool)
    (Printf.sprintf "check: %.1f words at 10 slots, %.1f at 300 (bound %.1f)" small large bound)
    true (small <= bound && large <= bound && Float.abs (large -. small) < 1.5);
  Alcotest.(check bool)
    (Printf.sprintf "similarity: %.2f words at 10 slots, %.2f at 300 (bound 2)" small_sim large_sim)
    true (small_sim <= 2. && large_sim <= 2.)

(* --- Tap ------------------------------------------------------------ *)

let offer_n tap n =
  for i = 1 to n do
    if Tap.accept tap then
      Tap.emit tap ~at_us:(float_of_int i) ~kind:Tap.Call ~caller:0 ~callee:1 ~bytes:i
  done

let test_tap_keep_everything () =
  let sink, read = Coign_obs.Sink.collector () in
  let tap = Tap.create sink in
  offer_n tap 5;
  Alcotest.(check int) "offered" 5 (Tap.offered tap);
  Alcotest.(check int) "sampled" 5 (Tap.sampled tap);
  let obs = read () in
  Alcotest.(check int) "all collected" 5 (List.length obs);
  Alcotest.(check bool) "oldest first" true
    (List.map (fun o -> o.Tap.ob_bytes) obs = [ 1; 2; 3; 4; 5 ])

let test_tap_sampling_deterministic () =
  let run () =
    let sink, read = Coign_obs.Sink.collector () in
    let tap = Tap.create ~sample_every:4 ~seed:7L sink in
    offer_n tap 400;
    (Tap.offered tap, Tap.sampled tap, List.map (fun o -> o.Tap.ob_bytes) (read ()))
  in
  let o1, s1, obs1 = run () in
  let o2, s2, obs2 = run () in
  Alcotest.(check int) "offered counted" 400 o1;
  Alcotest.(check bool) "roughly 1 in 4" true (s1 > 60 && s1 < 140);
  Alcotest.(check int) "same seed, same count" s1 s2;
  Alcotest.(check bool) "same seed, same picks" true (obs1 = obs2);
  Alcotest.(check int) "offered equal" o1 o2;
  Alcotest.(check int) "sink saw what sampled counted" s1 (List.length obs1)

let test_tap_accept_emit_split () =
  (* accept defers the expensive measurement; an accepted observation
     reaches the sink via emit. *)
  let sink, read = Coign_obs.Sink.collector () in
  let tap = Tap.create ~sample_every:2 ~seed:3L sink in
  let measured = ref 0 in
  for i = 1 to 100 do
    if Tap.accept tap then begin
      incr measured;
      Tap.emit tap ~at_us:(float_of_int i) ~kind:Tap.Create ~caller:(-1) ~callee:0 ~bytes:i
    end
  done;
  Alcotest.(check int) "offered" 100 (Tap.offered tap);
  Alcotest.(check int) "measurement only for accepted" !measured (Tap.sampled tap);
  Alcotest.(check int) "sink matches" !measured (List.length (read ()))

(* --- Scaled re-pricing through the session -------------------------- *)

let octarine_staged () =
  let app = Suite.find_app "octarine" in
  let image = Adps.instrument app.App.app_image in
  let profiled, _ =
    Adps.profile ~image ~registry:app.App.app_registry
      (App.scenario app "o_oldwp0").App.sc_run
  in
  let session = Adps.analysis_session profiled in
  let net = Net_profiler.exact Network.ethernet_10 in
  (app, profiled, session, net)

let test_ones_scale_is_bit_identical () =
  let _, _, session, net = octarine_staged () in
  let n = Icc_graph.pair_count (Analysis.Session.graph session) in
  let ones = { Icc_graph.sc_messages = Array.make n 1.; sc_bytes = Array.make n 1. } in
  let plain = Analysis.Session.solve session ~net in
  let scaled = Analysis.Session.solve session ~scale:ones ~net in
  Alcotest.(check bool) "same placement" true
    (plain.Analysis.placement = scaled.Analysis.placement);
  check_bits "same predicted comm" plain.Analysis.predicted_comm_us
    scaled.Analysis.predicted_comm_us

let test_scale_length_checked () =
  let _, _, session, net = octarine_staged () in
  let bad = { Icc_graph.sc_messages = [| 1. |]; sc_bytes = [| 1. |] } in
  Alcotest.(check bool) "length mismatch rejected" true
    (try
       ignore (Analysis.Session.solve session ~scale:bad ~net);
       false
     with Invalid_argument _ -> true)

let test_pair_bytes_totals () =
  let _, _, session, _ = octarine_staged () in
  let graph = Analysis.Session.graph session in
  let bytes = Icc_graph.pair_bytes graph in
  Alcotest.(check int) "one cell per pair" (Icc_graph.pair_count graph)
    (Array.length bytes);
  Alcotest.(check bool) "some pair carries bytes" true
    (Array.exists (fun b -> b > 0.) bytes);
  Array.iter
    (fun b -> Alcotest.(check bool) "finite and non-negative" true (Float.is_finite b && b >= 0.))
    bytes

(* --- The watch in a deployed RTE ------------------------------------ *)

let run_deployed ?watch ?logger ?(min_window = 16.) (app, profiled, session, net) ids =
  let dist_image, _ = Adps.analyze_with ~session ~image:profiled ~net () in
  let classifier, dist = Option.get (Adps.load_distribution dist_image) in
  let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
  let wc =
    Option.map
      (fun (threshold, tap) ->
        Rte.watch ~threshold ~check_every:64 ~min_dwell_us:0. ~min_window
          ~half_life_us:750_000. ~sample_every:4 ?tap ~net
          (Analysis.Session.copy session))
      watch
  in
  let rte =
    Rte.install_distributed ?logger ~classifier
      ~config:
        {
          Rte.dc_factory_policy = Factory.By_classification dist;
          dc_network = Network.ethernet_10;
          dc_jitter = 0.;
          dc_seed = 0x5EEDL;
          dc_faults = None;
          dc_retry = Fault.default_retry;
          dc_resilience = None;
          dc_fleet = None;
          dc_watch = wc;
        }
      ctx
  in
  List.iter (fun id -> (App.scenario app id).App.sc_run ctx) ids;
  Rte.uninstall rte;
  rte

let test_quiet_watch_leaves_run_bit_identical () =
  (* threshold 0 can never fire (similarity is in [0,1]); the watched
     run must cost exactly what the unwatched one does — observation,
     sampling, and drift checks never touch the virtual clock. *)
  let staged = octarine_staged () in
  let ids = [ "o_oldwp0"; "o_oldwp7" ] in
  let bare = run_deployed staged ids in
  let quiet = run_deployed ~watch:(0., None) staged ids in
  check_bits "comm bits identical" (Rte.comm_us bare) (Rte.comm_us quiet);
  Alcotest.(check int) "remote calls identical" (Rte.stats bare).Rte.st_remote_calls
    (Rte.stats quiet).Rte.st_remote_calls;
  Alcotest.(check int) "remote bytes identical" (Rte.stats bare).Rte.st_remote_bytes
    (Rte.stats quiet).Rte.st_remote_bytes;
  let checks =
    List.length (Rte.watch_timeline quiet)
  in
  Alcotest.(check bool) "the watch did check" true (checks > 0);
  Alcotest.(check bool) "and never acted" true
    (List.for_all
       (fun k -> k.Rte.wk_action = Rte.W_steady)
       (Rte.watch_timeline quiet))

let test_attached_tap_streams_without_perturbing () =
  let staged = octarine_staged () in
  let ids = [ "o_oldwp0" ] in
  let detached = run_deployed ~watch:(0., None) staged ids in
  let sink, read = Coign_obs.Sink.collector () in
  let tapped = run_deployed ~watch:(0., Some sink) staged ids in
  check_bits "comm bits identical" (Rte.comm_us detached) (Rte.comm_us tapped);
  let obs = read () in
  let offered, sampled = Option.get (Rte.watch_tap_counts tapped) in
  Alcotest.(check bool) "observations streamed" true (obs <> []);
  Alcotest.(check int) "sink saw every sampled observation" sampled (List.length obs);
  Alcotest.(check bool) "sampling is a strict subsample" true (sampled < offered);
  List.iter
    (fun o ->
      Alcotest.(check bool) "bytes measured for sampled calls" true (o.Tap.ob_bytes >= 0);
      Alcotest.(check bool) "virtual timestamps non-negative" true (o.Tap.ob_at_us >= 0.))
    obs;
  Alcotest.(check bool) "timestamps non-decreasing" true
    (fst
       (List.fold_left
          (fun (ok, prev) o -> (ok && o.Tap.ob_at_us >= prev, o.Tap.ob_at_us))
          (true, 0.) obs))

let test_watch_emits_drift_events () =
  (* A usage shift under an eager watch must surface as loggable
     Drift_detected / Repartitioned events with consistent payloads. *)
  let staged = octarine_staged () in
  let recorder, events = Coign_obs.Sink.collector () in
  let _ =
    run_deployed ~watch:(0.90, None) ~logger:recorder staged
      [ "o_oldwp0"; "o_oldwp7"; "o_oldwp7"; "o_oldwp7" ]
  in
  let evs = events () in
  let detections =
    List.filter_map
      (function
        | Event.Drift_detected { similarity; threshold; window_pairs; _ } ->
            Some (similarity, threshold, window_pairs)
        | _ -> None)
      evs
  in
  let recuts =
    List.filter_map
      (function
        | Event.Repartitioned { at_us; from_servers; to_servers; migrated; _ } ->
            Some (at_us, from_servers, to_servers, migrated)
        | _ -> None)
      evs
  in
  Alcotest.(check bool) "drift detected" true (detections <> []);
  Alcotest.(check bool) "placement switched" true (recuts <> []);
  List.iter
    (fun (similarity, threshold, window_pairs) ->
      Alcotest.(check bool) "similarity below threshold" true (similarity < threshold);
      Alcotest.(check bool) "window pairs positive" true (window_pairs > 0))
    detections;
  List.iter
    (fun (at_us, from_servers, to_servers, migrated) ->
      Alcotest.(check bool) "timestamped on the virtual clock" true (at_us >= 0);
      Alcotest.(check bool) "server counts sane" true (from_servers >= 0 && to_servers >= 0);
      Alcotest.(check bool) "migration count sane" true (migrated >= 0))
    recuts

(* The drift decision needs evidence. On the drift run above, a
   [min_window] no window mass reaches keeps every check steady, with
   no detection and no event, although the window's similarity falls
   below the threshold; at 16 the same run detects. *)
let test_drift_needs_window_mass () =
  let staged = octarine_staged () in
  let ids = [ "o_oldwp0"; "o_oldwp7"; "o_oldwp7"; "o_oldwp7" ] in
  let recorder, events = Coign_obs.Sink.collector () in
  let starved = run_deployed ~min_window:1e12 ~watch:(0.90, None) ~logger:recorder staged ids in
  let timeline = Rte.watch_timeline starved in
  Alcotest.(check bool) "similarity falls below the threshold" true
    (List.exists (fun k -> k.Rte.wk_similarity < 0.90) timeline);
  Alcotest.(check bool) "every check steady" true
    (List.for_all (fun k -> k.Rte.wk_action = Rte.W_steady) timeline);
  Alcotest.(check int) "no detection" 0 (Rte.stats starved).Rte.st_drift_detections;
  Alcotest.(check bool) "no drift event" false
    (List.exists (function Event.Drift_detected _ -> true | _ -> false) (events ()));
  let fed = run_deployed ~watch:(0.90, None) staged ids in
  Alcotest.(check bool) "with the mass, a detection" true
    ((Rte.stats fed).Rte.st_drift_detections > 0)

(* --- Decision event log (golden) -------------------------------------- *)

(* Interception events are the application's; the rest are RTE
   decisions. *)
let decision_event = function
  | Event.Component_instantiated _ | Event.Interface_instantiated _ | Event.Interface_call _ ->
      false
  | _ -> true

(* The drift run above, its decision events one [Event.to_line] per
   line. *)
let test_watch_decision_log_golden () =
  let golden = "golden/watch_events_octarine.txt" in
  let recorder, events = Coign_obs.Sink.collector () in
  let _ =
    run_deployed ~watch:(0.90, None) ~logger:recorder (octarine_staged ())
      [ "o_oldwp0"; "o_oldwp7"; "o_oldwp7"; "o_oldwp7" ]
  in
  let log =
    String.concat ""
      (List.map (fun e -> Event.to_line e ^ "\n") (List.filter decision_event (events ())))
  in
  Alcotest.(check string) "decision events match golden" (Harness.read_file golden) log

(* --- Configuration guards ------------------------------------------- *)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* A nan or negative dwell or window mass would silently turn the watch
   off: no drift check could ever pass its gate. A sample rate below 1
   or a half-life that is not positive would fail only later, at
   install. *)
let test_watch_rejects_bad_dwell_and_window () =
  let _, _, session, net = octarine_staged () in
  List.iter
    (fun (what, f) -> Alcotest.(check bool) (what ^ " rejected") true (raises_invalid f))
    [
      ("nan dwell", fun () -> Rte.watch ~min_dwell_us:Float.nan ~net session);
      ("infinite dwell", fun () -> Rte.watch ~min_dwell_us:Float.infinity ~net session);
      ("negative dwell", fun () -> Rte.watch ~min_dwell_us:(-5.) ~net session);
      ("nan window", fun () -> Rte.watch ~min_window:Float.nan ~net session);
      ("negative window", fun () -> Rte.watch ~min_window:(-1.) ~net session);
      ("zero sample rate", fun () -> Rte.watch ~sample_every:0 ~net session);
      ("negative sample rate", fun () -> Rte.watch ~sample_every:(-3) ~net session);
      ("zero half-life", fun () -> Rte.watch ~half_life_us:0. ~net session);
      ("negative half-life", fun () -> Rte.watch ~half_life_us:(-1.) ~net session);
      ("nan half-life", fun () -> Rte.watch ~half_life_us:Float.nan ~net session);
    ]

(* Resilience, the pool and the watch each drive the factory policy, so
   at most one may be installed; the watch also needs a
   By_classification placement to start from. *)
let test_install_distributed_rejections () =
  let app, profiled, session, net = octarine_staged () in
  let dist_image, _ = Adps.analyze_with ~session ~image:profiled ~net () in
  let classifier, dist = Option.get (Adps.load_distribution dist_image) in
  let ladder =
    Fallback.of_rungs ~migration_safe:(Fallback.migration_safety session)
      [ ("primary", dist) ]
  in
  let resilience = Some (Rte.resilience ladder) in
  let fleet = Some (Rte.fleet ladder) in
  let watch = Some (Rte.watch ~net session) in
  let base =
    {
      Rte.dc_factory_policy = Factory.By_classification dist;
      dc_network = Network.ethernet_10;
      dc_jitter = 0.;
      dc_seed = 0x5EEDL;
      dc_faults = None;
      dc_retry = Fault.default_retry;
      dc_resilience = None;
      dc_fleet = None;
      dc_watch = None;
    }
  in
  let install config =
    Rte.install_distributed ~classifier ~config
      (Coign_com.Runtime.create_ctx app.App.app_registry)
  in
  (* Each one alone installs. *)
  List.iter
    (fun config -> Rte.uninstall (install config))
    [
      { base with dc_resilience = resilience };
      { base with dc_fleet = fleet };
      { base with dc_watch = watch };
    ];
  List.iter
    (fun (what, config) ->
      Alcotest.(check bool) (what ^ " rejected") true (raises_invalid (fun () -> install config)))
    [
      ("resilience + watch", { base with dc_resilience = resilience; dc_watch = watch });
      ("fleet + resilience", { base with dc_fleet = fleet; dc_resilience = resilience });
      ("fleet + watch", { base with dc_fleet = fleet; dc_watch = watch });
      ( "watch over All_client",
        { base with dc_factory_policy = Factory.All_client; dc_watch = watch } );
    ]

(* --- Watchsim: the closed loop -------------------------------------- *)

let watchsim_shift ?pool () =
  let app = Suite.find_app "octarine" in
  let image = Adps.instrument app.App.app_image in
  Coign_sim.Watchsim.run ?pool ~profile_mix:[ "o_oldwp0" ]
    ~phases:
      [
        [ "o_oldwp0" ];
        [ "o_oldwp7"; "o_oldwp7"; "o_oldwp7" ];
        [ "o_oldwp7"; "o_oldwp7"; "o_oldwp7" ];
      ]
    ~image ~network:Network.ethernet_10 ()

let test_watchsim_converges_to_oracle () =
  let r = watchsim_shift () in
  let open Coign_sim.Watchsim in
  Alcotest.(check bool) "drift detected" true (r.w_stats.Rte.st_drift_detections > 0);
  Alcotest.(check bool) "repartitioned at least once" true (r.w_stats.Rte.st_repartitions > 0);
  Alcotest.(check bool) "instances migrated live" true (r.w_stats.Rte.st_watch_migrations > 0);
  Alcotest.(check bool) "converged to the oracle cut" true r.w_converged;
  Alcotest.(check bool) "steady-state comm reduced" true
    (r.w_steady_watched_us < r.w_steady_stale_us);
  (* The first (matching-usage) phase must not be disturbed. *)
  (match r.w_phase_stats with
  | first :: _ ->
      check_bits "phase 1 untouched" first.ph_stale_comm_us first.ph_watched_comm_us
  | [] -> Alcotest.fail "no phases");
  Alcotest.(check bool) "tap sampled a strict subset" true
    (r.w_tap_sampled > 0 && r.w_tap_sampled < r.w_tap_offered)

let test_watchsim_jobs_deterministic () =
  let sequential = watchsim_shift () in
  let pool = Parallel.create ~domains:3 () in
  let parallel = watchsim_shift ~pool () in
  Parallel.shutdown pool;
  Alcotest.(check string) "byte-identical across domains"
    (Jsonu.to_string (Coign_sim.Watchsim.to_json sequential))
    (Jsonu.to_string (Coign_sim.Watchsim.to_json parallel))

let test_watchsim_json_parses () =
  let r = watchsim_shift () in
  let j = Harness.parse_json (Jsonu.to_string (Coign_sim.Watchsim.to_json r)) in
  let member k = Jsonu.member k j in
  Alcotest.(check bool) "converged present" true (member "converged" <> None);
  Alcotest.(check bool) "timeline present" true (member "timeline" <> None);
  Alcotest.(check bool) "phases present" true (member "phases" <> None)

let suite =
  [
    Alcotest.test_case "window decay hand computed" `Quick test_window_decay_hand_computed;
    Alcotest.test_case "window extras and signatures" `Quick
      test_window_extras_and_signature;
    Alcotest.test_case "window rejects bad args" `Quick test_window_rejects_bad_args;
    QCheck_alcotest.to_alcotest prop_window_matches_reference;
    Alcotest.test_case "window allocation gate" `Quick test_window_allocation;
    Alcotest.test_case "tap keeps everything by default" `Quick test_tap_keep_everything;
    Alcotest.test_case "tap sampling deterministic" `Quick test_tap_sampling_deterministic;
    Alcotest.test_case "tap accept/emit split" `Quick test_tap_accept_emit_split;
    Alcotest.test_case "ones scale bit-identical to unscaled" `Quick
      test_ones_scale_is_bit_identical;
    Alcotest.test_case "scale length checked" `Quick test_scale_length_checked;
    Alcotest.test_case "pair bytes totals" `Quick test_pair_bytes_totals;
    Alcotest.test_case "quiet watch leaves run bit-identical" `Quick
      test_quiet_watch_leaves_run_bit_identical;
    Alcotest.test_case "attached tap streams without perturbing" `Quick
      test_attached_tap_streams_without_perturbing;
    Alcotest.test_case "watch emits drift events" `Quick test_watch_emits_drift_events;
    Alcotest.test_case "watch rejects bad dwell and window" `Quick
      test_watch_rejects_bad_dwell_and_window;
    Alcotest.test_case "install_distributed rejections" `Quick
      test_install_distributed_rejections;
    Alcotest.test_case "watchsim converges to oracle" `Quick
      test_watchsim_converges_to_oracle;
    Alcotest.test_case "watchsim jobs deterministic" `Quick
      test_watchsim_jobs_deterministic;
    Alcotest.test_case "watchsim json parses" `Quick test_watchsim_json_parses;
    Alcotest.test_case "drift run decision events (golden)" `Quick
      test_watch_decision_log_golden;
    Alcotest.test_case "drift needs window mass" `Quick test_drift_needs_window_mass;
  ]
