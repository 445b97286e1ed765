open Coign_util
open Coign_netsim
open Coign_core
open Coign_apps
open Coign_sim

let qtest = QCheck_alcotest.to_alcotest
let network = Network.ethernet_10
let bits = Int64.bits_of_float

(* One analyzed benefits image, built once and shared: loadsim never
   mutates it (every run decodes its own classifier). *)
let benefits_img =
  lazy
    (let app = Suite.find_app "benefits" in
     let image = Adps.instrument app.App.app_image in
     let image, _ =
       Adps.profile ~image ~registry:app.App.app_registry (App.scenario app "b_vueone").App.sc_run
     in
     let image, _ =
       Adps.profile ~image ~registry:app.App.app_registry (App.scenario app "b_addone").App.sc_run
     in
     let net = Net_profiler.profile (Prng.create 7L) network in
     fst (Adps.analyze ~image ~net ()))

(* --- Hand-computed queueing trace ----------------------------------- *)

(* A network chosen so every number below is an exact small integer:
   latency 10us, bandwidth 8 Mbps (so transmission is exactly 1 us per
   byte), protocol processing 100us per message. One op of (request
   100 B, reply 50 B) then costs:
     host service  = 100 + 100            = 200 us  (two messages' proc)
     link service  = (10 + 100) + (10+50) = 170 us
     unloaded comm = (100+10+100) + (100+10+50) = 370 us *)
let hand_net = Network.make ~name:"hand" ~latency_us:10. ~bandwidth_mbps:8. ~proc_us:100.

let test_hand_trace () =
  let cls = Loadsim.class_of_ops ~network:hand_net ~scenario:"h" [ (100, 50) ] in
  Alcotest.(check int64) "host svc" (bits 200.) (bits cls.Loadsim.cl_host_svc.(0));
  Alcotest.(check int64) "link svc" (bits 170.) (bits cls.Loadsim.cl_link_svc.(0));
  Alcotest.(check int64) "unloaded comm" (bits 370.) (bits cls.Loadsim.cl_comm_us);
  (* Three arrivals through the shared host-then-link tandem (M/D/1
     style, done by hand):
       s0 arrives   0: host    0->200, link  200->370   latency 370
       s1 arrives  50: host  200->400  (waits 150 behind s0),
                       link  400->570  (the link is already free at
                       370, so no link wait)         latency 520
       s2 arrives 1000: both queues idle again: host 1000->1200,
                       link 1200->1370                latency 370 *)
  let traces = ref [] in
  let totals =
    Loadsim.simulate
      ~sink:(fun t -> traces := t :: !traces)
      ~classes:[| cls |]
      ~arrivals:[| 0.; 50.; 1000. |]
      ~class_of:[| 0; 0; 0 |] ()
  in
  let expect =
    [
      (0, 0., 0., 200., 200., 370.);
      (1, 50., 200., 400., 400., 570.);
      (2, 1000., 1000., 1200., 1200., 1370.);
    ]
  in
  let got = List.rev !traces in
  Alcotest.(check int) "three ops traced" 3 (List.length got);
  List.iter2
    (fun (s, ready, hs, hf, ls, lf) (t : Loadsim.op_trace) ->
      Alcotest.(check int) "session" s t.Loadsim.ot_session;
      Alcotest.(check int64) "ready" (bits ready) (bits t.Loadsim.ot_ready_us);
      Alcotest.(check int64) "host start" (bits hs) (bits t.Loadsim.ot_host_start_us);
      Alcotest.(check int64) "host finish" (bits hf) (bits t.Loadsim.ot_host_finish_us);
      Alcotest.(check int64) "link start" (bits ls) (bits t.Loadsim.ot_link_start_us);
      Alcotest.(check int64) "finish" (bits lf) (bits t.Loadsim.ot_finish_us))
    expect got;
  Alcotest.(check int64) "latency s0" (bits 370.) (bits totals.Loadsim.st_latency_us.(0));
  Alcotest.(check int64) "latency s1" (bits 520.) (bits totals.Loadsim.st_latency_us.(1));
  Alcotest.(check int64) "latency s2" (bits 370.) (bits totals.Loadsim.st_latency_us.(2));
  Alcotest.(check int64) "host busy" (bits 600.) (bits totals.Loadsim.st_host_busy_us);
  Alcotest.(check int64) "link busy" (bits 510.) (bits totals.Loadsim.st_link_busy_us);
  Alcotest.(check int64) "last finish" (bits 1370.) (bits totals.Loadsim.st_last_finish_us);
  Alcotest.(check int) "op count" 3 totals.Loadsim.st_ops

let test_hand_trace_multi_op () =
  (* Two sessions of a two-op class; checks the continuation ring and
     the tie rule. By hand:
       s0@0:   op0 host   0->200, link 200->370; s0 ready again at 370
       s1@100: a *new* arrival at 100 beats s0's pending 370:
               op0 host 200->400, link 400->570; s1 pending at 570
       s0@370: op1 host 400->600, link 600->770   latency 770
       s1@570: op1 host 600->800, link 800->970   latency 870 *)
  let cls = Loadsim.class_of_ops ~network:hand_net ~scenario:"h2" [ (100, 50); (100, 50) ] in
  let order = ref [] in
  let totals =
    Loadsim.simulate
      ~sink:(fun t -> order := (t.Loadsim.ot_session, t.Loadsim.ot_op) :: !order)
      ~classes:[| cls |] ~arrivals:[| 0.; 100. |] ~class_of:[| 0; 0 |] ()
  in
  Alcotest.(check (list (pair int int)))
    "processing order interleaves"
    [ (0, 0); (1, 0); (0, 1); (1, 1) ]
    (List.rev !order);
  Alcotest.(check int64) "latency s0" (bits 770.) (bits totals.Loadsim.st_latency_us.(0));
  Alcotest.(check int64) "latency s1" (bits 870.) (bits totals.Loadsim.st_latency_us.(1));
  Alcotest.(check int64) "last finish" (bits 970.) (bits totals.Loadsim.st_last_finish_us)

(* --- Identity gate --------------------------------------------------- *)

(* With queueing off, a single session must reproduce the Replay
   communication estimate bit for bit — the same zero-cost argument as
   the PR 4/5 gates: the loadsim compile is a mirror of Replay's
   fault-free walk, and a fault-free Fault.call charges exactly
   request + reply. *)
let test_identity_gate () =
  let image = Lazy.force benefits_img in
  let app = Suite.find_app "benefits" in
  let sc = App.scenario app "b_vueone" in
  let classifier, dist = Option.get (Adps.load_distribution image) in
  let events =
    Replay.record_scenario ~registry:app.App.app_registry ~classifier sc.App.sc_run
  in
  let est = Replay.what_if ~events ~distribution:dist ~network () in
  Alcotest.(check bool) "estimate is non-trivial" true (est.Replay.re_comm_us > 0.);
  let r =
    Loadsim.run ~queueing:false ~sessions:1 ~scenarios:[ "b_vueone" ]
      ~arrival:(Loadsim.Poisson 50.) ~seed:3L ~image ~network ()
  in
  Alcotest.(check int64) "p50 == replay comm, bit-exact" (bits est.Replay.re_comm_us)
    (bits r.Loadsim.r_p50_us);
  Alcotest.(check int64) "p99 == replay comm, bit-exact" (bits est.Replay.re_comm_us)
    (bits r.Loadsim.r_p99_us);
  match r.Loadsim.r_classes with
  | [ c ] ->
      Alcotest.(check int64) "class comm == replay comm, bit-exact"
        (bits est.Replay.re_comm_us) (bits c.Loadsim.cs_comm_us)
  | _ -> Alcotest.fail "expected exactly one session class"

(* --- Load-dependence ------------------------------------------------- *)

let test_p99_grows_with_rate () =
  let image = Lazy.force benefits_img in
  let p99 rate =
    (Loadsim.run ~sessions:600 ~scenarios:[ "b_vueone"; "b_addone" ]
       ~arrival:(Loadsim.Poisson rate) ~seed:21L ~image ~network ())
      .Loadsim.r_p99_us
  in
  let a = p99 10. and b = p99 40. and c = p99 160. in
  Alcotest.(check bool)
    (Printf.sprintf "p99 strictly increasing: %.0f < %.0f < %.0f" a b c)
    true
    (a < b && b < c)

(* --- Metrics --------------------------------------------------------- *)

let test_metrics_instruments () =
  let open Coign_obs in
  let image = Lazy.force benefits_img in
  let reg = Metrics.registry () in
  let r =
    Loadsim.run ~metrics:reg ~sessions:40 ~scenarios:[ "b_vueone" ]
      ~arrival:(Loadsim.Poisson 20.) ~seed:1L ~image ~network ()
  in
  Alcotest.(check (float 0.)) "sessions counter" 40.
    (Metrics.counter_value (Metrics.counter reg "coign_load_sessions_total"));
  Alcotest.(check (float 0.)) "ops counter" (float_of_int r.Loadsim.r_total_ops)
    (Metrics.counter_value (Metrics.counter reg "coign_load_ops_total"));
  Alcotest.(check int) "latency histogram count" 40
    (Metrics.histogram_count (Metrics.histogram reg "coign_load_session_latency_us"));
  Alcotest.(check int) "comm histogram count" 40
    (Metrics.histogram_count (Metrics.histogram reg "coign_load_session_comm_us"));
  Alcotest.(check (float 0.)) "availability gauge" r.Loadsim.r_availability
    (Metrics.gauge_value (Metrics.gauge reg "coign_load_availability"))

(* --- Allocation gate ---------------------------------------------------- *)

(* Minor words Loadsim.run allocates per session, as the difference of
   a 2N-session and an N-session run so the fixed cost (recording and
   compiling the mix, the per-class tables) cancels. The per-session
   arrays are large enough to live on the major heap, the draws run on
   an unboxed local splitmix state, the event loop touches only flat
   arrays and the percentiles come from in-place selection: measured
   0.0 words per session with OCaml 5.1, queueing on and off. The
   smallest allocation (a boxed float, a ref, an option) is two words,
   so one per session fails the bound. *)
let test_run_allocation () =
  let image = Lazy.force benefits_img in
  let n = 20_000 in
  let words ~queueing sessions =
    let run () =
      ignore
        (Loadsim.run ~queueing ~deadline_us:400_000. ~sessions
           ~scenarios:[ "b_vueone"; "b_addone" ] ~arrival:(Loadsim.Poisson 40.) ~seed:5L
           ~image ~network ())
    in
    let before = Gc.minor_words () in
    run ();
    Gc.minor_words () -. before
  in
  List.iter
    (fun queueing ->
      let per_session = (words ~queueing (2 * n) -. words ~queueing n) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "queueing %b: %.3f minor words per session (bound 0.5)" queueing
           per_session)
        true (per_session <= 0.5))
    [ true; false ]

(* --- qcheck properties ----------------------------------------------- *)

let gen_arrival =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Loadsim.Poisson (float_of_int r)) (int_range 1 2000);
        map3
          (fun r on off ->
            Loadsim.Bursty
              {
                b_rate = float_of_int r;
                b_on_ms = float_of_int on;
                b_off_ms = float_of_int off;
              })
          (int_range 1 2000) (int_range 1 500) (int_range 0 500);
        map2
          (fun p per ->
            Loadsim.Diurnal { d_peak = float_of_int p; d_period_s = float_of_int per })
          (int_range 1 2000) (int_range 1 120);
      ])

let arb_arrival_seed =
  QCheck.make
    ~print:(fun (a, s) -> Printf.sprintf "%s seed=%d" (Loadsim.arrival_to_string a) s)
    QCheck.Gen.(pair gen_arrival (int_range 0 100_000))

let prop_arrivals_nondecreasing =
  QCheck.Test.make ~name:"arrival generators emit nondecreasing timestamps" ~count:120
    arb_arrival_seed (fun (a, seed) ->
      let arrivals, class_of =
        Loadsim.gen_arrivals ~seed:(Int64.of_int seed) ~sessions:300 ~classes:4 a
      in
      let ok = ref (arrivals.(0) >= 0.) in
      for i = 1 to Array.length arrivals - 1 do
        if arrivals.(i) < arrivals.(i - 1) then ok := false
      done;
      Array.iter (fun c -> if c < 0 || c >= 4 then ok := false) class_of;
      !ok)

(* The draws are inlined over a local splitmix state; this pins them
   to the Prng calls they replace through gen_arrivals' Poisson prefix
   sum. *)
let prng_draws ~seed ~classes s =
  let g = Prng.create (Prng.stream seed s) in
  let e = Prng.exponential g ~mean:1. in
  (e, Prng.int g classes)

(* gen_arrivals' Poisson arrivals and classes for [n] sessions, each
   equal bit for bit to the prefix sum of the reference draws. *)
let arrivals_match_prng ~seed ~classes n =
  let arrivals, class_of = Loadsim.gen_arrivals ~seed ~sessions:n ~classes (Loadsim.Poisson 7.) in
  let t = ref 0. and ok = ref true in
  for k = 0 to n - 1 do
    let ek, ck = prng_draws ~seed ~classes k in
    t := !t +. (ek *. 1e6 /. 7.);
    if bits arrivals.(k) <> bits !t || class_of.(k) <> ck then ok := false
  done;
  !ok

let prop_draws_match_prng =
  QCheck.Test.make ~name:"inlined session draws == Prng stream reference, bit for bit"
    ~count:300
    QCheck.(
      make
        ~print:(fun (seed, classes, n) ->
          Printf.sprintf "seed=%Ld classes=%d sessions=%d" seed classes n)
        Gen.(triple int64 (int_range 1 64) (int_range 1 500)))
    (fun (seed, classes, n) -> arrivals_match_prng ~seed ~classes n)

(* Past the 16,384-session fill batch, twice over and into a partial
   third batch, the draws still follow the reference. *)
let test_draws_match_prng_across_batches () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: 32,773 sessions == Prng stream reference" seed)
        true
        (arrivals_match_prng ~seed ~classes:7 ((2 * 16_384) + 5)))
    [ 0L; -3L; 0x7FFF_FFFF_FFFF_FFFFL ]

(* Pooled batches write disjoint slices of the arrays; three batches,
   the last one partial, must match the sequential fill. *)
let test_pooled_batches () =
  let pool = Parallel.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      List.iter
        (fun arrival ->
          let seq = Loadsim.gen_arrivals ~seed:9L ~sessions:40_000 ~classes:3 arrival in
          let par = Loadsim.gen_arrivals ~pool ~seed:9L ~sessions:40_000 ~classes:3 arrival in
          Alcotest.(check bool)
            (Loadsim.arrival_to_string arrival ^ ": pooled == sequential")
            true (seq = par))
        [
          Loadsim.Poisson 50.;
          Loadsim.Bursty { b_rate = 80.; b_on_ms = 20.; b_off_ms = 30. };
          Loadsim.Diurnal { d_peak = 60.; d_period_s = 10. };
        ])

let prop_arrival_spec_roundtrip =
  QCheck.Test.make ~name:"arrival spec parses back to itself" ~count:100 arb_arrival_seed
    (fun (a, _) ->
      match Loadsim.arrival_of_string (Loadsim.arrival_to_string a) with
      | Ok b -> b = a
      | Error _ -> false)

(* A valid spec with one field replaced by a non-finite spelling that
   [float_of_string] accepts. *)
let gen_non_finite_spec =
  QCheck.Gen.(
    gen_arrival >>= fun a ->
    let kind, fields =
      match a with
      | Loadsim.Poisson r -> ("poisson", [ r ])
      | Loadsim.Bursty { b_rate; b_on_ms; b_off_ms } -> ("bursty", [ b_rate; b_on_ms; b_off_ms ])
      | Loadsim.Diurnal { d_peak; d_period_s } -> ("diurnal", [ d_peak; d_period_s ])
    in
    pair (int_range 0 (List.length fields - 1)) (oneofl [ "nan"; "inf"; "-inf"; "infinity" ])
    >|= fun (i, bad) ->
    kind ^ ":"
    ^ String.concat ","
        (List.mapi (fun j v -> if j = i then bad else Printf.sprintf "%g" v) fields))

let prop_non_finite_spec_rejected =
  QCheck.Test.make ~name:"an arrival spec with a non-finite field is an Error" ~count:100
    (QCheck.make ~print:Fun.id gen_non_finite_spec) (fun spec ->
      Result.is_error (Loadsim.arrival_of_string spec))

let prop_percentiles_and_availability =
  QCheck.Test.make ~name:"p50 <= p95 <= p99 <= max; availability in [0,1]" ~count:10
    arb_arrival_seed (fun (a, k) ->
      let image = Lazy.force benefits_img in
      let r =
        Loadsim.run ~sessions:150
          ~deadline_us:(1000. +. float_of_int (200 * (k mod 997)))
          ~scenarios:[ "b_vueone"; "b_addone" ] ~arrival:a ~seed:(Int64.of_int k) ~image
          ~network ()
      in
      r.Loadsim.r_p50_us <= r.Loadsim.r_p95_us
      && r.Loadsim.r_p95_us <= r.Loadsim.r_p99_us
      && r.Loadsim.r_p99_us <= r.Loadsim.r_max_us
      && r.Loadsim.r_availability >= 0.
      && r.Loadsim.r_availability <= 1.)

let prop_seed_determinism_across_pools =
  QCheck.Test.make ~name:"same seed, byte-identical report across runs and pools" ~count:5
    arb_arrival_seed (fun (a, k) ->
      let image = Lazy.force benefits_img in
      let go pool =
        Jsonu.to_string
          (Loadsim.to_json
             (Loadsim.run ?pool ~sessions:120 ~scenarios:[ "b_vueone"; "b_addone" ]
                ~arrival:a ~seed:(Int64.of_int k) ~image ~network ()))
      in
      (* jobs 1 / 2 / 4 in CLI terms: no pool, 1 worker, 3 workers. *)
      let p2 = Parallel.create ~domains:1 () in
      let p4 = Parallel.create ~domains:3 () in
      let base = go None in
      let again = go None in
      let r2 = go (Some p2) and r4 = go (Some p4) in
      Parallel.shutdown p2;
      Parallel.shutdown p4;
      String.equal base again && String.equal base r2 && String.equal base r4)

(* --- Oracle: the record-per-op event loop --------------------------- *)

(* The event loop as it was before its service demands were flattened:
   a per-session op cursor and a class record looked up on every op.
   The flat loop must agree with it bit for bit, sink trace included. *)
let reference_simulate ?sink ~classes ~arrivals ~class_of () =
  let n = Array.length arrivals in
  let lat = Array.make n 0. in
  let opix = Array.make n 0 in
  let cap = n + 1 in
  let ring_s = Array.make cap 0 and ring_t = Array.make cap 0. in
  let head = ref 0 and tail = ref 0 in
  let host_free = ref 0. and link_free = ref 0. in
  let host_busy = ref 0. and link_busy = ref 0. in
  let last_finish = ref 0. and ops_done = ref 0 in
  let finish_session s t =
    lat.(s) <- t -. arrivals.(s);
    if t > !last_finish then last_finish := t
  in
  let process s t =
    let c = classes.(class_of.(s)) in
    let j = opix.(s) in
    let hs = if t > !host_free then t else !host_free in
    let hf = hs +. c.Loadsim.cl_host_svc.(j) in
    host_free := hf;
    host_busy := !host_busy +. c.Loadsim.cl_host_svc.(j);
    let ls = if hf > !link_free then hf else !link_free in
    let lf = ls +. c.Loadsim.cl_link_svc.(j) in
    link_free := lf;
    link_busy := !link_busy +. c.Loadsim.cl_link_svc.(j);
    incr ops_done;
    (match sink with
    | Some f ->
        f
          {
            Loadsim.ot_session = s;
            ot_op = j;
            ot_ready_us = t;
            ot_host_start_us = hs;
            ot_host_finish_us = hf;
            ot_link_start_us = ls;
            ot_finish_us = lf;
          }
    | None -> ());
    opix.(s) <- j + 1;
    if opix.(s) < Array.length c.Loadsim.cl_host_svc then begin
      ring_s.(!tail) <- s;
      ring_t.(!tail) <- lf;
      tail := if !tail + 1 = cap then 0 else !tail + 1
    end
    else finish_session s lf
  in
  let next_new = ref 0 in
  while !next_new < n || !head <> !tail do
    if !next_new < n && (!head = !tail || arrivals.(!next_new) <= ring_t.(!head)) then begin
      let s = !next_new in
      incr next_new;
      if Array.length classes.(class_of.(s)).Loadsim.cl_host_svc = 0 then
        finish_session s arrivals.(s)
      else process s arrivals.(s)
    end
    else begin
      let s = ring_s.(!head) and t = ring_t.(!head) in
      head := if !head + 1 = cap then 0 else !head + 1;
      process s t
    end
  done;
  {
    Loadsim.st_latency_us = lat;
    st_host_busy_us = !host_busy;
    st_link_busy_us = !link_busy;
    st_last_finish_us = !last_finish;
    st_ops = !ops_done;
  }

(* Times on a grid of small integers, zero included, so that a
   continuation's ready time ties a new arrival exactly and often; a
   share of arbitrary floats keeps the rounding honest. Arrival gaps
   are shorter than an op's service, so sessions pile up in the ring,
   and a ring of [n + 1] slots carrying about three continuations per
   session wraps several times. *)
let gen_oracle_input =
  QCheck.Gen.(
    let grid lo hi = map float_of_int (int_range lo hi) in
    let svc = frequency [ (1, return 0.); (6, grid 1 5); (2, float_range 0. 6.) ] in
    let gap = frequency [ (3, return 0.); (4, grid 1 3); (1, float_range 0. 4.) ] in
    int_range 1 4 >>= fun nc ->
    array_repeat nc
      (int_range 0 6 >>= fun ops -> pair (array_repeat ops svc) (array_repeat ops svc))
    >>= fun demands ->
    int_range 1 300 >>= fun n ->
    pair (array_repeat n gap) (array_repeat n (int_range 0 (nc - 1))) >|= fun (gaps, class_of) ->
    let classes =
      Array.mapi
        (fun i (host, link) ->
          {
            Loadsim.cl_scenario = string_of_int i;
            cl_host_svc = host;
            cl_link_svc = link;
            cl_comm_us = 0.;
          })
        demands
    in
    let t = ref 0. in
    (classes, Array.map (fun g -> t := !t +. g; !t) gaps, class_of))

let prop_simulate_matches_reference =
  QCheck.Test.make ~name:"flat event loop == record-per-op loop, bit for bit" ~count:400
    (QCheck.make
       ~print:(fun (classes, arrivals, _) ->
         Printf.sprintf "%d sessions, ops per class [%s]" (Array.length arrivals)
           (String.concat "; "
              (Array.to_list
                 (Array.map
                    (fun c -> string_of_int (Array.length c.Loadsim.cl_host_svc))
                    classes))))
       gen_oracle_input)
    (fun (classes, arrivals, class_of) ->
      let run sim =
        let trace = ref [] in
        let totals =
          sim ?sink:(Some (fun t -> trace := t :: !trace)) ~classes ~arrivals ~class_of ()
        in
        (totals, List.rev !trace)
      in
      let same_totals (a : Loadsim.sim_totals) (b : Loadsim.sim_totals) =
        bits a.st_host_busy_us = bits b.st_host_busy_us
        && bits a.st_link_busy_us = bits b.st_link_busy_us
        && bits a.st_last_finish_us = bits b.st_last_finish_us
        && a.st_ops = b.st_ops
        && Array.for_all2 (fun x y -> bits x = bits y) a.st_latency_us b.st_latency_us
      in
      let same_op (a : Loadsim.op_trace) (b : Loadsim.op_trace) =
        a.ot_session = b.ot_session && a.ot_op = b.ot_op
        && bits a.ot_ready_us = bits b.ot_ready_us
        && bits a.ot_host_start_us = bits b.ot_host_start_us
        && bits a.ot_host_finish_us = bits b.ot_host_finish_us
        && bits a.ot_link_start_us = bits b.ot_link_start_us
        && bits a.ot_finish_us = bits b.ot_finish_us
      in
      let ref_totals, ref_trace = run reference_simulate in
      let totals, trace = run Loadsim.simulate in
      let unsunk = Loadsim.simulate ~classes ~arrivals ~class_of () in
      same_totals ref_totals totals
      && same_totals ref_totals unsunk
      && List.length ref_trace = List.length trace
      && List.for_all2 same_op ref_trace trace)

let suite =
  [
    Alcotest.test_case "hand-computed queueing trace" `Quick test_hand_trace;
    Alcotest.test_case "hand trace: continuations and tie rule" `Quick
      test_hand_trace_multi_op;
    Alcotest.test_case "identity gate: queueing off == Replay" `Slow test_identity_gate;
    Alcotest.test_case "p99 grows with arrival rate" `Slow test_p99_grows_with_rate;
    Alcotest.test_case "coign_load_* metrics" `Slow test_metrics_instruments;
    Alcotest.test_case "pooled batches == sequential fill" `Quick test_pooled_batches;
    Alcotest.test_case "Loadsim.run allocation gate" `Slow test_run_allocation;
    qtest prop_arrivals_nondecreasing;
    qtest prop_draws_match_prng;
    qtest prop_arrival_spec_roundtrip;
    qtest prop_non_finite_spec_rejected;
    qtest ~long:false prop_percentiles_and_availability;
    qtest ~long:false prop_seed_determinism_across_pools;
    qtest prop_simulate_matches_reference;
    Alcotest.test_case "session draws == Prng stream reference across batches" `Quick
      test_draws_match_prng_across_batches;
  ]
