open Coign_util
open Coign_netsim
open Coign_core
open Coign_apps

(* ---------------------------------------------------------------- *)
(* Arrival processes                                                 *)
(* ---------------------------------------------------------------- *)

type arrival =
  | Poisson of float
  | Bursty of { b_rate : float; b_on_ms : float; b_off_ms : float }
  | Diurnal of { d_peak : float; d_period_s : float }

let validate_arrival a =
  let fields =
    match a with
    | Poisson r -> [ r ]
    | Bursty { b_rate; b_on_ms; b_off_ms } -> [ b_rate; b_on_ms; b_off_ms ]
    | Diurnal { d_peak; d_period_s } -> [ d_peak; d_period_s ]
  in
  if not (List.for_all Float.is_finite fields) then
    Error "arrival parameters must be finite numbers"
  else
    match a with
    | Poisson r -> if r <= 0. then Error "poisson rate must be positive" else Ok a
    | Bursty { b_rate; b_on_ms; b_off_ms } ->
        if b_rate <= 0. then Error "bursty rate must be positive"
        else if b_on_ms <= 0. then Error "bursty on-window must be positive"
        else if b_off_ms < 0. then Error "bursty off-window must be non-negative"
        else Ok a
    | Diurnal { d_peak; d_period_s } ->
        if d_peak <= 0. then Error "diurnal peak rate must be positive"
        else if d_period_s <= 0. then Error "diurnal period must be positive"
        else Ok a

let arrival_to_string = function
  | Poisson r -> Printf.sprintf "poisson:%g" r
  | Bursty { b_rate; b_on_ms; b_off_ms } ->
      Printf.sprintf "bursty:%g,%g,%g" b_rate b_on_ms b_off_ms
  | Diurnal { d_peak; d_period_s } -> Printf.sprintf "diurnal:%g,%g" d_peak d_period_s

let arrival_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "bad arrival spec %S (expected poisson:RATE, bursty:RATE,ON_MS,OFF_MS, or \
          diurnal:PEAK,PERIOD_S)"
         s)
  in
  let num x = float_of_string_opt (String.trim x) in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let parts = String.split_on_char ',' rest in
      match (kind, List.map num parts) with
      | "poisson", [ Some r ] -> validate_arrival (Poisson r)
      | "bursty", [ Some r; Some on; Some off ] ->
          validate_arrival (Bursty { b_rate = r; b_on_ms = on; b_off_ms = off })
      | "diurnal", [ Some p; Some per ] ->
          validate_arrival (Diurnal { d_peak = p; d_period_s = per })
      | _ -> fail ())

(* Per-session randomness comes from an independent splitmix stream of
   the master seed, so the draws are a pure function of (seed, index):
   sessions can be filled on any domain in any order and still agree
   with a sequential fill bit for bit. Session [s] draws, from
   [Prng.create (Prng.stream seed s)], a unit-mean [Prng.exponential]
   (its share of inter-arrival spacing) and then [Prng.int g classes]
   (its scenario), in that order. [draw] is that sequence inlined over
   a local splitmix state — the stream derivation, the [Prng.float]
   rejection loop for a non-zero uniform, and the 62-bit [Prng.int] —
   so a session allocates nothing; a test pins it to [Prng] bit for
   bit through [session_draws]. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Session [s]'s draws, written at index [at]. *)
let[@inline] draw ~seed ~classes (spacing : float array) class_of ~at s =
  let state = ref (mix (Int64.add seed (Int64.mul golden_gamma (Int64.of_int s)))) in
  let u = ref 0. in
  while not (!u > 0.) do
    state := Int64.add !state golden_gamma;
    u := Int64.to_float (Int64.shift_right_logical (mix !state) 11) /. 9007199254740992.0
  done;
  spacing.(at) <- -.log !u;
  state := Int64.add !state golden_gamma;
  class_of.(at) <- Int64.to_int (Int64.shift_right_logical (mix !state) 2) mod classes

let session_draws ~seed ~classes s =
  let e = [| 0. |] and c = [| 0 |] in
  draw ~seed ~classes e c ~at:0 s;
  (e.(0), c.(0))

let batch = 16_384

let gen_arrivals ?(pool = Parallel.sequential) ~seed ~sessions ~classes arrival =
  if sessions <= 0 then invalid_arg "Loadsim.gen_arrivals: sessions must be positive";
  if classes <= 0 then invalid_arg "Loadsim.gen_arrivals: classes must be positive";
  (match validate_arrival arrival with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Loadsim.gen_arrivals: " ^ e));
  let spacing = Array.make sessions 0. in
  let class_of = Array.make sessions 0 in
  let fill first last =
    for s = first to last do
      draw ~seed ~classes spacing class_of ~at:s s
    done
  in
  (* Each batch writes its own disjoint slice of the two arrays; on a
     zero-worker pool the batches simply fill in order. *)
  ignore
    (Parallel.map pool
       ~f:(fun i -> fill (i * batch) (min sessions ((i + 1) * batch) - 1))
       (Array.init ((sessions + batch - 1) / batch) Fun.id));
  (* The exponential draws become timestamps in one sequential prefix
     pass — each process is a monotone transform of the accumulated
     spacing, so timestamps are nondecreasing by construction. *)
  let arrivals = Array.make sessions 0. in
  (match arrival with
  | Poisson rate ->
      let t = ref 0. in
      for s = 0 to sessions - 1 do
        t := !t +. (spacing.(s) *. 1e6 /. rate);
        arrivals.(s) <- !t
      done
  | Bursty { b_rate; b_on_ms; b_off_ms } ->
      (* Poisson on a virtual always-on axis, then mapped through the
         on/off windows: time spent in off-windows is skipped, which
         compresses the same arrival mass into the on-windows. *)
      let on_us = b_on_ms *. 1e3 and off_us = b_off_ms *. 1e3 in
      let v = ref 0. in
      for s = 0 to sessions - 1 do
        v := !v +. (spacing.(s) *. 1e6 /. b_rate);
        let k = Float.of_int (int_of_float (!v /. on_us)) in
        arrivals.(s) <- (k *. (on_us +. off_us)) +. (!v -. (k *. on_us))
      done
  | Diurnal { d_peak; d_period_s } ->
      (* Thinning-free approximation: step the clock by the exponential
         draw scaled by the rate at the previous arrival. The rate
         curve is a raised cosine with a 5% floor so it never stalls. *)
      let period_us = d_period_s *. 1e6 in
      let rate t =
        d_peak
        *. (0.05
           +. (0.95 *. 0.5 *. (1. -. cos (2. *. Float.pi *. (t /. period_us)))))
      in
      let t = ref 0. in
      for s = 0 to sessions - 1 do
        t := !t +. (spacing.(s) *. 1e6 /. rate !t);
        arrivals.(s) <- !t
      done);
  (arrivals, class_of)

(* ---------------------------------------------------------------- *)
(* Session classes: a scenario compiled to per-op service demands     *)
(* ---------------------------------------------------------------- *)

type session_class = {
  cl_scenario : string;
  cl_host_svc : float array;
  cl_link_svc : float array;
  cl_comm_us : float;
}

(* The (request, reply) byte pairs Replay.replay's fault-free walk
   charges, in trace order, so that summing the unloaded per-op costs
   reproduces [re_comm_us] bit for bit. *)
let ops_of_events ~placement events =
  let ops = ref [] in
  let charge ~create:_ ~request ~reply =
    ops := (request, reply) :: !ops;
    true
  in
  ignore (Replay.walk ~placement ~charge ~violation:(fun ~iface:_ ~meth:_ -> ()) events);
  List.rev !ops

let class_of_ops ~network ~scenario ops =
  let n = List.length ops in
  let host_svc = Array.make n 0. and link_svc = Array.make n 0. in
  let comm = ref 0. in
  List.iteri
    (fun i (request, reply) ->
      (* Both messages of a synchronous call occupy the shared server
         CPU for their protocol processing, then the shared link for
         propagation and transmission. host + link = the unloaded
         round-trip Replay charges. *)
      host_svc.(i) <- Network.host_us network +. Network.host_us network;
      link_svc.(i) <-
        Network.wire_us network ~bytes:request +. Network.wire_us network ~bytes:reply;
      comm :=
        !comm
        +. (Network.message_us network ~bytes:request +. Network.message_us network ~bytes:reply))
    ops;
  { cl_scenario = scenario; cl_host_svc = host_svc; cl_link_svc = link_svc; cl_comm_us = !comm }

(* ---------------------------------------------------------------- *)
(* The event loop                                                    *)
(* ---------------------------------------------------------------- *)

type op_trace = {
  ot_session : int;
  ot_op : int;
  ot_ready_us : float;
  ot_host_start_us : float;
  ot_host_finish_us : float;
  ot_link_start_us : float;
  ot_finish_us : float;
}

type sim_totals = {
  st_latency_us : float array;
  st_host_busy_us : float;
  st_link_busy_us : float;
  st_last_finish_us : float;
  st_ops : int;
}

(* No event heap: host work arrives from exactly two nondecreasing
   streams — the sorted new-session arrivals, and the FIFO ring of
   sessions whose previous op just left the link. Both servers are
   single FIFO queues, so start and finish times are nondecreasing in
   processing order; in particular link finishes are nondecreasing,
   which keeps the pending ring sorted without ever sorting it. Ties
   between the streams go to the new arrival (any fixed rule preserves
   determinism; this one is documented so the hand trace can rely on
   it). The whole simulation is O(total ops) with O(sessions) flat
   storage.

   Every class's service demands sit end to end in one host and one
   link array: class [k]'s ops start at flat index [start.(k)] ([-1]
   for a class with no ops), and [next.(j)] is the flat index of the
   op after [j] in its class, or [-1] after the last. A ring slot holds
   a session's next flat index beside its ready time, so an op reads
   two flat arrays and no class record. The clocks and busy sums are
   local refs of the one loop, captured by no closure, so the native
   compiler keeps them unboxed. The loop reads and writes without
   bounds checks where the index is in range by construction: ring
   slots are below [cap], sessions below [n], and flat indices come
   from [start] and [next]. The one index that comes from the caller,
   [class_of.(s)], stays checked. *)
let simulate ?sink ~classes ~arrivals ~class_of () =
  let n = Array.length arrivals in
  if Array.length class_of <> n then invalid_arg "Loadsim.simulate: array length mismatch";
  let total = Array.fold_left (fun acc c -> acc + Array.length c.cl_host_svc) 0 classes in
  let host_svc = Array.make total 0. and link_svc = Array.make total 0. in
  let start = Array.make (Array.length classes) (-1) and next = Array.make total (-1) in
  let at = ref 0 in
  for k = 0 to Array.length classes - 1 do
    let c = classes.(k) in
    let len = Array.length c.cl_host_svc in
    Array.blit c.cl_host_svc 0 host_svc !at len;
    Array.blit c.cl_link_svc 0 link_svc !at len;
    if len > 0 then start.(k) <- !at;
    for j = !at to !at + len - 2 do
      next.(j) <- j + 1
    done;
    at := !at + len
  done;
  let lat = Array.make n 0. in
  let cap = n + 1 in
  let ring_s = Array.make cap 0 and ring_j = Array.make cap 0 and ring_t = Array.make cap 0. in
  let head = ref 0 and tail = ref 0 and next_new = ref 0 in
  let host_free = ref 0. and link_free = ref 0. in
  let host_busy = ref 0. and link_busy = ref 0. in
  let last_finish = ref 0. and ops_done = ref 0 in
  let s = ref 0 and j = ref 0 and t = ref 0. in
  while !next_new < n || !head <> !tail do
    if
      !next_new < n
      && (!head = !tail
         || Array.unsafe_get arrivals !next_new <= Array.unsafe_get ring_t !head)
    then begin
      s := !next_new;
      incr next_new;
      t := Array.unsafe_get arrivals !s;
      j := start.(class_of.(!s))
    end
    else begin
      s := Array.unsafe_get ring_s !head;
      j := Array.unsafe_get ring_j !head;
      t := Array.unsafe_get ring_t !head;
      head := if !head + 1 = cap then 0 else !head + 1
    end;
    if !j < 0 then begin
      (* A fully co-located mix: the session never touches the
         network and completes the instant it arrives. *)
      Array.unsafe_set lat !s (!t -. Array.unsafe_get arrivals !s);
      if !t > !last_finish then last_finish := !t
    end
    else begin
      let h = Array.unsafe_get host_svc !j and l = Array.unsafe_get link_svc !j in
      let hs = if !t > !host_free then !t else !host_free in
      let hf = hs +. h in
      host_free := hf;
      host_busy := !host_busy +. h;
      let ls = if hf > !link_free then hf else !link_free in
      let lf = ls +. l in
      link_free := lf;
      link_busy := !link_busy +. l;
      incr ops_done;
      (match sink with
      | Some f ->
          f
            {
              ot_session = !s;
              ot_op = !j - start.(class_of.(!s));
              ot_ready_us = !t;
              ot_host_start_us = hs;
              ot_host_finish_us = hf;
              ot_link_start_us = ls;
              ot_finish_us = lf;
            }
      | None -> ());
      let nj = Array.unsafe_get next !j in
      if nj >= 0 then begin
        Array.unsafe_set ring_s !tail !s;
        Array.unsafe_set ring_j !tail nj;
        Array.unsafe_set ring_t !tail lf;
        tail := if !tail + 1 = cap then 0 else !tail + 1
      end
      else begin
        Array.unsafe_set lat !s (lf -. Array.unsafe_get arrivals !s);
        if lf > !last_finish then last_finish := lf
      end
    end
  done;
  {
    st_latency_us = lat;
    st_host_busy_us = !host_busy;
    st_link_busy_us = !link_busy;
    st_last_finish_us = !last_finish;
    st_ops = !ops_done;
  }

(* ---------------------------------------------------------------- *)
(* The full run                                                      *)
(* ---------------------------------------------------------------- *)

type class_stat = {
  cs_scenario : string;
  cs_sessions : int;
  cs_ops : int;
  cs_comm_us : float;
}

type result = {
  r_app : string;
  r_network : string;
  r_arrival : arrival;
  r_seed : int64;
  r_sessions : int;
  r_queueing : bool;
  r_deadline_us : float option;
  r_classes : class_stat list;
  r_total_ops : int;
  r_p50_us : float;
  r_p95_us : float;
  r_p99_us : float;
  r_mean_us : float;
  r_max_us : float;
  r_throughput_per_s : float;
  r_availability : float;
  r_duration_us : float;
  r_host_util : float;
  r_link_util : float;
}

let compile_classes ~image ~network ~app scenarios =
  List.map
    (fun (sc : App.scenario) ->
      (* A fresh decode per scenario: profiling-RTE recordings advance
         classifier state, so sharing one decoded classifier across
         scenarios would let one recording perturb the next. *)
      match Adps.load_distribution image with
      | None ->
          invalid_arg
            "Loadsim.run: image holds no distribution (profile and analyze it first)"
      | Some (classifier, dist) ->
          let events =
            Replay.record_scenario ~registry:app.App.app_registry ~classifier sc.App.sc_run
          in
          let ops = ops_of_events ~placement:(Analysis.location_of dist) events in
          class_of_ops ~network ~scenario:sc.App.sc_id ops)
    scenarios

let run ?pool ?metrics ?(queueing = true) ?deadline_us ?scenarios ~sessions ~arrival ~seed
    ~image ~network () =
  if sessions <= 0 then invalid_arg "Loadsim.run: sessions must be positive";
  (match deadline_us with
  | Some d when not (d > 0. && Float.is_finite d) ->
      invalid_arg "Loadsim.run: deadline must be finite and positive"
  | _ -> ());
  let app =
    try Suite.find_app image.Coign_image.Binary_image.img_name
    with Not_found ->
      invalid_arg
        ("Loadsim.run: unknown application " ^ image.Coign_image.Binary_image.img_name)
  in
  let mix =
    match scenarios with
    | None -> App.non_bigone app
    | Some [] -> invalid_arg "Loadsim.run: empty scenario mix"
    | Some ids ->
        List.map
          (fun id ->
            try App.scenario app id
            with Not_found -> invalid_arg ("Loadsim.run: unknown scenario " ^ id))
          ids
  in
  let classes = Array.of_list (compile_classes ~image ~network ~app mix) in
  let arrivals, class_of =
    gen_arrivals ?pool ~seed ~sessions ~classes:(Array.length classes) arrival
  in
  let totals =
    if queueing then simulate ~classes ~arrivals ~class_of ()
    else begin
      (* Queueing off: every server is infinitely wide, so a session's
         latency is exactly its class's unloaded Replay estimate. *)
      let sum svc = Array.map (fun c -> Array.fold_left ( +. ) 0. (svc c)) classes in
      let host_sum = sum (fun c -> c.cl_host_svc) and link_sum = sum (fun c -> c.cl_link_svc) in
      let lat = Array.make sessions 0. in
      let host = ref 0. and link = ref 0. in
      let last = ref 0. and ops = ref 0 in
      for s = 0 to sessions - 1 do
        let k = class_of.(s) in
        let c = classes.(k) in
        lat.(s) <- c.cl_comm_us;
        let f = arrivals.(s) +. c.cl_comm_us in
        if f > !last then last := f;
        ops := !ops + Array.length c.cl_host_svc;
        host := !host +. host_sum.(k);
        link := !link +. link_sum.(k)
      done;
      {
        st_latency_us = lat;
        st_host_busy_us = !host;
        st_link_busy_us = !link;
        st_last_finish_us = !last;
        st_ops = !ops;
      }
    end
  in
  let lat = totals.st_latency_us in
  let duration = totals.st_last_finish_us -. arrivals.(0) in
  let throughput =
    if duration > 0. then float_of_int sessions /. (duration /. 1e6) else 0.
  in
  (* The mean and the deadline count read the latencies in session
     order, before selection permutes them: the float sum depends on
     the order of its terms. *)
  let sum = ref 0. and ok = ref 0 in
  let deadline = Option.value deadline_us ~default:infinity in
  for s = 0 to sessions - 1 do
    sum := !sum +. lat.(s);
    if lat.(s) <= deadline then incr ok
  done;
  let mean = !sum /. float_of_int sessions in
  let availability =
    match deadline_us with
    | None -> 1.
    | Some _ -> float_of_int !ok /. float_of_int sessions
  in
  (* Percentile 100 is rank n-1, so selection also leaves the maximum
     at the end of [lat]. *)
  let q = Stats.percentiles_in_place lat [| 50.; 95.; 99.; 100. |] in
  let per_class_sessions = Array.make (Array.length classes) 0 in
  Array.iter (fun c -> per_class_sessions.(c) <- per_class_sessions.(c) + 1) class_of;
  let class_stats =
    List.mapi
      (fun i c ->
        {
          cs_scenario = c.cl_scenario;
          cs_sessions = per_class_sessions.(i);
          cs_ops = Array.length c.cl_host_svc;
          cs_comm_us = c.cl_comm_us;
        })
      (Array.to_list classes)
  in
  let result =
    {
      r_app = app.App.app_name;
      r_network = network.Network.net_name;
      r_arrival = arrival;
      r_seed = seed;
      r_sessions = sessions;
      r_queueing = queueing;
      r_deadline_us = deadline_us;
      r_classes = class_stats;
      r_total_ops = totals.st_ops;
      r_p50_us = q.(0);
      r_p95_us = q.(1);
      r_p99_us = q.(2);
      r_mean_us = mean;
      r_max_us = lat.(sessions - 1);
      r_throughput_per_s = throughput;
      r_availability = availability;
      r_duration_us = duration;
      r_host_util = (if duration > 0. then totals.st_host_busy_us /. duration else 0.);
      r_link_util = (if duration > 0. then totals.st_link_busy_us /. duration else 0.);
    }
  in
  (match metrics with
  | None -> ()
  | Some reg ->
      let open Coign_obs in
      Metrics.inc_int
        (Metrics.counter reg ~help:"Sessions driven by the open-loop load simulator"
           "coign_load_sessions_total")
        sessions;
      Metrics.inc_int
        (Metrics.counter reg ~help:"Remote operations simulated under load"
           "coign_load_ops_total")
        totals.st_ops;
      let lat_hist =
        Metrics.histogram reg ~help:"End-to-end session latency under load (us)"
          "coign_load_session_latency_us"
      in
      (* Bucket counts and the integer sum do not depend on order, so
         the selection's permutation of [lat] is invisible here. *)
      Array.iter (fun l -> Metrics.observe lat_hist (int_of_float l)) lat;
      let comm_hist =
        Metrics.histogram reg ~help:"Unloaded per-session communication time (us)"
          "coign_load_session_comm_us"
      in
      Array.iter
        (fun c -> Metrics.observe comm_hist (int_of_float classes.(c).cl_comm_us))
        class_of;
      Metrics.set
        (Metrics.gauge reg ~help:"Observed session completion rate" "coign_load_throughput_per_s")
        throughput;
      Metrics.set
        (Metrics.gauge reg ~help:"Fraction of sessions within the deadline"
           "coign_load_availability")
        availability);
  result

(* ---------------------------------------------------------------- *)
(* Rendering                                                         *)
(* ---------------------------------------------------------------- *)

let pp_text ppf r =
  Format.fprintf ppf "open-loop load: %s on %s@," r.r_app r.r_network;
  Format.fprintf ppf "arrival %s, %d sessions, seed 0x%LX, queueing %s@,"
    (arrival_to_string r.r_arrival) r.r_sessions r.r_seed
    (if r.r_queueing then "on" else "off");
  Format.fprintf ppf "%-10s  %9s  %11s  %12s@," "scenario" "sessions" "ops/session"
    "comm (ms)";
  Format.fprintf ppf "%s@," (String.make 48 '-');
  List.iter
    (fun c ->
      Format.fprintf ppf "%-10s  %9d  %11d  %12.3f@," c.cs_scenario c.cs_sessions c.cs_ops
        (c.cs_comm_us /. 1e3))
    r.r_classes;
  Format.fprintf ppf "latency ms: p50 %.3f  p95 %.3f  p99 %.3f  mean %.3f  max %.3f@,"
    (r.r_p50_us /. 1e3) (r.r_p95_us /. 1e3) (r.r_p99_us /. 1e3) (r.r_mean_us /. 1e3)
    (r.r_max_us /. 1e3);
  Format.fprintf ppf "throughput %.2f sessions/s, availability %.4f%s@," r.r_throughput_per_s
    r.r_availability
    (match r.r_deadline_us with
    | None -> ""
    | Some d -> Printf.sprintf " (deadline %.1f ms)" (d /. 1e3));
  Format.fprintf ppf "host util %.3f, link util %.3f, duration %.3f s, %d remote ops@,"
    r.r_host_util r.r_link_util (r.r_duration_us /. 1e6) r.r_total_ops

let to_json r =
  Jsonu.Obj
    [
      ("app", Jsonu.Str r.r_app);
      ("network", Jsonu.Str r.r_network);
      ("arrival", Jsonu.Str (arrival_to_string r.r_arrival));
      ("seed", Jsonu.Str (Printf.sprintf "0x%LX" r.r_seed));
      ("sessions", Jsonu.Int r.r_sessions);
      ("queueing", Jsonu.Bool r.r_queueing);
      ( "deadline_us",
        match r.r_deadline_us with None -> Jsonu.Null | Some d -> Jsonu.Float d );
      ( "classes",
        Jsonu.Arr
          (List.map
             (fun c ->
               Jsonu.Obj
                 [
                   ("scenario", Jsonu.Str c.cs_scenario);
                   ("sessions", Jsonu.Int c.cs_sessions);
                   ("ops_per_session", Jsonu.Int c.cs_ops);
                   ("comm_us", Jsonu.Float c.cs_comm_us);
                 ])
             r.r_classes) );
      ("total_ops", Jsonu.Int r.r_total_ops);
      ("p50_us", Jsonu.Float r.r_p50_us);
      ("p95_us", Jsonu.Float r.r_p95_us);
      ("p99_us", Jsonu.Float r.r_p99_us);
      ("mean_us", Jsonu.Float r.r_mean_us);
      ("max_us", Jsonu.Float r.r_max_us);
      ("throughput_per_s", Jsonu.Float r.r_throughput_per_s);
      ("availability", Jsonu.Float r.r_availability);
      ("duration_us", Jsonu.Float r.r_duration_us);
      ("host_util", Jsonu.Float r.r_host_util);
      ("link_util", Jsonu.Float r.r_link_util);
    ]
