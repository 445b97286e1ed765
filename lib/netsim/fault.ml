open Coign_util

type spec = {
  fs_drop_rate : float;
  fs_spike_rate : float;
  fs_spike_mean_us : float;
  fs_partitions_us : (float * float) list;
  fs_crashes_us : (float * float) list;
}

let zero =
  {
    fs_drop_rate = 0.;
    fs_spike_rate = 0.;
    fs_spike_mean_us = 0.;
    fs_partitions_us = [];
    fs_crashes_us = [];
  }

type t = { seed : int64; sp : spec }

let check_rate what r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg (Printf.sprintf "Fault.make: %s %g not in [0, 1]" what r)

let check_windows what ws =
  List.iter
    (fun (s, e) ->
      if not (e >= s) then
        invalid_arg (Printf.sprintf "Fault.make: %s window [%g, %g) ends before it starts" what s e))
    ws

let make ~seed sp =
  check_rate "drop rate" sp.fs_drop_rate;
  check_rate "spike rate" sp.fs_spike_rate;
  if sp.fs_spike_mean_us < 0. then invalid_arg "Fault.make: negative spike mean";
  check_windows "partition" sp.fs_partitions_us;
  check_windows "crash" sp.fs_crashes_us;
  { seed; sp }

let seed t = t.seed
let spec t = t.sp

type verdict = Drop | Delay of float | Deliver

let in_window at ws = List.exists (fun (s, e) -> at >= s && at < e) ws

(* Verdicts are keyed hashes, not generator draws: splitmix the seed
   with the message's send time, size, and a per-question salt. Order
   independence is what makes fault schedules reproducible across
   domain counts — no stream to race on. *)
let key t ~at_us ~bytes ~salt =
  let k = Prng.mix64 (Int64.logxor t.seed (Int64.bits_of_float at_us)) in
  let k = Prng.mix64 (Int64.logxor k (Int64.of_int bytes)) in
  Prng.mix64 (Int64.logxor k (Int64.of_int salt))

(* Top 53 bits as a float in [0, 1). *)
let u01 k = Int64.to_float (Int64.shift_right_logical k 11) /. 9007199254740992.0

let verdict t ~at_us ~bytes =
  let sp = t.sp in
  if in_window at_us sp.fs_partitions_us || in_window at_us sp.fs_crashes_us then Drop
  else if sp.fs_drop_rate > 0. && u01 (key t ~at_us ~bytes ~salt:1) < sp.fs_drop_rate then Drop
  else if sp.fs_spike_rate > 0. && u01 (key t ~at_us ~bytes ~salt:2) < sp.fs_spike_rate then
    Delay (-.sp.fs_spike_mean_us *. log (1.0 -. u01 (key t ~at_us ~bytes ~salt:3)))
  else Deliver

type retry_policy = {
  rp_timeout_us : float;
  rp_max_attempts : int;
  rp_backoff_us : float;
  rp_backoff_mult : float;
  rp_backoff_jitter : float;
}

let default_retry =
  {
    rp_timeout_us = 10_000.;
    rp_max_attempts = 3;
    rp_backoff_us = 1_000.;
    rp_backoff_mult = 2.;
    rp_backoff_jitter = 0.1;
  }

type spent = { mutable comm_us : float; mutable fault_us : float }
type counts = { mutable retries : int; mutable drops : int; mutable spikes : int }

let spent () = { comm_us = 0.; fault_us = 0. }
let counts () = { retries = 0; drops = 0; spikes = 0 }

let[@inline] verdict_of model ~at_us ~bytes =
  match model with None -> Deliver | Some m -> verdict m ~at_us ~bytes

(* One leg's nominal time over [network], with Gaussian noise of
   relative spread [jitter] clamped at 0 — [Float.max 0.], written out
   so the float stays unboxed. *)
let[@inline] leg_us network ~jitter ~jitter_rng ~bytes =
  let base = Network.message_us network ~bytes in
  if jitter = 0. then base
  else
    let us = Prng.gaussian jitter_rng ~mu:base ~sigma:(jitter *. base) in
    if us > 0. || Float.is_nan us then us else 0.

(* The attempts run in a loop over unboxed locals, and the outcome goes
   straight into the caller's totals: a call allocates nothing unless
   the model delays a message. *)
let call ~model ~retry ~rng ~network ~jitter ~jitter_rng ~now_us ~request_bytes ~reply_bytes
    ~spent ~counts =
  let max_attempts = max 1 retry.rp_max_attempts in
  let n = ref 1 and elapsed = ref 0. and fault_us = ref 0. in
  let ok = ref false and over = ref false in
  while not !over do
    let at = now_us +. !elapsed in
    let delivered =
      match verdict_of model ~at_us:at ~bytes:request_bytes with
      | Drop -> false
      | vq -> (
          (* Reply time before request time: `jittered rq +. jittered rp`
             evaluated its operands right to left, so the pre-fault RTE
             drew reply jitter first. Keeping that order makes fault-free
             runs bit-identical to the old code path at any jitter. *)
          let rp = leg_us network ~jitter ~jitter_rng ~bytes:reply_bytes in
          let rq = leg_us network ~jitter ~jitter_rng ~bytes:request_bytes in
          let dq = match vq with Delay d -> d | Deliver | Drop -> 0. in
          match verdict_of model ~at_us:(at +. rq +. dq) ~bytes:reply_bytes with
          | Drop -> false
          | vp ->
              let dp = match vp with Delay d -> d | Deliver | Drop -> 0. in
              let spikes_here =
                (match vq with Delay _ -> 1 | Deliver | Drop -> 0)
                + match vp with Delay _ -> 1 | Deliver | Drop -> 0
              in
              let spike_us = dq +. dp in
              spent.comm_us <- spent.comm_us +. (!elapsed +. (rq +. rp) +. spike_us);
              spent.fault_us <- spent.fault_us +. (!fault_us +. spike_us);
              counts.spikes <- counts.spikes + spikes_here;
              true)
    in
    if delivered then begin
      ok := true;
      over := true
    end
    else begin
      counts.drops <- counts.drops + 1;
      if !n >= max_attempts then begin
        spent.comm_us <- spent.comm_us +. (!elapsed +. retry.rp_timeout_us);
        spent.fault_us <- spent.fault_us +. (!fault_us +. retry.rp_timeout_us);
        over := true
      end
      else begin
        let backoff =
          let base = retry.rp_backoff_us *. (retry.rp_backoff_mult ** float_of_int (!n - 1)) in
          if retry.rp_backoff_jitter = 0. then base
          else base *. (1. +. (retry.rp_backoff_jitter *. Prng.float rng 1.0))
        in
        elapsed := !elapsed +. retry.rp_timeout_us +. backoff;
        fault_us := !fault_us +. retry.rp_timeout_us +. backoff;
        incr n
      end
    end
  done;
  counts.retries <- counts.retries + (!n - 1);
  !ok
