open Coign_util

type t = {
  profiled_name : string;
  obs_bytes : int array;
  obs_us : float array;
  mean_bytes : int array;
  mean_us : float array;
  fixed_us : float;
  per_byte_us : float;
}

(* Representative sizes: one per exponential bucket up to 1 MiB,
   matching the summaries the profiling logger produces. *)
let representative_sizes = Array.of_list (16 :: List.init 15 (fun i -> 64 lsl i))

let draws_per_size = 7

(* Mean observed time per sampled size. Observations come in one run
   of [draws_per_size] per size ([profile] samples them so and
   [penalize] keeps the order), each run summed in observation order. *)
let means_of obs_us =
  let mean_us = Array.make (Array.length obs_us / draws_per_size) 0. in
  for s = 0 to Array.length mean_us - 1 do
    let sum = ref 0. in
    for i = s * draws_per_size to ((s + 1) * draws_per_size) - 1 do
      sum := !sum +. obs_us.(i)
    done;
    mean_us.(s) <- !sum /. float_of_int draws_per_size
  done;
  mean_us

let profile rng net =
  let mean_bytes = Array.copy representative_sizes in
  let n = Array.length mean_bytes * draws_per_size in
  let obs_bytes = Array.make n 0 and obs_us = Array.make n 0. in
  for s = 0 to Array.length mean_bytes - 1 do
    let size = mean_bytes.(s) in
    let true_us = Network.message_us net ~bytes:size in
    for i = s * draws_per_size to ((s + 1) * draws_per_size) - 1 do
      let observed = Prng.gaussian rng ~mu:true_us ~sigma:(0.02 *. true_us) in
      obs_bytes.(i) <- size;
      obs_us.(i) <- Float.max 0. observed
    done
  done;
  let fixed_us, per_byte_us = Stats.linear_fit ~xs:obs_bytes ~ys:obs_us in
  {
    profiled_name = net.Network.net_name;
    obs_bytes;
    obs_us;
    mean_bytes;
    mean_us = means_of obs_us;
    fixed_us;
    per_byte_us;
  }

let predict_us t ~bytes =
  let sizes = t.mean_bytes and means = t.mean_us in
  let m = Array.length sizes in
  let v =
    if m < 2 then t.fixed_us +. (t.per_byte_us *. float_of_int bytes)
    else begin
      (* Interpolate between the bracketing representative sizes; use
         the global fit's slope beyond the sampled range. *)
      let smallest = sizes.(0) and largest = sizes.(m - 1) in
      if bytes <= smallest then means.(0) -. (t.per_byte_us *. float_of_int (smallest - bytes))
      else if bytes >= largest then
        means.(m - 1) +. (t.per_byte_us *. float_of_int (bytes - largest))
      else begin
        let i = ref 0 in
        while bytes > sizes.(!i + 1) do
          incr i
        done;
        let s1 = sizes.(!i) and s2 = sizes.(!i + 1) in
        let t1 = means.(!i) and t2 = means.(!i + 1) in
        t1 +. ((t2 -. t1) *. (float_of_int bytes -. float_of_int s1) /. float_of_int (s2 - s1))
      end
    end
  in
  Float.max 0. v

let exact net =
  {
    profiled_name = net.Network.net_name;
    obs_bytes = [||];
    obs_us = [||];
    mean_bytes = [||];
    mean_us = [||];
    fixed_us = net.Network.proc_us +. net.Network.latency_us;
    per_byte_us = 8. /. net.Network.bandwidth_mbps;
  }

let pp ppf t =
  Format.fprintf ppf "profile of %s: %.1fus + %.4fus/byte (%d obs)" t.profiled_name
    t.fixed_us t.per_byte_us (Array.length t.obs_us)

(* Derived failure-mode profiles (consumed by the fallback ladder in
   coign_core). Each shifts every observation and the fitted intercept
   by a fixed per-message penalty: the per-byte slope is untouched, so
   chatty pairs grow more expensive relative to bulky ones. A uniform
   *scaling* would leave every min cut unchanged — only a shape change
   can move the fallback cut. The sizes are the base's, shared. *)
let penalize t ~suffix ~penalty_us =
  (* The means are re-derived from the shifted observations: a shifted
     mean is not the same float as the mean of the shifted values. *)
  let obs_us = Array.make (Array.length t.obs_us) 0. in
  for i = 0 to Array.length obs_us - 1 do
    obs_us.(i) <- t.obs_us.(i) +. penalty_us
  done;
  {
    profiled_name = t.profiled_name ^ suffix;
    obs_bytes = t.obs_bytes;
    obs_us;
    mean_bytes = t.mean_bytes;
    mean_us = means_of obs_us;
    fixed_us = t.fixed_us +. penalty_us;
    per_byte_us = t.per_byte_us;
  }

(* A round trip survives only when both legs do; every failed attempt
   costs a full timeout plus the base backoff before the retry. *)
let drop_rate = 0.3

let lossy_penalty_us =
  let retry = Fault.default_retry in
  let p_fail = 1. -. ((1. -. drop_rate) ** 2.) in
  let expected_retries = p_fail /. (1. -. p_fail) in
  expected_retries *. (retry.Fault.rp_timeout_us +. retry.Fault.rp_backoff_us)

let lossy_suffix = Printf.sprintf "+lossy%g" drop_rate

let degrade t = penalize t ~suffix:lossy_suffix ~penalty_us:lossy_penalty_us

let link_down t = penalize t ~suffix:"+down" ~penalty_us:1e7
