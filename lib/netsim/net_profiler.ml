open Coign_util

type t = {
  profiled_name : string;
  observations : (int * float) array;
  means : (int * float) array;
  fixed_us : float;
  per_byte_us : float;
}

(* Representative sizes: one per exponential bucket up to 1 MiB,
   matching the summaries the profiling logger produces. *)
let representative_sizes =
  let rec go acc size = if size > 1 lsl 20 then List.rev acc else go (size :: acc) (size * 2) in
  go [ 16 ] 64

(* Mean observed time per representative size, ascending. Observations
   come in one run per size, sizes ascending ([profile] samples them so
   and [penalize] keeps the order), so one pass sums each run in
   observation order. *)
let means_of (observations : (int * float) array) =
  let n = Array.length observations in
  let runs = ref [] and i = ref 0 in
  while !i < n do
    let size = fst observations.(!i) in
    let sum = ref 0. and count = ref 0 in
    while !i < n && fst observations.(!i) = size do
      sum := !sum +. snd observations.(!i);
      incr count;
      incr i
    done;
    runs := (size, !sum /. float_of_int !count) :: !runs
  done;
  Array.of_list (List.rev !runs)

let profile rng net =
  let observations =
    List.concat_map
      (fun size ->
        List.init 7 (fun _ ->
            let true_us = Network.message_us net ~bytes:size in
            let observed = Prng.gaussian rng ~mu:true_us ~sigma:(0.02 *. true_us) in
            (size, Float.max 0. observed)))
      representative_sizes
    |> Array.of_list
  in
  let points = Array.map (fun (b, us) -> (float_of_int b, us)) observations in
  let fixed_us, per_byte_us = Stats.linear_fit points in
  {
    profiled_name = net.Network.net_name;
    observations;
    means = means_of observations;
    fixed_us;
    per_byte_us;
  }

let predict_us t ~bytes =
  let means = t.means in
  let m = Array.length means in
  let v =
    if m < 2 then t.fixed_us +. (t.per_byte_us *. float_of_int bytes)
    else begin
      (* Interpolate between the bracketing representative sizes; use
         the global fit's slope beyond the sampled range. *)
      let smallest, t_small = means.(0) in
      let largest, t_large = means.(m - 1) in
      if bytes <= smallest then t_small -. (t.per_byte_us *. float_of_int (smallest - bytes))
      else if bytes >= largest then t_large +. (t.per_byte_us *. float_of_int (bytes - largest))
      else begin
        let i = ref 0 in
        while bytes > fst means.(!i + 1) do
          incr i
        done;
        let s1, t1 = means.(!i) and s2, t2 = means.(!i + 1) in
        t1 +. ((t2 -. t1) *. (float_of_int bytes -. float_of_int s1) /. float_of_int (s2 - s1))
      end
    end
  in
  Float.max 0. v

let predict_round_trip_us t ~request ~reply =
  predict_us t ~bytes:request +. predict_us t ~bytes:reply

let exact net =
  {
    profiled_name = net.Network.net_name;
    observations = [||];
    means = [||];
    fixed_us = net.Network.proc_us +. net.Network.latency_us;
    per_byte_us = 8. /. net.Network.bandwidth_mbps;
  }

let pp ppf t =
  Format.fprintf ppf "profile of %s: %.1fus + %.4fus/byte (%d obs)" t.profiled_name
    t.fixed_us t.per_byte_us (Array.length t.observations)

(* Derived failure-mode profiles (consumed by the fallback ladder in
   coign_core). Each shifts every observation and the fitted intercept
   by a fixed per-message penalty: the per-byte slope is untouched, so
   chatty pairs grow more expensive relative to bulky ones. A uniform
   *scaling* would leave every min cut unchanged — only a shape change
   can move the fallback cut. *)
let penalize t ~suffix ~penalty_us =
  (* The means are re-derived from the shifted observations: a shifted
     mean is not the same float as the mean of the shifted values. *)
  let observations = Array.map (fun (b, us) -> (b, us +. penalty_us)) t.observations in
  {
    profiled_name = t.profiled_name ^ "+" ^ suffix;
    observations;
    means = means_of observations;
    fixed_us = t.fixed_us +. penalty_us;
    per_byte_us = t.per_byte_us;
  }

let degrade t =
  let drop_rate = 0.3 and retry = Fault.default_retry in
  (* A round trip survives only when both legs do; every failed attempt
     costs a full timeout plus the base backoff before the retry. *)
  let p_fail = 1. -. ((1. -. drop_rate) ** 2.) in
  let expected_retries = p_fail /. (1. -. p_fail) in
  let penalty_us =
    expected_retries *. (retry.Fault.rp_timeout_us +. retry.Fault.rp_backoff_us)
  in
  penalize t ~suffix:(Printf.sprintf "lossy%g" drop_rate) ~penalty_us

let link_down t = penalize t ~suffix:"down" ~penalty_us:1e7
