open Coign_util

type t = {
  profiled_name : string;
  observations : (int * float) array;
  fixed_us : float;
  per_byte_us : float;
}

(* Representative sizes: one per exponential bucket up to 1 MiB,
   matching the summaries the profiling logger produces. *)
let representative_sizes =
  let rec go acc size = if size > 1 lsl 20 then List.rev acc else go (size :: acc) (size * 2) in
  go [ 16 ] 64

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
  { profiled_name = net.Network.net_name; observations; fixed_us; per_byte_us }

(* Mean observed time per representative size, ascending. *)
let size_means t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (size, us) ->
      let sum, n = Option.value ~default:(0., 0) (Hashtbl.find_opt tbl size) in
      Hashtbl.replace tbl size (sum +. us, n + 1))
    t.observations;
  Hashtbl.fold (fun size (sum, n) acc -> (size, sum /. float_of_int n) :: acc) tbl []
  |> List.sort compare |> Array.of_list

let predict_with t means ~bytes =
  let line () = t.fixed_us +. (t.per_byte_us *. float_of_int bytes) in
  let m = Array.length means in
  let v =
    if m < 2 then line ()
    else begin
      let fb = float_of_int bytes in
      (* Interpolate between the bracketing representative sizes; use
         the global fit's slope beyond the sampled range. *)
      let smallest, t_small = means.(0) in
      let largest, t_large = means.(m - 1) in
      if bytes <= smallest then t_small -. (t.per_byte_us *. float_of_int (smallest - bytes))
      else if bytes >= largest then t_large +. (t.per_byte_us *. float_of_int (bytes - largest))
      else begin
        let rec bracket i =
          let s1, t1 = means.(i) and s2, t2 = means.(i + 1) in
          if bytes <= s2 then
            t1 +. ((t2 -. t1) *. (fb -. float_of_int s1) /. float_of_int (s2 - s1))
          else bracket (i + 1)
        in
        bracket 0
      end
    end
  in
  Float.max 0. v

let predict_us t ~bytes = predict_with t (size_means t) ~bytes

type compiled = { c_profile : t; c_means : (int * float) array }

let compile t = { c_profile = t; c_means = size_means t }

let predict_compiled_us c ~bytes = predict_with c.c_profile c.c_means ~bytes

let predict_round_trip_us t ~request ~reply =
  predict_us t ~bytes:request +. predict_us t ~bytes:reply

let exact net =
  {
    profiled_name = net.Network.net_name;
    observations = [||];
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
  {
    profiled_name = t.profiled_name ^ "+" ^ suffix;
    observations = Array.map (fun (b, us) -> (b, us +. penalty_us)) t.observations;
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
