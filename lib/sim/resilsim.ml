open Coign_util
open Coign_netsim
open Coign_core

type cell = {
  rr_drop_rate : float;
  rr_partition_us : float;
  rr_baseline : Adps.exec_stats; (* PR 3 retry-only path *)
  rr_resilient : Adps.exec_stats; (* breaker + fallback ladder *)
}

type grid = {
  rg_network : Network.t;
  rg_seed : int64;
  rg_clean_calls : int; (* intercepted calls of a fault-free run *)
  rg_ladder : Fallback.t;
  rg_cells : cell list;
}

let default_drop_rates = [ 0.; 0.05; 0.1 ]
let default_partitions_us = [ 0.; 200_000. ]

(* Fraction of the scenario's intercepted calls that actually executed
   before the run completed or was cut short — the availability a user
   of the distributed application experiences under the fault regime. *)
let availability g (s : Adps.exec_stats) =
  if g.rg_clean_calls = 0 then 1.
  else Float.min 1. (float_of_int s.Adps.es_intercepted /. float_of_int g.rg_clean_calls)

let run ?pool ?profiler ?(seed = 0x5EEDL) ?(jitter = 0.) ?(retry = Fault.default_retry)
    ?health ?max_probe_rounds ?modes ?(drop_rates = default_drop_rates)
    ?(partitions_us = default_partitions_us) ?(partition_start_us = 0.) ~image ~registry
    ~network scenario =
  (* One analysis session prices both the primary cut and every
     fallback rung, all off the exact network model (deterministic — no
     profiling noise in the cuts). The ladder and config are immutable;
     each execute installs its own breaker state, so cells evaluate
     independently across domains. *)
  let net = Net_profiler.exact network in
  let session = Adps.analysis_session ?profiler image in
  let image, primary = Adps.analyze_with ?profiler ~session ~image ~net () in
  let ladder = Fallback.compute ?profiler ?modes ~primary session ~net () in
  let resilience = Rte.resilience ?health ?max_probe_rounds ladder in
  let timed f =
    match profiler with
    | None -> f ()
    | Some p -> Coign_obs.Profiler.time p "resilsim_cell" f
  in
  let clean =
    timed (fun () -> Adps.execute ~image ~registry ~network ~jitter ~seed ~retry scenario)
  in
  let cells =
    Array.of_list
      (List.concat_map (fun d -> List.map (fun p -> (d, p)) partitions_us) drop_rates)
  in
  let eval (d, p) =
    let faults =
      {
        Fault.zero with
        Fault.fs_drop_rate = d;
        fs_partitions_us =
          (if p > 0. then [ (partition_start_us, partition_start_us +. p) ] else []);
      }
    in
    {
      rr_drop_rate = d;
      rr_partition_us = p;
      rr_baseline =
        timed (fun () ->
            Adps.execute ~image ~registry ~network ~jitter ~seed ~faults ~retry scenario);
      rr_resilient =
        timed (fun () ->
            Adps.execute ~image ~registry ~network ~jitter ~seed ~faults ~retry ~resilience
              scenario);
    }
  in
  let runs =
    match pool with
    | None -> Array.map eval cells
    | Some pool -> Parallel.map pool ~f:eval cells
  in
  {
    rg_network = network;
    rg_seed = seed;
    rg_clean_calls = clean.Adps.es_intercepted;
    rg_ladder = ladder;
    rg_cells = Array.to_list runs;
  }

let pp_text ppf g =
  Format.fprintf ppf "resilience grid on %s (seed 0x%LX, %d clean calls)@,"
    g.rg_network.Network.net_name g.rg_seed g.rg_clean_calls;
  Format.fprintf ppf "%a@," Fallback.pp g.rg_ladder;
  Format.fprintf ppf "%8s  %12s  %7s  %7s  %10s  %5s  %6s  %8s  %7s  %4s  %9s@," "drop"
    "partition ms" "avail-b" "avail-r" "dcomm (s)" "opens" "fovers" "stranded" "rescued"
    "rung" "done(b/r)";
  Format.fprintf ppf "%s@," (String.make 104 '-');
  List.iter
    (fun r ->
      let b = r.rr_baseline and s = r.rr_resilient in
      Format.fprintf ppf
        "%8.3f  %12.1f  %7.3f  %7.3f  %10.3f  %5d  %6d  %8d  %7d  %4d  %5s/%s@,"
        r.rr_drop_rate
        (r.rr_partition_us /. 1e3)
        (availability g b) (availability g s)
        ((s.Adps.es_comm_us -. b.Adps.es_comm_us) /. 1e6)
        s.Adps.es_breaker_opens s.Adps.es_failovers s.Adps.es_stranded_calls
        s.Adps.es_rescued_calls s.Adps.es_final_rung
        (if b.Adps.es_completed then "yes" else "cut")
        (if s.Adps.es_completed then "yes" else "cut"))
    g.rg_cells

let to_json g =
  let side (s : Adps.exec_stats) =
    Printf.sprintf
      "{\"availability\": %.17g, \"intercepted\": %d, \"remote_calls\": %d, \"retries\": %d, \
       \"drops\": %d, \"unreachable\": %d, \"comm_us\": %.17g, \"fault_us\": %.17g, \
       \"breaker_opens\": %d, \"breaker_closes\": %d, \"failovers\": %d, \"failbacks\": %d, \
       \"migrations\": %d, \"stranded_calls\": %d, \"rescued_calls\": %d, \"final_rung\": %d, \
       \"completed\": %b}"
      (availability g s) s.Adps.es_intercepted s.Adps.es_remote_calls s.Adps.es_retries
      s.Adps.es_drops s.Adps.es_unreachable s.Adps.es_comm_us s.Adps.es_fault_us
      s.Adps.es_breaker_opens s.Adps.es_breaker_closes s.Adps.es_failovers
      s.Adps.es_failbacks s.Adps.es_migrations s.Adps.es_stranded_calls
      s.Adps.es_rescued_calls s.Adps.es_final_rung s.Adps.es_completed
  in
  let cell r =
    Printf.sprintf
      "{\"network\": \"%s\", \"seed\": \"0x%LX\", \"clean_calls\": %d, \"drop_rate\": %.17g, \
       \"partition_us\": %.17g, \"baseline\": %s, \"resilient\": %s}"
      (Jsonu.escape g.rg_network.Network.net_name)
      g.rg_seed g.rg_clean_calls r.rr_drop_rate r.rr_partition_us (side r.rr_baseline)
      (side r.rr_resilient)
  in
  Printf.sprintf "[\n%s\n]\n" (String.concat ",\n" (List.map cell g.rg_cells))
