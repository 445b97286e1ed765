open Coign_util
open Coign_netsim
open Coign_core

type run = {
  fr_drop_rate : float;
  fr_partition_us : float;
  fr_stats : Adps.exec_stats;
}

type grid = {
  fg_network : Network.t;
  fg_seed : int64;
  fg_runs : run list;
}

let default_drop_rates = [ 0.; 0.01; 0.05; 0.1 ]
let default_partitions_us = [ 0.; 50_000. ]

let run ?pool ?profiler ?(seed = 0x5EEDL) ?(jitter = 0.) ?(retry = Fault.default_retry)
    ?(drop_rates = default_drop_rates) ?(partitions_us = default_partitions_us)
    ?(partition_start_us = 0.) ~image ~registry ~network scenario =
  let cells =
    Array.of_list
      (List.concat_map (fun d -> List.map (fun p -> (d, p)) partitions_us) drop_rates)
  in
  let timed f =
    match profiler with
    | None -> f ()
    | Some p -> Coign_obs.Profiler.time p "faultsim_cell" f
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
    (* Adps.execute decodes the distribution afresh, so every cell gets
       its own classifier state — nothing is shared across domains. *)
    {
      fr_drop_rate = d;
      fr_partition_us = p;
      fr_stats =
        timed (fun () ->
            Adps.execute ~image ~registry ~network ~jitter ~seed ~faults ~retry scenario);
    }
  in
  let runs =
    match pool with
    | None -> Array.map eval cells
    | Some pool -> Parallel.map pool ~f:eval cells
  in
  { fg_network = network; fg_seed = seed; fg_runs = Array.to_list runs }

let pp_text ppf g =
  Format.fprintf ppf "fault grid on %s (seed 0x%LX)@," g.fg_network.Network.net_name g.fg_seed;
  Format.fprintf ppf "%8s  %12s  %6s  %7s  %6s  %9s  %7s  %9s  %9s  %4s@," "drop" "partition ms"
    "calls" "retries" "drops" "fallbacks" "unreach" "comm (s)" "fault (s)" "done";
  Format.fprintf ppf "%s@," (String.make 96 '-');
  List.iter
    (fun r ->
      let s = r.fr_stats in
      Format.fprintf ppf "%8.3f  %12.1f  %6d  %7d  %6d  %9d  %7d  %9.3f  %9.3f  %4s@,"
        r.fr_drop_rate
        (r.fr_partition_us /. 1e3)
        s.Adps.es_remote_calls s.Adps.es_retries s.Adps.es_drops s.Adps.es_fallbacks
        s.Adps.es_unreachable
        (s.Adps.es_comm_us /. 1e6)
        (s.Adps.es_fault_us /. 1e6)
        (if s.Adps.es_completed then "yes" else "cut"))
    g.fg_runs

let to_json g =
  let cell r =
    let s = r.fr_stats in
    Printf.sprintf
      "{\"network\": \"%s\", \"seed\": \"0x%LX\", \"drop_rate\": %.17g, \"partition_us\": \
       %.17g, \"remote_calls\": %d, \"retries\": %d, \"drops\": %d, \"spikes\": %d, \
       \"fallbacks\": %d, \"unreachable\": %d, \"comm_us\": %.17g, \"fault_us\": %.17g, \
       \"completed\": %b}"
      (Jsonu.escape g.fg_network.Network.net_name)
      g.fg_seed r.fr_drop_rate r.fr_partition_us s.Adps.es_remote_calls s.Adps.es_retries
      s.Adps.es_drops s.Adps.es_spikes s.Adps.es_fallbacks s.Adps.es_unreachable
      s.Adps.es_comm_us s.Adps.es_fault_us s.Adps.es_completed
  in
  Printf.sprintf "[\n%s\n]\n" (String.concat ",\n" (List.map cell g.fg_runs))
