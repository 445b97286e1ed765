open Coign_util
open Coign_netsim
open Coign_core

type regime = Clean | Crash | Partition

let regime_name = function
  | Clean -> "clean"
  | Crash -> "crash"
  | Partition -> "partition"

type cell = {
  fr_pool : int;
  fr_regime : regime;
  fr_baseline : Adps.exec_stats;
  fr_fleet : Adps.exec_stats;
  fr_fleet_stats : Rte.fleet_stats;
  fr_identical : bool option;
}

type grid = {
  fg_network : Network.t;
  fg_seed : int64;
  fg_clean_calls : int;
  fg_clean_remote : int;
  fg_replicas : int;
  fg_cells : cell list;
}

let default_pools = [ 1; 2; 3 ]
let default_regimes = [ Clean; Crash; Partition ]
let default_fault_window_us = (50_000., 550_000.)

let availability g (s : Adps.exec_stats) =
  if g.fg_clean_calls = 0 then 1.
  else Float.min 1. (float_of_int s.Adps.es_intercepted /. float_of_int g.fg_clean_calls)

let served g (s : Adps.exec_stats) =
  if g.fg_clean_remote = 0 then 1.
  else Float.min 1. (float_of_int s.Adps.es_remote_calls /. float_of_int g.fg_clean_remote)

let run ?pool ?profiler ?(seed = 0x5EEDL) ?(jitter = 0.) ?(retry = Fault.default_retry)
    ?health ?max_probe_rounds ?modes ?(replicas = 2) ?map ?(pools = default_pools)
    ?(regimes = default_regimes) ?(fault_window_us = default_fault_window_us) ~image
    ~registry ~network scenario =
  (* One analysis session prices the primary cut, the two-host base
     ladder and every pool ladder, all off the exact network model.
     Ladders and configs are immutable; each execute installs its own
     breaker and shard state, so cells evaluate independently across
     domains and the grid is bit-identical for any [pool]. *)
  let net = Net_profiler.exact network in
  let session = Adps.analysis_session ?profiler image in
  let image, primary = Adps.analyze_with ?profiler ~session ~image ~net () in
  let base = Fallback.compute ?profiler ?modes ~primary session ~net () in
  let resilience = Rte.resilience ?health ?max_probe_rounds base in
  let ladders =
    List.map
      (fun k -> (k, Fallback.pool_ladder ~replicas ?map ~hosts:k session ~net base))
      (List.sort_uniq compare pools)
  in
  let timed f =
    match profiler with
    | None -> f ()
    | Some p -> Coign_obs.Profiler.time p "fleetsim_cell" f
  in
  let clean =
    timed (fun () -> Adps.execute ~image ~registry ~network ~jitter ~seed ~retry scenario)
  in
  let window_spec =
    let start_us, stop_us = fault_window_us in
    { Fault.zero with Fault.fs_partitions_us = [ (start_us, stop_us) ] }
  in
  let cells =
    Array.of_list (List.concat_map (fun (k, l) -> List.map (fun r -> (k, l, r)) regimes) ladders)
  in
  let eval (k, ladder, regime) =
    (* The baseline is PR 5's two-host resilience path under the
       regime applied globally. Fleet cells see the same regime, but a
       crash is a *host* event: host 0's link partitions while the
       rest of the pool stays reachable. A pool of one has no other
       host, so its crash is the global partition — exactly the
       baseline's world, which is what lets the pool-1 row double as
       the bit-identity check. *)
    let global_faults =
      match regime with
      | Clean -> None
      | Crash | Partition -> Some window_spec
    in
    let host_faults =
      match regime with Crash when k > 1 -> [ (0, window_spec) ] | _ -> []
    in
    let fleet_faults = if host_faults = [] then global_faults else None in
    let baseline =
      timed (fun () ->
          Adps.execute ~image ~registry ~network ~jitter ~seed ?faults:global_faults ~retry
            ~resilience scenario)
    in
    let fleet_config = Rte.fleet ?health ?max_probe_rounds ~host_faults ladder in
    let fleet_exec, fleet_stats =
      timed (fun () ->
          Adps.execute_fleet ~image ~registry ~network ~jitter ~seed ?faults:fleet_faults
            ~retry ~fleet:fleet_config scenario)
    in
    {
      fr_pool = k;
      fr_regime = regime;
      fr_baseline = baseline;
      fr_fleet = fleet_exec;
      fr_fleet_stats = fleet_stats;
      fr_identical = (if k = 1 then Some (fleet_exec = baseline) else None);
    }
  in
  let runs =
    match pool with
    | None -> Array.map eval cells
    | Some pool -> Parallel.map pool ~f:eval cells
  in
  {
    fg_network = network;
    fg_seed = seed;
    fg_clean_calls = clean.Adps.es_intercepted;
    fg_clean_remote = clean.Adps.es_remote_calls;
    fg_replicas = replicas;
    fg_cells = Array.to_list runs;
  }

let pp_text ppf g =
  Format.fprintf ppf
    "fleet grid on %s (seed 0x%LX, %d clean calls, %d clean remote, %d replica(s))@,"
    g.fg_network.Network.net_name g.fg_seed g.fg_clean_calls g.fg_clean_remote g.fg_replicas;
  Format.fprintf ppf "%4s  %9s  %7s  %7s  %7s  %7s  %6s  %6s  %6s  %7s  %5s  %6s  %5s@,"
    "pool" "regime" "avail-b" "avail-f" "serve-b" "serve-f" "opens" "promos" "splits"
    "resizes" "hosts" "rung" "ident";
  Format.fprintf ppf "%s@," (String.make 108 '-');
  List.iter
    (fun r ->
      let b = r.fr_baseline and f = r.fr_fleet and fs = r.fr_fleet_stats in
      Format.fprintf ppf
        "%4d  %9s  %7.3f  %7.3f  %7.3f  %7.3f  %6d  %6d  %6d  %7d  %5d  %6d  %5s@," r.fr_pool
        (regime_name r.fr_regime) (availability g b) (availability g f) (served g b)
        (served g f) fs.Rte.fs_breaker_opens fs.Rte.fs_promotions fs.Rte.fs_splits
        fs.Rte.fs_resizes fs.Rte.fs_final_hosts fs.Rte.fs_final_rung
        (match r.fr_identical with
        | None -> "-"
        | Some true -> "yes"
        | Some false -> "NO"))
    g.fg_cells

let to_json g =
  let side (s : Adps.exec_stats) =
    Printf.sprintf
      "{\"availability\": %.17g, \"served\": %.17g, \"intercepted\": %d, \"remote_calls\": %d, \
       \"retries\": %d, \"drops\": %d, \"unreachable\": %d, \"comm_us\": %.17g, \
       \"fault_us\": %.17g, \"breaker_opens\": %d, \"failovers\": %d, \"failbacks\": %d, \
       \"migrations\": %d, \"stranded_calls\": %d, \"rescued_calls\": %d, \
       \"final_rung\": %d, \"completed\": %b}"
      (availability g s) (served g s) s.Adps.es_intercepted s.Adps.es_remote_calls
      s.Adps.es_retries s.Adps.es_drops s.Adps.es_unreachable s.Adps.es_comm_us
      s.Adps.es_fault_us s.Adps.es_breaker_opens s.Adps.es_failovers s.Adps.es_failbacks
      s.Adps.es_migrations s.Adps.es_stranded_calls s.Adps.es_rescued_calls
      s.Adps.es_final_rung s.Adps.es_completed
  in
  let pool_side (fs : Rte.fleet_stats) =
    Printf.sprintf
      "{\"promotions\": %d, \"splits\": %d, \"resizes\": %d, \"inter_host_calls\": %d, \
       \"final_hosts\": %d, \"final_shards\": %d}"
      fs.Rte.fs_promotions fs.Rte.fs_splits fs.Rte.fs_resizes fs.Rte.fs_inter_host_calls
      fs.Rte.fs_final_hosts fs.Rte.fs_final_shards
  in
  let cell r =
    Printf.sprintf
      "{\"network\": \"%s\", \"seed\": \"0x%LX\", \"clean_calls\": %d, \"clean_remote\": %d, \
       \"pool\": %d, \"regime\": \"%s\", \"identical\": %s, \"baseline\": %s, \"fleet\": %s, \
       \"pool_stats\": %s}"
      (Jsonu.escape g.fg_network.Network.net_name)
      g.fg_seed g.fg_clean_calls g.fg_clean_remote r.fr_pool (regime_name r.fr_regime)
      (match r.fr_identical with
      | None -> "null"
      | Some b -> string_of_bool b)
      (side r.fr_baseline) (side r.fr_fleet)
      (pool_side r.fr_fleet_stats)
  in
  Printf.sprintf "[\n%s\n]\n" (String.concat ",\n" (List.map cell g.fg_cells))
