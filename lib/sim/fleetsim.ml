open Coign_util
open Coign_netsim
open Coign_core

type regime = Clean | Crash | Partition

let regime_name = function
  | Clean -> "clean"
  | Crash -> "crash"
  | Partition -> "partition"

type axes = { drop_rates : float list; partitions_us : float list; partition_start_us : float }

type view =
  | Faults of axes
  | Resilience of axes
  | Fleet of { pools : int list; replicas : int; fault_window_us : float * float }

let default_fault_window_us = (50_000., 550_000.)

type row =
  | Faults_row of { drop_rate : float; partition_us : float; retry : Adps.exec_stats }
  | Resilience_row of {
      drop_rate : float;
      partition_us : float;
      retry : Adps.exec_stats;
      ladder : Adps.exec_stats;
    }
  | Fleet_row of {
      pool : int;
      regime : regime;
      ladder : Adps.exec_stats;
      fleet : Adps.exec_stats;
      pool_stats : Rte.fleet_stats;
    }

type grid = {
  g_view : view;
  g_network : Network.t;
  g_seed : int64;
  g_clean_calls : int;
  g_clean_remote : int;
  g_ladder : Fallback.t option;
  g_rows : row list;
}

(* A cell: global link faults ([None] = clean), per-host overlays (pool
   cells only) and the policy routing the scenario. Equal cells run
   once. *)
type policy = Retry | Ladder | Pool of int

type cell = {
  c_faults : Fault.spec option;
  c_host_faults : (int * Fault.spec) list;
  c_policy : policy;
}

let cell ?(host_faults = []) faults policy =
  { c_faults = faults; c_host_faults = host_faults; c_policy = policy }

(* Every (drop rate, partition length) point of [a], with its fault
   spec. *)
let fault_points a point =
  List.concat_map
    (fun d ->
      List.map
        (fun p ->
          let start = a.partition_start_us in
          point d p
            (Some
               {
                 Fault.zero with
                 Fault.fs_drop_rate = d;
                 fs_partitions_us = (if p > 0. then [ (start, start +. p) ] else []);
               }))
        a.partitions_us)
    a.drop_rates

let run ?(pool = Parallel.sequential) ?profiler ?(seed = 0x5EEDL) ?(jitter = 0.) ?health ~image
    ~registry ~network view scenario =
  (* The re-cut views price the primary cut, the base ladder and every
     pool ladder in one analysis session, off the exact network model.
     Ladders and configs are immutable; each execution installs its own
     breaker and shard state. *)
  let recut () =
    let net = Net_profiler.exact network in
    let session = Adps.analysis_session ?profiler image in
    let image, primary = Adps.analyze_with ?profiler ~session ~image ~net () in
    (image, session, net, Fallback.compute ?profiler ~primary session ~net ())
  in
  (* Each point of the view names the cells it compares and builds its
     row from their outcomes. *)
  let image, base, pool_ladders, points =
    match view with
    | Faults a ->
        let point drop_rate partition_us faults =
          let r = cell faults Retry in
          ([ r ], fun out -> Faults_row { drop_rate; partition_us; retry = fst (out r) })
        in
        (image, None, [], fault_points a point)
    | Resilience a ->
        let image, _, _, base = recut () in
        let point drop_rate partition_us faults =
          let r = cell faults Retry and l = cell faults Ladder in
          ( [ r; l ],
            fun out ->
              Resilience_row
                { drop_rate; partition_us; retry = fst (out r); ladder = fst (out l) } )
        in
        (image, Some base, [], fault_points a point)
    | Fleet { pools; replicas; fault_window_us } ->
        let pools = List.sort_uniq compare pools in
        let image, session, net, base = recut () in
        let ladders =
          List.map (fun k -> (k, Fallback.pool_ladder ~replicas ~hosts:k session ~net base)) pools
        in
        let window = { Fault.zero with Fault.fs_partitions_us = [ fault_window_us ] } in
        let point pool regime =
          (* The ladder sees the regime applied globally. A crash is a
             host event for a pool: host 0's link partitions while the
             rest stays reachable — except in a pool of one, which has
             no other host and so sees the global partition. *)
          let global = if regime = Clean then None else Some window in
          let l = cell global Ladder in
          let f =
            if regime = Crash && pool > 1 then cell ~host_faults:[ (0, window) ] None (Pool pool)
            else cell global (Pool pool)
          in
          ( [ l; f ],
            fun out ->
              let fleet, pool_stats = out f in
              Fleet_row
                { pool; regime; ladder = fst (out l); fleet; pool_stats = Option.get pool_stats } )
        in
        ( image,
          Some base,
          ladders,
          List.concat_map (fun k -> List.map (point k) [ Clean; Crash; Partition ]) pools )
  in
  (* The re-cut views' ratios divide by a clean retry-only run. Cells
     compare structurally, so a cell that several rows name runs once. *)
  let clean = cell None Retry in
  let wanted = (if Option.is_none base then [] else [ clean ]) @ List.concat_map fst points in
  let index = Hashtbl.create 16 in
  let distinct =
    List.filter
      (fun c ->
        let fresh = not (Hashtbl.mem index c) in
        if fresh then Hashtbl.add index c (Hashtbl.length index);
        fresh)
      wanted
  in
  let resilience = Option.map (Rte.resilience ?health) base in
  let eval c =
    let go () =
      match c.c_policy with
      | Retry ->
          (Adps.execute ~image ~registry ~network ~jitter ~seed ?faults:c.c_faults scenario, None)
      | Ladder ->
          ( Adps.execute ~image ~registry ~network ~jitter ~seed ?faults:c.c_faults ?resilience
              scenario,
            None )
      | Pool k ->
          let fleet =
            Rte.fleet ?health ~host_faults:c.c_host_faults (List.assoc k pool_ladders)
          in
          let stats, fs =
            Adps.execute_fleet ~image ~registry ~network ~jitter ~seed ?faults:c.c_faults ~fleet
              scenario
          in
          (stats, Some fs)
    in
    match profiler with
    | None -> go ()
    | Some p -> Coign_obs.Profiler.time p "grid_cell" go
  in
  let cells = Array.of_list distinct in
  let outcomes = Parallel.map pool ~f:eval cells in
  let outcome c = outcomes.(Hashtbl.find index c) in
  let clean_calls, clean_remote =
    if Option.is_none base then (0, 0)
    else
      let s = fst (outcome clean) in
      (s.Adps.es_intercepted, s.Adps.es_remote_calls)
  in
  {
    g_view = view;
    g_network = network;
    g_seed = seed;
    g_clean_calls = clean_calls;
    g_clean_remote = clean_remote;
    g_ladder = base;
    g_rows = List.map (fun (_, row) -> row outcome) points;
  }

let ratio n d = if d = 0 then 1. else Float.min 1. (float_of_int n /. float_of_int d)
let availability g (s : Adps.exec_stats) = ratio s.Adps.es_intercepted g.g_clean_calls
let served g (s : Adps.exec_stats) = ratio s.Adps.es_remote_calls g.g_clean_remote

let identical = function
  | Fleet_row { pool = 1; ladder; fleet; _ } -> Some (fleet = ladder)
  | Faults_row _ | Resilience_row _ | Fleet_row _ -> None

let done_ (s : Adps.exec_stats) = if s.Adps.es_completed then "yes" else "cut"

let pp_text ppf g =
  let title, counts, rule =
    match g.g_view with
    | Faults _ -> ("fault", "", 96)
    | Resilience _ -> ("resilience", Printf.sprintf ", %d clean calls" g.g_clean_calls, 104)
    | Fleet { replicas; _ } ->
        ( "fleet",
          Printf.sprintf ", %d clean calls, %d clean remote, %d replica(s)" g.g_clean_calls
            g.g_clean_remote replicas,
          108 )
  in
  Format.fprintf ppf "%s grid on %s (seed 0x%LX%s)@," title g.g_network.Network.net_name g.g_seed
    counts;
  (match g.g_view with
  | Faults _ ->
      Format.fprintf ppf "%8s  %12s  %6s  %7s  %6s  %9s  %7s  %9s  %9s  %4s@," "drop"
        "partition ms" "calls" "retries" "drops" "fallbacks" "unreach" "comm (s)" "fault (s)"
        "done"
  | Resilience _ ->
      Option.iter (Format.fprintf ppf "%a@," Fallback.pp) g.g_ladder;
      Format.fprintf ppf "%8s  %12s  %7s  %7s  %10s  %5s  %6s  %8s  %7s  %4s  %9s@," "drop"
        "partition ms" "avail-b" "avail-r" "dcomm (s)" "opens" "fovers" "stranded" "rescued"
        "rung" "done(b/r)"
  | Fleet _ ->
      Format.fprintf ppf "%4s  %9s  %7s  %7s  %7s  %7s  %6s  %6s  %6s  %7s  %5s  %6s  %5s@,"
        "pool" "regime" "avail-b" "avail-f" "serve-b" "serve-f" "opens" "promos" "splits"
        "resizes" "hosts" "rung" "ident");
  Format.fprintf ppf "%s@," (String.make rule '-');
  List.iter
    (fun r ->
      match r with
      | Faults_row { drop_rate; partition_us; retry = s } ->
          Format.fprintf ppf "%8.3f  %12.1f  %6d  %7d  %6d  %9d  %7d  %9.3f  %9.3f  %4s@,"
            drop_rate (partition_us /. 1e3) s.Adps.es_remote_calls s.Adps.es_retries
            s.Adps.es_drops s.Adps.es_fallbacks s.Adps.es_unreachable
            (s.Adps.es_comm_us /. 1e6) (s.Adps.es_fault_us /. 1e6) (done_ s)
      | Resilience_row { drop_rate; partition_us; retry = b; ladder = s } ->
          Format.fprintf ppf
            "%8.3f  %12.1f  %7.3f  %7.3f  %10.3f  %5d  %6d  %8d  %7d  %4d  %5s/%s@," drop_rate
            (partition_us /. 1e3) (availability g b) (availability g s)
            ((s.Adps.es_comm_us -. b.Adps.es_comm_us) /. 1e6)
            s.Adps.es_breaker_opens s.Adps.es_failovers s.Adps.es_stranded_calls
            s.Adps.es_rescued_calls s.Adps.es_final_rung (done_ b) (done_ s)
      | Fleet_row { pool; regime; ladder = b; fleet = f; pool_stats = fs } ->
          Format.fprintf ppf
            "%4d  %9s  %7.3f  %7.3f  %7.3f  %7.3f  %6d  %6d  %6d  %7d  %5d  %6d  %5s@," pool
            (regime_name regime) (availability g b) (availability g f) (served g b) (served g f)
            fs.Rte.fs_breaker_opens fs.Rte.fs_promotions fs.Rte.fs_splits fs.Rte.fs_resizes
            fs.Rte.fs_final_hosts fs.Rte.fs_final_rung
            (match identical r with None -> "-" | Some true -> "yes" | Some false -> "NO"))
    g.g_rows

let to_json g =
  let open Jsonu in
  let faults, fleet =
    match g.g_view with
    | Faults _ -> (true, false)
    | Resilience _ -> (false, false)
    | Fleet _ -> (false, true)
  in
  let resilience = not (faults || fleet) in
  (* Each view keeps the fields it has always reported, in the same
     order. *)
  let pick = List.filter_map (fun (keep, key, v) -> if keep then Some (key, v) else None) in
  let stats (s : Adps.exec_stats) =
    pick
      [
        (not faults, "availability", Float (availability g s));
        (fleet, "served", Float (served g s));
        (not faults, "intercepted", Int s.Adps.es_intercepted);
        (true, "remote_calls", Int s.Adps.es_remote_calls);
        (true, "retries", Int s.Adps.es_retries);
        (true, "drops", Int s.Adps.es_drops);
        (faults, "spikes", Int s.Adps.es_spikes);
        (faults, "fallbacks", Int s.Adps.es_fallbacks);
        (true, "unreachable", Int s.Adps.es_unreachable);
        (true, "comm_us", Float s.Adps.es_comm_us);
        (true, "fault_us", Float s.Adps.es_fault_us);
        (not faults, "breaker_opens", Int s.Adps.es_breaker_opens);
        (resilience, "breaker_closes", Int s.Adps.es_breaker_closes);
        (not faults, "failovers", Int s.Adps.es_failovers);
        (not faults, "failbacks", Int s.Adps.es_failbacks);
        (not faults, "migrations", Int s.Adps.es_migrations);
        (not faults, "stranded_calls", Int s.Adps.es_stranded_calls);
        (not faults, "rescued_calls", Int s.Adps.es_rescued_calls);
        (not faults, "final_rung", Int s.Adps.es_final_rung);
        (true, "completed", Bool s.Adps.es_completed);
      ]
  in
  let head =
    pick
      [
        (true, "network", Str g.g_network.Network.net_name);
        (true, "seed", Str (Printf.sprintf "0x%LX" g.g_seed));
        (not faults, "clean_calls", Int g.g_clean_calls);
        (fleet, "clean_remote", Int g.g_clean_remote);
      ]
  in
  let row r =
    match r with
    | Faults_row { drop_rate; partition_us; retry } ->
        [ ("drop_rate", Float drop_rate); ("partition_us", Float partition_us) ] @ stats retry
    | Resilience_row { drop_rate; partition_us; retry; ladder } ->
        [
          ("drop_rate", Float drop_rate);
          ("partition_us", Float partition_us);
          ("baseline", Obj (stats retry));
          ("resilient", Obj (stats ladder));
        ]
    | Fleet_row { pool; regime; ladder; fleet; pool_stats = fs } ->
        [
          ("pool", Int pool);
          ("regime", Str (regime_name regime));
          ("identical", match identical r with None -> Null | Some b -> Bool b);
          ("baseline", Obj (stats ladder));
          ("fleet", Obj (stats fleet));
          ( "pool_stats",
            Obj
              [
                ("promotions", Int fs.Rte.fs_promotions);
                ("splits", Int fs.Rte.fs_splits);
                ("resizes", Int fs.Rte.fs_resizes);
                ("inter_host_calls", Int fs.Rte.fs_inter_host_calls);
                ("final_hosts", Int fs.Rte.fs_final_hosts);
                ("final_shards", Int fs.Rte.fs_final_shards);
              ] );
        ]
  in
  Arr (List.map (fun r -> Obj (head @ row r)) g.g_rows)
