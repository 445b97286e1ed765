open Coign_util
open Coign_netsim
open Coign_core
open Coign_apps
module Tap = Coign_obs.Tap

type phase_stat = {
  ph_scenarios : string list;
  ph_stale_comm_us : float;
  ph_watched_comm_us : float;
}

type result = {
  w_app : string;
  w_network : string;
  w_seed : int64;
  w_threshold : float;
  w_check_every : int;
  w_half_life_us : float;
  w_profile_mix : string list;
  w_phase_stats : phase_stat list;
  w_stale : Analysis.distribution;
  w_oracle : Analysis.distribution;
  w_final_servers : int;
  w_converged : bool;
  w_stale_comm_us : float;
  w_watched_comm_us : float;
  w_steady_stale_us : float;
  w_steady_watched_us : float;
  w_stats : Rte.stats;
  w_tap_offered : int;
  w_tap_sampled : int;
  w_timeline : Rte.watch_checkpoint list;
}

(* One full pass over the phase schedule under the distributed RTE —
   stale (no watch) or watched. *)
type sched = {
  sd_phase_comm : float array;
  sd_total_comm : float;
  sd_stats : Rte.stats;
  sd_timeline : Rte.watch_checkpoint list;
  sd_final_placement : Constraints.location array;
  sd_tap_offered : int;
  sd_tap_sampled : int;
}

type cell = C_sched of sched | C_oracle of Analysis.distribution

let scenario_of app id =
  try App.scenario app id with Not_found -> invalid_arg ("Watchsim.run: unknown scenario " ^ id)

let run ?(pool = Parallel.sequential) ?metrics ?(threshold = 0.90) ?(check_every = 64)
    ?(min_dwell_us = 750_000.) ?(min_window = 16.) ?(half_life_us = 750_000.) ?(sample_every = 4)
    ?(seed = 0x5EEDL) ~profile_mix ~phases ~image ~network () =
  if profile_mix = [] then invalid_arg "Watchsim.run: empty profile mix";
  if phases = [] || List.exists (fun p -> p = []) phases then
    invalid_arg "Watchsim.run: phases must be non-empty";
  let app =
    try Suite.find_app image.Coign_image.Binary_image.img_name
    with Not_found ->
      invalid_arg
        ("Watchsim.run: unknown application " ^ image.Coign_image.Binary_image.img_name)
  in
  List.iter
    (fun id -> ignore (scenario_of app id))
    (profile_mix @ List.concat phases);
  let net = Net_profiler.exact network in
  (* Offline pipeline: profile the declared mix, analyze, and keep the
     session — the watch re-prices this exact session online. *)
  let profiled =
    List.fold_left
      (fun img id ->
        fst
          (Adps.profile ~image:img ~registry:app.App.app_registry
             (scenario_of app id).App.sc_run))
      image profile_mix
  in
  let session = Adps.analysis_session profiled in
  let dist_image, stale_dist = Adps.analyze_with ~session ~image:profiled ~net () in
  let phase_arr = Array.of_list phases in
  (* Each cell owns its ctx, classifier decode, and (for the watched
     cell) session copy, so cells evaluate independently across
     domains: a pool changes wall time, never a bit of the result. *)
  let run_schedule ~watched () =
    let classifier, dist =
      match Adps.load_distribution dist_image with
      | Some v -> v
      | None -> assert false
    in
    let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
    let wc =
      if not watched then None
      else
        Some
          (Rte.watch ~threshold ~check_every ~min_dwell_us ~min_window ~half_life_us
             ~sample_every ~tap:Tap.null_sink ~net (Analysis.Session.copy session))
    in
    let rte =
      Rte.install_distributed ?metrics:(if watched then metrics else None) ~classifier
        ~config:
          {
            Rte.dc_factory_policy = Factory.By_classification dist;
            dc_network = network;
            dc_jitter = 0.;
            dc_seed = seed;
            dc_faults = None;
            dc_retry = Fault.default_retry;
            dc_resilience = None;
            dc_fleet = None;
            dc_watch = wc;
          }
        ctx
    in
    let phase_comm = Array.make (Array.length phase_arr) 0. in
    let before = ref 0. in
    Array.iteri
      (fun i ids ->
        List.iter (fun id -> (scenario_of app id).App.sc_run ctx) ids;
        let c = Rte.comm_us rte in
        phase_comm.(i) <- c -. !before;
        before := c)
      phase_arr;
    Rte.uninstall rte;
    let offered, sampled = Option.value ~default:(0, 0) (Rte.watch_tap_counts rte) in
    {
      sd_phase_comm = phase_comm;
      sd_total_comm = Rte.comm_us rte;
      sd_stats = Rte.stats rte;
      sd_timeline = Rte.watch_timeline rte;
      sd_final_placement =
        (match Rte.watch_placement rte with
        | Some d -> Array.copy d.Analysis.placement
        | None -> Array.copy dist.Analysis.placement);
      sd_tap_offered = offered;
      sd_tap_sampled = sampled;
    }
  in
  let oracle () =
    (* What a fresh offline analyze would choose given a profile of the
       post-shift usage: record the final phase under the deployment's
       classifier state, then cut with the same constraints. *)
    let classifier =
      match Adps.load_profile profiled with Some (c, _) -> c | None -> assert false
    in
    let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
    let rte = Rte.install_profiling ~classifier ctx in
    List.iter
      (fun id -> (scenario_of app id).App.sc_run ctx)
      phase_arr.(Array.length phase_arr - 1);
    Rte.uninstall rte;
    Analysis.choose ~classifier ~icc:(Rte.icc rte)
      ~constraints:(Analysis.Session.constraints session) ~net ()
  in
  let eval = function
    | `Stale -> C_sched (run_schedule ~watched:false ())
    | `Watched -> C_sched (run_schedule ~watched:true ())
    | `Oracle -> C_oracle (oracle ())
  in
  let cells = [| `Stale; `Watched; `Oracle |] in
  let evaluated = Parallel.map pool ~f:eval cells in
  let stale, watched, oracle_dist =
    match evaluated with
    | [| C_sched s; C_sched w; C_oracle o |] -> (s, w, o)
    | _ -> assert false
  in
  let last = Array.length phase_arr - 1 in
  let servers placement =
    Array.fold_left
      (fun n loc -> if loc = Constraints.Server then n + 1 else n)
      0 placement
  in
  {
    w_app = app.App.app_name;
    w_network = network.Network.net_name;
    w_seed = seed;
    w_threshold = threshold;
    w_check_every = check_every;
    w_half_life_us = half_life_us;
    w_profile_mix = profile_mix;
    w_phase_stats =
      List.mapi
        (fun i ids ->
          {
            ph_scenarios = ids;
            ph_stale_comm_us = stale.sd_phase_comm.(i);
            ph_watched_comm_us = watched.sd_phase_comm.(i);
          })
        phases;
    w_stale = stale_dist;
    w_oracle = oracle_dist;
    w_final_servers = servers watched.sd_final_placement;
    w_converged = watched.sd_final_placement = oracle_dist.Analysis.placement;
    w_stale_comm_us = stale.sd_total_comm;
    w_watched_comm_us = watched.sd_total_comm;
    w_steady_stale_us = stale.sd_phase_comm.(last);
    w_steady_watched_us = watched.sd_phase_comm.(last);
    w_stats = watched.sd_stats;
    w_tap_offered = watched.sd_tap_offered;
    w_tap_sampled = watched.sd_tap_sampled;
    w_timeline = watched.sd_timeline;
  }

let action_name = function
  | Rte.W_steady -> "steady"
  | Rte.W_unchanged -> "unchanged"
  | Rte.W_repartitioned _ -> "repartitioned"
  | Rte.W_rejected _ -> "rejected"

let pp_text ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "watch %s on %s (seed 0x%LX)@," r.w_app r.w_network r.w_seed;
  Format.fprintf ppf
    "drift: threshold %.2f, check every %d observations, half-life %.1f ms@," r.w_threshold
    r.w_check_every (r.w_half_life_us /. 1e3);
  Format.fprintf ppf "profile mix: %s@," (String.concat " " r.w_profile_mix);
  List.iteri
    (fun i p ->
      Format.fprintf ppf "phase %d (%s): stale %.3f ms, watched %.3f ms@," (i + 1)
        (String.concat " " p.ph_scenarios)
        (p.ph_stale_comm_us /. 1e3)
        (p.ph_watched_comm_us /. 1e3))
    r.w_phase_stats;
  Format.fprintf ppf
    "drift checks %d, detections %d, repartitions %d (%d instances moved), last similarity %.3f@,"
    r.w_stats.Rte.st_drift_checks r.w_stats.Rte.st_drift_detections r.w_stats.Rte.st_repartitions
    r.w_stats.Rte.st_watch_migrations r.w_stats.Rte.st_last_similarity;
  List.iter
    (fun (k : Rte.watch_checkpoint) ->
      match k.Rte.wk_action with
      | Rte.W_steady -> ()
      | Rte.W_unchanged ->
          Format.fprintf ppf "  at %.1f us: similarity %.3f, cut unchanged@," k.Rte.wk_at_us
            k.Rte.wk_similarity
      | Rte.W_repartitioned { wa_migrated; wa_left; wa_servers } ->
          Format.fprintf ppf
            "  at %.1f us: similarity %.3f, repartitioned (%d moved, %d left, %d servers)@,"
            k.Rte.wk_at_us k.Rte.wk_similarity wa_migrated wa_left wa_servers
      | Rte.W_rejected n ->
          Format.fprintf ppf "  at %.1f us: similarity %.3f, candidate rejected (%d violations)@,"
            k.Rte.wk_at_us k.Rte.wk_similarity n)
    r.w_timeline;
  Format.fprintf ppf "cut: stale %d servers, final %d servers, oracle %d servers@,"
    r.w_stale.Analysis.server_count r.w_final_servers r.w_oracle.Analysis.server_count;
  Format.fprintf ppf "converged to oracle cut: %s@," (if r.w_converged then "yes" else "no");
  let reduction =
    if r.w_steady_stale_us > 0. then
      100. *. (r.w_steady_stale_us -. r.w_steady_watched_us) /. r.w_steady_stale_us
    else 0.
  in
  Format.fprintf ppf "steady state: stale %.3f ms, watched %.3f ms (%+.1f%%)@,"
    (r.w_steady_stale_us /. 1e3)
    (r.w_steady_watched_us /. 1e3)
    (-.reduction);
  Format.fprintf ppf "tap: %d offered, %d sampled@]" r.w_tap_offered r.w_tap_sampled

let to_json r =
  let open Jsonu in
  let checkpoint (k : Rte.watch_checkpoint) =
    let base =
      [
        ("at_us", Float k.Rte.wk_at_us);
        ("similarity", Float k.Rte.wk_similarity);
        ("window_pairs", Int k.Rte.wk_window_pairs);
        ("action", Str (action_name k.Rte.wk_action));
      ]
    in
    let extra =
      match k.Rte.wk_action with
      | Rte.W_steady | Rte.W_unchanged -> []
      | Rte.W_repartitioned { wa_migrated; wa_left; wa_servers } ->
          [ ("migrated", Int wa_migrated); ("left", Int wa_left); ("servers", Int wa_servers) ]
      | Rte.W_rejected n -> [ ("violations", Int n) ]
    in
    Obj (base @ extra)
  in
  Obj
    [
      ("app", Str r.w_app);
      ("network", Str r.w_network);
      ("seed", Str (Printf.sprintf "0x%LX" r.w_seed));
      ("threshold", Float r.w_threshold);
      ("check_every", Int r.w_check_every);
      ("half_life_us", Float r.w_half_life_us);
      ("profile_mix", Arr (List.map (fun s -> Str s) r.w_profile_mix));
      ( "phases",
        Arr
          (List.map
             (fun p ->
               Obj
                 [
                   ("scenarios", Arr (List.map (fun s -> Str s) p.ph_scenarios));
                   ("stale_comm_us", Float p.ph_stale_comm_us);
                   ("watched_comm_us", Float p.ph_watched_comm_us);
                 ])
             r.w_phase_stats) );
      ("stale_servers", Int r.w_stale.Analysis.server_count);
      ("final_servers", Int r.w_final_servers);
      ("oracle_servers", Int r.w_oracle.Analysis.server_count);
      ("converged", Bool r.w_converged);
      ("stale_comm_us", Float r.w_stale_comm_us);
      ("watched_comm_us", Float r.w_watched_comm_us);
      ("steady_stale_us", Float r.w_steady_stale_us);
      ("steady_watched_us", Float r.w_steady_watched_us);
      ("drift_checks", Int r.w_stats.Rte.st_drift_checks);
      ("drift_detections", Int r.w_stats.Rte.st_drift_detections);
      ("repartitions", Int r.w_stats.Rte.st_repartitions);
      ("migrations", Int r.w_stats.Rte.st_watch_migrations);
      ("unchanged_cuts", Int r.w_stats.Rte.st_unchanged_cuts);
      ("rejected_cuts", Int r.w_stats.Rte.st_rejected_cuts);
      ("last_similarity", Float r.w_stats.Rte.st_last_similarity);
      ("tap_offered", Int r.w_tap_offered);
      ("tap_sampled", Int r.w_tap_sampled);
      ("timeline", Arr (List.map checkpoint r.w_timeline));
    ]
