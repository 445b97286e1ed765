(* The Coign command-line toolchain (paper Figure 1).

   Stages communicate through serialized application images, so each
   stage can run as a separate process:

     coign instrument --app octarine -o octarine.img
     coign profile octarine.img --scenario o_oldwp7 -o octarine.img
     coign analyze octarine.img --network ethernet10 -o octarine.img
     coign show octarine.img
     coign run octarine.img --scenario o_oldwp7 --network ethernet10

   Application *code* cannot live in a file (this is a simulation of
   binaries, not a binary format), so images refer to the built-in
   application suite by name. *)

open Cmdliner
open Coign_util
open Coign_netsim
open Coign_image
open Coign_core
open Coign_apps

(* Report bad input as [error: ...] and exit 1. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1)
    fmt

let app_of_image (img : Binary_image.t) =
  try Suite.find_app img.Binary_image.img_name
  with Not_found ->
    die "image %S does not name a built-in application (%s)" img.Binary_image.img_name
      (String.concat ", " (List.map (fun a -> a.App.app_name) Suite.all))

let scenario_of app id =
  try App.scenario app id
  with Not_found ->
    die "application %s has no scenario %S (has: %s)" app.App.app_name id
      (String.concat ", " (List.map (fun s -> s.App.sc_id) app.App.app_scenarios))

(* [Adps.execute]'s preconditions, checked up front so that an image
   without a distribution is reported as bad input. *)
let require_distribution image =
  match image.Binary_image.config with
  | Some c
    when Config_record.mode c = Config_record.Distributed && Adps.load_distribution image <> None
    ->
      ()
  | _ ->
      die "image holds no distribution — run coign analyze first"

let network_names =
  [
    ("isdn", Network.isdn_128); ("ethernet10", Network.ethernet_10);
    ("ethernet100", Network.ethernet_100); ("atm", Network.atm_155); ("san", Network.san_1g);
  ]

let network_conv =
  let parse s =
    match List.assoc_opt s network_names with
    | Some n -> Ok n
    | None ->
        Error (`Msg (Printf.sprintf "unknown network %S (known: %s)" s
                       (String.concat ", " (List.map fst network_names))))
  in
  let print ppf n = Format.pp_print_string ppf n.Network.net_name in
  Arg.conv (parse, print)

(* Common arguments *)

let image_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"IMAGE" ~doc:"Application image file.")

let output_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to write the resulting image.")

let scenario_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "scenario" ] ~docv:"ID" ~doc:"Scenario id from Table 1, e.g. o_oldwp7.")

let network_arg =
  Arg.(
    value
    & opt network_conv Network.ethernet_10
    & info [ "network" ] ~docv:"NET" ~doc:"Network model: isdn, ethernet10, ethernet100, atm, san.")

let self_profile_arg =
  Arg.(
    value & flag
    & info [ "self-profile" ]
        ~doc:
          "Also time the partitioning pipeline's own phases (profile load, graph build, \
           pricing, cut, validation) and print the table afterwards.")

let print_self_profile profiler =
  Format.printf "@.pipeline self-profile (wall time)@.@[<v>%a@]@?" Coign_obs.Profiler.pp_text
    profiler

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of text.")

(* --jobs, with each command's own default. *)
let jobs_arg default =
  Arg.(
    value & opt int default
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Worker domains: 1 = sequential, 0 = one per core (default %d). The output is \
              identical either way."
             default))

let check_jobs jobs =
  if jobs < 0 then die "--jobs must be >= 0"

(* Run [f] on the worker pool --jobs asks for: the zero-worker pool at
   1, the shared default pool at 0, otherwise [n - 1] extra domains,
   shut down when [f] returns. *)
let with_jobs jobs f =
  match jobs with
  | 1 -> f Parallel.sequential
  | 0 -> f (Parallel.default ())
  | n ->
      let pool = Parallel.create ~domains:(n - 1) () in
      Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

let seed_arg =
  Arg.(
    value & opt int 0x5EED
    & info [ "seed" ] ~docv:"N"
        ~doc:"Master seed; every stochastic concern derives its own stream from it.")

(* Every float option takes finite numbers only (and [~nonneg] ones
   none below 0): nan or inf is a bad command line, exit 124 like any
   other malformed value, never a run that prints nan. *)
let finite ?(nonneg = false) () =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok f when Float.is_finite f && not (nonneg && f < 0.) -> Ok f
    | Ok _ ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected a finite%s number" s
                (if nonneg then " non-negative" else "")))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let jitter_arg default =
  Arg.(
    value
    & opt (finite ~nonneg:true ()) default
    & info [ "jitter" ] ~docv:"R" ~doc:"Relative stddev of per-message time noise.")

(* Run one scenario under the image's stored mode — profiling RTE for a
   profiling-mode image, distributed RTE (deterministic: jitter 0) when
   the image carries a distribution — with observability attached. *)
let observed_run ?logger ?tracer ?metrics image scenario_id network =
  let app = app_of_image image in
  let sc = scenario_of app scenario_id in
  let config =
    match image.Binary_image.config with
    | Some c -> c
    | None ->
        die "image has no configuration record (not instrumented)"
  in
  match Config_record.mode config with
  | Config_record.Distributed ->
      require_distribution image;
      ignore
        (Adps.execute ?logger ?tracer ?metrics ~image ~registry:app.App.app_registry ~network
           sc.App.sc_run);
      "distributed"
  | Config_record.Profiling ->
      ignore
        (Adps.profile_results ?logger ?tracer ?metrics ~image ~registry:app.App.app_registry
           sc.App.sc_run);
      "profiling"
  | Config_record.Off ->
      die "image's runtime mode is off (instrument or analyze it first)"

(* instrument ------------------------------------------------------- *)

let instrument_cmd =
  let app_name =
    Arg.(
      required
      & opt (some string) None
      & info [ "app" ] ~docv:"APP" ~doc:"Application: octarine, photodraw, benefits, or ingest.")
  in
  let classifier =
    Arg.(
      value & opt string "ifcb"
      & info [ "classifier" ] ~docv:"KIND"
          ~doc:"Instance classifier: incremental, pcb, st, stcb, ifcb, epcb, ib.")
  in
  let depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "depth" ] ~docv:"N" ~doc:"Classifier stack-walk depth (default: complete walk).")
  in
  let run app_name classifier depth output =
    (match Classifier.kind_of_name classifier with
    | Some _ -> ()
    | None ->
        die "unknown classifier %S" classifier);
    let app =
      try Suite.find_app app_name
      with Not_found ->
        die "unknown application %S" app_name
    in
    let image = Adps.instrument ~classifier ~stack_depth:depth app.App.app_image in
    Binary_image.save image output;
    Printf.printf "instrumented %s -> %s (classifier %s)\n" app_name output classifier
  in
  let term = Term.(const run $ app_name $ classifier $ depth $ output_arg) in
  Cmd.v
    (Cmd.info "instrument"
       ~doc:"Rewrite an application binary to load the Coign profiling runtime.")
    term

(* profile ---------------------------------------------------------- *)

let profile_cmd =
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Also write the run's profile to a standalone log file (combinable later with \
             $(b,coign combine)).")
  in
  let run image_path scenario_id log_file output =
    let image = Binary_image.load image_path in
    let app = app_of_image image in
    let sc = scenario_of app scenario_id in
    let image, stats, rte =
      try Adps.profile_results ~image ~registry:app.App.app_registry sc.App.sc_run
      with Invalid_argument msg -> die "%s" msg
    in
    Binary_image.save image output;
    (match log_file with
    | Some path ->
        Profile_log.save
          (Profile_log.of_run ~app:app.App.app_name ~scenario:scenario_id rte)
          path;
        Printf.printf "wrote profile log %s\n" path
    | None -> ());
    Printf.printf
      "profiled %s: %d instances, %d calls, %d ICC bytes; %d classifications accumulated\n"
      scenario_id stats.Adps.ps_instances stats.Adps.ps_calls stats.Adps.ps_bytes
      stats.Adps.ps_classifications
  in
  let term = Term.(const run $ image_arg $ scenario_arg $ log_file $ output_arg) in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a usage scenario against an instrumented image, accumulating ICC profiles.")
    term

(* combine ---------------------------------------------------------- *)

let combine_cmd =
  let logs =
    Arg.(
      non_empty
      & pos_right 0 file []
      & info [] ~docv:"LOG" ~doc:"Profile log files written by $(b,coign profile --log).")
  in
  let run image_path logs output =
    let image = Binary_image.load image_path in
    let combined = Profile_log.combine_all (List.map Profile_log.load logs) in
    let image = Profile_log.into_image combined image in
    Binary_image.save image output;
    Printf.printf "combined %d logs (%s): %d instances, %d calls, %d classifications\n"
      (List.length logs) combined.Profile_log.pl_scenario combined.Profile_log.pl_instances
      combined.Profile_log.pl_calls
      (Classifier.classification_count combined.Profile_log.pl_classifier)
  in
  let term = Term.(const run $ image_arg $ logs $ output_arg) in
  Cmd.v
    (Cmd.info "combine"
       ~doc:
         "Fold standalone profile logs (possibly from runs on other machines) into an \
          instrumented image's configuration record.")
    term

(* lint ------------------------------------------------------------- *)

(* Shared by lint and verify: exit 1 when the report crosses the gating
   severity — errors always gate, warnings gate too under --strict. *)
let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:"Exit non-zero on warnings as well as errors, so CI can gate on a clean report.")

let gate_exit ~strict diags =
  match Lint.worst diags with
  | Some Lint.Error -> exit 1
  | Some Lint.Warning when strict -> exit 1
  | _ -> ()

let lint_cmd =
  let run image_path json strict =
    let image = Binary_image.load image_path in
    let diags = Lint.lint_image image in
    if json then print_endline (Jsonu.to_string (Lint.to_json diags))
    else if diags = [] then print_endline "no diagnostics"
    else Format.printf "%a" Lint.pp_text diags;
    gate_exit ~strict diags
  in
  let term = Term.(const run $ image_arg $ json_arg $ strict_arg) in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static remotability linter over an image: interface-flow analysis, \
          non-remotable interface checks, pin conflicts, and co-location constraints \
          (diagnostic codes CG000-CG007). Exits 1 when the report crosses the gating \
          severity (errors; with $(b,--strict), warnings too).")
    term

(* verify ----------------------------------------------------------- *)

let verify_cmd =
  let module V = Coign_verify in
  let depth_arg =
    Arg.(
      value
      & opt int V.Explore.default_depth
      & info [ "depth" ] ~docv:"N"
          ~doc:"Bound on the explored interleaving length (BFS layers).")
  in
  let pool_size_arg =
    Arg.(
      value & opt int 1
      & info [ "pool" ] ~docv:"K"
          ~doc:
            "Verify the pool-elastic ladder at this widest pool size: the model \
             gains a host dimension and the explorer interleaves replica promotions and \
             pool resizes alongside failovers. 1 (default) checks the classic two-host \
             ladder.")
  in
  let run image_path network depth jobs pool_size json strict =
    if depth < 1 then die "--depth must be >= 1";
    if pool_size < 1 then die "--pool must be >= 1";
    check_jobs jobs;
    let image = Binary_image.load image_path in
    let classifier, icc =
      match Adps.load_profile image with
      | Some p -> p
      | None ->
          die "image holds no profile — run coign profile first"
    in
    let session = Adps.analysis_session image in
    let net = Net_profiler.exact network in
    let primary = Option.map snd (Adps.load_distribution image) in
    let ladder =
      try Fallback.compute ?primary session ~net () with Fallback.Invalid msg -> die "%s" msg
    in
    gate_exit ~strict @@ with_jobs jobs @@ fun pool ->
    (* The checked ladder is the one the RTE routes: the two-host ladder
       at --pool 1, widened to --pool hosts otherwise, so the explorer
       interleaves promotions and resizes where they exist. *)
    let ladder =
      if pool_size = 1 then ladder else Fallback.pool_ladder ~hosts:pool_size session ~net ladder
    in
    let truth = Fallback.migration_safety session in
    let model = V.Model.build ~classifier ~icc ~ladder ~truth () in
    let result = V.Explore.run ~pool ~depth model in
    let diags = Lint.order (V.Explore.diagnostics model result) in
    let stats = result.V.Explore.r_stats in
    let rungs_reached =
      List.filteri (fun r _ -> stats.V.Explore.sr_rungs_reached.(r))
        (Array.to_list model.V.Model.m_rung_names)
    in
    if json then begin
      let sev_count s =
        List.length (List.filter (fun d -> d.Lint.severity = s) diags)
      in
      let j =
        Jsonu.Obj
          [
            ("image", Jsonu.Str image.Binary_image.img_name);
            ("network", Jsonu.Str network.Network.net_name);
            ("depth", Jsonu.Int depth);
            ( "model",
              Jsonu.Obj
                [
                  ("classifications", Jsonu.Int model.V.Model.m_classifications);
                  ("groups", Jsonu.Int (V.Model.group_count model));
                  ("edges", Jsonu.Int (Array.length model.V.Model.m_edges));
                  ( "rungs",
                    Jsonu.Arr
                      (Array.to_list
                         (Array.map (fun n -> Jsonu.Str n) model.V.Model.m_rung_names)) );
                ] );
            ( "stats",
              Jsonu.Obj
                [
                  ("states", Jsonu.Int stats.V.Explore.sr_states);
                  ("transitions", Jsonu.Int stats.V.Explore.sr_transitions);
                  ("dedup_hits", Jsonu.Int stats.V.Explore.sr_dedup_hits);
                  ("depth_reached", Jsonu.Int stats.V.Explore.sr_depth);
                  ("complete", Jsonu.Bool stats.V.Explore.sr_complete);
                  ( "rungs_reached",
                    Jsonu.Arr (List.map (fun n -> Jsonu.Str n) rungs_reached) );
                ] );
            ( "violations",
              Jsonu.Arr
                (List.map
                   (fun (v : V.Explore.violation) ->
                     Jsonu.Obj
                       [
                         ("code", Jsonu.Str v.V.Explore.vl_code);
                         ("subject", Jsonu.Str v.V.Explore.vl_subject);
                         ("message", Jsonu.Str v.V.Explore.vl_message);
                         ( "trace",
                           Jsonu.Arr
                             (List.map
                                (fun ev -> Jsonu.Str (V.Explore.event_id model ev))
                                v.V.Explore.vl_trace) );
                       ])
                   result.V.Explore.r_violations) );
            ("diagnostics", Lint.to_json diags);
            ("errors", Jsonu.Int (sev_count Lint.Error));
            ("warnings", Jsonu.Int (sev_count Lint.Warning));
          ]
      in
      print_endline (Jsonu.to_string j)
    end
    else begin
      Printf.printf "verify: %s on %s, depth %d\n" image.Binary_image.img_name
        network.Network.net_name depth;
      Printf.printf "model: %d classifications -> %d groups, %d edges, %d rungs\n"
        model.V.Model.m_classifications (V.Model.group_count model)
        (Array.length model.V.Model.m_edges)
        (V.Model.rung_count model);
      Printf.printf "explored: %d states, %d transitions, %d dedup hits, depth %d, %s\n"
        stats.V.Explore.sr_states stats.V.Explore.sr_transitions
        stats.V.Explore.sr_dedup_hits stats.V.Explore.sr_depth
        (if stats.V.Explore.sr_complete then "complete" else "truncated");
      Printf.printf "rungs installed: %s\n" (String.concat ", " rungs_reached);
      if diags = [] then print_endline "no violations: ladder verified"
      else Format.printf "%a" Lint.pp_text diags
    end;
    diags
  in
  let term =
    Term.(
      const run $ image_arg $ network_arg $ depth_arg $ jobs_arg 1 $ pool_size_arg $ json_arg
      $ strict_arg)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Exhaustively explore the image's failover interleavings — link faults, breaker \
          transitions, failover, migration, failback — against its fallback ladder, \
          checking that no reachable placement crosses a non-remotable interface (CG008), \
          no reachable migration moves a statically unsafe classification (CG009), and no \
          rung is dead (CG010). Exits 1 when the report crosses the gating severity \
          (errors; with $(b,--strict), warnings too).")
    term

(* analyze ---------------------------------------------------------- *)

let analyze_cmd =
  let run image_path network self_profile output =
    let image = Binary_image.load image_path in
    let profiler = if self_profile then Some (Coign_obs.Profiler.create ()) else None in
    let net = Net_profiler.profile (Prng.create 0xC01L) network in
    Printf.printf "network profile: %s\n" (Format.asprintf "%a" Net_profiler.pp net);
    (* The linter runs automatically ahead of the cut; warnings are
       informational, errors cannot occur here (they come from the
       validator below, as Lint.Rejected). *)
    (match
       List.filter (fun d -> d.Lint.severity <> Lint.Info) (Lint.lint_image image)
     with
    | [] -> ()
    | warnings -> Format.printf "%a" Lint.pp_text warnings);
    if Adps.load_profile image = None then die "image holds no profile — run coign profile first";
    let image, dist =
      try Adps.analyze ?profiler ~image ~net ()
      with Lint.Rejected diags ->
        Format.eprintf "%a" Lint.pp_text diags;
        die "distribution rejected by the static validator"
    in
    Binary_image.save image output;
    let classifier, _ = Option.get (Adps.load_distribution image) in
    Printf.printf "distribution: %d of %d classifications on the server (cut %.3f s)\n"
      dist.Analysis.server_count dist.Analysis.node_count
      (float_of_int dist.Analysis.cut_ns /. 1e9);
    List.iter
      (fun c ->
        Printf.printf "  server: %-28s %s\n"
          (Classifier.class_of_classification classifier c)
          (Classifier.descriptor_of_classification classifier c))
      (Analysis.server_classifications dist);
    Option.iter print_self_profile profiler
  in
  let term = Term.(const run $ image_arg $ network_arg $ self_profile_arg $ output_arg) in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Cut the profiled ICC graph against a network profile and rewrite the image with \
          the chosen distribution.")
    term

(* sweep ------------------------------------------------------------ *)

let sweep_cmd =
  let from_arg =
    Arg.(
      value
      & opt network_conv Network.isdn_128
      & info [ "from" ] ~docv:"NET" ~doc:"Slow end of the sweep (default isdn).")
  in
  let to_arg =
    Arg.(
      value
      & opt network_conv Network.san_1g
      & info [ "to" ] ~docv:"NET" ~doc:"Fast end of the sweep (default san).")
  in
  let points_arg =
    Arg.(
      value & opt int 20
      & info [ "points" ] ~docv:"N"
          ~doc:"Number of geometrically interpolated network models (>= 2).")
  in
  let run image_path from_net to_net points json jobs self_profile =
    if points < 2 then die "--points must be at least 2";
    check_jobs jobs;
    let image = Binary_image.load image_path in
    let profiler = if self_profile then Some (Coign_obs.Profiler.create ()) else None in
    let session =
      try Adps.analysis_session ?profiler image
      with Invalid_argument msg ->
        die "%s" msg
    in
    let networks = Network.geometric_sweep ~points ~from_net ~to_net () in
    (* One session, many networks: stage 1 of the analysis ran once in
       analysis_session; each point below is a reprice+recut. *)
    let rows =
      with_jobs jobs (fun pool -> Coign_sim.Experiment.sweep ~pool ?profiler ~session networks)
    in
    if json then begin
      let row (r : Coign_sim.Experiment.sweep_point) =
        let n = r.Coign_sim.Experiment.sw_network in
        Jsonu.Obj
          [
            ("network", Jsonu.Str n.Network.net_name);
            ("latency_us", Jsonu.Float n.Network.latency_us);
            ("bandwidth_mbps", Jsonu.Float n.Network.bandwidth_mbps);
            ("proc_us", Jsonu.Float n.Network.proc_us);
            ("server_classifications", Jsonu.Int r.Coign_sim.Experiment.sw_server_classifications);
            ("cut_ns", Jsonu.Int r.Coign_sim.Experiment.sw_cut_ns);
            ("predicted_comm_us", Jsonu.Float r.Coign_sim.Experiment.sw_predicted_comm_us);
          ]
      in
      print_endline (Jsonu.to_string (Jsonu.Arr (List.map row rows)))
    end
    else begin
      Printf.printf "placement vs. network over %d analyzed classifications\n"
        (Analysis.Session.node_count session);
      Printf.printf "%-20s  %14s  %12s  %10s  %18s\n" "network" "bandwidth Mbps" "latency us"
        "server cls" "predicted comm (s)";
      print_endline (String.make 82 '-');
      List.iter
        (fun (r : Coign_sim.Experiment.sweep_point) ->
          Printf.printf "%-20s  %14.3f  %12.1f  %10d  %18.3f\n"
            r.Coign_sim.Experiment.sw_network.Network.net_name
            r.Coign_sim.Experiment.sw_network.Network.bandwidth_mbps
            r.Coign_sim.Experiment.sw_network.Network.latency_us
            r.Coign_sim.Experiment.sw_server_classifications
            (r.Coign_sim.Experiment.sw_predicted_comm_us /. 1e6))
        rows
    end;
    Option.iter print_self_profile profiler
  in
  let term =
    Term.(
      const run $ image_arg $ from_arg $ to_arg $ points_arg $ json_arg $ jobs_arg 0
      $ self_profile_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Re-cut one accumulated profile against a range of network models (paper Figures \
          4-8): build the analysis session once, then reprice and recut per point, \
          optionally across domains.")
    term

(* faultsim, resilience, fleet -------------------------------------- *)

(* The three views of one fault grid. Each command is a term for its
   view, which also makes the view's range checks (exit 1), and one for
   its breaker knobs; [grid_cmd] does the rest. *)

let fault_axes ~drops ~partitions_ms =
  let drops_arg =
    Arg.(
      value
      & opt (list (finite ())) drops
      & info [ "drops" ] ~docv:"RATES"
          ~doc:"Comma-separated per-message drop probabilities, each in [0, 1].")
  in
  let partitions_arg =
    Arg.(
      value
      & opt (list (finite ())) partitions_ms
      & info [ "partitions-ms" ] ~docv:"MS"
          ~doc:"Comma-separated partition-window lengths in milliseconds (0 = no window).")
  in
  let start_arg =
    Arg.(
      value & opt (finite ()) 0.
      & info [ "partition-start-ms" ] ~docv:"MS"
          ~doc:"Where each partition window opens on the run's virtual clock.")
  in
  let axes drop_rates partitions_ms start_ms =
    if List.exists (fun d -> d < 0. || d > 1.) drop_rates then
      die "--drops rates must be in [0, 1]";
    if List.exists (fun p -> p < 0.) partitions_ms || start_ms < 0. then
      die "partition lengths and start must be >= 0";
    {
      Coign_sim.Fleetsim.drop_rates;
      partitions_us = List.map (fun ms -> ms *. 1e3) partitions_ms;
      partition_start_us = start_ms *. 1e3;
    }
  in
  Term.(const axes $ drops_arg $ partitions_arg $ start_arg)

let breaker_args =
  let cooloff_arg =
    Arg.(
      value
      & opt (finite ()) (Health.default_policy.Health.hp_cooloff_us /. 1e3)
      & info [ "cooloff-ms" ] ~docv:"MS"
          ~doc:"Initial circuit-breaker cooloff in milliseconds (virtual clock).")
  in
  let threshold_arg =
    Arg.(
      value
      & opt int Health.default_policy.Health.hp_failure_threshold
      & info [ "failure-threshold" ] ~docv:"N"
          ~doc:"Consecutive link failures that trip a breaker.")
  in
  let breaker cooloff_ms threshold = Some (cooloff_ms, threshold) in
  Term.(const breaker $ cooloff_arg $ threshold_arg)

let grid_cmd name ~doc view breaker =
  let run image_path scenario_id network view seed jitter breaker json jobs self_profile =
    check_jobs jobs;
    let health =
      Option.map
        (fun (cooloff_ms, threshold) ->
          if cooloff_ms <= 0. || threshold < 1 then
            die "--cooloff-ms must be > 0 and --failure-threshold >= 1";
          {
            Health.default_policy with
            Health.hp_failure_threshold = threshold;
            hp_cooloff_us = cooloff_ms *. 1e3;
          })
        breaker
    in
    let image = Binary_image.load image_path in
    let app = app_of_image image in
    let sc = scenario_of app scenario_id in
    let profiler = if self_profile then Some (Coign_obs.Profiler.create ()) else None in
    let grid =
      with_jobs jobs @@ fun pool ->
      try
        Coign_sim.Fleetsim.run ~pool ?profiler ~seed:(Int64.of_int seed) ~jitter ?health ~image
          ~registry:app.App.app_registry ~network view sc.App.sc_run
      with
      | Invalid_argument msg | Fallback.Invalid msg -> die "%s" msg
      | Lint.Rejected diags ->
          Format.eprintf "%a" Lint.pp_text diags;
          die "distribution rejected by the static validator"
    in
    if json then print_endline (Jsonu.to_string (Coign_sim.Fleetsim.to_json grid))
    else Format.printf "@[<v>%a@]@?" Coign_sim.Fleetsim.pp_text grid;
    Option.iter print_self_profile profiler
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ image_arg $ scenario_arg $ network_arg $ view $ seed_arg $ jitter_arg 0.
      $ breaker $ json_arg $ jobs_arg 0 $ self_profile_arg)

let faultsim_cmd =
  grid_cmd "faultsim"
    ~doc:
      "Execute a scenario under the image's distribution across a fault grid (drop rate x \
       partition length), tabulating completed calls, retries, instantiation fallbacks, \
       abandoned calls, and fault-attributable communication time. Deterministic: the seed \
       fixes the whole schedule, across any number of jobs."
    Term.(
      const (fun axes -> Coign_sim.Fleetsim.Faults axes)
      $ fault_axes ~drops:[ 0.; 0.01; 0.05; 0.1 ] ~partitions_ms:[ 0.; 50. ])
    (Term.const None)

let resilience_cmd =
  grid_cmd "resilience"
    ~doc:
      "Compare adaptive failover (circuit breaker + precomputed fallback distributions) \
       against the retry-only distributed RTE across a fault grid: each cell runs the \
       scenario both ways and tabulates availability, communication delta, breaker activity, \
       and the final fallback rung. Deterministic: the seed fixes the whole schedule, across \
       any number of jobs."
    Term.(
      const (fun axes -> Coign_sim.Fleetsim.Resilience axes)
      $ fault_axes ~drops:[ 0.; 0.05; 0.1 ] ~partitions_ms:[ 0.; 200. ])
    breaker_args

let fleet_cmd =
  let pool_arg =
    Arg.(
      value & opt int 3
      & info [ "pool" ] ~docv:"N"
          ~doc:
            "Largest pool size in the grid; every size from 1 to $(docv) is run. Size 1 is \
             the two-host resilience route bit for bit, and the grid checks that.")
  in
  let replicas_arg =
    Arg.(
      value & opt int 2
      & info [ "replicas" ] ~docv:"N"
          ~doc:
            "Live replicas per migration-safe shard (clamped to each rung's host count). \
             Replicated shards survive a host loss by promotion instead of a pool resize.")
  in
  let fault_len_arg =
    Arg.(
      value & opt (finite ()) 500.
      & info [ "fault-ms" ] ~docv:"MS"
          ~doc:
            "Length in milliseconds of the fault window the crash and partition regimes \
             apply (crash: one host's link; partition: the whole network).")
  in
  let fault_start_arg =
    Arg.(
      value & opt (finite ()) 50.
      & info [ "fault-start-ms" ] ~docv:"MS"
          ~doc:"Where the fault window opens on the run's virtual clock.")
  in
  let view pool_size replicas fault_ms start_ms =
    if pool_size < 1 || replicas < 1 then die "--pool and --replicas must be >= 1";
    if fault_ms <= 0. || start_ms < 0. then die "--fault-ms must be > 0 and --fault-start-ms >= 0";
    Coign_sim.Fleetsim.Fleet
      {
        pools = List.init pool_size (fun i -> i + 1);
        replicas;
        fault_window_us = (start_ms *. 1e3, (start_ms +. fault_ms) *. 1e3);
      }
  in
  grid_cmd "fleet"
    ~doc:
      "Compare a replicated server pool (k-way sharding, per-replica circuit breakers, \
       hot-shard splitting, pool-elastic fallback rungs) against the two-host resilience \
       ladder across an availability grid: for each pool size and fault regime (clean, \
       single-host crash, global partition) the scenario runs both ways and the grid \
       tabulates availability, the served-remote ratio, and promotion/split/resize activity. \
       A pool of one must match the resilience path bit for bit. Deterministic: the seed \
       fixes the whole schedule, across any number of jobs."
    Term.(const view $ pool_arg $ replicas_arg $ fault_len_arg $ fault_start_arg)
    breaker_args

(* trace ------------------------------------------------------------ *)

let trace_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("spans", `Spans); ("events", `Events) ]) `Chrome
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,chrome) (Chrome trace_event JSON for about://tracing and \
             Perfetto), $(b,spans) (one tab-separated span per line), or $(b,events) (the \
             information logger's stable line format).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the trace to FILE instead of stdout.")
  in
  let run image_path scenario_id network format output =
    let image = Binary_image.load image_path in
    let sink, collected = Coign_obs.Sink.collector () in
    let tracer = Coign_obs.Trace.create sink in
    let logger, events = Coign_obs.Sink.collector () in
    let mode = observed_run ~logger ~tracer image scenario_id network in
    let spans = collected () in
    let body =
      match format with
      | `Chrome -> Coign_obs.Trace.chrome_json spans ^ "\n"
      | `Spans ->
          String.concat ""
            (List.map (fun s -> Format.asprintf "%a\n" Coign_obs.Span.pp_line s) spans)
      | `Events -> String.concat "" (List.map (fun e -> Event.to_line e ^ "\n") (events ()))
    in
    match output with
    | None -> print_string body
    | Some path ->
        let oc = open_out path in
        output_string oc body;
        close_out oc;
        Printf.printf "wrote %d spans (%s run) to %s\n" (List.length spans) mode path
  in
  let term = Term.(const run $ image_arg $ scenario_arg $ network_arg $ format_arg $ out_arg) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a scenario with span tracing on the deterministic simulation clock and export \
          the trace: per-call and per-instantiation spans nested as the shadow stack nests. \
          The image's mode picks the runtime (profiling or distributed); distributed runs \
          are jitter-free, so equal seeds give byte-identical traces.")
    term

(* metrics ---------------------------------------------------------- *)

let metrics_cmd =
  let run image_path scenario_id network json =
    let image = Binary_image.load image_path in
    let registry = Coign_obs.Metrics.registry () in
    let _mode = observed_run ~metrics:registry image scenario_id network in
    if json then print_endline (Coign_obs.Metrics.to_json_string registry)
    else print_string (Coign_obs.Metrics.prometheus registry)
  in
  let term = Term.(const run $ image_arg $ scenario_arg $ network_arg $ json_arg) in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a scenario with the metrics registry attached and print the resulting \
          counters, gauges, and histograms (calls, remote bytes, retries, degradations, \
          factory decisions) as Prometheus-style text exposition or JSON.")
    term

(* show ------------------------------------------------------------- *)

let show_cmd =
  let run image_path =
    let image = Binary_image.load image_path in
    Format.printf "%a@." Binary_image.pp image;
    (match image.Binary_image.config with
    | None -> print_endline "no configuration record (original binary)"
    | Some config ->
        Format.printf "%a@." Config_record.pp config;
        (match Adps.load_profile image with
        | Some (classifier, icc) ->
            Printf.printf
              "profile: %d classifications, %d instances, %d calls, %d bytes of ICC\n"
              (Classifier.classification_count classifier)
              (Classifier.instance_count classifier)
              (Icc.call_count icc) (Icc.total_bytes icc)
        | None -> ());
        match Adps.load_distribution image with
        | Some (_, dist) ->
            Printf.printf "distribution: %d of %d classifications on the server\n"
              dist.Analysis.server_count dist.Analysis.node_count
        | None -> ())
  in
  let term = Term.(const run $ image_arg) in
  Cmd.v (Cmd.info "show" ~doc:"Print an image's metadata, config record, and profile state.") term

(* run -------------------------------------------------------------- *)

let run_cmd =
  let compare_default =
    Arg.(
      value & flag
      & info [ "compare-default" ]
          ~doc:"Also run the developer's default distribution and report the savings.")
  in
  let run image_path scenario_id network jitter compare_default =
    let image = Binary_image.load image_path in
    let app = app_of_image image in
    let sc = scenario_of app scenario_id in
    require_distribution image;
    let es = Adps.execute ~image ~registry:app.App.app_registry ~network ~jitter sc.App.sc_run in
    Printf.printf
      "%s on %s under the Coign distribution:\n\
      \  comm %.3f s + compute %.3f s = %.3f s total\n\
      \  %d remote calls, %d bytes; %d of %d instances on the server\n"
      scenario_id network.Network.net_name (es.Adps.es_comm_us /. 1e6)
      (es.Adps.es_compute_us /. 1e6) (es.Adps.es_total_us /. 1e6) es.Adps.es_remote_calls
      es.Adps.es_remote_bytes es.Adps.es_server_instances es.Adps.es_instances;
    if compare_default then begin
      let default =
        Adps.execute_with_policy ~registry:app.App.app_registry
          ~classifier:(Classifier.create Classifier.Ifcb)
          ~policy:(Factory.By_class app.App.app_default_placement) ~network ~jitter
          sc.App.sc_run
      in
      Printf.printf "default distribution: comm %.3f s — Coign saves %.0f%%\n"
        (default.Adps.es_comm_us /. 1e6)
        (if default.Adps.es_comm_us > 0. then
           (1. -. (es.Adps.es_comm_us /. default.Adps.es_comm_us)) *. 100.
         else 0.)
    end
  in
  let term =
    Term.(const run $ image_arg $ scenario_arg $ network_arg $ jitter_arg 0.015 $ compare_default)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a scenario under the distribution stored in the image.")
    term

(* load ------------------------------------------------------------- *)

let load_cmd =
  let arrival_conv =
    let parse s =
      match Coign_sim.Loadsim.arrival_of_string s with
      | Ok a -> Ok a
      | Error e -> Error (`Msg e)
    in
    let print ppf a = Format.pp_print_string ppf (Coign_sim.Loadsim.arrival_to_string a) in
    Arg.conv (parse, print)
  in
  let sessions_arg =
    Arg.(
      value & opt int 1000
      & info [ "sessions" ] ~docv:"N" ~doc:"Number of open-loop sessions to drive.")
  in
  let arrival_arg =
    Arg.(
      value
      & opt arrival_conv (Coign_sim.Loadsim.Poisson 200.)
      & info [ "arrival" ] ~docv:"SPEC"
          ~doc:
            "Arrival process: poisson:RATE, bursty:RATE,ON_MS,OFF_MS, or \
             diurnal:PEAK,PERIOD_S (rates in sessions/second on the sim clock).")
  in
  let scenarios_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "scenarios" ] ~docv:"IDS"
          ~doc:
            "Comma-separated scenario mix (default: all of the app's non-bigone scenarios), \
             drawn uniformly per session.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Availability deadline: a session within MS of end-to-end latency counts as \
                available.")
  in
  let no_queueing_arg =
    Arg.(
      value & flag
      & info [ "no-queueing" ]
          ~doc:
            "Disable FIFO queueing: every session pays its unloaded Replay estimate \
             (the identity-gate mode).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Attach a metrics registry and print the coign_load_* instruments after the \
                report (Prometheus text exposition).")
  in
  let run image_path sessions arrival seed scenarios deadline_ms no_queueing json metrics
      jobs =
    if sessions <= 0 then die "--sessions must be positive";
    check_jobs jobs;
    fun network ->
      let image = Binary_image.load image_path in
      let registry = if metrics then Some (Coign_obs.Metrics.registry ()) else None in
      let result =
        with_jobs jobs @@ fun pool ->
        try
          Coign_sim.Loadsim.run ~pool ?metrics:registry ~queueing:(not no_queueing)
            ?deadline_us:(Option.map (fun ms -> ms *. 1e3) deadline_ms)
            ?scenarios ~sessions ~arrival ~seed:(Int64.of_int seed) ~image ~network ()
        with Invalid_argument msg ->
          die "%s" msg
      in
      if json then print_endline (Jsonu.to_string (Coign_sim.Loadsim.to_json result))
      else Format.printf "@[<v>%a@]@?" Coign_sim.Loadsim.pp_text result;
      Option.iter
        (fun reg -> print_string (Coign_obs.Metrics.prometheus reg))
        registry
  in
  let term =
    Term.(
      const run $ image_arg $ sessions_arg $ arrival_arg $ seed_arg $ scenarios_arg
      $ deadline_arg $ no_queueing_arg $ json_arg $ metrics_arg $ jobs_arg 1 $ network_arg)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive an open-loop arrival process of concurrent sessions against the image's \
          analyzed distribution, with FIFO queueing at the server host and the link so \
          latency grows with utilization. Reports p50/p95/p99 end-to-end latency, \
          throughput, and availability next to the unloaded comm time. Deterministic: \
          equal seeds give byte-identical reports, across any number of jobs.")
    term

(* watch ------------------------------------------------------------ *)

let watch_cmd =
  let profile_arg =
    Arg.(
      required
      & opt (some (list string)) None
      & info [ "profile" ] ~docv:"IDS"
          ~doc:
            "Comma-separated scenario mix to profile and analyze offline — the (soon to \
             be stale) cut the watch starts from.")
  in
  let phases_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "phases" ] ~docv:"SCHEDULE"
          ~doc:
            "Semicolon-separated phases, each a comma-separated scenario list, replayed \
             in order — e.g. 'o_oldwp0;o_oldwp7,o_oldwp7,o_oldwp7'. The last phase is \
             the steady state the oracle is cut for.")
  in
  let threshold_arg =
    Arg.(
      value & opt (finite ()) 0.90
      & info [ "threshold" ] ~docv:"SIM"
          ~doc:"Similarity below which the window counts as drifted (cosine, in [0,1]).")
  in
  let half_life_arg =
    Arg.(
      value & opt (finite ()) 750.
      & info [ "half-life-ms" ] ~docv:"MS"
          ~doc:"Observation window half-life on the virtual clock.")
  in
  let check_every_arg =
    Arg.(
      value & opt int 64
      & info [ "check-every" ] ~docv:"N" ~doc:"Observations between drift checks.")
  in
  let min_dwell_arg =
    Arg.(
      value & opt (finite ~nonneg:true ()) 750.
      & info [ "min-dwell-ms" ] ~docv:"MS"
          ~doc:"Minimum virtual time between placement switches (hysteresis).")
  in
  let min_window_arg =
    Arg.(
      value & opt (finite ~nonneg:true ()) 16.
      & info [ "min-window" ] ~docv:"MASS"
          ~doc:"Decayed observation mass required before drift checks may fire.")
  in
  let sample_every_arg =
    Arg.(
      value & opt int 4
      & info [ "sample-every" ] ~docv:"K"
          ~doc:"Tap sampling rate: measure and stream one observation in K.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Attach a metrics registry to the watched run and print the coign_drift_* / \
             coign_watch_* instruments after the report (Prometheus text exposition).")
  in
  let parse_phases s =
    List.filter_map
      (fun phase ->
        match
          List.filter (fun id -> id <> "") (String.split_on_char ',' (String.trim phase))
        with
        | [] -> None
        | ids -> Some (List.map String.trim ids))
      (String.split_on_char ';' s)
  in
  let run image_path profile phases_spec threshold half_life_ms check_every min_dwell_ms
      min_window sample_every seed json metrics jobs =
    check_jobs jobs;
    let phases = parse_phases phases_spec in
    if phases = [] then die "--phases needs at least one non-empty phase";
    fun network ->
      let image = Binary_image.load image_path in
      let registry = if metrics then Some (Coign_obs.Metrics.registry ()) else None in
      let result =
        with_jobs jobs @@ fun pool ->
        try
          Coign_sim.Watchsim.run ~pool ?metrics:registry ~threshold ~check_every
            ~min_dwell_us:(min_dwell_ms *. 1e3) ~min_window
            ~half_life_us:(half_life_ms *. 1e3) ~sample_every ~seed:(Int64.of_int seed)
            ~profile_mix:profile ~phases ~image ~network ()
        with Invalid_argument msg ->
          die "%s" msg
      in
      if json then print_endline (Jsonu.to_string (Coign_sim.Watchsim.to_json result))
      else Format.printf "%a@." Coign_sim.Watchsim.pp_text result;
      Option.iter
        (fun reg -> print_string (Coign_obs.Metrics.prometheus reg))
        registry
  in
  let term =
    Term.(
      const run $ image_arg $ profile_arg $ phases_arg $ threshold_arg $ half_life_arg
      $ check_every_arg $ min_dwell_arg $ min_window_arg $ sample_every_arg $ seed_arg
      $ json_arg $ metrics_arg $ jobs_arg 1 $ network_arg)
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Close the partitioning loop online: profile a scenario mix, deploy its cut, \
          then replay a phased schedule whose usage shifts mid-run with the RTE's drift \
          watch attached — a streaming sample tap feeds an exponentially-decayed \
          observation window, and when the window's usage signature drifts from the \
          profile's the session is re-priced and the placement switched live, \
          migrating instances over the network. Reports the drift timeline and \
          per-phase communication time against the never-revisited stale cut and the \
          post-shift offline oracle. Deterministic: equal seeds give byte-identical \
          reports, across any number of jobs.")
    term

(* list ------------------------------------------------------------- *)

let list_cmd =
  let run () =
    print_endline "applications and scenarios (paper Table 1):";
    List.iter
      (fun (app : App.t) ->
        Printf.printf "\n%s (%d component classes)\n" app.App.app_name
          (List.length app.App.app_classes);
        List.iter
          (fun (sc : App.scenario) -> Printf.printf "  %-10s %s\n" sc.App.sc_id sc.App.sc_desc)
          app.App.app_scenarios)
      Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in applications and their scenarios.")
    Term.(const run $ const ())

let () =
  let doc = "the Coign automatic distributed partitioning system (OSDI '99 reproduction)" in
  let cmd =
    Cmd.group
      (Cmd.info "coign" ~version:"1.0.0" ~doc)
      [
        instrument_cmd; profile_cmd; combine_cmd; lint_cmd; verify_cmd; analyze_cmd; sweep_cmd;
        faultsim_cmd; resilience_cmd; fleet_cmd; load_cmd; watch_cmd; trace_cmd; metrics_cmd;
        show_cmd; run_cmd; list_cmd;
      ]
  in
  (* A file that is not an image, or a stored profile, distribution or
     profile log that fails to decode, is bad input, reported like any
     other (exit 1), wherever a command loads it; so is a stored
     distribution whose run faults (a COM error such as
     E_CANNOTMARSHAL). Anything else uncaught stays an internal error
     (exit 125), as Cmdliner reports it. *)
  exit
    (try Cmd.eval ~catch:false cmd with
    | Codec.Malformed msg
    | Icc.Decode_error msg
    | Classifier.Decode_error msg
    | Analysis.Decode_error msg
    | Profile_log.Decode_error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Coign_com.Hresult.Com_error h ->
        Printf.eprintf "error: %s\n" (Coign_com.Hresult.to_string h);
        1
    | e ->
        let bt = Printexc.get_raw_backtrace () in
        Printf.eprintf "coign: internal error, uncaught exception:\n%s\n"
          (Printexc.to_string e);
        Printexc.print_raw_backtrace stderr bt;
        Cmd.Exit.internal_error)
