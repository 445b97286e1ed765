open Coign_com
open Coign_image

type scenario = Runtime.ctx -> unit

let key_classifier = Config_keys.classifier
let key_icc = Config_keys.icc
let key_distribution = Config_keys.distribution

let instrument = Rewriter.instrument

type profile_stats = {
  ps_instances : int;
  ps_calls : int;
  ps_bytes : int;
  ps_compute_us : float;
  ps_classifications : int;
}

let config_of image =
  match image.Binary_image.config with
  | Some c -> c
  | None -> invalid_arg "Adps: image has no configuration record (not instrumented)"

let classifier_of_config config =
  match Config_record.entry config key_classifier with
  | Some state -> Classifier.decode state
  | None ->
      let kind =
        match Classifier.kind_of_name (Config_record.classifier_name config) with
        | Some k -> k
        | None ->
            invalid_arg
              ("Adps: unknown classifier " ^ Config_record.classifier_name config)
      in
      Classifier.create ?stack_depth:(Config_record.stack_depth config) kind

let profile_results ?logger ?tracer ?metrics ~image ~registry scenario =
  let config = config_of image in
  if Config_record.mode config <> Config_record.Profiling then
    invalid_arg "Adps.profile: image is not in profiling mode";
  let classifier = classifier_of_config config in
  let ctx = Runtime.create_ctx registry in
  let rte = Rte.install_profiling ?logger ?tracer ?metrics ~classifier ctx in
  scenario ctx;
  Rte.uninstall rte;
  let icc =
    match Config_record.entry config key_icc with
    | Some prior -> Icc.merge (Icc.decode prior) (Rte.icc rte)
    | None -> Rte.icc rte
  in
  let config =
    Config_record.set_entry
      (Config_record.set_entry config key_classifier (Classifier.encode classifier))
      key_icc (Icc.encode icc)
  in
  let stats =
    {
      ps_instances = List.length (Rte.instances_created rte);
      ps_calls = Rte.intercepted_calls rte;
      ps_bytes = Inst_comm.total_bytes (Rte.inst_comm rte) ;
      ps_compute_us = Runtime.compute_us ctx;
      ps_classifications = Classifier.classification_count classifier;
    }
  in
  ({ image with Binary_image.config = Some config }, stats, rte)

let profile ?logger ?tracer ?metrics ~image ~registry scenario =
  let image, stats, _rte = profile_results ?logger ?tracer ?metrics ~image ~registry scenario in
  (image, stats)

(* The stored classifier and ICC summary texts, undecoded. *)
let profile_texts image =
  match image.Binary_image.config with
  | None -> None
  | Some config -> (
      match (Config_record.entry config key_classifier, Config_record.entry config key_icc) with
      | Some cls, Some icc -> Some (cls, icc)
      | _ -> None)

let load_profile image =
  Option.map
    (fun (cls, icc) ->
      let classifier = Classifier.decode cls in
      (classifier, Icc.decode ~classifications:(Classifier.classification_count classifier) icc))
    (profile_texts image)

let load_distribution image =
  match image.Binary_image.config with
  | None -> None
  | Some config -> (
      match
        (Config_record.entry config key_classifier, Config_record.entry config key_distribution)
      with
      | Some cls, Some dist ->
          let d = Analysis.decode dist in
          let classifier = Classifier.decode cls in
          let n = Classifier.classification_count classifier in
          if Array.length d.Analysis.placement <> n then
            raise
              (Analysis.Decode_error
                 (Printf.sprintf
                    "Analysis.decode: placement covers %d classifications, but the classifier \
                     has %d"
                    (Array.length d.Analysis.placement) n));
          Some (classifier, d)
      | _ -> None)

let timed profiler name f =
  match profiler with None -> f () | Some p -> Coign_obs.Profiler.time p name f

let analysis_session ?profiler ?(extra_constraints = Constraints.empty) image =
  let loaded =
    timed profiler "profile_load" (fun () ->
        match profile_texts image with
        | None -> None
        | Some (cls, icc) ->
            let classifier = Classifier.decode cls in
            let graph = Icc_graph.decode ~classifier icc in
            let constraints = Constraints.merge (Constraints.of_image image) extra_constraints in
            Some (classifier, graph, constraints))
  in
  match loaded with
  | None -> invalid_arg "Adps.analyze: image holds no profile"
  | Some (classifier, graph, constraints) ->
      Analysis.Session.of_graph ?profiler ~classifier ~graph ~constraints ()

let analyze_with ?profiler ~session ~image ~net () =
  let classifier = Analysis.Session.classifier session in
  let distribution = Analysis.Session.solve ?profiler session ~net in
  (* The cut construction cannot violate satisfiable constraints, but
     pins and profiled non-remotable pairs can admit no finite cut (e.g.
     pins on both ends of a non-remotable pair), and then the cut
     crosses an infinite edge. Prove the result before writing it into
     the image — the analyze-time replacement for Replay's runtime
     abort. *)
  timed profiler "validation" (fun () ->
      match Analysis.Session.validate session distribution with
      | [] -> ()
      | violations ->
          raise
            (Lint.Rejected
               (Lint.order
                  (List.map
                     (fun v ->
                       Lint.diag "CG007" Lint.Error image.Binary_image.img_name
                         (Format.asprintf "%a" Analysis.pp_violation v))
                     violations))));
  let image =
    Rewriter.write_distribution image
      ~entries:
        [
          (key_classifier, Classifier.encode classifier);
          (key_distribution, Analysis.encode distribution);
        ]
  in
  (image, distribution)

let analyze ?profiler ?extra_constraints ~image ~net () =
  let session = analysis_session ?profiler ?extra_constraints image in
  analyze_with ?profiler ~session ~image ~net ()

type exec_stats = {
  es_comm_us : float;
  es_compute_us : float;
  es_total_us : float;
  es_remote_calls : int;
  es_remote_bytes : int;
  es_intercepted : int;
  es_instances : int;
  es_server_instances : int;
  es_forwarded_creates : int;
  es_retries : int;
  es_drops : int;
  es_spikes : int;
  es_fallbacks : int;
  es_unreachable : int;
  es_fault_us : float;
  es_completed : bool;
  (* Resilience counters — zero unless a resilience policy ran. *)
  es_breaker_opens : int;
  es_breaker_closes : int;
  es_failovers : int;
  es_failbacks : int;
  es_migrations : int;
  es_stranded_calls : int;
  es_rescued_calls : int;
  es_final_rung : int;
  (* Watch counters — zero (similarity 1) unless a watch ran. *)
  es_drift_checks : int;
  es_drift_detections : int;
  es_repartitions : int;
  es_watch_migrations : int;
  es_unchanged_cuts : int;
  es_rejected_cuts : int;
  es_last_similarity : float;
}

let execute_with_policy_full ?logger ?tracer ?metrics ~registry ~classifier ~policy ~network
    ?(jitter = 0.) ?(seed = 0x5EEDL) ?faults ?(retry = Coign_netsim.Fault.default_retry)
    ?resilience ?watch ?fleet scenario =
  let ctx = Runtime.create_ctx registry in
  let rte =
    Rte.install_distributed ?logger ?tracer ?metrics ~classifier
      ~config:
        {
          Rte.dc_factory_policy = policy;
          dc_network = network;
          dc_jitter = jitter;
          dc_seed = seed;
          dc_faults = faults;
          dc_retry = retry;
          dc_resilience = resilience;
          dc_watch = watch;
          dc_fleet = fleet;
        }
      ctx
  in
  (* The RTE's typed unreachability error is the scenario's fault
     horizon: everything up to the abandoned call still counts, so
     report what ran instead of propagating (es_completed says which). *)
  let completed =
    match scenario ctx with
    | () -> true
    | exception Hresult.Com_error (Hresult.E_unreachable _) -> false
  in
  Rte.uninstall rte;
  let factory = Option.get (Rte.factory rte) in
  let st = Rte.stats rte in
  let comm = st.Rte.st_comm_us in
  let compute = Runtime.compute_us ctx in
  let stats =
  {
    es_comm_us = comm;
    es_compute_us = compute;
    es_total_us = comm +. compute;
    es_remote_calls = st.Rte.st_remote_calls;
    es_remote_bytes = st.Rte.st_remote_bytes;
    es_intercepted = st.Rte.st_intercepted;
    es_instances = List.length (Rte.instances_created rte);
    es_server_instances =
      List.length
        (List.filter
           (fun i -> i <> Runtime.main_instance)
           (Factory.instances_on factory Constraints.Server));
    es_forwarded_creates = Factory.forwarded_requests factory;
    es_retries = st.Rte.st_retries;
    es_drops = st.Rte.st_drops;
    es_spikes = st.Rte.st_spikes;
    es_fallbacks = st.Rte.st_fallbacks;
    es_unreachable = st.Rte.st_unreachable;
    es_fault_us = st.Rte.st_fault_us;
    es_completed = completed;
    es_breaker_opens = st.Rte.st_breaker_opens;
    es_breaker_closes = st.Rte.st_breaker_closes;
    es_failovers = st.Rte.st_failovers;
    es_failbacks = st.Rte.st_failbacks;
    es_migrations = st.Rte.st_migrations;
    es_stranded_calls = st.Rte.st_stranded_calls;
    es_rescued_calls = st.Rte.st_rescued_calls;
    es_final_rung = st.Rte.st_final_rung;
    es_drift_checks = st.Rte.st_drift_checks;
    es_drift_detections = st.Rte.st_drift_detections;
    es_repartitions = st.Rte.st_repartitions;
    es_watch_migrations = st.Rte.st_watch_migrations;
    es_unchanged_cuts = st.Rte.st_unchanged_cuts;
    es_rejected_cuts = st.Rte.st_rejected_cuts;
    es_last_similarity = st.Rte.st_last_similarity;
  }
  in
  (stats, Rte.fleet_stats rte)

let execute_with_policy ?logger ?tracer ?metrics ~registry ~classifier ~policy ~network
    ?jitter ?seed ?faults ?retry ?resilience ?watch scenario =
  fst
    (execute_with_policy_full ?logger ?tracer ?metrics ~registry ~classifier ~policy ~network
       ?jitter ?seed ?faults ?retry ?resilience ?watch scenario)

(* The classifier and the placement policy a distributed image runs
   under; [entry] names the caller in the error. *)
let stored_policy ~entry image =
  if Config_record.mode (config_of image) <> Config_record.Distributed then
    invalid_arg (entry ^ ": image is not in distributed mode");
  match load_distribution image with
  | None -> invalid_arg (entry ^ ": image holds no distribution")
  | Some (classifier, distribution) -> (classifier, Factory.By_classification distribution)

let execute ?logger ?tracer ?metrics ~image ~registry ~network ?jitter ?seed ?faults ?retry
    ?resilience ?watch scenario =
  let classifier, policy = stored_policy ~entry:"Adps.execute" image in
  execute_with_policy ?logger ?tracer ?metrics ~registry ~classifier ~policy ~network ?jitter
    ?seed ?faults ?retry ?resilience ?watch scenario

(* Pool runs report the pool's own counters alongside the run's stats. *)
let execute_fleet ?logger ?tracer ?metrics ~image ~registry ~network ?jitter ?seed ?faults
    ?retry ~fleet scenario =
  let classifier, policy = stored_policy ~entry:"Adps.execute_fleet" image in
  let stats, fs =
    execute_with_policy_full ?logger ?tracer ?metrics ~registry ~classifier ~policy ~network
      ?jitter ?seed ?faults ?retry ~fleet scenario
  in
  (stats, Option.get fs)

(* Build the resilience ladder for a profiled image: rung 0 is the
   image's stored distribution when it has one (so failback restores
   exactly the analyzed cut) and a fresh solve of the same session
   otherwise; later rungs re-price the same session under the
   failure-mode profiles of [net]. *)
let fallback_ladder ~image ~net () =
  let session = analysis_session image in
  let primary = Option.map snd (load_distribution image) in
  Fallback.compute ?primary session ~net ()

(* Build the pool-elastic ladder for a profiled image: the two-host
   ladder above widened to [hosts] machines, sharded and priced over
   the same analysis session. *)
let pool_fallback_ladder ~hosts ~image ~net () =
  let session = analysis_session image in
  let primary = Option.map snd (load_distribution image) in
  Fallback.pool_ladder ~hosts session ~net (Fallback.compute ?primary session ~net ())
