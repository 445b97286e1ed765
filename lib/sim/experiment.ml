open Coign_util
open Coign_netsim
open Coign_core
open Coign_apps

type row = {
  row_id : string;
  row_desc : string;
  default_comm_us : float;
  coign_comm_us : float;
  savings : float;
  predicted_total_us : float;
  measured_total_us : float;
  prediction_error : float;
  node_count : int;
  server_classifications : int;
  total_instances : int;
  server_instances : int;
  distribution : Analysis.distribution;
  classifier : Classifier.t;
}

let run_scenario ?(network = Network.ethernet_10) ?(jitter = 0.015) ?(seed = 0xC016EL)
    (app : App.t) (sc : App.scenario) =
  let image = Adps.instrument app.App.app_image in
  let image, stats = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let rng = Prng.create seed in
  let net = Net_profiler.profile rng network in
  let image, distribution = Adps.analyze ~image ~net () in
  let classifier, _ =
    match Adps.load_distribution image with
    | Some cd -> cd
    | None -> assert false
  in
  let coign =
    Adps.execute ~image ~registry:app.App.app_registry ~network ~jitter
      ~seed:(Int64.add seed 1L) sc.App.sc_run
  in
  let default_classifier = Classifier.create (Classifier.kind classifier) in
  let default =
    Adps.execute_with_policy ~registry:app.App.app_registry ~classifier:default_classifier
      ~policy:(Factory.By_class app.App.app_default_placement) ~network ~jitter
      ~seed:(Int64.add seed 2L) sc.App.sc_run
  in
  let predicted_total_us =
    stats.Adps.ps_compute_us +. distribution.Analysis.predicted_comm_us
  in
  let measured_total_us = coign.Adps.es_total_us in
  {
    row_id = sc.App.sc_id;
    row_desc = sc.App.sc_desc;
    default_comm_us = default.Adps.es_comm_us;
    coign_comm_us = coign.Adps.es_comm_us;
    savings =
      (if default.Adps.es_comm_us <= 0. then 0.
       else Float.max 0. (1. -. (coign.Adps.es_comm_us /. default.Adps.es_comm_us)));
    predicted_total_us;
    measured_total_us;
    prediction_error = Stats.ratio_error ~predicted:predicted_total_us ~measured:measured_total_us;
    node_count = distribution.Analysis.node_count;
    server_classifications = distribution.Analysis.server_count;
    total_instances = coign.Adps.es_instances;
    server_instances = coign.Adps.es_server_instances;
    distribution;
    classifier;
  }

let run_suite ?network ?jitter ?seed ?(pool = Parallel.sequential) apps =
  let tasks =
    Array.of_list
      (List.concat_map
         (fun (app : App.t) -> List.map (fun sc -> (app, sc)) app.App.app_scenarios)
         apps)
  in
  Array.to_list
    (Parallel.map pool ~f:(fun (app, sc) -> run_scenario ?network ?jitter ?seed app sc) tasks)

let server_class_histogram row =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let cls = Classifier.class_of_classification row.classifier c in
      Hashtbl.replace counts cls (1 + Option.value ~default:0 (Hashtbl.find_opt counts cls)))
    (Analysis.server_classifications row.distribution);
  Hashtbl.fold (fun cls n acc -> (cls, n) :: acc) counts []
  |> List.sort (fun (ca, na) (cb, nb) -> compare (-na, ca) (-nb, cb))

type sweep_point = {
  sw_network : Network.t;
  sw_server_classifications : int;
  sw_cut_ns : int;
  sw_predicted_comm_us : float;
}

let sweep_point ?profiler session network =
  let net = Net_profiler.profile (Prng.create 7L) network in
  let d = Analysis.Session.solve ?profiler session ~net in
  {
    sw_network = network;
    sw_server_classifications = d.Analysis.server_count;
    sw_cut_ns = d.Analysis.cut_ns;
    sw_predicted_comm_us = d.Analysis.predicted_comm_us;
  }

let sweep ?(pool = Parallel.sequential) ?profiler ~session networks =
  (* Sessions are single-domain: each participating domain (only the
     caller's on a zero-worker pool) prices and cuts on its own copy,
     sharing the immutable abstract graph, so [session] is never
     touched. The profiler, when given, is shared across the domains —
     its recording is mutex-protected, so grid-wide phase totals
     aggregate correctly. *)
  Array.to_list
    (Parallel.map_init pool
       ~init:(fun () -> Analysis.Session.copy session)
       ~f:(fun s network -> sweep_point ?profiler s network)
       (Array.of_list networks))

let across_networks ?(networks = Network.presets) (app : App.t) (sc : App.scenario) =
  let image = Adps.instrument app.App.app_image in
  let image, _stats = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  sweep ~session:(Adps.analysis_session image) networks
