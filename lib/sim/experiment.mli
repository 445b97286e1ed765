(** Scenario-level experiment driver.

    Runs one application scenario through the complete Coign pipeline
    and both execution configurations, producing one row of the
    paper's Tables 4 and 5:

    - profile the scenario on the instrumented binary;
    - analyze against the sampled network profile, yielding the Coign
      distribution (whose composition reproduces Figures 4-8);
    - execute under the developer's default distribution and under the
      Coign distribution on the ground-truth network (with measurement
      jitter), giving Table 4's communication times;
    - compare the model's predicted execution time against the
      "measured" simulated time, giving Table 5. *)

type row = {
  row_id : string;
  row_desc : string;
  default_comm_us : float;    (** Table 4, default distribution *)
  coign_comm_us : float;      (** Table 4, Coign-chosen distribution *)
  savings : float;            (** 1 - coign/default, in [0,1]; 0 when
                                  the default has no communication *)
  predicted_total_us : float; (** Table 5, model *)
  measured_total_us : float;  (** Table 5, simulated run *)
  prediction_error : float;   (** (predicted - measured) / measured *)
  node_count : int;           (** classifications analyzed *)
  server_classifications : int;
  total_instances : int;      (** instances in the Coign run *)
  server_instances : int;     (** of which placed on the server *)
  distribution : Coign_core.Analysis.distribution;
  classifier : Coign_core.Classifier.t;
}

val run_scenario :
  ?network:Coign_netsim.Network.t ->
  ?jitter:float ->
  ?seed:int64 ->
  Coign_apps.App.t ->
  Coign_apps.App.scenario ->
  row
(** Defaults: the paper's 10BaseT Ethernet testbed, 1.5% measurement
    jitter, a fixed seed. *)

val run_suite :
  ?network:Coign_netsim.Network.t ->
  ?jitter:float ->
  ?seed:int64 ->
  ?pool:Coign_util.Parallel.t ->
  Coign_apps.App.t list ->
  row list
(** Every scenario of every application, flattened in suite order.
    Scenario runs are independent (each builds its own images, RTEs,
    and seeded PRNGs), so with [pool] they execute across domains;
    rows still come back in suite order and are byte-identical to the
    sequential run (see the determinism tests). *)

val server_class_histogram : row -> (string * int) list
(** How many server-placed classifications each component class
    contributes — the textual rendering of the paper's distribution
    figures. Sorted descending by count, then by name. *)

val placements_by_class :
  row -> (string * int * int) list
(** [(class, server_classifications, total_classifications)] for every
    class that appears in the analyzed graph. *)

(** {1 Network adaptivity (paper §4.4)} *)

type sweep_point = {
  sw_network : Coign_netsim.Network.t;
  sw_server_classifications : int;
  sw_cut_ns : int;
  sw_predicted_comm_us : float;
}

val sweep :
  ?pool:Coign_util.Parallel.t ->
  ?profiler:Coign_obs.Profiler.t ->
  session:Coign_core.Analysis.Session.t ->
  Coign_netsim.Network.t list ->
  sweep_point list
(** Solve one analysis session against every network (each sampled
    with a fresh PRNG seeded 7), in list order — the placement-vs-
    network tables behind the paper's Figures 4-8 and the [coign sweep]
    subcommand. Each domain of [pool] (default
    {!Coign_util.Parallel.sequential}) solves on its own
    {!Coign_core.Analysis.Session.copy}, so [session] is left untouched
    and the result is the same for any worker count. [profiler]
    aggregates the per-point ["pricing"]/["cut"] phases across the
    whole grid; it is safe to share with a [pool] (recording is
    mutex-protected). *)

val across_networks :
  ?networks:Coign_netsim.Network.t list ->
  Coign_apps.App.t -> Coign_apps.App.scenario -> sweep_point list
(** Profile one scenario, then {!sweep} its analysis session across
    [networks] (default {!Coign_netsim.Network.presets}): the chosen
    distribution shifts as bandwidth/latency tradeoffs change. *)
