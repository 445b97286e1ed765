(** The end-to-end Automatic Distributed Partitioning System pipeline
    (paper Figure 1):

    application binary → binary rewriter → instrumented binary →
    profiling scenarios → ICC data → profile analysis (+ network
    profile) → best distribution → binary rewriter → distributed
    application.

    Every stage communicates through the image's configuration record,
    so stages can run in separate processes (see [bin/coign.ml]) and
    profiles accumulate across scenario runs. *)

type scenario = Coign_com.Runtime.ctx -> unit
(** A usage scenario: drives the application through the object
    runtime (ordinarily via an automated testing tool). *)

(** {1 Stage 1: instrument} *)

val instrument :
  ?classifier:string -> ?stack_depth:int option ->
  Coign_image.Binary_image.t -> Coign_image.Binary_image.t
(** {!Coign_image.Rewriter.instrument} re-exported for pipeline
    symmetry. *)

(** {1 Stage 2: profile} *)

type profile_stats = {
  ps_instances : int;        (** component instances created *)
  ps_calls : int;            (** interface calls intercepted *)
  ps_bytes : int;            (** deep-copy bytes measured *)
  ps_compute_us : float;     (** compute charged by the application *)
  ps_classifications : int;  (** cumulative classifications known *)
}

val profile :
  ?logger:Logger.t ->
  ?tracer:Coign_obs.Trace.t ->
  ?metrics:Coign_obs.Metrics.registry ->
  image:Coign_image.Binary_image.t ->
  registry:Coign_com.Runtime.registry ->
  scenario ->
  Coign_image.Binary_image.t * profile_stats
(** Run one profiling scenario against an instrumented image. Loads any
    classifier state and ICC summaries already accumulated in the
    config record, runs the scenario under the profiling RTE, and
    writes the merged results back into the returned image. Raises
    [Invalid_argument] if the image is not in profiling mode.
    [logger], [tracer], and [metrics] are forwarded to
    {!Rte.install_profiling}. *)

val profile_results :
  ?logger:Logger.t ->
  ?tracer:Coign_obs.Trace.t ->
  ?metrics:Coign_obs.Metrics.registry ->
  image:Coign_image.Binary_image.t ->
  registry:Coign_com.Runtime.registry ->
  scenario ->
  Coign_image.Binary_image.t * profile_stats * Rte.t
(** Like {!profile} but also exposes the RTE for callers that need raw
    run data (instance classifications, the instance communication
    matrix). The RTE is already uninstalled. *)

(** {1 Stage 3: analyze} *)

val analysis_session :
  ?profiler:Coign_obs.Profiler.t ->
  ?extra_constraints:Constraints.t ->
  Coign_image.Binary_image.t ->
  Analysis.Session.t
(** Stage 1 of {!analyze}, reusable across networks: decode the image's
    accumulated profile, combine its constraint sources (API-pin
    static analysis and [extra_constraints]), and build the
    network-independent analysis session. Each stored text is read
    once, in place: the classifier by {!Classifier.decode}, the ICC
    summary straight into the abstract graph ({!Icc_graph.decode}),
    with no intermediate {!Icc.t}, so a stored summary {!Icc.scan}
    does not accept raises {!Icc.Decode_error}. The arena is compiled
    from int arrays with no list or tuple per edge, so the build
    allocates little beyond what the session keeps (on the profiled
    o_oldwp0 image, 4,492 minor words; [test_session] gates it).
    Raises [Invalid_argument] if the image holds no profile. With
    [profiler], the classifier decode, the text-to-graph decode and
    constraint assembly record under the ["profile_load"] phase, the
    session's flow-arena build ({!Analysis.Session.of_graph}) under
    ["icc_graph_build"]. *)

val analyze_with :
  ?profiler:Coign_obs.Profiler.t ->
  session:Analysis.Session.t ->
  image:Coign_image.Binary_image.t ->
  net:Coign_netsim.Net_profiler.t ->
  unit ->
  Coign_image.Binary_image.t * Analysis.distribution
(** Stage 2: solve an {!analysis_session} against one network profile,
    prove the result with {!Analysis.Session.validate} (raising
    {!Lint.Rejected} with one CG007 error per broken pin, split
    co-location pair or split profiled non-remotable pair, so a cut
    across an infinite edge is never written), and rewrite the image
    into distributed mode. [image] should be the image the session was built
    from. Adaptive callers keep one session and call this once per
    network condition. With [profiler], the solve and validation record
    under the ["pricing"], ["cut"], and ["validation"] phases. *)

val analyze :
  ?profiler:Coign_obs.Profiler.t ->
  ?extra_constraints:Constraints.t ->
  image:Coign_image.Binary_image.t ->
  net:Coign_netsim.Net_profiler.t ->
  unit ->
  Coign_image.Binary_image.t * Analysis.distribution
(** Combine the accumulated profile with constraints (API-pin static
    analysis of the image and [extra_constraints]) and the network
    profile; choose the distribution; prove it with
    {!Analysis.Session.validate}; rewrite the image into distributed mode
    carrying the classifier state and placement. Raises
    [Invalid_argument] if the image holds no profile, and
    {!Lint.Rejected} (CG007 errors) if the constraints are mutually
    unsatisfiable — e.g. hand-forced pins splitting a profiled
    non-remotable pair. The rejection happens at analyze time,
    before the distribution can ever reach {!Coign_sim.Replay}'s
    runtime abort. *)

val load_profile : Coign_image.Binary_image.t -> (Classifier.t * Icc.t) option
(** The accumulated classifier state and ICC summary, if any. Raises
    {!Icc.Decode_error} when an ICC entry names a classification the
    classifier does not have. *)

val load_distribution : Coign_image.Binary_image.t -> (Classifier.t * Analysis.distribution) option
(** The stored classifier and distribution, if any. Raises
    {!Analysis.Decode_error} when the placement does not cover exactly
    the classifier's classifications. *)

(** {1 Stage 4: distributed execution} *)

type exec_stats = {
  es_comm_us : float;        (** measured cross-machine communication *)
  es_compute_us : float;
  es_total_us : float;
  es_remote_calls : int;
  es_remote_bytes : int;
  es_intercepted : int;      (** all intercepted calls, local or remote *)
  es_instances : int;
  es_server_instances : int;
  es_forwarded_creates : int;
  es_retries : int;          (** remote-call attempts beyond the first *)
  es_drops : int;            (** messages the fault model ate *)
  es_spikes : int;           (** latency spikes suffered *)
  es_fallbacks : int;        (** instantiations degraded to the creator *)
  es_unreachable : int;      (** calls abandoned after retries *)
  es_fault_us : float;       (** comm time attributable to faults *)
  es_completed : bool;
      (** false when the scenario was cut short by [E_unreachable]; the
          stats cover everything that ran up to the abandoned call *)
  es_breaker_opens : int;    (** breaker trips (zero without resilience) *)
  es_breaker_closes : int;
  es_failovers : int;        (** switches down the fallback ladder *)
  es_failbacks : int;        (** switches back up to the primary *)
  es_migrations : int;       (** instances moved live between machines *)
  es_stranded_calls : int;   (** calls that waited on an open breaker *)
  es_rescued_calls : int;    (** failed calls completed locally *)
  es_final_rung : int;       (** rung installed when the run ended *)
  es_drift_checks : int;       (** drift checks run (zero without a watch) *)
  es_drift_detections : int;   (** checks that crossed the threshold *)
  es_repartitions : int;       (** placement switches the watch installed *)
  es_watch_migrations : int;   (** instances moved by those switches *)
  es_unchanged_cuts : int;     (** detections whose re-cut kept the placement *)
  es_rejected_cuts : int;      (** candidate cuts failing validation *)
  es_last_similarity : float;  (** similarity at the last check (1 without) *)
}

val execute :
  ?logger:Logger.t ->
  ?tracer:Coign_obs.Trace.t ->
  ?metrics:Coign_obs.Metrics.registry ->
  image:Coign_image.Binary_image.t ->
  registry:Coign_com.Runtime.registry ->
  network:Coign_netsim.Network.t ->
  ?jitter:float -> ?seed:int64 ->
  ?faults:Coign_netsim.Fault.spec -> ?retry:Coign_netsim.Fault.retry_policy ->
  ?resilience:Rte.resilience_config ->
  ?watch:Rte.watch_config ->
  scenario ->
  exec_stats
(** Run a scenario under the distribution stored in the image (which
    must be in distributed mode). [jitter] defaults to 0 (deterministic
    network); [faults] defaults to none and [retry] to
    {!Coign_netsim.Fault.default_retry}. [logger], [tracer], and
    [metrics] are forwarded to {!Rte.install_distributed} and change
    nothing when absent. With [watch] (see {!Rte.watch}), the RTE monitors
    usage drift online and re-partitions when it fires. *)

val execute_with_policy :
  ?logger:Logger.t ->
  ?tracer:Coign_obs.Trace.t ->
  ?metrics:Coign_obs.Metrics.registry ->
  registry:Coign_com.Runtime.registry ->
  classifier:Classifier.t ->
  policy:Factory.policy ->
  network:Coign_netsim.Network.t ->
  ?jitter:float -> ?seed:int64 ->
  ?faults:Coign_netsim.Fault.spec -> ?retry:Coign_netsim.Fault.retry_policy ->
  ?resilience:Rte.resilience_config ->
  ?watch:Rte.watch_config ->
  scenario ->
  exec_stats
(** Run under an explicit placement policy — used to measure the
    application's default (developer-chosen) distribution. *)

val execute_fleet :
  ?logger:Logger.t ->
  ?tracer:Coign_obs.Trace.t ->
  ?metrics:Coign_obs.Metrics.registry ->
  image:Coign_image.Binary_image.t ->
  registry:Coign_com.Runtime.registry ->
  network:Coign_netsim.Network.t ->
  ?jitter:float -> ?seed:int64 ->
  ?faults:Coign_netsim.Fault.spec -> ?retry:Coign_netsim.Fault.retry_policy ->
  fleet:Rte.fleet_config ->
  scenario ->
  exec_stats * Rte.fleet_stats
(** {!execute} under a replicated server pool ({!Rte.fleet_config}),
    returning the pool's own counters ({!Rte.fleet_stats}) alongside
    the run's stats, which hold its breaker and ladder counters. A pool
    of one routes exactly as {!execute} with the equivalent
    [resilience] does, so its stats are bit-identical to that run's. *)

val fallback_ladder :
  image:Coign_image.Binary_image.t ->
  net:Coign_netsim.Net_profiler.t ->
  unit ->
  Fallback.t
(** The two-host resilience ladder for a profiled image, one host per
    rung: rung 0 is the image's
    stored distribution when it carries one (so failback restores
    exactly the analyzed cut) and a fresh solve otherwise, later rungs
    re-price the same analysis session under the failure-mode profiles
    of [net] ({!Fallback.compute}). Raises [Invalid_argument] if the
    image holds no profile. *)

val pool_fallback_ladder :
  hosts:int ->
  image:Coign_image.Binary_image.t ->
  net:Coign_netsim.Net_profiler.t ->
  unit ->
  Fallback.t
(** The pool-elastic ladder for a profiled image: {!fallback_ladder}
    widened to [hosts] machines ({!Fallback.pool_ladder}) with the
    default two replicas, sharded and priced over the same analysis
    session. Raises [Invalid_argument] if the image holds no
    profile. *)
