(** The Coign Runtime Executive (paper §3.1).

    Loaded (conceptually) from the first slot of the rewritten
    application's import table, the RTE provides the low-level services
    the other Coign components build on:

    - {b interception of component instantiation requests} — installed
      as the object runtime's create hook, the analog of inline
      redirection of [CoCreateInstance];
    - {b interface wrapping} — every interface pointer that escapes to
      the application is replaced by a Coign-instrumented handle whose
      dispatch forwards through the original, so every inter-component
      call is trapped;
    - {b shadow stack management} — thread-local contextual information
      across interface calls, read by the instance classifiers;
    - {b configuration access} — construction from an instrumented
      image's config record lives in {!Adps}.

    Two personalities, as in the paper: the profiling RTE (heavyweight
    informer + profiling logger) and the distributed RTE (lightweight
    informer + component factory + null logger). *)

type t

(** {1 Installation} *)

val install_profiling :
  ?logger:Logger.t ->
  ?tracer:Coign_obs.Trace.t ->
  ?metrics:Coign_obs.Metrics.registry ->
  classifier:Classifier.t ->
  Coign_com.Runtime.ctx ->
  t
(** Instrument a context for scenario-based profiling. Every call and
    instantiation is recorded straight into {!icc} and {!inst_comm};
    [logger] (e.g. a {!Coign_obs.Sink.collector}) receives the
    {!Event.t} stream, whose values are built only when a logger or a
    tracer is attached. Summarizing that stream's [Interface_call]
    events rebuilds the same summaries.

    Instantiations are classified through a {!Classifier.memo} owned by
    this install, which renders no descriptor for a context already
    seen.

    [tracer] records a span per intercepted call (category ["call"],
    named [Iface.method]) and per instantiation (category ["create"],
    named by class), timed on the virtual clock ({!comm_us} plus the compute
    the application has charged, never wall time) and nested per the shadow
    stack. [metrics] receives the run's [coign_rte_*] counters once, at
    {!uninstall}; only the per-message size histograms are updated
    during the run. Both default to off, and neither changes a run:
    profiles, stats, and events are bit-identical with or without. *)

(** {1 Routing and watch policies}

    Abstract; [resilience_config] and [fleet_config] are distinct types,
    so a pool configuration cannot be installed as [dc_resilience]. A
    routed call endures 8 failed attempt/probe rounds, waiting out
    cooloffs in between, before it raises [E_unreachable]. *)

type resilience_config

val resilience : ?health:Coign_netsim.Health.policy -> Fallback.t -> resilience_config
(** Failover over a ranked fallback ladder ({!Fallback.compute}: one
    host per rung), whose rung 0 should match the installed factory
    policy so failback restores it, behind one [health] breaker
    (default {!Coign_netsim.Health.default_policy}). *)

type fleet_config

val fleet :
  ?health:Coign_netsim.Health.policy ->
  ?host_faults:(int * Coign_netsim.Fault.spec) list ->
  Fallback.t ->
  fleet_config
(** A replicated pool over a ladder widened by {!Fallback.pool_ladder}
    (rung 0 the widest pool, the tail the base two-host ladder at pool
    size 1), with one [health] breaker per host of rung 0. Over a
    one-host ladder it routes exactly as {!resilience} does.
    [host_faults] (default none) maps a host index to a fault spec
    replacing [dc_faults] on that host's link. A shard carrying more
    than 0.6 of the decayed remote-call load (200 ms half-life),
    checked every 64 served remote calls, is hot. *)

type watch_config

val watch :
  ?threshold:float ->
  ?check_every:int ->
  ?min_dwell_us:float ->
  ?min_window:float ->
  ?half_life_us:float ->
  ?sample_every:int ->
  ?tap:Coign_obs.Tap.sink ->
  net:Coign_netsim.Net_profiler.t ->
  Analysis.Session.t ->
  watch_config
(** Re-cuts re-price the session (its classifier must be the one the
    RTE runs under) against [net]. Drift fires below [threshold]
    similarity (default 0.90), checked every [check_every] observations
    (256), once the window holds [min_window] decayed mass (32) and
    [min_dwell_us] (50 ms) has passed since the last placement decision
    — the staleness bound, and half the anti-flap hysteresis. The
    window decays with [half_life_us] (200 ms); the tap samples
    1-in-[sample_every] observations (16) into [tap] (default
    detached). Raises [Invalid_argument] on a threshold outside [0, 1],
    a check cadence or sample rate below 1, a non-finite or negative
    dwell or window mass, or a half-life that is not positive (NaN
    included). *)

(** One drift-check outcome in the watch timeline. *)
type watch_action =
  | W_steady        (** no drift (or gated by dwell/mass) *)
  | W_unchanged     (** drifted, but the re-cut chose the installed placement *)
  | W_repartitioned of { wa_migrated : int; wa_left : int; wa_servers : int }
  | W_rejected of int  (** candidate cut failed constraint validation *)

type watch_checkpoint = {
  wk_at_us : float;        (** virtual time of the check *)
  wk_similarity : float;
  wk_window_pairs : int;
  wk_action : watch_action;
}

type distributed_config = {
  dc_factory_policy : Factory.policy;
  dc_network : Coign_netsim.Network.t;   (** ground-truth network *)
  dc_jitter : float;    (** relative stddev of per-message time noise;
                            0 for deterministic runs *)
  dc_seed : int64;      (** master seed; one {!Coign_util.Prng.stream}
                            per stochastic concern (jitter, backoff,
                            fault verdicts), so enabling faults never
                            perturbs the jitter draws *)
  dc_faults : Coign_netsim.Fault.spec option;
                        (** fault model over [dc_network]; [None] (or
                            [Some Fault.zero]) runs fault-free *)
  dc_retry : Coign_netsim.Fault.retry_policy;
                        (** how cross-machine messaging survives drops *)
  dc_resilience : resilience_config option;
                        (** adaptive failover across the fallback
                            ladder, routed as a one-host pool; [None]
                            (the default everywhere) routes retry-only:
                            one round of retries per call, behind a
                            breaker that never opens *)
  dc_watch : watch_config option;
                        (** online drift watch and bounded-staleness
                            re-partitioning; [None] (the default
                            everywhere) runs the static placement, bit
                            for bit. Requires a
                            [Factory.By_classification] policy as the
                            initial placement *)
  dc_fleet : fleet_config option;
                        (** replicated server pool with per-replica
                            breakers, hot-shard splitting and
                            pool-elastic failover. A pool of one routes
                            exactly as [dc_resilience] over the
                            ladder's base does: same breaker, same
                            fault stream, same events and metrics *)
}
(** At most one of [dc_resilience], [dc_fleet] and [dc_watch] may be
    set, since each drives the factory policy; {!install_distributed}
    raises [Invalid_argument] otherwise, and on a [dc_watch] over a
    policy other than [By_classification]. *)

val install_distributed :
  ?logger:Logger.t ->
  ?tracer:Coign_obs.Trace.t ->
  ?metrics:Coign_obs.Metrics.registry ->
  classifier:Classifier.t ->
  config:distributed_config ->
  Coign_com.Runtime.ctx ->
  t
(** Realize a distribution: instantiation requests are relocated by the
    component factory, and every cross-machine call is charged its
    DCOM round-trip on the configured network. A cross-machine call
    over a non-remotable interface raises
    [Com_error (E_cannot_marshal _)] — the partitioner's infinite
    edges exist precisely to make this unreachable.

    Under a fault model, every cross-machine message asks the model for
    a verdict; drops cost a timeout and are retried with exponential
    backoff per [dc_retry]. A call whose retries are exhausted raises
    [Com_error (E_unreachable _)] after counting itself; an
    instantiation request whose retries are exhausted degrades
    gracefully — the instance is placed with its creator and the
    fallback counted (see {!stats}).

    Every forwarded call and create goes through one routing engine: a
    ladder of pool rungs, one circuit breaker
    ({!Coign_netsim.Health}) and one fault model per host link (sized
    by the widest rung), and a shard table. Without [dc_resilience] or
    [dc_fleet] the route has one link, one rung and a breaker that
    never opens, so a call gets one round of retries and then raises.

    With [dc_resilience], the route is one link over the fallback
    ladder. Failures feed the breaker; when it opens, the RTE
    atomically switches the factory to the next rung of the ladder,
    migrates the instances the static remotability facts mark safe,
    and lets the failed call complete locally if the failover
    co-located its endpoints (the underlying call already ran — the
    fault model only judges the communication). Calls that must still
    cross the dead link are stranded: they wait out the cooloff on the
    virtual clock and become the half-open probe; probe success closes
    the breaker and fails back to rung 0, probe failure reopens it
    with an escalated cooloff. Breaker transitions and rung switches
    are reported ({!Event.Breaker_opened} etc.) and counted
    ([coign_resilience_*] metrics and {!stats}). A fault-free run records only successes, so its stats
    are bit-identical to the retry-only run's.

    With [dc_watch], every intercepted call and create also feeds an
    exponentially-decayed observation window ({!Window}) and, when a
    tap sink is attached, a seeded 1-in-k sample stream
    ({!Coign_obs.Tap} on {!Coign_util.Prng.stream} 3 of [dc_seed] —
    attaching or detaching the tap never perturbs jitter, backoff or
    fault draws). Every [check_every] observations the RTE compares
    the window signature against the adopted baseline
    ({!Window.similarity}); below [threshold] it logs
    {!Event.Drift_detected}, re-prices the analysis session with the
    window's per-pair volumes ([Session.solve ~scale]), lint-validates
    the candidate cut, and — when the placement actually changes —
    atomically switches the factory and migrates the statically-safe
    instances, logging {!Event.Repartitioned} and per-instance
    {!Event.Instance_migrated}. The window snapshot then becomes the
    new baseline and a [min_dwell_us] dwell starts, so the loop
    cannot flap on the shift it just absorbed. Checks run on the
    virtual clock before the observed call is routed, so a re-cut
    applies to the very call that triggered it. With [dc_watch = None]
    the run is bit-identical to one without the watch compiled in.

    With [dc_fleet], the route has one link per host of the widest
    pool rung: each component shard lives on the host the pool
    ladder's [pr_shard_of] and {!Pool.host_of} assign, and reads of a replicated shard survive a
    host loss by promotion — the first healthy replica in ring order
    takes over the shard ({!Event.Replica_promoted}) without touching
    the rest of the pool. A breaker opening on a host whose shards
    cannot all be promoted shrinks the pool one rung
    ({!Event.Pool_resized}), migrating only the statically-safe
    instances, exactly as resilience failover does; probe success on
    the degraded host fails back to the widest rung. Per-link
    observation volume feeds a decayed per-shard load; a hot shard is split,
    its migration-safe upper components moving to a fresh shard on the
    least-loaded host ({!Event.Shard_split}). The [coign_fleet_*] instruments are
    exported for pools wider than one host.

    Each routing and watch decision ({!Event.Call_retried} and every
    later constructor) is reported once: to [logger] and, with
    [tracer], as a zero-duration span of category ["event"] at the
    decision's virtual time, named by {!Event.kind_name} and carrying
    {!Event.fields}.

    Fault streams: a one-host route draws its verdicts from
    {!Coign_util.Prng.stream} 2 of [dc_seed] (the global [dc_faults]
    model) unless [host_faults] overlays its host; an overlay, and
    every host of a wider pool, draws from stream [8 + host]. All
    decisions run on the virtual clock off seeded streams, so runs are
    deterministic and independent of domain-parallel execution. *)

val uninstall : t -> unit
(** Remove all hooks; the context reverts to plain local execution.
    Wrappers already handed out stay valid: a call through one runs
    the raw method without interception, and a later install on the
    same context intercepts it again as its own. An
    install given [metrics] publishes its counters and gauges to the
    registry here, once: totals add to what the registry holds, so
    installs sharing a registry accumulate, and gauges take this run's
    final values. *)

(** {1 Profiling results} *)

val icc : t -> Icc.t
val inst_comm : t -> Inst_comm.t
(** The run's summaries. A distributed install builds none and
    returns empty ones. *)

val classifier : t -> Classifier.t

val instance_classifications : t -> (int * int) list
(** [(instance, classification)] pairs, ascending by instance. *)

val instances_created : t -> int list
(** Instances whose creation this RTE intercepted, ascending. *)

(** {1 Distributed-execution results} *)

val factory : t -> Factory.t option
val comm_us : t -> float
(** Accumulated cross-machine communication time (µs). *)

val intercepted_calls : t -> int
(** All calls that crossed a Coign wrapper, local or remote. *)

type stats = {
  st_comm_us : float;
  st_remote_calls : int;   (** completed remote calls and forwards *)
  st_remote_bytes : int;
  st_intercepted : int;
  st_retries : int;        (** attempts beyond the first, summed *)
  st_drops : int;          (** messages the fault model ate *)
  st_spikes : int;         (** latency spikes suffered *)
  st_fallbacks : int;      (** instantiations degraded to the creator *)
  st_unreachable : int;    (** calls abandoned with [E_unreachable] *)
  st_fault_us : float;     (** comm time attributable to faults *)
  st_breaker_opens : int;  (** breaker trips (zero on a retry-only route) *)
  st_breaker_closes : int;
  st_failovers : int;      (** switches down the fallback ladder *)
  st_failbacks : int;      (** switches back up to the primary *)
  st_migrations : int;     (** instances moved live between machines *)
  st_stranded_calls : int; (** calls that waited on an open breaker *)
  st_rescued_calls : int;  (** failed calls completed locally after
                               failover *)
  st_final_rung : int;     (** rung installed when the run ended *)
  st_drift_checks : int;       (** drift checks run (zero without a watch) *)
  st_drift_detections : int;   (** checks that crossed the threshold *)
  st_repartitions : int;       (** placement switches the watch installed *)
  st_watch_migrations : int;   (** instances moved by those switches *)
  st_unchanged_cuts : int;     (** detections whose re-cut kept the placement *)
  st_rejected_cuts : int;      (** candidate cuts failing validation *)
  st_last_similarity : float;  (** similarity at the last check (1 without) *)
}

val stats : t -> stats
(** One-shot snapshot of the run's communication and fault counters. *)

val watch_timeline : t -> watch_checkpoint list
(** Every drift check the watch ran, in virtual-time order (empty
    without a watch). *)

val watch_placement : t -> Analysis.distribution option
(** The distribution the watch currently has installed — the initial
    policy's until the first repartition. *)

val watch_tap_counts : t -> (int * int) option
(** [(offered, sampled)] tap counts, when a watch with an attached tap
    is installed. *)

type fleet_stats = {
  fs_promotions : int;      (** replica promotions (shard kept serving
                                through a host loss) *)
  fs_splits : int;          (** hot shards split *)
  fs_resizes : int;         (** pool size changes (up or down) *)
  fs_inter_host_calls : int;  (** server-to-server calls that crossed
                                  pool hosts *)
  fs_final_hosts : int;
  fs_final_shards : int;
}

val fleet_stats : t -> fleet_stats option
(** The pool's own counters for every install with [dc_fleet], a pool
    of one included; [None] otherwise. The pool's breaker and ladder
    counters (per-host breaker trips summed, switches down and back up
    the pool ladder, instances moved live between hosts, stranded and
    rescued calls, the final rung) are the routing counters of
    {!stats}. *)
