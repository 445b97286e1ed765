(** Fleet-availability grid: replicated server pool vs. two-host ladder.

    For each (pool size × fault regime) point, runs the scenario twice
    under the image's stored distribution — once with PR 5's two-host
    resilience ladder (the baseline) and once with a replicated pool
    ({!Coign_core.Rte.fleet_config}) of that size — and tabulates
    availability, served-remote ratio and the pool's promotion /
    split / resize activity side by side.

    Two ratios are reported against a fault-free run. {e Availability}
    is the fraction of its intercepted calls that executed — under a
    single-host crash both paths complete (the ladder fails over to
    all-client, the pool promotes replicas), so it ties at 1.
    {e Served} is the fraction of its {e remote} calls that stayed
    remote: the ladder's all-client rung stops serving remotely while
    the pool keeps the surviving hosts in the loop, so this is the
    ratio the fleet must strictly win under crash regimes.

    Regimes: [Clean] (no faults), [Crash] (one host's link partitions
    for the fault window — applied to host 0 for pools > 1 and as the
    global partition for a pool of one, so the pool-1 row doubles as
    the identity check against the baseline), [Partition] (the global
    network partitions for the window — every host's breaker trips,
    and what distinguishes the paths is how they climb back out).

    Determinism mirrors {!Resilsim}: every cell is seeded from the
    same master seed (per-host fault streams are derived, never
    shared), ladders are immutable and computed once, and cells are
    independent — a [pool] changes wall time, never results. *)

type regime = Clean | Crash | Partition

val regime_name : regime -> string

type cell = {
  fr_pool : int;
  fr_regime : regime;
  fr_baseline : Coign_core.Adps.exec_stats;  (** two-host ladder *)
  fr_fleet : Coign_core.Adps.exec_stats;     (** replicated pool *)
  fr_fleet_stats : Coign_core.Rte.fleet_stats;
  fr_identical : bool option;
      (** pool-1 rows: whether the fleet run's stats equal the
          baseline's, field for field — a pool of one is the same
          one-link route as the baseline, so anything but [Some true]
          is a bug. [None] for wider pools *)
}

type grid = {
  fg_network : Coign_netsim.Network.t;
  fg_seed : int64;
  fg_clean_calls : int;   (** intercepted calls of the fault-free run *)
  fg_clean_remote : int;  (** remote calls of the fault-free run *)
  fg_replicas : int;
  fg_cells : cell list;   (** row-major: pool size outer, regime inner *)
}

val default_pools : int list
(** [1; 2; 3] *)

val default_regimes : regime list
(** [Clean; Crash; Partition] *)

val default_fault_window_us : float * float
(** [(50_000, 550_000)] — a 500 ms outage starting at 50 ms. *)

val availability : grid -> Coign_core.Adps.exec_stats -> float
(** Intercepted calls as a fraction of the clean run's, capped at 1. *)

val served : grid -> Coign_core.Adps.exec_stats -> float
(** Remote calls as a fraction of the clean run's, capped at 1;
    1 when the clean run made none. *)

val run :
  ?pool:Coign_util.Parallel.t ->
  ?profiler:Coign_obs.Profiler.t ->
  ?seed:int64 ->
  ?jitter:float ->
  ?retry:Coign_netsim.Fault.retry_policy ->
  ?health:Coign_netsim.Health.policy ->
  ?max_probe_rounds:int ->
  ?modes:(string * Coign_netsim.Net_profiler.t) list ->
  ?replicas:int ->
  ?map:Coign_core.Pool.shard_map ->
  ?pools:int list ->
  ?regimes:regime list ->
  ?fault_window_us:float * float ->
  image:Coign_image.Binary_image.t ->
  registry:Coign_com.Runtime.registry ->
  network:Coign_netsim.Network.t ->
  Coign_core.Adps.scenario ->
  grid
(** Execute the grid. The image must hold an accumulated profile: one
    analysis session prices the primary cut, the two-host base ladder
    and one pool ladder per requested pool size (duplicates removed,
    ascending). [health] and [max_probe_rounds] configure both sides'
    breakers identically; [replicas] and [map] shape the pool ladders.
    [profiler] times the analysis under its usual phases and every
    execution under ["fleetsim_cell"]. *)

val pp_text : Format.formatter -> grid -> unit
(** The human-readable table [coign fleet] prints. *)

val to_json : grid -> string
(** The grid as a JSON array, one object per cell with [baseline],
    [fleet] and [pool_stats] sub-objects; floats are printed with
    [%.17g] so equal grids serialize byte-identically. *)
