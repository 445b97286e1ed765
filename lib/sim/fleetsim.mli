(** The fault grid: one evaluator behind [coign faultsim], [coign
    resilience] and [coign fleet].

    A grid is a list of distinct {e cells}, each a fault spec paired
    with a routing policy — retry-only, the two-host fallback ladder,
    or a replicated pool of k hosts, all the same route in
    {!Coign_core.Rte}. Each distinct cell runs the scenario once, and
    each {e view} is a table whose rows compare cells:

    - {b faults}: per (drop rate × partition length), retry-only under
      the image's stored distribution;
    - {b resilience}: per (drop rate × partition length), retry-only
      against the ladder;
    - {b fleet}: per (pool size × regime), the ladder against a pool of
      that size.

    The resilience and fleet views re-cut the image: one analysis
    session prices the primary cut on the exact network model, the base
    ladder and every pool ladder. They also run a clean retry-only cell:
    {e availability} is the fraction of its intercepted calls a run
    executed, {e served} the fraction of its remote calls that stayed
    remote.

    Fleet regimes: [Clean], [Crash] (host 0's link partitions for the
    fault window while the rest of the pool stays reachable) and
    [Partition] (the whole network partitions for the window). The
    ladder has one server host, so both faulted regimes are the same
    global partition for it, and that cell runs once. A pool of one has
    no other host either, so its crash is that partition too, and its
    rows double as the bit-identity check against the ladder.

    Every cell is seeded from the same master seed, breakers draw no
    randomness and each execution installs its own routing state, so
    cells are independent: a [pool] changes wall time, never results. *)

type regime = Clean | Crash | Partition

val regime_name : regime -> string

(** The fault-grid axes of the faults and resilience views. *)
type axes = {
  drop_rates : float list;
  partitions_us : float list;  (** window lengths; 0 = no window *)
  partition_start_us : float;  (** where every window opens *)
}

type view =
  | Faults of axes
  | Resilience of axes
  | Fleet of {
      pools : int list;   (** pool sizes; duplicates removed, ascending *)
      replicas : int;     (** live replicas per migration-safe shard *)
      fault_window_us : float * float;  (** [\[start, stop)] of the crash
                                            and partition regimes *)
    }

val default_fault_window_us : float * float
(** [(50_000, 550_000)] — a 500 ms outage starting at 50 ms. *)

(** One row of a view: its coordinates and the stats of the cells it
    compares. *)
type row =
  | Faults_row of {
      drop_rate : float;
      partition_us : float;
      retry : Coign_core.Adps.exec_stats;
    }
  | Resilience_row of {
      drop_rate : float;
      partition_us : float;
      retry : Coign_core.Adps.exec_stats;
      ladder : Coign_core.Adps.exec_stats;
    }
  | Fleet_row of {
      pool : int;
      regime : regime;
      ladder : Coign_core.Adps.exec_stats;
      fleet : Coign_core.Adps.exec_stats;
      pool_stats : Coign_core.Rte.fleet_stats;
    }

type grid = {
  g_view : view;
  g_network : Coign_netsim.Network.t;
  g_seed : int64;
  g_clean_calls : int;   (** intercepted calls of the clean run; 0 in the
                             faults view, which runs none *)
  g_clean_remote : int;  (** remote calls of the clean run *)
  g_ladder : Coign_core.Fallback.t option;  (** the re-cut views' base ladder *)
  g_rows : row list;     (** row-major: first axis outer *)
}

val run :
  ?pool:Coign_util.Parallel.t ->
  ?profiler:Coign_obs.Profiler.t ->
  ?seed:int64 ->
  ?jitter:float ->
  ?health:Coign_netsim.Health.policy ->
  image:Coign_image.Binary_image.t ->
  registry:Coign_com.Runtime.registry ->
  network:Coign_netsim.Network.t ->
  view ->
  Coign_core.Adps.scenario ->
  grid
(** Execute a view's distinct cells. The faults view needs an image in
    distributed mode (as {!Coign_core.Adps.execute}); the re-cut views
    need an accumulated profile (as {!Coign_core.Adps.analyze}).
    [health] configures the breakers of the ladder and pool cells.
    Nonzero partition lengths become one
    [\[partition_start_us, start + length)] window on the run's virtual
    clock. [profiler] times the analysis under its usual phases and
    every cell execution under ["grid_cell"] (safe with a [pool];
    recording is mutex-protected). *)

val availability : grid -> Coign_core.Adps.exec_stats -> float
(** Intercepted calls as a fraction of the clean run's, capped at 1;
    1 when the clean run intercepted nothing. *)

val served : grid -> Coign_core.Adps.exec_stats -> float
(** Remote calls as a fraction of the clean run's, capped at 1; 1 when
    the clean run made none. *)

val identical : row -> bool option
(** Pool-of-one rows: whether the pool run's stats equal the ladder's,
    field for field — anything but [Some true] is a bug. [None] for
    every other row. *)

val pp_text : Format.formatter -> grid -> unit
(** The view's table; emit inside a vertical box. *)

val to_json : grid -> Coign_util.Jsonu.t
(** The view as a JSON array, one object per row. *)
