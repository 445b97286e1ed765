(** Open-loop traffic simulation over a chosen distribution.

    Coign's evaluation replays one closed-loop scenario and prices its
    communication against an unloaded network — a single user, latency
    independent of load. The ROADMAP's north star is the opposite
    regime: millions of concurrent sessions, where latency is dominated
    by queueing at shared resources. This module drives an open-loop
    arrival process (sessions arrive whether or not earlier ones have
    finished) over the per-scenario communication traces Coign already
    records, layering FIFO queues on the {!Coign_netsim.Network} cost
    model so service time grows with utilization, and reports the
    percentile latency, throughput, and availability figures a capacity
    plan actually needs.

    Model. Each session runs one scenario's remote operations
    sequentially (closed within the session, zero think time). Every
    operation visits two shared FIFO servers in order: the server host
    (its service demand is the protocol-processing share of both
    messages, {!Coign_netsim.Network.host_us} each way) and then the
    link (propagation plus transmission of request and reply,
    {!Coign_netsim.Network.wire_us}). Client-side work is per-session
    and therefore uncontended — each simulated user runs on their own
    machine. With queueing disabled the two demands collapse back into
    the unloaded {!Coign_netsim.Network.message_us} sum, and a
    session's latency equals the {!Replay} communication estimate for
    its scenario bit for bit (a tested identity).

    Determinism. The simulation runs entirely on a virtual clock; all
    randomness derives from per-session {!Coign_util.Prng.stream}
    substreams of one master seed, so results are a pure function of
    (image, network, arrival, seed, sessions) — the worker pool only
    changes how the per-session draws are filled in, never their
    values, so parallel runs are byte-identical to sequential ones. *)

(** {1 Arrival processes} *)

type arrival =
  | Poisson of float  (** memoryless arrivals at a fixed mean rate (sessions/s) *)
  | Bursty of { b_rate : float; b_on_ms : float; b_off_ms : float }
      (** Poisson at [b_rate] during on-windows of [b_on_ms], silence
          for [b_off_ms] between them — the same arrival mass
          compressed into bursts *)
  | Diurnal of { d_peak : float; d_period_s : float }
      (** raised-cosine rate curve between 5% and 100% of [d_peak]
          with the given period — a day compressed to [d_period_s] *)

val arrival_of_string : string -> (arrival, string) result
(** Parse ["poisson:RATE"], ["bursty:RATE,ON_MS,OFF_MS"], or
    ["diurnal:PEAK,PERIOD_S"]; every field must be a finite number
    (NaN and infinities are rejected) and rates, windows and periods
    positive (the bursty off-window may be zero). *)

val arrival_to_string : arrival -> string
(** Round-trips through {!arrival_of_string}. *)

val gen_arrivals :
  ?pool:Coign_util.Parallel.t ->
  seed:int64 ->
  sessions:int ->
  classes:int ->
  arrival ->
  float array * int array
(** [(arrivals, class_of)]: nondecreasing arrival timestamps (µs on
    the sim clock, one per session) and each session's scenario-class
    index, uniform in [\[0, classes)]. Draws are a pure function of
    (seed, session index); the pool parallelizes filling them without
    changing a single bit. *)

val session_draws : seed:int64 -> classes:int -> int -> float * int
(** Session [s]'s (unit-mean exponential spacing, class) draws as
    {!gen_arrivals} makes them: bit for bit [Prng.exponential g
    ~mean:1.] then [Prng.int g classes] with [g = Prng.create
    (Prng.stream seed s)], computed without allocating per session. *)

(** {1 Session classes} *)

type session_class = {
  cl_scenario : string;     (** scenario id this class replays *)
  cl_host_svc : float array;  (** per-op service demand at the server host *)
  cl_link_svc : float array;  (** per-op service demand on the link *)
  cl_comm_us : float;
      (** unloaded end-to-end communication time; equals the {!Replay}
          estimate for the same scenario and placement bit for bit *)
}

val ops_of_events :
  placement:(int -> Coign_core.Constraints.location) ->
  Coign_core.Event.t list ->
  (int * int) list
(** The (request, reply) byte pairs a {!Replay} of the trace under
    [placement] would charge, in trace order: forwarded instantiations
    and remotable cross-machine calls; non-remotable violations charge
    nothing, exactly as in {!Replay.replay}. *)

val class_of_ops :
  network:Coign_netsim.Network.t -> scenario:string -> (int * int) list -> session_class
(** Price an op list against a network model. Exposed so tests can
    build hand-crafted classes with known arithmetic. *)

(** {1 The event loop} *)

type op_trace = {
  ot_session : int;
  ot_op : int;
  ot_ready_us : float;        (** arrival at the host queue *)
  ot_host_start_us : float;
  ot_host_finish_us : float;
  ot_link_start_us : float;
  ot_finish_us : float;       (** departure from the link *)
}

type sim_totals = {
  st_latency_us : float array;  (** per-session end-to-end latency *)
  st_host_busy_us : float;
  st_link_busy_us : float;
  st_last_finish_us : float;
  st_ops : int;
}

val simulate :
  ?sink:(op_trace -> unit) ->
  classes:session_class array ->
  arrivals:float array ->
  class_of:int array ->
  unit ->
  sim_totals
(** The discrete-event core: every operation passes the shared host
    FIFO and then the shared link FIFO. [arrivals] must be
    nondecreasing (as {!gen_arrivals} guarantees). When a new session's
    arrival ties with a queued continuation, the new session is served
    first — a fixed, documented rule so traces are reproducible. Runs
    in O(total ops) with no event heap: both event sources are already
    sorted, and FIFO service keeps them that way. [sink] observes every
    op's timing, for tests and trace export. *)

(** {1 The full run} *)

type class_stat = {
  cs_scenario : string;
  cs_sessions : int;       (** sessions that drew this scenario *)
  cs_ops : int;            (** remote ops per session *)
  cs_comm_us : float;      (** unloaded comm time per session *)
}

type result = {
  r_app : string;
  r_network : string;
  r_arrival : arrival;
  r_seed : int64;
  r_sessions : int;
  r_queueing : bool;
  r_deadline_us : float option;
  r_classes : class_stat list;
  r_total_ops : int;
  r_p50_us : float;
  r_p95_us : float;
  r_p99_us : float;
  r_mean_us : float;
  r_max_us : float;
  r_throughput_per_s : float;   (** sessions completed per second of makespan *)
  r_availability : float;
      (** fraction of sessions within the deadline; 1 when no deadline *)
  r_duration_us : float;        (** first arrival to last finish *)
  r_host_util : float;          (** busy fraction of the server host *)
  r_link_util : float;
}

val run :
  ?pool:Coign_util.Parallel.t ->
  ?metrics:Coign_obs.Metrics.registry ->
  ?queueing:bool ->
  ?deadline_us:float ->
  ?scenarios:string list ->
  sessions:int ->
  arrival:arrival ->
  seed:int64 ->
  image:Coign_image.Binary_image.t ->
  network:Coign_netsim.Network.t ->
  unit ->
  result
(** Drive [sessions] open-loop sessions against the image's analyzed
    distribution. The scenario mix defaults to the app's non-bigone
    scenarios, drawn uniformly per session; [scenarios] restricts it.
    Each scenario is recorded once under a fresh profiling run and
    compiled to per-op service demands, so cost is O(mix) + O(total
    ops), never O(sessions) scenario executions. [queueing:false]
    prices every session at its class's unloaded estimate (the
    identity-gate mode). [metrics] populates [coign_load_*] counters,
    gauges, and latency/comm histograms. Raises [Invalid_argument] for
    non-positive sessions, a deadline that is not a finite positive
    number, an unknown app or scenario, or an image without a
    distribution. *)

val pp_text : Format.formatter -> result -> unit
(** Stable human-readable report (golden-tested). *)

val to_json : result -> Coign_util.Jsonu.t
(** Machine-readable form of the same numbers ([%.17g] floats via
    {!Coign_util.Jsonu}). *)
