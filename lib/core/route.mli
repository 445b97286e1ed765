(** The RTE's routing engine: every cross-host call and forwarded
    instantiation goes through one route. A route owns the link
    (network, jitter and backoff streams, retry policy), a
    {!Fallback.t} ladder and its current rung, one circuit breaker and
    one fault model per host link of the ladder's widest rung, the
    dynamic shard table with each shard's active host, and the
    counters behind the [coign_resilience_*] and [coign_fleet_*]
    instruments.
    Retry-only is a one-link route over a one-rung ladder that places
    nothing, whose breaker never opens; [Rte.resilience] routes a
    two-host ladder ({!Fallback.compute}), one link; [Rte.fleet] routes
    any ladder, typically one widened by {!Fallback.pool_ladder}, one
    link per host. *)

type config

val config :
  ?health:Coign_netsim.Health.policy ->
  ?host_faults:(int * Coign_netsim.Fault.spec) list ->
  Fallback.t ->
  config
(** 8 probe rounds per call; see [Rte.fleet]. *)

val retry_only : config
(** One host, one rung that places nothing, a breaker that never opens
    and one round of retries per call. *)

type t

val create :
  env:Rte_env.t ->
  factory:Factory.t ->
  pool:bool ->
  network:Coign_netsim.Network.t ->
  jitter:float ->
  seed:int64 ->
  retry:Coign_netsim.Fault.retry_policy ->
  faults:Coign_netsim.Fault.spec option ->
  config ->
  t
(** [pool] marks a route installed as [dc_fleet], which {!pool}
    reports. [seed] is [dc_seed]: jitter draws from its root stream,
    backoff from stream 1, a one-host route's fault verdicts from
    stream 2 and every other link's from stream [8 + host]. *)

val link :
  t ->
  src:Constraints.location ->
  dst:Constraints.location ->
  caller_cls:int ->
  callee_cls:int ->
  int
(** The host link a call between machines [src] and [dst] rides, or -1
    when its endpoints share a host: the server-side endpoint's active
    host; for server-to-server traffic, the callee's. With one host this
    is exactly [src <> dst]. *)

val call :
  t ->
  caller:int ->
  callee:int ->
  caller_cls:int ->
  callee_cls:int ->
  request:int ->
  reply:int ->
  iface:string ->
  mname:string ->
  unit
(** Route one call whose endpoints sit on different hosts, through
    breaker transitions, replica promotions, rung switches and stranded
    waits; raises [Com_error (E_unreachable _)] after the config's probe
    rounds. *)

val create_request_bytes : int
val create_reply_bytes : int
(** The fixed sizes of an instantiation request's round trip. *)

val forward_create :
  t ->
  creator:int ->
  classification:int ->
  cname:string ->
  machine:Constraints.location ->
  Constraints.location
(** Forward an instantiation to the factory on [machine]; where the
    instance lands — [machine], or its creator's machine when the
    request cannot get through. *)

val publish : t -> Coign_obs.Metrics.registry -> unit
(** Add the route's counters to [coign_resilience_*] and set its gauges
    to their final values, plus [coign_fleet_*] when the widest rung
    has more than one host. A retry-only route publishes nothing. *)

(** {1 Counters}

    The breaker and ladder counters, which [Rte.stats] reports: *)

val breaker_opens : t -> int
val breaker_closes : t -> int
val failovers : t -> int
val failbacks : t -> int
val migrations : t -> int
val stranded_calls : t -> int
val rescued_calls : t -> int
val rung : t -> int
(** The rung the route stands on. *)

type stats = {
  fs_promotions : int;
  fs_splits : int;
  fs_resizes : int;
  fs_inter_host_calls : int;
  fs_final_hosts : int;
  fs_final_shards : int;
}
(** [Rte.fleet_stats]: the pool's own counters. *)

val stats : t -> stats
val pool : t -> bool
