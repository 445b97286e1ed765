(** Precomputed fallback distributions (the resilience ladder).

    Coign picks one static distribution ahead of time (paper §4); a
    degraded or partitioned link leaves the running application
    retrying into it.  This module re-prices the analysis session's
    abstract ICC graph under per-failure-mode network profiles
    ({!Coign_netsim.Net_profiler.degrade},
    {!Coign_netsim.Net_profiler.link_down}) and keeps the resulting
    cuts as a ranked ladder: rung 0 is the primary distribution, later
    rungs suit progressively worse regimes, and the final rung places
    everything on the client — the regime where the server is simply
    gone.  Every solved rung passes {!Analysis.validate}, so failover
    can never land on a placement the pre-cut lint would reject; the
    all-client rung waives location pins by design (a Server pin
    presumes a reachable server) and is trivially valid otherwise.  A
    per-classification migration-safety table records which instances
    the RTE may move live. *)

type rung = {
  rg_name : string;  (** ["primary"], ["lossy"], ["partition"], ... *)
  rg_distribution : Analysis.distribution;
}

type t

exception Invalid of string
(** Raised by {!compute} / {!of_rungs} when a rung fails validation or
    the ladder is empty. *)

val compute :
  ?profiler:Coign_obs.Profiler.t ->
  ?primary:Analysis.distribution ->
  Analysis.Session.t ->
  net:Coign_netsim.Net_profiler.t ->
  unit ->
  t
(** Build the ladder from an analysis session.  [primary] (default: a
    fresh solve against [net]) becomes rung 0; the two failure modes
    derived from [net], [lossy] ({!Coign_netsim.Net_profiler.degrade})
    then [partition] ({!Coign_netsim.Net_profiler.link_down}), are
    each solved and appended unless the placement duplicates an
    earlier rung; the all-client placement is appended last under the
    same dedup rule.  The session's pricing is reusable afterwards —
    the next [solve] replaces it as always. *)

val of_rungs : migration_safe:bool array -> rung list -> t
(** Hand-built ladder (tests, custom policies).  No validation beyond
    non-emptiness — callers own the invariants. *)

val migration_safety : Analysis.Session.t -> bool array
(** {!Analysis.Session.migration_safety}: a classification is safe to
    migrate live iff no member of its component touches a
    non-remotable ICC edge. *)

val rung_count : t -> int
val rung : t -> int -> rung
(** Rungs are ranked: 0 is primary, higher indexes suit worse regimes. *)

val migration_safe : t -> int -> bool
(** Whether a classification may be migrated live; out-of-range
    classifications (including main, -1) are unsafe. *)

val migration_safety_table : t -> bool array
(** A copy of the ladder's per-classification safety table, indexed by
    classification.  The verifier compares this (what the RTE will act
    on) against a freshly derived {!migration_safety} (the static
    truth) to detect stale or hand-edited tables. *)

(** {1 Pool-elastic ladder}

    The two-host ladder above degrades by moving classifications
    between {e two} machines.  A pool ladder generalizes each rung
    into a {!Pool.shape}: the top rung runs the primary cut's server
    side sharded across [hosts] machines, intermediate rungs shrink
    the pool one host at a time, and the final rungs are exactly the
    base ladder at pool size 1 — so a pool of one is the PR 5
    resilience path, bit for bit.  Sharding is by component
    ({!Analysis.Session.components}, keyed by the component's smallest
    classification), migration-unsafe
    components are pinned to shard 0 and never replicated, and each
    rung is priced through the same abstract-graph pricing as the
    two-way engine ({!Icc_graph.predicted_us}) with hosts as
    machines. *)

type pool_rung = {
  pr_name : string;  (** ["pool-3"], ..., then the base rung's name *)
  pr_distribution : Analysis.distribution;  (** underlying two-way cut *)
  pr_shape : Pool.shape;
  pr_shard_of : int array;
      (** classification -> shard id, [-1] for client-side (and thus
          unsharded) classifications *)
  pr_shard_count : int;
  pr_replicated : bool array;
      (** by shard: whether every member is migration-safe, i.e. the
          shard may keep live replicas and be promoted between hosts *)
  pr_predicted_us : float;
      (** priced communication time of the sharded placement: the
          client/server cut plus inter-host server-server traffic *)
}

type pool_ladder

val pool_ladder :
  ?replicas:int ->
  hosts:int ->
  Analysis.Session.t ->
  net:Coign_netsim.Net_profiler.t ->
  t ->
  pool_ladder
(** Build the pool ladder over a base (two-host) ladder: rungs
    [pool-hosts, pool-(hosts-1), ..., pool-2] over the base's primary
    distribution, then every base rung at pool size 1.  A component's
    shard is {!Pool.shard_of} [~shards:hosts] of its representative on
    every rung — only the host count varies, with shards folding onto
    fewer hosts by {!Pool.host_of} — so a key's shard never changes as
    the pool breathes.
    [replicas] (default 2) is clamped to each rung's host count.
    Raises {!Invalid} on [hosts < 1] or [replicas < 1]. *)

val pool_rung_count : pool_ladder -> int
val pool_rung_at : pool_ladder -> int -> pool_rung
val pool_base : pool_ladder -> t
(** The base ladder the pool ladder was built over (rung names,
    migration-safety table). *)

val pool_components : pool_ladder -> int array
(** Classification -> component representative (smallest member).  The
    granularity below which the RTE must never split a shard. *)

val pool_component_safety : pool_ladder -> bool array
(** By component representative: whether every member is
    migration-safe under the base ladder's table — the components the
    ladder shards by hash (the rest are pinned to shard 0) and the RTE
    may move when it splits a hot shard. *)

val single_host : t -> pool_ladder
(** The two-host ladder as a pool ladder of one host per rung: the same
    rung names, distributions and safety table, every server-side
    classification in shard 0.  The RTE routes a resilience run over
    it, so two-host resilience is the one-host case of the pool. *)

val pp : Format.formatter -> t -> unit
