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
    gone.  Every solved rung passes {!Analysis.Session.validate}, so failover
    can never land on a placement the pre-cut lint would reject; the
    all-client rung waives location pins by design (a Server pin
    presumes a reachable server) and is trivially valid otherwise.  A
    per-classification migration-safety table records which instances
    the RTE may move live.

    Each rung places the cut's server side on a pool of hosts
    ({!Pool.shape}).  {!compute} builds the classic two-host ladder,
    one host per rung; {!pool_ladder} widens a ladder to [k] hosts by
    prepending rungs that shard the primary cut's server side across
    [k], [k-1], ..., 2 machines.  The RTE routes and the verifier
    checks this one type, so a pool of one is the two-host path. *)

type rung = {
  pr_name : string;
      (** ["pool-3"], ..., then ["primary"], ["lossy"], ["partition"],
          ["all-client"] *)
  pr_distribution : Analysis.distribution;  (** underlying two-way cut *)
  pr_shape : Pool.shape;  (** the hosts the server side runs on *)
  pr_shard_of : int array;
      (** classification -> shard id, [-1] for client-side (and thus
          unsharded) classifications *)
  pr_shard_count : int;
  pr_replicated : bool array;
      (** by shard: whether every member is migration-safe, i.e. the
          shard may keep live replicas and be promoted between hosts *)
}
(** One rung: a two-way cut whose server side is sharded across
    [pr_shape.sh_hosts] hosts.  On a one-host rung every server-side
    classification is in shard 0, and the one shard replicates iff all
    of them are migration-safe. *)

type t

exception Invalid of string
(** Raised by {!compute} / {!of_rungs} when a rung fails validation or
    the ladder is empty, and by {!pool_ladder} on a bad host or
    replica count. *)

val compute :
  ?profiler:Coign_obs.Profiler.t ->
  ?primary:Analysis.distribution ->
  Analysis.Session.t ->
  net:Coign_netsim.Net_profiler.t ->
  unit ->
  t
(** Build the two-host ladder from an analysis session, one host per
    rung.  [primary] (default: a fresh solve against [net]) becomes
    rung 0; the two failure modes derived from [net], [lossy]
    ({!Coign_netsim.Net_profiler.degrade}) then [partition]
    ({!Coign_netsim.Net_profiler.link_down}), are each solved and
    appended unless the placement duplicates an earlier rung; the
    all-client placement is appended last under the same dedup rule.
    The session's pricing is reusable afterwards — the next [solve]
    replaces it as always. *)

val of_rungs : migration_safe:bool array -> (string * Analysis.distribution) list -> t
(** Hand-built one-host ladder of named distributions (tests, custom
    policies), each classification its own component.  No validation
    beyond non-emptiness — callers own the invariants. *)

val pool_ladder :
  ?replicas:int ->
  hosts:int ->
  Analysis.Session.t ->
  net:Coign_netsim.Net_profiler.t ->
  t ->
  t
(** Widen a two-host ladder ({!compute}, {!of_rungs}) onto a pool of
    [hosts] machines: rungs [pool-hosts, pool-(hosts-1), ..., pool-2]
    over the base's primary distribution, then every base rung at pool
    size 1.  Sharding is by component ({!Analysis.Session.components},
    keyed by the component's smallest classification): a component's
    shard is {!Pool.shard_of} [~shards:hosts] of its representative on
    every rung — only the host count varies, with shards folding onto
    fewer hosts by {!Pool.host_of} — so a key's shard never changes as
    the pool breathes.  Migration-unsafe components (under the base's
    table, which the result keeps) are pinned to shard 0 and never
    replicated.  A rung carries no price of its own: [net] is not
    read.  [replicas] (default 2) is clamped to each rung's host
    count.  Raises {!Invalid} on [hosts < 1] or [replicas < 1]. *)

val migration_safety : Analysis.Session.t -> bool array
(** {!Analysis.Session.migration_safety}: a classification is safe to
    migrate live iff no member of its component touches a
    non-remotable ICC edge. *)

val rung_count : t -> int

val pool_rung_count : t -> int
(** {!rung_count}, under the name the pool ladder's count had. *)

val rung : t -> int -> rung
(** Rungs are ranked: 0 is primary (the widest pool), higher indexes
    suit worse regimes. *)

val migration_safe : t -> int -> bool
(** Whether a classification may be migrated live; out-of-range
    classifications (including main, -1) are unsafe. *)

val migration_safety_table : t -> bool array
(** A copy of the ladder's per-classification safety table, indexed by
    classification.  The verifier compares this (what the RTE will act
    on) against a freshly derived {!migration_safety} (the static
    truth) to detect stale or hand-edited tables. *)

val components : t -> int array
(** Classification -> component representative (smallest member).  The
    granularity below which the RTE must never split a shard. *)

val component_safety : t -> bool array
(** By component representative: whether every member is
    migration-safe under the ladder's table — the components a widened
    ladder shards by hash (the rest are pinned to shard 0) and the RTE
    may move when it splits a hot shard. *)

val pp : Format.formatter -> t -> unit
