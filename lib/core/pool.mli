(** Pool shapes: the server side of a cut as a fleet of [k] hosts.

    The paper's cut is binary — client machine, server machine. A pool
    shape generalizes the server terminal into [k] hosts carrying a
    set of {e shards} (disjoint groups of server-side classifications)
    plus a replica factor for read-mostly shards. This module holds the
    one placement rule every layer shares: a classification key's
    shard is a stable keyed hash ({!shard_of}), a shard's primary host
    is the shard modulo the host count ({!host_of}), and its replicas
    follow the primary round the ring ({!first_replica}). The pool ladder
    ({!Fallback.pool_ladder}) applies the rule once per rung; the RTE's
    routing engine and the verifier both read the result. *)

type shape = {
  sh_hosts : int;  (** pool size [k >= 1] *)
  sh_replicas : int;  (** replica factor [>= 1]; 1 means no standbys *)
}

val shape : ?replicas:int -> int -> shape
(** [shape k] is a [k]-host pool with replica factor [min 2 k] by
    default. Raises [Invalid_argument] on [k < 1] or a replica factor
    outside [\[1, k\]]. *)

val shard_of : shards:int -> int -> int
(** [shard_of ~shards c] places classification key [c] in shard
    [mix64-hash(c) mod shards]. Pure: equal arguments always yield
    equal shards, across any number of pool instantiations. [c] may be
    any int (the main program's [-1] included). Requires
    [shards >= 1]. *)

val shard_in : int array -> int -> int
(** [shard_in table c] is the shard a classification -> shard table
    (a pool rung's [pr_shard_of], or the RTE's split-grown copy of it)
    gives [c]: its entry where the table speaks, shard 0 for anything
    outside it (main, run-time classifications, client-side entries). *)

val host_of : shape -> int -> int
(** [host_of shape shard] is the shard's primary host — round-robin,
    [shard mod sh_hosts]. *)

val first_replica : shape -> int -> except:int -> admits:(int -> bool) -> int
(** The first host of the shard's replica ring (its [sh_replicas]
    distinct hosts, the primary first, then round the pool) that is not
    [except] and that [admits] accepts; -1 when there is none. Every
    promotion takes this walk: the RTE admits hosts whose breaker allows
    calls, the verifier's model every host but the failed primary. *)
