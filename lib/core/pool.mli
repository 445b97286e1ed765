(** Pool shapes: the server side of a cut as a fleet of [k] hosts.

    The paper's cut is binary — client machine, server machine. A pool
    shape generalizes the server terminal into [k] hosts carrying a
    set of {e shards} (disjoint groups of server-side classifications)
    plus a replica factor for read-mostly shards. Placement is a pure
    function of the shape: the same shard map always sends a
    classification key to the same shard, and the same shard to the
    same primary host, so fleet runs are reproducible and a shard map
    can be reused across pool instantiations without drift.

    Two shard-map families mirror the common partitioned-service
    placements: [Hash] (stable keyed hash of the classification id,
    modulo the shard count) and [Range] (explicit upper-bound split
    points over the classification-id space). *)

type shard_map =
  | Hash of int  (** [Hash k]: key [c] lands in shard [mix64-hash(c) mod k]. *)
  | Range of int array
      (** [Range bounds]: shard [s] holds keys [c] with
          [bounds.(s-1) <= c < bounds.(s)] (conceptually; the array
          stores the exclusive upper bound of every shard but the
          last, which is unbounded). [Range [|4; 9|]] has 3 shards:
          keys < 4, keys in [4,9), keys >= 9. Bounds must be strictly
          increasing. *)

type shape = {
  sh_hosts : int;  (** pool size [k >= 1] *)
  sh_replicas : int;  (** replica factor [>= 1]; 1 means no standbys *)
  sh_map : shard_map;
}

val shape : ?replicas:int -> ?map:shard_map -> int -> shape
(** [shape k] is a [k]-host pool, hash-sharded [k] ways with replica
    factor [min 2 k] by default. Raises [Invalid_argument] on
    [k < 1], a replica factor outside [\[1, k\]], an empty or
    non-increasing [Range], or a [Hash] shard count [< 1]. *)

val shard_count : shard_map -> int
(** Number of shards the map can produce. *)

val shard_of : shard_map -> int -> int
(** [shard_of map c] places classification key [c]. Pure: equal
    arguments always yield equal shards, across any number of pool
    instantiations. [c] may be any int (the main program's [-1]
    included). *)

val host_of : shape -> int -> int
(** [host_of shape shard] is the shard's primary host — round-robin,
    [shard mod sh_hosts]. *)

val replica_hosts : shape -> int -> int list
(** The hosts holding a copy of [shard], primary first, then the next
    [sh_replicas - 1] hosts in ring order. All distinct. *)

