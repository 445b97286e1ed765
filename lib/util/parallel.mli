(** A small domain pool for embarrassingly parallel batches.

    OCaml 5 domains are heavyweight (each maps to an OS thread with its
    own minor heap), so spawning one per work item is wasteful. A pool
    spawns its worker domains once and reuses them for every subsequent
    batch; items are handed out by an atomic counter, and results land
    in a pre-sized array indexed by item position, so the output order
    is always the input order no matter which domain ran what.

    Determinism contract: [map] with a pure [f] returns exactly
    [Array.map f items] — same values, same order — whether the pool
    has zero workers (everything runs inline on the caller's domain)
    or many. A sequential run is therefore just a run on a zero-worker
    pool ({!sequential}): every fan-out site has one code path, and its
    output is byte-identical for any worker count. *)

type t

val create : ?domains:int -> unit -> t
(** Spawn a pool. [domains] is the number of worker domains; it
    defaults to [Domain.recommended_domain_count () - 1] (the caller's
    domain also executes work while it waits, so total parallelism is
    [domains + 1]). [~domains:0] is a valid sequential pool: every
    [map] runs inline. Raises [Invalid_argument] on negative counts. *)

val worker_count : t -> int
(** Worker domains in the pool (not counting the submitting domain). *)

val map : t -> f:('a -> 'b) -> 'a array -> 'b array
(** [map t ~f items] applies [f] to every item, in parallel across the
    pool plus the calling domain, and returns the results in input
    order. If any [f] raises, the first exception (by completion time)
    is re-raised in the caller after all domains stop picking up new
    items. Nested calls on the same pool from inside [f] do not
    deadlock: they detect the busy pool and run inline. *)

val map_list : t -> f:('a -> 'b) -> 'a list -> 'b list
(** [map] over lists. *)

val map_init : t -> init:(unit -> 's) -> f:('s -> 'a -> 'b) -> 'a array -> 'b array
(** Like [map], but each participating domain lazily creates one
    private state with [init] and threads it through every item it
    happens to process. Use for per-domain scratch structures (e.g. a
    copied analysis session) that are cheap to share across items but
    unsafe to share across domains. [f] must give the same result
    whichever domain's state it receives. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent. Subsequent [map] calls run
    inline (sequentially). *)

val sequential : t
(** The shared zero-worker pool: every [map] runs inline on the
    calling domain. The default wherever a [?pool] is omitted; safe to
    use from any domain and never needs a {!shutdown}. *)

val default : unit -> t
(** A lazily created process-wide pool sized for the machine, joined
    automatically at exit. *)
