(** Deterministic pseudo-random number generator (splitmix64).

    Coign's evaluation must be reproducible: scenario drivers, the
    network profiler's statistical sampling, and the execution
    simulator's jitter all draw from explicitly-seeded generators so
    that repeated runs produce identical tables. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy with the same internal state. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val bool : t -> bool

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed value (Box-Muller). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean. *)

val split : t -> t
(** A generator statistically independent of the parent; both may be
    used afterwards. *)

val mix64 : int64 -> int64
(** The raw splitmix64 finalizer (avalanche mix) — for building pure
    keyed hashes whose consumers must not share mutable generator
    state (e.g. the fault model's per-message verdicts). *)

val stream : int64 -> int -> int64
(** [stream seed i] is the seed of the [i]-th independent sub-stream
    of [seed]. Unlike {!split} it is a pure function of its inputs:
    deriving stream [i] never advances any generator, so concerns that
    each own a stream of one master seed cannot perturb each other's
    draws. [stream seed 0] intentionally differs from [seed] itself;
    the convention is that the root generator [create seed] is "stream
    -1" and derived concerns use [create (stream seed i)]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
