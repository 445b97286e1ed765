(** Streaming ICC sample tap (paper §6).

    The offline pipeline observes inter-component communication once,
    during profiling; a continuously re-optimizing system needs the
    same observations as a stream out of the running RTE. A tap is a
    sampling valve between the interception layer and any consumer: the
    RTE offers every intercepted call and instantiation, the tap keeps a
    deterministic 1-in-k subsample, and pushes the survivors into a
    caller-supplied {!Sink.t}, the same shape as the logger's and the
    tracer's.

    Everything here is opt-in and inert by default: the instrumented
    code paths take the tap as an option and skip all bookkeeping when
    it is absent, so a detached run is bit-identical to an untapped
    one. Sampling decisions come from the tap's own seeded PRNG stream
    — attaching a tap never perturbs the run's jitter, retry, or fault
    draws. *)

type kind = Call | Create

type obs = {
  ob_at_us : float;  (** virtual time of the observation (sim clock) *)
  ob_kind : kind;
  ob_caller : int;  (** caller classification; [-1] for the main program *)
  ob_callee : int;  (** callee classification *)
  ob_bytes : int;  (** request + reply bytes when measured, else [0] *)
}

type sink = obs Sink.t

val null_sink : sink

type t

val create : ?sample_every:int -> ?seed:int64 -> sink -> t
(** A tap keeping on average one observation in [sample_every]
    (default 1: keep everything). Raises [Invalid_argument] when
    [sample_every < 1]. *)

val accept : t -> bool
(** Count one offered observation and draw the sampling decision for
    it. A caller defers expensive measurement (message-size walks) to
    the selected observations: a [true] result should be followed by
    exactly one {!emit}. *)

val emit : t -> at_us:float -> kind:kind -> caller:int -> callee:int -> bytes:int -> unit
(** Push a fully-measured observation that {!accept} selected. A tap
    over {!null_sink} counts it and builds no {!obs}. *)

val offered : t -> int
(** Observations offered so far. *)

val sampled : t -> int
(** Observations that reached the sink. *)
