(** Deterministic fault injection over a ground-truth {!Network}.

    The paper's distributed runtime assumes every cross-machine DCOM
    call completes; real deployments of the distributions Coign
    produces sit on lossy, partitionable networks. This module is the
    adversary: a PRNG-seeded fault model that decides, per message,
    whether the network drops it, delays it, or delivers it — plus the
    retry policy the distributed RTE uses to survive the answer.

    Determinism is the design constraint. A verdict is a {e pure
    function} of the model (seed + spec), the virtual send time, and
    the message size — no hidden generator state — so identical seeds
    give identical fault schedules regardless of evaluation order,
    domain count, or how many other concerns draw random numbers. *)

(** {1 Fault specification} *)

type spec = {
  fs_drop_rate : float;
      (** probability each message is lost in transit, in [\[0, 1\]] *)
  fs_spike_rate : float;
      (** probability each delivered message suffers a latency spike *)
  fs_spike_mean_us : float;
      (** mean of the exponential spike-duration distribution (µs) *)
  fs_partitions_us : (float * float) list;
      (** [\[start, stop)] windows of virtual time (µs) during which the
          network is partitioned: every message is dropped *)
  fs_crashes_us : (float * float) list;
      (** [\[crash, recovery)] windows during which the server is down:
          every message is dropped (same verdict as a partition, kept
          separate so schedules read as what they model) *)
}

val zero : spec
(** No faults: rates 0, no windows. A model built from [zero] delivers
    every message — by construction bit-identical to running without a
    model at all. *)

(** {1 The model} *)

type t

val make : seed:int64 -> spec -> t
(** Raises [Invalid_argument] if a rate is outside [\[0, 1\]] or a
    window has [stop < start]. The seed should be a dedicated stream of
    the run's master seed (see {!Coign_util.Prng.stream}), never the
    master seed itself. *)

val seed : t -> int64
val spec : t -> spec

type verdict =
  | Drop                (** lost; the sender times out *)
  | Delay of float      (** delivered after an extra spike (µs) *)
  | Deliver             (** delivered at nominal network speed *)

val verdict : t -> at_us:float -> bytes:int -> verdict
(** The network's ruling on one message sent at virtual time [at_us].
    Pure: evaluating it twice — or from different domains — gives the
    same answer. *)

(** {1 Retry policy} *)

type retry_policy = {
  rp_timeout_us : float;      (** wait before declaring a message lost *)
  rp_max_attempts : int;      (** total attempts, including the first *)
  rp_backoff_us : float;      (** pause before the first retry *)
  rp_backoff_mult : float;    (** exponential backoff multiplier *)
  rp_backoff_jitter : float;
      (** backoff randomization: each pause is scaled by a factor drawn
          uniformly from [\[1, 1 + jitter\]]; 0 disables the draw *)
}

val default_retry : retry_policy
(** 10 ms timeout, 3 attempts, 1 ms initial backoff doubling per retry,
    10% jitter — a few round trips of the paper's 10BaseT testbed. *)

(** {1 One faulted call} *)

type spent = {
  mutable comm_us : float;   (** total elapsed time, faults included *)
  mutable fault_us : float;
      (** time attributable to faults: timeouts waited, backoff pauses,
          and spike delays — [comm_us] minus the clean round trips *)
}
(** Virtual time a run of calls has spent. All floats, so OCaml stores
    the record flat and {!call} adds to it without allocating. *)

type counts = {
  mutable retries : int;  (** attempts beyond the first *)
  mutable drops : int;    (** messages the network ate *)
  mutable spikes : int;   (** latency spikes suffered *)
}
(** Fault counts over a run of calls. *)

val spent : unit -> spent
(** Zero totals. *)

val counts : unit -> counts
(** Zero counts. *)

val call :
  model:t option ->
  retry:retry_policy ->
  rng:Coign_util.Prng.t ->
  network:Network.t ->
  jitter:float ->
  jitter_rng:Coign_util.Prng.t ->
  now_us:float ->
  request_bytes:int ->
  reply_bytes:int ->
  spent:spent ->
  counts:counts ->
  bool
(** Simulate one synchronous cross-machine call starting at virtual
    time [now_us], add its time to [spent] and its faults to [counts],
    and return whether it completed ([false]: retries exhausted, call
    abandoned). Each attempt asks the model for a verdict on the
    request and then on the reply; a [Drop] on either leg costs one
    timeout and, if attempts remain, one backoff pause (jitter drawn
    from [rng]) before trying again. A delivered leg takes
    {!Network.message_us} of its size; when [jitter > 0] that time is
    the mean of a Gaussian draw from [jitter_rng] with standard
    deviation [jitter] times the mean, clamped at 0.

    Without a [model] ([None], or a {!zero} one) no message is ever
    dropped or delayed and the call spends exactly the request leg's
    time plus the reply leg's, with the reply leg drawn {e first} —
    the historical draw order of the distributed RTE's jitter noise,
    preserved so fault-free runs stay bit-identical to the pre-fault
    code path. A call allocates nothing unless the model delays a
    message. *)
