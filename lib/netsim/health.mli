(** Per-link health tracking and a three-state circuit breaker.

    The breaker protects a simulated network link: callers report each
    remote call's outcome with its virtual timestamp and consult
    {!allows} before issuing the next one.  State evolves
    [Closed -> Open] after [hp_failure_threshold] consecutive failures,
    [Open -> Half_open] once the cooloff window has elapsed on the sim
    clock, and [Half_open -> Closed] (or back to [Open], with an
    escalated cooloff) depending on probe outcomes.  No randomness is
    drawn anywhere, so runs are deterministic under [dc_seed]. *)

type policy = {
  hp_failure_threshold : int;
      (** Consecutive failures that trip the breaker (>= 1). *)
  hp_cooloff_us : float;
      (** Initial Open -> Half_open cooloff in virtual microseconds. *)
  hp_cooloff_mult : float;
      (** Cooloff multiplier applied on each failed probe (>= 1). *)
  hp_cooloff_max_us : float;  (** Cap on the escalated cooloff. *)
  hp_probe_successes : int;
      (** Half_open probe successes required to close (>= 1). *)
  hp_ewma_alpha : float;
      (** Weight of the newest outcome in the health EWMA, in (0, 1]. *)
}

val default_policy : policy
(** Threshold 2, cooloff 50 ms doubling up to 400 ms, one probe,
    alpha 0.2. *)

type state = Closed | Open | Half_open

val state_name : state -> string
(** ["closed"], ["open"], ["half_open"]. *)

type transition = { tr_from : state; tr_to : state; tr_at_us : float }

type snapshot = {
  sn_state : state;
  sn_consecutive_failures : int;
  sn_cooloff_us : float;  (** Current (possibly escalated) cooloff. *)
  sn_opened_at_us : float;  (** When the breaker last tripped. *)
  sn_probe_successes : int;  (** Successes since entering [Half_open]. *)
}
(** The breaker's complete control state — the exact set of fields that
    feed back into admission decisions.  The EWMA and lifetime counters
    on {!t} are instrumentation only and are deliberately excluded. *)

type input = Observe | Success | Failure
(** The three stimuli a breaker reacts to: a clock advance, a
    successful call, a failed call. *)

val initial_snapshot : policy -> snapshot
(** The control state of a freshly created tracker: [Closed], zero
    counters, base cooloff. *)

val transition : policy -> snapshot -> at_us:float -> input -> snapshot * transition option
(** The pure breaker step.  {!observe}, {!record_success} and
    {!record_failure} take the same step, and the [lib/verify] explorer
    folds this function, so the model checker and the RTE share one
    implementation of the state machine by construction.  A step is a
    transition exactly when it changes the state; a step that changes
    nothing returns the snapshot itself. *)

type t

val create : ?policy:policy -> unit -> t
(** Fresh tracker in [Closed] with EWMA 1.  Raises [Invalid_argument]
    on out-of-range policy fields. *)

val policy : t -> policy
val state : t -> state

val ewma : t -> float
(** Exponentially weighted success rate in [0, 1]; starts at 1. *)

val consecutive_failures : t -> int
val successes : t -> int
val failures : t -> int

val cooloff_us : t -> float
(** Current (possibly escalated) cooloff. *)

val cooloff_expires_at : t -> float
(** Virtual time at which an [Open] breaker admits a probe. *)

val allows : t -> now_us:float -> bool
(** Whether a call may be issued at [now_us].  [Closed] and [Half_open]
    always allow; [Open] allows only once the cooloff has elapsed. *)

val observe : t -> now_us:float -> transition option
(** Advance the breaker to the given virtual time: an [Open] breaker
    whose cooloff has elapsed moves to [Half_open].  Call before
    consulting {!allows} so probe admission is visible as a
    transition. *)

val record_success : t -> now_us:float -> transition option
(** Report a successful call.  In [Half_open], counts toward the probe
    quota and may close the breaker (resetting the cooloff). *)

val record_failure : t -> now_us:float -> transition option
(** Report a failed call.  In [Closed], may trip the breaker; in
    [Half_open], reopens it with an escalated cooloff. *)

val snapshot : t -> snapshot
(** The tracker's current control state. *)
