(** Statistical network profiling.

    "The network profiler creates a network profile through statistical
    sampling of communication time for a representative set of DCOM
    messages" (paper §2). We time simulated messages whose sizes cover
    the exponential bucket ranges of the communication summaries,
    perturb each observation with measurement noise, and fit a
    latency/bandwidth line. The analysis engine prices abstract ICC
    edges with the *fitted* profile, never with the ground-truth model,
    so prediction error in Table 5 is honest. *)

type t = private {
  profiled_name : string;
  obs_bytes : int array;
      (** Message size of each observation: one run per sampled size,
          sizes ascending. A derived profile shares its base's array. *)
  obs_us : float array;
      (** Observed time of each observation, µs, index for index with
          [obs_bytes]. *)
  mean_bytes : int array;
      (** The sampled sizes, ascending: one per run of [obs_bytes]. A
          derived profile shares its base's array. *)
  mean_us : float array;
      (** Mean observed time per sampled size, index for index with
          [mean_bytes]: each run of [obs_us] summed in observation
          order, computed once when the profile is built. *)
  fixed_us : float;                     (** fitted per-message cost *)
  per_byte_us : float;                  (** fitted marginal cost *)
}
(** Private: only this module's constructors build a profile, so its
    means always agree with its observations. Sizes are [int array]s
    and times flat [float array]s, so a prediction reads unboxed
    floats. *)

val profile : Coign_util.Prng.t -> Network.t -> t
(** Sample the network: 7 observations per representative size, each
    with a relative standard deviation of 0.02. Allocates the four
    arrays and the record, nothing else. *)

val predict_us : t -> bytes:int -> float
(** Predicted one-way message time, clamped at 0: linear interpolation
    between the stored [mean_us] of the two sampled sizes that bracket
    [bytes], extended beyond the sampled range with the fitted
    [per_byte_us] slope; with fewer than two sampled sizes (an {!exact}
    profile), the fitted line. Reads the stored means; nothing is
    rebuilt per call. *)

val exact : Network.t -> t
(** A profile that reproduces the model exactly (no sampling noise, so
    all four arrays empty) — for tests that need determinism
    tighter than the fit error. *)

val pp : Format.formatter -> t -> unit

(** {1 Failure-mode profiles}

    Derived profiles for the fallback ladder (PAPER.md §4.4 adaptivity
    under degradation). Each adds a fixed per-message penalty to every
    observation and to the fitted intercept, leaving the per-byte slope
    alone: min cuts are invariant under uniform scaling, so only a
    shape change like this can move the fallback cut — it taxes chatty
    pairs more than bulky ones. The means are recomputed from the
    shifted observations, not shifted themselves: adding the penalty to
    a mean does not give the same float. A derived profile shares its
    base's size arrays and allocates one float array of observations,
    its means and its record. *)

val degrade : t -> t
(** The link as seen through sustained loss: each message pays the
    expected retry penalty (timeouts plus base backoff) of surviving a
    drop rate of 0.3 per leg under {!Fault.default_retry}. *)

val link_down : t -> t
(** The link as seen through a partition: a huge fixed per-message cost
    (1e7 µs), so the resulting cut minimizes the number of
    crossing messages — the principled "pull everything movable to one
    machine" floor, still honouring pins. *)
