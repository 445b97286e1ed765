(** Closed-loop evaluation of online re-partitioning (paper §6).

    Coign's offline loop re-profiles and re-cuts between runs; the
    watch closes the loop {e during} a run. This harness stages the
    experiment end to end: profile a declared scenario mix, analyze it
    into a (soon to be stale) distribution, then replay a phased
    schedule whose usage shifts mid-run — three ways:

    - {b stale}: the analyzed distribution, never revisited — what
      shipping the profile-time cut costs once usage moves;
    - {b watched}: the same deployment with {!Coign_core.Rte}'s drift
      watch attached, free to re-cut online;
    - {b oracle}: what a fresh offline analyze would choose given a
      profile of the post-shift usage alone — the convergence target.

    The headline verdict: did the watched run's final placement reach
    the oracle's cut ([w_converged]), and what did the re-cut do to
    steady-state communication time ([w_steady_*])?

    Determinism: everything runs on the virtual clock with one master
    seed; the three evaluations are independent, so a [pool] changes
    wall time, never a bit of the result. *)

type phase_stat = {
  ph_scenarios : string list;   (** scenario ids run in this phase *)
  ph_stale_comm_us : float;     (** comm added during the phase, stale run *)
  ph_watched_comm_us : float;
}

type result = {
  w_app : string;
  w_network : string;
  w_seed : int64;
  w_threshold : float;
  w_check_every : int;
  w_half_life_us : float;
  w_profile_mix : string list;
  w_phase_stats : phase_stat list;
  w_stale : Coign_core.Analysis.distribution;   (** the profile-time cut *)
  w_oracle : Coign_core.Analysis.distribution;  (** post-shift offline cut *)
  w_final_servers : int;    (** server classifications the watch ended on *)
  w_converged : bool;
      (** watched final placement equals the oracle's, classification
          by classification *)
  w_stale_comm_us : float;
  w_watched_comm_us : float;
  w_steady_stale_us : float;    (** final-phase comm under the stale cut *)
  w_steady_watched_us : float;  (** final-phase comm under the watch *)
  w_stats : Coign_core.Rte.stats;
      (** the watched run's RTE statistics: its drift checks,
          detections, repartitions, migrations, unchanged and rejected
          cuts, and last similarity *)
  w_tap_offered : int;     (** observations offered to the sample tap *)
  w_tap_sampled : int;     (** observations the tap passed downstream *)
  w_timeline : Coign_core.Rte.watch_checkpoint list;
}

val run :
  ?pool:Coign_util.Parallel.t ->
  ?metrics:Coign_obs.Metrics.registry ->
  ?threshold:float ->
  ?check_every:int ->
  ?min_dwell_us:float ->
  ?min_window:float ->
  ?half_life_us:float ->
  ?sample_every:int ->
  ?seed:int64 ->
  profile_mix:string list ->
  phases:string list list ->
  image:Coign_image.Binary_image.t ->
  network:Coign_netsim.Network.t ->
  unit ->
  result
(** Stage and run the experiment on an instrumented (profiling-mode)
    image: profile [profile_mix] scenario by scenario, analyze against
    [network]'s exact profile, then replay [phases] in order under the
    stale, watched, and oracle regimes. Defaults are tuned for the
    bundled scenarios: a check every 64 observations, threshold 0.90,
    750 ms half-life and dwell (one to two scenario runs, so the
    window averages over a scenario's internal phases instead of
    chasing them), window mass 16, 1-in-4 tap sampling. Raises
    [Invalid_argument] for an unknown app or scenario, an empty mix,
    or empty phases. *)

val pp_text : Format.formatter -> result -> unit
(** Stable human-readable report (golden-tested). Steady-state
    checkpoints are elided from the timeline; decisions are printed. *)

val to_json : result -> Coign_util.Jsonu.t
(** Machine-readable form of the same numbers ([%.17g] floats via
    {!Coign_util.Jsonu}). *)
