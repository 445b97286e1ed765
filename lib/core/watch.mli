(** The RTE's online drift watch (paper §6): an exponentially-decayed
    observation window over every intercepted call and create, a seeded
    tap that picks which observations get their message sizes measured,
    drift checks against the adopted baseline, re-cuts of the analysis
    session, the installed placement, the counters behind the
    [coign_drift_*] and [coign_watch_*] instruments, and the check
    timeline. *)

type config

val config :
  ?threshold:float ->
  ?check_every:int ->
  ?min_dwell_us:float ->
  ?min_window:float ->
  ?half_life_us:float ->
  ?sample_every:int ->
  ?tap:Coign_obs.Tap.sink ->
  net:Coign_netsim.Net_profiler.t ->
  Analysis.Session.t ->
  config
(** [Rte.watch]. *)

type action =
  | W_steady
  | W_unchanged
  | W_repartitioned of { wa_migrated : int; wa_left : int; wa_servers : int }
  | W_rejected of int

type checkpoint = {
  wk_at_us : float;
  wk_similarity : float;
  wk_window_pairs : int;
  wk_action : action;
}

type t

val create :
  env:Rte_env.t ->
  factory:Factory.t ->
  seed:int64 ->
  dist:Analysis.distribution ->
  config ->
  t
(** A watch over the installed placement [dist]. The tap draws from
    {!Coign_util.Prng.stream} 3 of [seed] ([dc_seed]). *)

val sample : t -> bool
(** Offer the next observation to the tap: whether it is sampled, in
    which case the caller measures its message sizes for {!observe}. *)

val observe :
  t ->
  sampled:bool ->
  kind:Coign_obs.Tap.kind ->
  caller_cls:int ->
  callee_cls:int ->
  bytes:int ->
  unit
(** Feed one observation (with its measured [bytes] when [sampled], 0
    otherwise) into the window, and the tap's sink when sampled; every
    [check_every] observations run a drift check, which may re-cut and
    migrate. *)

val timeline : t -> checkpoint list
val placement : t -> Analysis.distribution
val tap_counts : t -> int * int

val publish : t -> Coign_obs.Metrics.registry -> unit
(** Add the watch's counters to [coign_drift_*]/[coign_watch_*] and set
    the drift gauges to the last check's values (untouched when no
    check ran). *)

type stats = {
  checks : int;
  detections : int;
  repartitions : int;
  migrations : int;
  unchanged : int;
  rejected : int;
  last_similarity : float;
}

val stats : t -> stats
(** [Rte.stats]'s watch counters. *)
