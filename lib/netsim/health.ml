(* Per-link health tracking and a three-state circuit breaker.

   The tracker is driven entirely off the caller's simulated clock: every
   state change is a pure function of the observed call outcomes and their
   timestamps, so a run is reproducible from [dc_seed] alone — the breaker
   itself draws no randomness.  Timestamps are microseconds on the same
   virtual axis as [Fault.spec] windows. *)

type policy = {
  hp_failure_threshold : int;
  hp_cooloff_us : float;
  hp_cooloff_mult : float;
  hp_cooloff_max_us : float;
  hp_probe_successes : int;
  hp_ewma_alpha : float;
}

let default_policy =
  {
    hp_failure_threshold = 2;
    hp_cooloff_us = 50_000.;
    hp_cooloff_mult = 2.;
    hp_cooloff_max_us = 400_000.;
    hp_probe_successes = 1;
    hp_ewma_alpha = 0.2;
  }

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

type transition = { tr_from : state; tr_to : state; tr_at_us : float }

(* --- Pure step function ------------------------------------------------

   The breaker's control state is the five fields below; everything else
   on [t] (EWMA, lifetime counters) is instrumentation that never feeds
   back into admission decisions.  [next] is the single source of truth
   for how that control state evolves: [transition] and the mutable API
   both step it, and the verifier folds [transition] over candidate
   event interleavings, so both observe bit-identical behaviour by
   construction. *)

type snapshot = {
  sn_state : state;
  sn_consecutive_failures : int;
  sn_cooloff_us : float;
  sn_opened_at_us : float;
  sn_probe_successes : int;
}

type input = Observe | Success | Failure

let initial_snapshot policy =
  {
    sn_state = Closed;
    sn_consecutive_failures = 0;
    sn_cooloff_us = policy.hp_cooloff_us;
    sn_opened_at_us = 0.;
    sn_probe_successes = 0;
  }

let trip s ~at_us = { s with sn_state = Open; sn_opened_at_us = at_us; sn_probe_successes = 0 }

(* The control state after [input]: [s] itself when nothing changes,
   so the per-call Closed steps allocate nothing. *)
let next policy s ~at_us input =
  match (input, s.sn_state) with
  | Observe, Open when at_us >= s.sn_opened_at_us +. s.sn_cooloff_us ->
      { s with sn_state = Half_open; sn_probe_successes = 0 }
  | Observe, _ -> s
  | Success, Closed ->
      if s.sn_consecutive_failures = 0 then s else { s with sn_consecutive_failures = 0 }
  | Success, (Open | Half_open) ->
      (* A success while Open can only come from a probe the caller issued
         after [allows] turned true; treat it like a Half_open probe. *)
      let s =
        {
          s with
          sn_consecutive_failures = 0;
          sn_probe_successes = s.sn_probe_successes + 1;
        }
      in
      if s.sn_probe_successes >= policy.hp_probe_successes then
        { s with sn_state = Closed; sn_cooloff_us = policy.hp_cooloff_us }
      else s
  | Failure, Closed ->
      let s = { s with sn_consecutive_failures = s.sn_consecutive_failures + 1 } in
      if s.sn_consecutive_failures >= policy.hp_failure_threshold then trip s ~at_us else s
  | Failure, Half_open ->
      (* Failed probe: reopen with an escalated cooloff. *)
      trip ~at_us
        {
          s with
          sn_consecutive_failures = s.sn_consecutive_failures + 1;
          sn_cooloff_us =
            Float.min (s.sn_cooloff_us *. policy.hp_cooloff_mult) policy.hp_cooloff_max_us;
        }
  | Failure, Open ->
      (* Recording while Open without a preceding [observe] keeps the
         breaker open; refresh the window so the cooloff restarts. *)
      {
        s with
        sn_consecutive_failures = s.sn_consecutive_failures + 1;
        sn_opened_at_us = at_us;
      }

(* A step is a transition exactly when it changes the state. *)
let moved s s' ~at_us =
  if s'.sn_state = s.sn_state then None
  else Some { tr_from = s.sn_state; tr_to = s'.sn_state; tr_at_us = at_us }

let transition policy s ~at_us input =
  let s' = next policy s ~at_us input in
  (s', moved s s' ~at_us)

(* The EWMA gets an all-float record of its own: in the mixed record
   below, every update would box. *)
type level = { mutable level : float }

type t = {
  hl_policy : policy;
  mutable hl_snap : snapshot; (* the control state *)
  hl_ewma : level; (* EWMA of outcomes: success = 1, failure = 0 *)
  mutable hl_successes : int;
  mutable hl_failures : int;
}

let create ?(policy = default_policy) () =
  if policy.hp_failure_threshold < 1 then
    invalid_arg "Health.create: hp_failure_threshold < 1";
  if not (policy.hp_cooloff_us > 0.) then
    invalid_arg "Health.create: hp_cooloff_us <= 0";
  if not (policy.hp_cooloff_mult >= 1.) then
    invalid_arg "Health.create: hp_cooloff_mult < 1";
  if not (policy.hp_cooloff_max_us >= policy.hp_cooloff_us) then
    invalid_arg "Health.create: hp_cooloff_max_us < hp_cooloff_us";
  if policy.hp_probe_successes < 1 then
    invalid_arg "Health.create: hp_probe_successes < 1";
  if not (policy.hp_ewma_alpha > 0. && policy.hp_ewma_alpha <= 1.) then
    invalid_arg "Health.create: hp_ewma_alpha outside (0, 1]";
  {
    hl_policy = policy;
    hl_snap = initial_snapshot policy;
    hl_ewma = { level = 1. };
    hl_successes = 0;
    hl_failures = 0;
  }

let policy t = t.hl_policy
let state t = t.hl_snap.sn_state
let ewma t = t.hl_ewma.level
let consecutive_failures t = t.hl_snap.sn_consecutive_failures
let successes t = t.hl_successes
let failures t = t.hl_failures
let cooloff_us t = t.hl_snap.sn_cooloff_us
let cooloff_expires_at t = t.hl_snap.sn_opened_at_us +. t.hl_snap.sn_cooloff_us

let allows t ~now_us =
  match t.hl_snap.sn_state with
  | Closed | Half_open -> true
  | Open -> now_us >= cooloff_expires_at t

let snapshot t = t.hl_snap

let step t ~now_us input =
  let s = t.hl_snap in
  let s' = next t.hl_policy s ~at_us:now_us input in
  t.hl_snap <- s';
  moved s s' ~at_us:now_us

(* Advance the clock: an Open breaker whose cooloff has elapsed moves to
   Half_open, where the next call acts as a probe. *)
let observe t ~now_us = step t ~now_us Observe

let blend t ok =
  let a = t.hl_policy.hp_ewma_alpha in
  t.hl_ewma.level <- ((1. -. a) *. t.hl_ewma.level) +. (a *. if ok then 1. else 0.)

let record_success t ~now_us =
  blend t true;
  t.hl_successes <- t.hl_successes + 1;
  step t ~now_us Success

let record_failure t ~now_us =
  blend t false;
  t.hl_failures <- t.hl_failures + 1;
  step t ~now_us Failure
