(** Explicit-state exploration of failover interleavings.

    BFS with hashed-state dedup over the finite model built by
    {!Model}, checking the invariant catalogue from the design doc:

    - I1 / CG008 — no reachable placement (transient mid-migration ones
      included) separates a non-remotable pair;
    - I3 / CG010 (error) — every open breaker admits a half-open probe
      at cooloff expiry;
    - I4 / CG009 — no reachable migration moves a classification the
      static facts mark unsafe;
    - CG010 (warning) — every ladder rung is installed by some explored
      interleaving.

    (I2 — location pins on non-terminal rungs — is a per-rung static
    property that {!Fallback.compute} enforces through
    {!Analysis.validate} when it builds the ladder, not the
    explorer.)

    Breaker steps reuse the pure {!Coign_netsim.Health.transition}, so
    the explorer and the RTE share one state machine by construction.
    Counterexamples are replayable event traces ({!Replay}). *)

open Coign_core

type event =
  | Link_ok  (** a successful remote call outcome on the link *)
  | Link_fail  (** a failed one *)
  | Cooloff  (** the sim clock passes the open breaker's cooloff *)
  | Migrate of int  (** one risky group migrates to its rung target *)
  | Migrate_rest  (** all pending safe groups migrate atomically *)
  | Promote of int
      (** one risky group is promoted to the next host of its replica
          ring ({!Model.next_replica}) — a host loss taking its
          shard's replica.  Only enabled on rungs where the group's
          shard keeps a replica; promoting safe groups is collapsed
          away like safe migrations *)

val event_id : Model.t -> event -> string
(** Stable machine-readable id ([link_fail], [migrate:3], ...). *)

type state = {
  st_rung : int;
  st_snap : Coign_netsim.Health.snapshot;  (** canonical, see the implementation header *)
  st_locs : Constraints.location array;  (** per group *)
  st_hosts : int array;
      (** per group: pool host, 0 on the client side.  Inert (all 0,
          no promotions enabled) on a one-host-per-rung ladder, so
          the classic two-host state space is unchanged *)
}

val init : Model.t -> state
(** Rung 0, closed breaker, every group at its primary target (and
    target host). *)

val enabled : Model.t -> state -> event list
(** Events enabled in a state, in deterministic order.  Link events
    need an admitting breaker and remotable separated traffic;
    [Cooloff] needs an open breaker; migrations need a ladder-safe
    group away from its current rung target. *)

val apply : Model.t -> state -> event -> state * (string * Lint.severity * string * string) list
(** Successor state plus the (code, severity, subject, message)
    violations the step itself manifests (I3, I4).  I1 is a property of
    the arrival state — see {!run}. *)

type violation = {
  vl_code : string;
  vl_severity : Lint.severity;
  vl_subject : string;
  vl_message : string;
  vl_trace : event list;  (** from the initial state; replayable *)
}

type stats = {
  sr_states : int;  (** distinct states reached (initial one included) *)
  sr_transitions : int;  (** event applications performed *)
  sr_dedup_hits : int;  (** applications that landed on a known state *)
  sr_depth : int;  (** deepest BFS layer reached *)
  sr_complete : bool;  (** no frontier was cut off by the depth bound *)
  sr_rungs_reached : bool array;  (** per rung: some state installed it *)
}

type result = { r_stats : stats; r_violations : violation list }

val default_depth : int

val run : ?pool:Coign_util.Parallel.t -> ?depth:int -> Model.t -> result
(** Explore to [depth] (default {!default_depth}).  Exploration always
    splits on the initial state's successor subtrees and merges
    deterministically, so the result is bit-identical on any [pool]
    (default {!Coign_util.Parallel.sequential}).  Violations are deduplicated per
    (code, subject), keeping the shortest (then lexicographically
    first) counterexample trace.  Raises [Invalid_argument] when
    [depth < 1]. *)

val diagnostics : Model.t -> result -> Lint.diagnostic list
(** The result as ordered lint diagnostics: one per violation (trace
    appended to the message) plus CG010 warnings for rungs never
    installed. *)
