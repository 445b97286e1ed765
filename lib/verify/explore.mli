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
    {!Analysis.Session.validate} when it builds the ladder, not the
    explorer; that check also keeps each rung it builds clear of I1.)

    Breaker steps reuse the pure {!Coign_netsim.Health.transition}, so
    the explorer and the RTE share one state machine by construction,
    and a link event moves the ladder by the RTE's {!Route.next_rung}
    with every open stuck (one shared breaker stands for every host).
    Counterexamples are replayable event traces: the tests replay each
    through a real breaker and factory.

    A state is ints only: its rung, its breaker — an index into the
    automaton of canonical breakers reachable from the initial one,
    stepped once through [Health.transition] — and its placement, one
    [host * 2 + server bit] per group, interned per subtree.  The
    visited-state key packs the three into one int, so any pool width
    keys, and costs per group and per state, not per classification. *)

open Coign_core

type event =
  | Link_ok  (** a successful remote call outcome on the link *)
  | Link_fail  (** a failed one *)
  | Cooloff  (** the sim clock passes the open breaker's cooloff *)
  | Migrate of int  (** one risky group migrates to its rung target *)
  | Migrate_rest  (** all pending safe groups migrate atomically *)
  | Promote of int
      (** one risky group is promoted to the next host of its replica
          ring ({!Model.g_promote}) — a host loss taking its
          shard's replica.  Only enabled on rungs where the group's
          shard keeps a replica; promoting safe groups is collapsed
          away like safe migrations *)

val event_id : Model.t -> event -> string
(** Stable machine-readable id ([link_fail], [migrate:3], ...). *)

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
