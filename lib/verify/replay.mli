(** Replay counterexample traces through the real runtime machinery.

    The explorer's breaker abstraction is canonicalized; {!run} drives
    a trace through a genuine mutable {!Coign_netsim.Health.t} on a
    real virtual clock and a genuine {!Factory} (one recorded instance
    per model group), applying exactly the ladder-table migration
    gating the RTE's rung switch uses.  A reported violation is confirmed
    when it manifests here too — a separated non-remotable pair read
    back from [Factory.machine_of] is the precise condition under which
    the RTE raises [E_cannot_marshal] at marshal time. *)

type outcome = {
  ro_codes : string list;  (** violation codes manifested, in order *)
  ro_invalid : string option;
      (** [Some reason] when the trace is not executable (a call the
          breaker rejects, a migration the ladder table forbids) — the
          explorer never emits such traces *)
}

val run : Model.t -> Explore.event list -> outcome
