(** The finite component-interaction model checked by {!Explore}.

    {!build} compiles an image's profiled ICC facts, its {!Fallback}
    ladder + migration-safety table, and a {!Coign_netsim.Health}
    breaker policy into a small automaton alphabet: symmetry-reduced
    {e groups} of classifications, the inter-group communication
    {e edges} that drive and endanger them, and the finite cooloff
    escalation chain the breaker can visit.  Hosts come from the
    ladder's [pr_shard_of] through {!Coign_core.Pool}, the rule the
    RTE routes by, and promotions take its ring walk
    ({!Coign_core.Pool.first_replica}): the model checks what runs.

    The type is transparent so tests can hand-build adversarial models
    (lying safety tables, unreachable rungs) without forging images. *)

open Coign_core

type group = {
  g_id : int;
  g_members : int list;  (** classifications; -1 is the main program *)
  g_subject : string;  (** representative class name, for diagnostics *)
  g_targets : Constraints.location array;  (** placement per rung *)
  g_hosts : int array;
      (** per rung: the host the group belongs on, its shard's primary
          as the ladder placed it, 0 where the rung puts the group
          client-side.  The ladder computed it from the {e ladder's}
          safety table, exactly as the RTE does — unsafe components are
          pinned to shard 0, host 0 — so a lying table shards a
          truth-unsafe group onto a moving host and the explorer
          surfaces the consequences.  Members share it, so they share
          their host on every rung. *)
  g_promote : int array;
      (** per rung: where a promotion moves the group off its failed
          primary, {!Coign_core.Pool.first_replica} with every other
          host admitted; -1 client-side or for an unreplicated shard *)
  g_ladder_safe : bool;  (** what the ladder's table will act on *)
  g_truth_safe : bool;  (** what the static facts actually derive *)
}

type edge = {
  e_a : int;  (** group ids, [e_a < e_b] *)
  e_b : int;
  e_iface : string;  (** sample interface; a non-remotable one if any *)
  e_remotable : bool;
  e_non_remotable : bool;
}

type t = {
  m_groups : group array;
  m_edges : edge array;
  m_rung_names : string array;
  m_policy : Coign_netsim.Health.policy;
  m_cooloffs : float array;
      (** escalation chain, base to cap: [c, min(c*mult, cap), ...] to
          fixpoint, every cooloff the breaker can reach *)
  m_classifications : int;  (** classifications folded in, incl. main *)
}

val rung_count : t -> int
val group_count : t -> int

val risky : group -> bool
(** Ladder-safe but truth-unsafe: the migrations that can manifest
    I1/I4 violations, interleaved individually by the explorer. *)

val cooloff_index : t -> float -> int
(** Position of a cooloff value in the chain, by float bit equality
    (the verifier steps the real {!Coign_netsim.Health.transition}, so
    escalated values must land exactly on chain entries).  Raises
    [Invalid_argument] if the value is off-chain. *)

val build :
  ?policy:Coign_netsim.Health.policy ->
  classifier:Classifier.t ->
  icc:Icc.t ->
  ladder:Fallback.t ->
  truth:bool array ->
  unit ->
  t
(** Compile the model of [ladder], the ladder the RTE routes.  Its
    rungs, their names and every group's hosts come from the ladder's
    rungs; on a two-host ladder ({!Fallback.compute}, one host per
    rung) the host dimension is inert.  [truth] is the freshly derived
    {!Fallback.migration_safety} table; the ladder's own table is read
    through {!Fallback.migration_safe} so a stale or hand-edited table
    shows up as {!risky} groups.  A pool of any width compiles; the
    explorer's depth bound is what keeps exploration finite.

    It works in ints: the ICC entries are read as {!Icc.columns}, each
    classification's signature is one int per rung (client-side, or
    its shard's primary host and whether its replica ring holds more
    than one host) plus its two safety bits, bucketed by hash in an
    {!Coign_util.Int_table}, and group pairs aggregate on the packed
    pair.  The result does not depend on the order of the entries: an
    edge's sample interface is picked by the summary's canonical
    order. *)
