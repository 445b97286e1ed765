(** The profile analysis engine (paper §2).

    Combines component communication profiles and location constraints
    into an abstract ICC graph, prices it against a network profile to
    get a concrete graph of potential communication time, and cuts the
    graph with the lift-to-front minimum-cut algorithm to choose the
    client/server distribution with minimal communication time.

    Nodes are instance classifications; two terminals stand for the
    client and server machines. Edges carry, in nanoseconds, the
    communication time the pair would pay if separated. Non-remotable
    interfaces, pair-wise constraints, and absolute pins become
    infinite-capacity edges, so the minimum cut can never violate
    them. *)

type distribution = {
  placement : Constraints.location array;  (** indexed by classification *)
  cut_ns : int;           (** capacity of the chosen cut *)
  predicted_comm_us : float;
      (** communication time of the distribution as priced by the
          network profile (equals [cut_ns / 1000] apart from rounding) *)
  server_count : int;     (** classifications placed on the server *)
  node_count : int;
}

type violation =
  | Split_classifications of int * int  (** a co-location pair on both sides *)
  | Pin_violated of string * Constraints.location
      (** a pinned class (by name) or ["classification c"] placed off its pin *)
  | Split_non_remotable of int * int
      (** a profiled non-remotable pair on both sides: classifications
          [a < b], or [b = -1] for the main program, on the client *)

(** {1 Two-stage engine}

    Stage 1 ({!Icc_graph}, then {!Session.of_graph}) builds everything
    network-independent once per profile: the abstract ICC graph and a
    CSR flow arena over its quotient graph. The constraint, pin and
    non-remotable edges are infinite, so no cut separates their ends:
    each of their components, terminals included, is one arena node,
    and the arena holds one zero-capacity slot per pair of nodes that
    repriceable traffic joins. Stage 2 ({!Session.solve}) prices those
    pairs against one concrete network profile by summing capacities
    straight into the arena's flat arrays and cuts in place with
    preallocated solver scratch; per-profile cost tables are memoized
    (keyed by profile identity) so sweeps and fallback ladders predict
    each network's per-size costs once. Solving the same session across many networks
    (the paper's §4.4 adaptivity sweeps) therefore allocates almost
    nothing per round, and is guaranteed — by construction and by
    property test — to produce bit-identical distributions to a fresh
    {!choose}. *)

module Session : sig
  type t

  val of_graph :
    ?profiler:Coign_obs.Profiler.t ->
    classifier:Classifier.t ->
    graph:Icc_graph.t ->
    constraints:Constraints.t ->
    unit ->
    t
  (** The stage over an abstract graph ({!Icc_graph.build}, or
      {!Icc_graph.decode} straight from a stored profile): the
      constraint edges, the repriceable pair list and the CSR arena,
      keyed by packed node pairs and sorted on int keys. Its nodes are
      {!Coign_flowgraph.Flow_network.Components.quotient} of the
      infinite edges, terminals included. A priced pair inside one
      node gets no slot, and pairs between the same two nodes share
      one. When the constraints put both terminals in one component
      the quotient is the identity, so the solve crosses an infinite
      edge and {!validate} names the constraint it breaks. With [profiler], this arena build records
      under the ["icc_graph_build"] phase. *)

  val solve :
    ?profiler:Coign_obs.Profiler.t ->
    ?metrics:Coign_obs.Metrics.registry ->
    ?scale:Icc_graph.scale ->
    t ->
    net:Coign_netsim.Net_profiler.t ->
    distribution
  (** Price the session's traffic pairs against [net], cut, and trim —
      exactly {!choose} on the session's profile, without rebuilding
      stage 1. Reusable: each call replaces the previous pricing.

      Cut value, placement and predicted time are those of a min cut
      over the uncontracted graph of all classifications and both
      terminals: slot sums are exact, and the minimal source side of
      that graph is a union of the contracted components.

      With [profiler], pricing and cutting record under the ["pricing"]
      and ["cut"] phases; with [metrics], each solve updates the
      [coign_analysis_*] instruments. Neither changes the
      distribution. Without either, an unscaled solve on a profile
      whose cost table is cached allocates only its result: the
      placement and the distribution record.

      With [scale] (arrays of length {!Icc_graph.pair_count} of
      {!graph}), each pair's profiled traffic is rescaled before
      pricing ({!Icc_graph.price_scaled_into}) — the online
      re-partitioning path, where a decayed observation window
      reweights the profile's per-pair message counts and byte volumes
      while keeping its message-size mix. Omitted, pricing is
      bit-identical to the offline engine. *)

  val copy : t -> t
  (** An independent session sharing the immutable abstract graph but
      owning its own flow arena, solver scratch and pricing buffers —
      solve copies concurrently from different domains (one session
      alone must not be solved from two domains at once, since pricing
      mutates its capacities). *)

  val classifier : t -> Classifier.t
  val constraints : t -> Constraints.t

  val node_count : t -> int
  (** Classifications in the analyzed graph. *)

  val graph : t -> Icc_graph.t
  (** The underlying abstract ICC graph. *)

  val components : t -> int array
  (** Classification -> smallest member of its component: the groups
      every cut keeps together, joined by the session's infinite edges
      between two classifications (profiled non-remotable pairs and
      classification co-location pairs), before pins join them to the
      terminals. Computed once at {!of_graph}. *)

  val migration_safety : t -> bool array
  (** Per-classification static migration-safety facts for the
      resilience layer ({!Fallback}, {!Rte}): a classification is safe
      to migrate live between distributions iff no member of its
      {!components} touches a non-remotable ICC edge. The pairs are
      the ones the session's build and {!validate} read. *)

  val validate : t -> distribution -> violation list
  (** {!Analysis.validate} against the session's classifier and
      constraints — the same violations in the same order, checked
      against the pins the build resolved once — followed by one
      [Split_non_remotable] per non-remotable pair of {!graph} the
      placement separates, in pair order. These are the session's
      infinite edges, so a {!solve} passes exactly when its [cut_ns] is
      below {!Coign_flowgraph.Flow_network.infinity_cap}. A clean
      distribution allocates nothing. If the classifier has grown past
      the session's graph since the build, pins are checked by name
      (as {!Analysis.validate} does), then the graph's pairs. *)
end

val choose :
  ?profiler:Coign_obs.Profiler.t ->
  classifier:Classifier.t ->
  icc:Icc.t ->
  constraints:Constraints.t ->
  net:Coign_netsim.Net_profiler.t ->
  unit ->
  distribution
(** Run the engine. Every classification known to the classifier gets a
    node even if it never communicated (such nodes land on the client).
    The main program (classification -1) is treated as pinned to the
    client. Equivalent to {!Session.of_graph} over
    {!Icc_graph.build} followed by one {!Session.solve}. *)

val location_of : distribution -> int -> Constraints.location
(** Placement of a classification; classifications outside the analyzed
    range (new at run time) default to [Client]. [-1] (main) is
    [Client]. *)

val validate :
  classifier:Classifier.t -> constraints:Constraints.t -> distribution ->
  violation list
(** Check a distribution against the constraints' pins and
    co-location pairs: broken class pins in name order, then
    classification pins and split co-location pairs as listed.
    Non-empty for hand-forced or stale placements that split a
    co-location pair or contradict a pin. Holding no graph, it cannot
    see non-remotable pairs; {!Session.validate} adds them. *)

val pp_violation : Format.formatter -> violation -> unit

val server_classifications : distribution -> int list

val encode : distribution -> string
(** A header line [node_count cut_ns predicted_comm_us rtf] (the last
    field names the solver, push-relabel in the paper's lift-to-front
    slot), then one [C] or [S] per classification. *)

exception Decode_error of string
(** A malformed encoded distribution; the message starts
    ["Analysis.decode: "]. *)

val decode : string -> distribution
(** Round-trips placements and metadata (for the config record).
    Raises {!Decode_error} on a missing header line, a header without
    four fields, a non-numeric node count, cut or predicted comm, a
    placement whose length is not the node count, a location other
    than [C]/[S], or a solver tag other than [rtf]. *)
