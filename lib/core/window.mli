(** Exponentially-decayed observation window over classification pairs
    (paper §6, online re-partitioning).

    The profile gives the analyzer absolute per-pair traffic; a running
    system needs "what is flowing {e now}". This window keeps one
    exponentially-decayed call counter and byte total per unordered
    (caller classification, callee classification) pair, timed on the
    virtual sim clock: a weight observed [half_life_us] ago counts half
    as much as one observed now.

    Pairs named at creation — in practice, the abstract ICC graph's
    pairs, in pair-id order — live in flat arrays so the watch loop can
    turn the window into an {!Icc_graph.price_scaled_into} scale vector
    without allocation games; pairs the profile never saw (fresh
    classifications at run time) accumulate on the side and surface in
    the drift signature.

    Decay is per-cell and lazy (each cell remembers its own last-update
    time), so an observation costs O(1) and reads are pure: snapshots at
    [now_us] never mutate the window. Everything is deterministic — no
    wall clock, no randomness. *)

type t

val create : half_life_us:float -> pairs:(int * int) array -> t
(** A window whose slot [s] tracks [pairs.(s)] (normalized to
    [(min, max)]). Raises [Invalid_argument] on a non-positive
    half-life or duplicate pairs. *)

val decay_by : half_life_us:float -> from_us:float -> to_us:float -> float -> float
(** [decay_by ~half_life_us ~from_us ~to_us v]: a weight [v] stored as
    of [from_us], read at [to_us] — [v * 2^(-dt/half_life_us)], [v]
    itself when [dt <= 0]. The one decay rule of every window cell,
    exact at whole half-lives. *)

val observe : t -> at_us:float -> caller:int -> callee:int -> bytes:int -> unit
(** Fold in one observation at virtual time [at_us]. Classification
    [-1] stands for the main program, as in {!Drift} signatures. *)

val observed : t -> int
(** Raw (undecayed) observation count ever folded in. *)

val byte_observed : t -> int
(** Raw count of observations that carried a measured (positive) byte
    size — how much evidence backs the byte dimension. *)

val extra_pairs : t -> int
(** Distinct observed pairs outside the creation-time set. *)

val counts_at : t -> now_us:float -> float array
(** Per-slot decayed call counts as of [now_us] (slot order = creation
    [pairs] order). Pure. *)

val bytes_at : t -> now_us:float -> float array
(** Per-slot decayed byte totals as of [now_us]. Pure. *)

val total_at : t -> now_us:float -> float
(** Total decayed mass (slots + extras) — the "how much evidence is in
    the window" gate for drift decisions. *)

val byte_total_at : t -> now_us:float -> float

val signature_at : t -> now_us:float -> Drift.signature
(** The window as a drift signature over unordered pairs (slots and
    extras, zero-weight cells dropped). *)

val byte_signature_at : t -> now_us:float -> Drift.signature
(** Like {!signature_at} but weighted by decayed byte totals instead
    of call counts — the dimension that moves when the call mix holds
    steady but payloads grow. *)
