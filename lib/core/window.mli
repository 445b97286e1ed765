(** Exponentially-decayed observation window over classification pairs
    (paper §6, online re-partitioning).

    The profile gives the analyzer absolute per-pair traffic; a running
    system needs "what is flowing {e now}". This window keeps one
    exponentially-decayed call counter and byte total per unordered
    (caller classification, callee classification) pair, timed on the
    virtual sim clock: a weight observed [half_life_us] ago counts half
    as much as one observed now.

    Pairs named at creation — in practice, the abstract ICC graph's
    pairs, in pair-id order — are the window's slots: flat arrays that
    an observation finds through an {!Coign_util.Int_table} on the
    packed pair, so the watch loop can turn the window into an
    {!Icc_graph.price_scaled_into} scale vector by index. Pairs the
    profile never saw (fresh classifications at run time) get cells of
    their own after the slots and surface in the drift signature.

    Decay is per-cell and lazy (each cell remembers its own last-update
    time), so an observation costs O(1), allocates nothing once its pair
    has a cell, and multiplies one decay factor into both the count and
    the bytes. Everything is deterministic — no wall clock, no
    randomness. *)

type t

val create : half_life_us:float -> a:int array -> b:int array -> t
(** A window whose slot [s] tracks the unordered pair of
    classifications [a.(s)] and [b.(s)]. Raises [Invalid_argument] on a
    non-positive half-life, arrays of different lengths, duplicate
    pairs, or a classification outside [[-2^30, 2^30)]. *)

val decay_by : half_life_us:float -> from_us:float -> to_us:float -> float -> float
(** [decay_by ~half_life_us ~from_us ~to_us v]: a weight [v] stored as
    of [from_us], read at [to_us] — [v * 2^(-dt/half_life_us)], [v]
    itself when [dt <= 0]. The one decay rule of every window cell,
    exact at whole half-lives. *)

val observe : t -> clock:float array -> caller:int -> callee:int -> bytes:int -> unit
(** Fold in one observation at virtual time [clock.(0)]. The time comes
    in a one-cell float array, which the watch refills on every call,
    so it crosses the call unboxed. Classification [-1] stands for the
    main program. *)

val byte_observed : t -> int
(** Raw count of observations that carried a measured (positive) byte
    size — how much evidence backs the byte dimension. *)

val extra_pairs : t -> int
(** Distinct observed pairs outside the creation-time set. *)

val counts_at : t -> now_us:float -> float array
(** Per-slot decayed call counts as of [now_us] (slot order = creation
    [pairs] order), in a fresh array. *)

val bytes_at : t -> now_us:float -> float array
(** Per-slot decayed byte totals as of [now_us], in a fresh array. *)

(** {2 Drift checks}

    A check decays every cell once ({!refresh}) and reads everything it
    needs from that pass. The window's drift signature is its cells
    with positive weight. Every sum of a check — the masses, the dot
    product and both norms — runs over the cells in cell order: the
    slots in slot order, then the extras in first-observation order. *)

val refresh : t -> now_us:float -> unit
(** Decay every cell to [now_us] into the window's read buffers. The
    reads below describe the last refresh; an {!observe} after it
    leaves them stale. The cells themselves are not touched. *)

val mass : t -> float
(** Total decayed call count, slots then extras — the "how much
    evidence is in the window" gate for drift decisions. *)

val byte_mass : t -> float
(** Total decayed bytes. *)

val live_pairs : t -> int
(** Pairs whose decayed call count is positive: the signature's size. *)

val slot_count : t -> int -> float
(** A slot's decayed call count. *)

val slot_bytes : t -> int -> float
(** A slot's decayed bytes. *)

type dim = Calls | Bytes

type baseline
(** A signature frozen to compare later windows against: its weighted
    cells, ascending. *)

val baseline : t -> dim -> float array -> baseline
(** The signature of per-slot weights (one per slot; non-positive ones
    dropped), e.g. the profile's per-pair messages or bytes. *)

val adopt : t -> dim -> baseline
(** The last refresh's signature in dimension [dim]. *)

val similarity : t -> baseline -> float
(** Cosine similarity, in [0, 1], of the baseline and the last refresh
    in the baseline's dimension, where a non-positive weight counts as
    absent. The dot product and both norms are summed in cell order.
    Two empty signatures are fully similar. Allocates nothing but its
    boxed result. *)
