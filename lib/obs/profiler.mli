(** Pipeline self-profiling: named phase timers.

    The partitioning pipeline's own cost — profile load, ICC-graph
    build, pricing, cut, validation — is what bounds how often an
    adaptive system can re-partition, so it must be measurable per run
    and aggregable across {!Coign_sim.Experiment.sweep} and
    {!Coign_sim.Fleetsim} fault grids. A profiler accumulates (count, total,
    max) per phase name; the instrumented stages take [?profiler] and
    cost nothing when it is absent.

    Unlike spans ({!Trace}), phase timers read {e wall-clock} time by
    default — they measure the analysis machinery itself, not the
    simulated application — so their values are not golden-testable;
    inject [clock] for deterministic tests.

    Recording is mutex-protected, so one profiler can aggregate phases
    from a {!Coign_util.Parallel} domain pool; phase order in reports
    is first-use order, deterministic for sequential pipelines. *)

type phase = {
  ph_name : string;
  ph_count : int;     (** times the phase ran *)
  ph_total_s : float; (** accumulated seconds *)
  ph_max_s : float;   (** slowest single run *)
}

type t

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] defaults to [Unix.gettimeofday]. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run a thunk under a phase timer. If it raises, the time still
    records and the exception propagates. *)

val phases : t -> phase list
(** Snapshot in first-use order. *)

val total_s : t -> float

val pp_text : Format.formatter -> t -> unit
(** A small table (count / total ms / max ms / share); emit inside a
    vertical box. *)
