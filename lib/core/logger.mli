(** Information loggers (paper §3.3).

    Coign components pass application events to the information logger,
    which is free to ignore them (the null logger of distributed
    execution), summarize them (the profiling logger), or keep full
    traces (the event logger, which drove a colleague's application
    simulations). A logger is a {!Coign_obs.Sink.t} of events, so
    loggers are replaceable and composable: {!Coign_obs.Sink.null},
    {!Coign_obs.Sink.collector} (the event logger) and
    {!Coign_obs.Sink.tee} serve events as they serve spans and tap
    samples. This module keeps the event-specific loggers. *)

type t = Event.t Coign_obs.Sink.t

val profiling : icc:Icc.t -> inst_comm:Inst_comm.t -> t
(** Summarizes [Interface_call] events into the classification-level
    ICC histograms and the instance-level matrix; other events are
    ignored (instantiation data lives in the classifier state). *)

val tally : unit -> t * (unit -> (string * int) list)
(** Counts events per {!Event.kind_name}, sorted by name — cheap enough
    for the distributed RTE, where it tallies fault events
    ([call_retried], [instantiation_degraded]) without keeping a
    trace. *)

val to_channel : out_channel -> t
(** Stream events one per line in the stable {!Event.to_line} format:
    tab-separated [kind<TAB>field=value...] with JSON-literal values.
    The format is a compatibility surface — external log scrapers may
    depend on it — and is pinned by a golden test. *)
