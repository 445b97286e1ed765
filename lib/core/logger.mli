(** Information loggers (paper §3.3).

    Coign components pass application events to the information logger,
    which is free to ignore them (the null logger of distributed
    execution), summarize them (the profiling logger), or keep full
    traces (the event logger, which drove a colleague's application
    simulations). A logger is a {!Coign_obs.Sink.t} of events, so
    loggers are replaceable: {!Coign_obs.Sink.null} and
    {!Coign_obs.Sink.collector} (the event logger) serve events as they
    serve spans and tap samples. The profiling logger's summaries are
    recorded by the RTE itself, straight into {!Icc} and {!Inst_comm}
    (see {!Rte.install_profiling}), not through events. *)

type t = Event.t Coign_obs.Sink.t

