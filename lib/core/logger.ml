type t = Event.t Coign_obs.Sink.t
