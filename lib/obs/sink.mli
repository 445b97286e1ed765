(** Observer sinks (paper §3.3: information loggers are
    "replaceable").

    One shape for every stream the RTE reports: events
    ({!Coign_core.Logger}), spans ({!Trace}) and tap samples ({!Tap}).
    A sink is the function each value is handed to. *)

type 'a t = 'a -> unit

val null : 'a t
(** Ignores everything. *)

val collector : unit -> 'a t * (unit -> 'a list)
(** In-memory sink; the second component returns the values received
    so far, oldest first. *)
