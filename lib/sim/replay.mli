(** Event-log-driven distribution simulation.

    Paper §3.3: "a colleague has used logs from the event logger to
    drive detailed application simulations." This module is that use
    case: take the full event trace of one profiling run and replay it
    under an arbitrary placement and network — estimating what a
    distributed execution would cost without re-running the
    application. Because scenarios are deterministic, replaying the
    trace under a placement reproduces exactly the communication the
    distributed RTE would charge (a tested property).

    Replay also reports would-be faults: calls that cross machines over
    non-remotable interfaces, which a real run would abort with
    [E_cannot_marshal] — useful for checking hand-made placements
    before trying them. *)

type estimate = {
  re_comm_us : float;          (** total cross-machine communication *)
  re_remote_calls : int;       (** calls and forwarded instantiations *)
  re_remote_bytes : int;
  re_server_instances : int;   (** instances the placement sends away *)
  re_violations : (string * string) list;
      (** (interface, method) of every non-remotable cross-machine
          call the placement would cause *)
  re_retries : int;            (** expected retries under the fault model *)
  re_drops : int;
  re_spikes : int;
  re_fallbacks : int;          (** instantiations degraded to the creator *)
  re_unreachable : int;
      (** calls a live run would abandon with [E_unreachable]; the
          estimator counts them and keeps replaying *)
  re_fault_us : float;         (** comm time attributable to faults *)
}

val walk :
  placement:(int -> Coign_core.Constraints.location) ->
  charge:(create:bool -> request:int -> reply:int -> bool) ->
  violation:(iface:string -> meth:string -> unit) ->
  Coign_core.Event.t list ->
  (int, Coign_core.Constraints.location) Hashtbl.t
(** The walk {!replay} runs: track every instance's machine as the
    component factory would, and call [charge] on each cross-machine
    round trip in trace order — forwarded instantiations ([create])
    at {!Coign_core.Route.create_request_bytes}/[create_reply_bytes],
    remotable calls at their measured sizes. [charge] returns whether
    the trip made it; an instantiation whose forward failed stays on its
    creator's machine. Cross-machine calls over non-remotable interfaces
    charge nothing and are reported to [violation]. Returns the final
    instance -> machine map, the main program included. *)

val replay :
  ?faults:Coign_netsim.Fault.t ->
  ?retry:Coign_netsim.Fault.retry_policy ->
  events:Coign_core.Event.t list ->
  placement:(int -> Coign_core.Constraints.location) ->
  network:Coign_netsim.Network.t ->
  unit ->
  estimate
(** [placement] maps a classification to a machine (as
    {!Coign_core.Analysis.location_of} does, which is also the
    component factory's rule: a classification the cut never saw goes
    to the client); an instance without a classification follows its
    creator. The trace must come from a profiling run (it
    needs the instantiation events to track instance machines).

    [faults] injects a fault model into the estimate: every
    cross-machine charge becomes a retried {!Coign_netsim.Fault.call}
    against the replay's virtual clock (accumulated communication
    time), reporting expected retries, degradations, and abandoned
    calls without re-running the application. Omitting it — or passing
    a model built from {!Coign_netsim.Fault.zero} — reproduces the
    fault-free estimate bit for bit. *)

val record_scenario :
  registry:Coign_com.Runtime.registry ->
  classifier:Coign_core.Classifier.t ->
  (Coign_com.Runtime.ctx -> unit) ->
  Coign_core.Event.t list
(** Convenience: run a scenario once under the profiling RTE with an
    event recorder attached and return the trace. *)

val what_if :
  ?faults:Coign_netsim.Fault.t ->
  ?retry:Coign_netsim.Fault.retry_policy ->
  events:Coign_core.Event.t list ->
  distribution:Coign_core.Analysis.distribution ->
  network:Coign_netsim.Network.t ->
  unit ->
  estimate
(** Replay under an analyzer-chosen distribution. *)
