(** The component factory (paper §3.5).

    During distributed execution a copy of the factory runs on each
    machine; the factories act as peers, each trapping instantiation
    requests on its own machine, forwarding requests destined for the
    other machine, and fulfilling local requests by invoking the
    object runtime. Our two peer factories share one process, but the
    protocol is preserved: a request always arrives at the creator's
    machine first and is forwarded (and counted) when the instance
    classifier maps the new instance elsewhere. *)

type policy =
  | By_classification of Analysis.distribution
      (** the Coign-chosen distribution: classification -> machine *)
  | By_class of (string -> Constraints.location)
      (** a class-name-based placement (the application's default
          distribution, or a manual one) *)
  | All_client
      (** the undistributed application *)

type t

val create : policy -> t

val decide :
  t -> classification:int -> cname:string -> creator_machine:Constraints.location ->
  Constraints.location
(** Where to fulfil an instantiation request. Under
    [By_classification] this is {!Analysis.location_of}, so an unknown
    classification (never profiled) goes to the client, as in
    [Replay] and [Loadsim]. Counts the request as local or
    forwarded. *)

val policy : t -> policy

val set_policy : t -> policy -> unit
(** Atomically replace the placement policy — the resilience layer's
    failover primitive. Instantiation requests decided afterwards
    follow the new policy; already-placed instances keep their recorded
    machine until re-recorded ({!record_instance}). *)

val record_instance : t -> inst:int -> Constraints.location -> unit
val machine_of : t -> int -> Constraints.location
(** Machine an instance was placed on; the main program (instance 0)
    and unrecorded instances are on the client. *)

val instances_on : t -> Constraints.location -> int list

val instances : t -> (int * Constraints.location) list
(** All recorded instances with their machines, sorted by instance. *)

val forwarded_requests : t -> int
(** Requests relocated to the peer factory. *)

val publish : t -> Coign_obs.Metrics.registry -> unit
(** Add the {!decide} outcomes counted so far to
    [coign_factory_requests_total{kind="local"|"forwarded"}]. *)
