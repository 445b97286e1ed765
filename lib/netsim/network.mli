(** Parametric network models.

    The paper's testbed is two 200 MHz Pentiums on isolated 10BaseT
    Ethernet; its motivation section stresses that bandwidth-to-latency
    tradeoffs shift "by more than an order of magnitude" across ISDN,
    100BaseT, ATM, and SANs. A model here is the ground truth the
    execution simulator charges for every cross-machine message; the
    {!Net_profiler} observes it only through sampling, the way Coign's
    network profiler measures a real network. *)

type t = {
  net_name : string;
  latency_us : float;       (** one-way per-message wire latency *)
  bandwidth_mbps : float;   (** payload bandwidth, megabits/second *)
  proc_us : float;          (** per-message protocol processing cost
                                (DCOM/RPC stack, both ends combined) *)
}

val make : name:string -> latency_us:float -> bandwidth_mbps:float -> proc_us:float -> t

val message_us : t -> bytes:int -> float
(** One-way time to move a message: [proc + latency + bytes*8/bandwidth]. *)

val host_us : t -> float
(** The host-CPU share of {!message_us}: per-message protocol
    processing ([proc_us]). Under load this is the service demand a
    message places on the serving host's FIFO queue. *)

val wire_us : t -> bytes:int -> float
(** The link share of {!message_us}: propagation latency plus
    transmission time ([latency + bytes*8/bandwidth]). Under load this
    is the service demand a message places on the link's FIFO queue;
    [host_us t +. wire_us t ~bytes] equals [message_us t ~bytes] up to
    float association. *)

(** {1 Presets} *)

val ethernet_10 : t
(** Isolated 10BaseT Ethernet — the paper's testbed. *)

val ethernet_100 : t
val isdn_128 : t
val atm_155 : t
val san_1g : t
val loopback : t
(** Same-machine "network": zero cost; what co-located components pay. *)

val presets : t list
(** All named presets except [loopback], ordered by bandwidth. *)

val geometric_sweep : ?points:int -> from_net:t -> to_net:t -> unit -> t list
(** [points] (default 20, minimum 2) network models geometrically
    interpolated between two endpoints, endpoints included — the
    dense placement-vs-network sweeps behind the paper's Figures 4-8.
    Latency, bandwidth, and processing cost each interpolate on a log
    scale (linearly when an endpoint value is zero, as for
    [loopback]). *)
