(** Application events reported to information loggers (paper §3.3):
    component and interface instantiations and interface calls. *)

type t =
  | Component_instantiated of {
      inst : int;
      cname : string;
      classification : int;
      creator : int;  (** instance on whose behalf the request was made *)
    }
  | Interface_instantiated of { owner : int; iface : string; handle : int }
  | Interface_call of {
      caller : int;                (** calling instance *)
      caller_classification : int;
      callee : int;
      callee_classification : int;
      iface : string;
      meth : string;
      remotable : bool;
      request_bytes : int;  (** deep-copy size, caller -> callee *)
      reply_bytes : int;    (** deep-copy size, callee -> caller *)
    }
  | Call_retried of {
      iface : string;
      meth : string;
      retries : int;  (** attempts beyond the first before success *)
    }  (** a remote call survived dropped messages by retrying *)
  | Instantiation_degraded of {
      cname : string;
      classification : int;
    }
      (** the factory could not reach the peer machine within its retry
          policy and fell back to placing the instance with its creator *)
  | Breaker_opened of {
      at_us : int;  (** virtual time, rounded to whole microseconds *)
      failures : int;  (** consecutive failures that tripped the breaker *)
      drops : int;  (** cumulative dropped messages at the trip *)
      spikes : int;  (** cumulative latency spikes at the trip *)
    }  (** the link circuit breaker tripped open *)
  | Breaker_closed of {
      at_us : int;
      probes : int;  (** half-open probe successes that closed it *)
    }  (** the breaker closed again after successful probes *)
  | Failover of {
      at_us : int;
      rung : string;  (** name of the fallback rung switched to *)
      from_rung : int;
      to_rung : int;
      migrated : int;  (** instances moved to their new machine *)
      stranded : int;  (** unsafe instances left on their old machine *)
    }  (** the RTE switched the placement map down the fallback ladder *)
  | Failback of {
      at_us : int;
      rung : string;
      from_rung : int;
      to_rung : int;
      migrated : int;
    }  (** the RTE climbed back up the ladder after probe success *)
  | Instance_migrated of {
      at_us : int;
      inst : int;
      classification : int;
      from_loc : string;  (** {!Constraints.location_name} of the old home *)
      to_loc : string;
    }
      (** one instance moved machines during a rung switch — emitted per
          instance, after the aggregate {!Failover}/{!Failback} event *)
  | Drift_detected of {
      at_us : int;
      similarity : float;  (** window-vs-baseline cosine similarity *)
      threshold : float;
      window_pairs : int;  (** distinct pairs carrying window mass *)
    }
      (** the observation window's usage signature fell below the drift
          threshold against the last-adopted profile baseline *)
  | Repartitioned of {
      at_us : int;
      similarity : float;  (** the similarity that triggered the re-cut *)
      from_servers : int;  (** server-side classifications before *)
      to_servers : int;
      migrated : int;  (** instances moved to their new machine *)
      left : int;  (** unsafe instances left where they were *)
    }
      (** the watch loop re-priced the window through the analysis
          session and atomically installed the new placement *)
  | Replica_promoted of {
      at_us : int;
      shard : int;  (** the shard whose active host changed *)
      from_host : int;  (** pool host whose breaker opened *)
      to_host : int;  (** healthy replica host now serving the shard *)
    }
      (** a shard's reads and writes were redirected to a standing
          replica because the active host's breaker opened *)
  | Shard_split of {
      at_us : int;
      shard : int;  (** the hot shard that was split *)
      new_shard : int;  (** id of the shard carved out of it *)
      moved : int;  (** classifications moved to the new shard *)
      to_host : int;  (** pool host the new shard was placed on *)
    }
      (** deterministic hot-shard detection split a shard whose decayed
          traffic share exceeded the split threshold *)
  | Pool_resized of {
      at_us : int;
      from_hosts : int;
      to_hosts : int;
      shards : int;  (** shard count after the resize *)
      migrated : int;  (** instances moved to their new host *)
    }
      (** the fleet moved along the pool-elastic fallback ladder,
          shrinking or growing the server pool *)

val kind_name : t -> string
(** Stable lowercase tag for each constructor. *)

val fields : t -> (string * Coign_util.Jsonu.t) list
(** The record's fields, named exactly as the record labels, in
    declaration order — the attributes of the RTE's ["event"] spans. *)

val to_line : t -> string
(** The stable machine-readable line format: the {!kind_name} tag
    followed by [field=value] pairs, tab-separated, fields in
    declaration order. Values are JSON literals (strings quoted and
    escaped, so tabs and newlines inside names cannot break the
    framing). No trailing newline. *)

