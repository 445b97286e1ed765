open Coign_util

type t =
  | Component_instantiated of { inst : int; cname : string; classification : int; creator : int }
  | Interface_instantiated of { owner : int; iface : string; handle : int }
  | Interface_call of {
      caller : int;
      caller_classification : int;
      callee : int;
      callee_classification : int;
      iface : string;
      meth : string;
      remotable : bool;
      request_bytes : int;
      reply_bytes : int;
    }
  | Call_retried of { iface : string; meth : string; retries : int }
  | Instantiation_degraded of { cname : string; classification : int }
  | Breaker_opened of { at_us : int; failures : int; drops : int; spikes : int }
  | Breaker_closed of { at_us : int; probes : int }
  | Failover of {
      at_us : int;
      rung : string;
      from_rung : int;
      to_rung : int;
      migrated : int;
      stranded : int;
    }
  | Failback of { at_us : int; rung : string; from_rung : int; to_rung : int; migrated : int }
  | Instance_migrated of {
      at_us : int;
      inst : int;
      classification : int;
      from_loc : string;
      to_loc : string;
    }
  | Drift_detected of {
      at_us : int;
      similarity : float;
      threshold : float;
      window_pairs : int;
    }
  | Repartitioned of {
      at_us : int;
      similarity : float;
      from_servers : int;
      to_servers : int;
      migrated : int;
      left : int;
    }
  | Replica_promoted of { at_us : int; shard : int; from_host : int; to_host : int }
  | Shard_split of { at_us : int; shard : int; new_shard : int; moved : int; to_host : int }
  | Pool_resized of {
      at_us : int;
      from_hosts : int;
      to_hosts : int;
      shards : int;
      migrated : int;
    }

let kind_name = function
  | Component_instantiated _ -> "component_instantiated"
  | Interface_instantiated _ -> "interface_instantiated"
  | Interface_call _ -> "interface_call"
  | Call_retried _ -> "call_retried"
  | Instantiation_degraded _ -> "instantiation_degraded"
  | Breaker_opened _ -> "breaker_opened"
  | Breaker_closed _ -> "breaker_closed"
  | Failover _ -> "failover"
  | Failback _ -> "failback"
  | Instance_migrated _ -> "instance_migrated"
  | Drift_detected _ -> "drift_detected"
  | Repartitioned _ -> "repartitioned"
  | Replica_promoted _ -> "replica_promoted"
  | Shard_split _ -> "shard_split"
  | Pool_resized _ -> "pool_resized"

let fields = function
  | Component_instantiated { inst; cname; classification; creator } ->
      [
        ("inst", Jsonu.Int inst);
        ("cname", Jsonu.Str cname);
        ("classification", Jsonu.Int classification);
        ("creator", Jsonu.Int creator);
      ]
  | Interface_instantiated { owner; iface; handle } ->
      [ ("owner", Jsonu.Int owner); ("iface", Jsonu.Str iface); ("handle", Jsonu.Int handle) ]
  | Interface_call
      {
        caller;
        caller_classification;
        callee;
        callee_classification;
        iface;
        meth;
        remotable;
        request_bytes;
        reply_bytes;
      } ->
      [
        ("caller", Jsonu.Int caller);
        ("caller_classification", Jsonu.Int caller_classification);
        ("callee", Jsonu.Int callee);
        ("callee_classification", Jsonu.Int callee_classification);
        ("iface", Jsonu.Str iface);
        ("meth", Jsonu.Str meth);
        ("remotable", Jsonu.Bool remotable);
        ("request_bytes", Jsonu.Int request_bytes);
        ("reply_bytes", Jsonu.Int reply_bytes);
      ]
  | Call_retried { iface; meth; retries } ->
      [ ("iface", Jsonu.Str iface); ("meth", Jsonu.Str meth); ("retries", Jsonu.Int retries) ]
  | Instantiation_degraded { cname; classification } ->
      [ ("cname", Jsonu.Str cname); ("classification", Jsonu.Int classification) ]
  | Breaker_opened { at_us; failures; drops; spikes } ->
      [
        ("at_us", Jsonu.Int at_us);
        ("failures", Jsonu.Int failures);
        ("drops", Jsonu.Int drops);
        ("spikes", Jsonu.Int spikes);
      ]
  | Breaker_closed { at_us; probes } ->
      [ ("at_us", Jsonu.Int at_us); ("probes", Jsonu.Int probes) ]
  | Failover { at_us; rung; from_rung; to_rung; migrated; stranded } ->
      [
        ("at_us", Jsonu.Int at_us);
        ("rung", Jsonu.Str rung);
        ("from_rung", Jsonu.Int from_rung);
        ("to_rung", Jsonu.Int to_rung);
        ("migrated", Jsonu.Int migrated);
        ("stranded", Jsonu.Int stranded);
      ]
  | Failback { at_us; rung; from_rung; to_rung; migrated } ->
      [
        ("at_us", Jsonu.Int at_us);
        ("rung", Jsonu.Str rung);
        ("from_rung", Jsonu.Int from_rung);
        ("to_rung", Jsonu.Int to_rung);
        ("migrated", Jsonu.Int migrated);
      ]
  | Instance_migrated { at_us; inst; classification; from_loc; to_loc } ->
      [
        ("at_us", Jsonu.Int at_us);
        ("inst", Jsonu.Int inst);
        ("classification", Jsonu.Int classification);
        ("from_loc", Jsonu.Str from_loc);
        ("to_loc", Jsonu.Str to_loc);
      ]
  | Drift_detected { at_us; similarity; threshold; window_pairs } ->
      [
        ("at_us", Jsonu.Int at_us);
        ("similarity", Jsonu.Float similarity);
        ("threshold", Jsonu.Float threshold);
        ("window_pairs", Jsonu.Int window_pairs);
      ]
  | Repartitioned { at_us; similarity; from_servers; to_servers; migrated; left } ->
      [
        ("at_us", Jsonu.Int at_us);
        ("similarity", Jsonu.Float similarity);
        ("from_servers", Jsonu.Int from_servers);
        ("to_servers", Jsonu.Int to_servers);
        ("migrated", Jsonu.Int migrated);
        ("left", Jsonu.Int left);
      ]
  | Replica_promoted { at_us; shard; from_host; to_host } ->
      [
        ("at_us", Jsonu.Int at_us);
        ("shard", Jsonu.Int shard);
        ("from_host", Jsonu.Int from_host);
        ("to_host", Jsonu.Int to_host);
      ]
  | Shard_split { at_us; shard; new_shard; moved; to_host } ->
      [
        ("at_us", Jsonu.Int at_us);
        ("shard", Jsonu.Int shard);
        ("new_shard", Jsonu.Int new_shard);
        ("moved", Jsonu.Int moved);
        ("to_host", Jsonu.Int to_host);
      ]
  | Pool_resized { at_us; from_hosts; to_hosts; shards; migrated } ->
      [
        ("at_us", Jsonu.Int at_us);
        ("from_hosts", Jsonu.Int from_hosts);
        ("to_hosts", Jsonu.Int to_hosts);
        ("shards", Jsonu.Int shards);
        ("migrated", Jsonu.Int migrated);
      ]

let to_line e =
  String.concat "\t"
    (kind_name e :: List.map (fun (k, v) -> k ^ "=" ^ Jsonu.to_string v) (fields e))
