open Coign_util
open Coign_idl
open Coign_com
open Coign_netsim
module Metrics = Coign_obs.Metrics

type config = {
  fc_ladder : Fallback.t;
  fc_health : Health.policy;
  fc_host_faults : (int * Fault.spec) list;
  fc_max_probe_rounds : int;
}

(* Fixed routing constants: a shard carrying more than [split_share] of
   the decayed remote-call load (200 ms half-life), checked every
   [check_every] served remote calls, is hot; a call endures 8 failed
   attempt/probe rounds (retry-only: 1) before it is unreachable. *)
let split_share = 0.6
let check_every = 64
let half_life_us = 200_000.

let config ?(health = Health.default_policy) ?(host_faults = []) ladder =
  { fc_ladder = ladder; fc_health = health; fc_host_faults = host_faults; fc_max_probe_rounds = 8 }

(* The retry-only route: one host, one rung that places nothing, and a
   breaker that never opens, so the route never leaves the installed
   factory policy and a call gets exactly one round of retries. *)
let retry_only =
  let nothing =
    { Analysis.placement = [||]; cut_ns = 0; predicted_comm_us = 0.; server_count = 0;
      node_count = 0 }
  in
  let static = Fallback.of_rungs ~migration_safe:[||] [ ("static", nothing) ] in
  let never_opens = { Health.default_policy with Health.hp_failure_threshold = max_int } in
  { (config ~health:never_opens static) with fc_max_probe_rounds = 1 }

(* A float of its own: in the mixed record below, every update would
   box. *)
type wait = { mutable wait_us : float }

(* Mutable routing state — the one engine every cross-host call and
   forwarded create goes through: the link (network, jitter and backoff
   streams, retry policy), the ladder and its current rung, one
   breaker and one fault model per host link (sized by the widest
   rung), the dynamic shard table (splits grow it), per-shard active
   hosts, and one counter set. *)
type t = {
  r_config : config;
  r_env : Rte_env.t;
  r_factory : Factory.t;
  r_pool : bool; (* installed as [dc_fleet], so [fleet_stats] reports it *)
  r_network : Network.t;
  r_jitter : float;
  r_rng : Prng.t; (* jitter noise: stream of dc_seed itself *)
  r_retry : Fault.retry_policy;
  r_retry_rng : Prng.t; (* backoff jitter: its own stream *)
  r_health : Health.t array; (* one breaker per host link *)
  r_faults : Fault.t option array; (* one fault model per host link *)
  r_safe : bool array; (* per-classification migration safety *)
  r_component : int array; (* classification -> component representative *)
  r_comp_safe : bool array; (* by representative: all members safe *)
  mutable r_load : float array; (* shard -> decayed remote-call load, as of r_load_at *)
  mutable r_load_at : float array; (* shard -> time of its last load update *)
  mutable r_rung : int;
  mutable r_shard_of : int array; (* classification -> shard (splits update it) *)
  mutable r_active : int array; (* shard -> host currently serving it *)
  mutable r_replicated : bool array; (* shard -> may promote to a replica *)
  mutable r_since_check : int;
  mutable r_opens : int;
  mutable r_closes : int;
  mutable r_failovers : int;
  mutable r_failbacks : int;
  mutable r_migrations : int;
  mutable r_stranded : int; (* calls that waited on an open breaker *)
  mutable r_rescued : int; (* failed calls completed locally after a rung switch *)
  mutable r_promotions : int;
  mutable r_splits : int;
  mutable r_resizes : int;
  mutable r_inter_host : int;
  r_wait : wait; (* virtual time stranded calls waited on cooloffs *)
  mutable r_ewma_link : int; (* link a transition or attempt last touched, -1 before any *)
}

(* Build a route over a ladder: one breaker and one fault model
   per host link of the widest rung (rung 0). One master seed, one
   stream per stochastic concern: jitter keeps the master seed itself
   (stream "-1") so fault-free runs reproduce the pre-fault draw
   sequence bit for bit, backoff takes stream 1 and the watch tap 3. A
   link's fault spec is its host overlay, else the global [faults]; a
   one-host route draws its verdicts from stream 2 unless an overlay
   is given, so retry-only, two-host resilience and a pool of one see
   the same fault schedule; an overlay, and every host of a wider pool,
   draws from stream [8 + host], so adding hosts never perturbs the
   other draws. *)
let create ~env ~factory ~pool ~network ~jitter ~seed ~retry ~faults fc =
  let ladder = fc.fc_ladder in
  let rung0 = Fallback.rung ladder 0 in
  let hosts = rung0.Fallback.pr_shape.Pool.sh_hosts in
  let shard_count = rung0.Fallback.pr_shard_count in
  let link_model h =
    let spec, stream =
      match List.assoc_opt h fc.fc_host_faults with
      | Some sp -> (Some sp, Prng.stream seed (8 + h))
      | None -> (faults, Prng.stream seed (if hosts = 1 then 2 else 8 + h))
    in
    Option.map (Fault.make ~seed:stream) spec
  in
  {
    r_config = fc;
    r_env = env;
    r_factory = factory;
    r_pool = pool;
    r_network = network;
    r_jitter = jitter;
    r_rng = Prng.create seed;
    r_retry = retry;
    r_retry_rng = Prng.create (Prng.stream seed 1);
    r_health = Array.init hosts (fun _ -> Health.create ~policy:fc.fc_health ());
    r_faults = Array.init hosts link_model;
    r_safe = Fallback.migration_safety_table ladder;
    r_component = Fallback.components ladder;
    r_comp_safe = Fallback.component_safety ladder;
    r_load = Array.make shard_count 0.;
    r_load_at = Array.make shard_count 0.;
    r_rung = 0;
    r_shard_of = Array.copy rung0.Fallback.pr_shard_of;
    r_active = Array.init shard_count (fun s -> Pool.host_of rung0.Fallback.pr_shape s);
    r_replicated = Array.copy rung0.Fallback.pr_replicated;
    r_since_check = 0;
    r_opens = 0;
    r_closes = 0;
    r_failovers = 0;
    r_failbacks = 0;
    r_migrations = 0;
    r_stranded = 0;
    r_rescued = 0;
    r_promotions = 0;
    r_splits = 0;
    r_resizes = 0;
    r_inter_host = 0;
    r_wait = { wait_us = 0. };
    r_ewma_link = -1;
  }

let shape r = (Fallback.rung r.r_config.fc_ladder r.r_rung).Fallback.pr_shape

(* Shard serving a classification: the dynamic table where it speaks,
   shard 0 for anything outside it (main, run-time classifications,
   instances stranded server-side by an unsafe migration). *)
let shard r c =
  let s = Pool.shard_in r.r_shard_of c in
  if s < Array.length r.r_active then s else 0

let host r c = r.r_active.(shard r c)

(* An int, not an option: every intercepted call asks, and the local
   answer must not allocate. *)
let link r ~src ~dst ~caller_cls ~callee_cls =
  match (src, dst) with
  | Constraints.Client, Constraints.Client -> -1
  | _, Constraints.Server ->
      let h = host r callee_cls in
      if src = Constraints.Server && host r caller_cls = h then -1 else h
  | Constraints.Server, Constraints.Client -> host r caller_cls

(* First host of shard [s]'s replica ring, from its primary on, that is
   not [except] and whose breaker admits calls at [now]. Deterministic:
   replica rings are fixed by the shape. *)
let healthy_replica r ~shape ~except ~now s =
  Pool.first_replica shape s ~except ~admits:(fun h -> Health.allows r.r_health.(h) ~now_us:now)

(* Re-home every shard for the current shape: its primary host, unless
   that breaker is open and a standing replica is healthy — then the
   first healthy replica in ring order. *)
let reset_actives r ~now =
  let shape = shape r in
  Array.iteri
    (fun s _ ->
      let h = if r.r_replicated.(s) then healthy_replica r ~shape ~except:(-1) ~now s else -1 in
      r.r_active.(s) <- (if h < 0 then Pool.host_of shape s else h))
    r.r_active

(* Move the route along its ladder: install the rung's distribution,
   migrate the instances the static remotability facts mark safe (the
   rest stay where they are; their calls may strand on the breaker),
   and re-home every shard onto the new host count. Events: the
   aggregate Failover/Failback first, then Pool_resized when the host
   count changed, then the per-instance migrations. *)
let switch_rung r ~to_rung ~at_us =
  let env = r.r_env in
  let from_rung = r.r_rung in
  let pr = Fallback.rung r.r_config.fc_ladder to_rung in
  let from_hosts = (shape r).Pool.sh_hosts in
  let to_hosts = pr.Fallback.pr_shape.Pool.sh_hosts in
  let migrated, left, moved =
    Rte_env.migrate_instances env r.r_factory ~safe:r.r_safe ~dist:pr.Fallback.pr_distribution
  in
  r.r_rung <- to_rung;
  r.r_migrations <- r.r_migrations + migrated;
  let at_int = int_of_float at_us in
  let failover = to_rung > from_rung in
  if failover then r.r_failovers <- r.r_failovers + 1
  else r.r_failbacks <- r.r_failbacks + 1;
  let rung = pr.Fallback.pr_name in
  if env.observed then
    Rte_env.emit env ~at_us
      (if failover then
         Event.Failover { at_us = at_int; rung; from_rung; to_rung; migrated; stranded = left }
       else Event.Failback { at_us = at_int; rung; from_rung; to_rung; migrated });
  if from_hosts <> to_hosts then begin
    r.r_resizes <- r.r_resizes + 1;
    if env.observed then
      Rte_env.emit env ~at_us
        (Event.Pool_resized
           { at_us = at_int; from_hosts; to_hosts; shards = Array.length r.r_active; migrated })
  end;
  reset_actives r ~now:at_us;
  Rte_env.log_migrations env ~at_us moved

(* The rung rule, shared with the verifier's explorer. *)
let next_rung ~rungs ~rung ~stuck = function
  | Health.Open -> if stuck then Int.min (rung + 1) (rungs - 1) else rung
  | Health.Half_open -> rung
  | Health.Closed -> 0

(* React to a link's breaker transition. An open promotes every shard
   the host was serving to a healthy replica; a shard with none (or one
   that may not replicate), and any open on a one-host rung, leaves the
   route stuck. The rung rule then picks the rung; a close that keeps
   it re-homes the shards. *)
let on_transition r ~host (tr : Health.transition) =
  let env = r.r_env in
  let at_us = tr.Health.tr_at_us in
  let at_int = int_of_float at_us in
  let hb = r.r_health.(host) in
  r.r_ewma_link <- host;
  let stuck =
    match tr.Health.tr_to with
    | Health.Half_open -> false
    | Health.Open ->
        r.r_opens <- r.r_opens + 1;
        if env.observed then
          Rte_env.emit env ~at_us
            (Event.Breaker_opened
               {
                 at_us = at_int;
                 failures = Health.consecutive_failures hb;
                 drops = env.faults.Fault.drops;
                 spikes = env.faults.Fault.spikes;
               });
        let shape = shape r in
        let stuck = ref (shape.Pool.sh_hosts = 1) in
        if not !stuck then
          Array.iteri
            (fun s serving ->
              if serving = host then
                let h =
                  if r.r_replicated.(s) then healthy_replica r ~shape ~except:host ~now:at_us s
                  else -1
                in
                if h < 0 then stuck := true
                else begin
                  r.r_active.(s) <- h;
                  r.r_promotions <- r.r_promotions + 1;
                  if env.observed then
                    Rte_env.emit env ~at_us
                      (Event.Replica_promoted
                         { at_us = at_int; shard = s; from_host = host; to_host = h })
                end)
            r.r_active;
        !stuck
    | Health.Closed ->
        r.r_closes <- r.r_closes + 1;
        if env.observed then
          Rte_env.emit env ~at_us
            (Event.Breaker_closed
               { at_us = at_int; probes = (Health.policy hb).Health.hp_probe_successes });
        false
  in
  let rungs = Fallback.rung_count r.r_config.fc_ladder in
  let next = next_rung ~rungs ~rung:r.r_rung ~stuck tr.Health.tr_to in
  if next <> r.r_rung then switch_rung r ~to_rung:next ~at_us
  else if tr.Health.tr_to = Health.Closed then reset_actives r ~now:at_us

(* Deterministic hot-shard check: when one shard carries more than
   [split_share] of the decayed remote-call mass and holds at least two
   components, carve off the upper half of its movable (migration-safe)
   components into a fresh shard on the least-loaded host. Pure
   arithmetic over the load snapshot — no randomness. *)
let maybe_split r ~now =
  let env = r.r_env in
  let k = (shape r).Pool.sh_hosts in
  if k > 1 then begin
    let shard_count = Array.length r.r_active in
    let load =
      Array.init shard_count (fun s ->
          Window.decay_by ~half_life_us ~from_us:r.r_load_at.(s) ~to_us:now r.r_load.(s))
    in
    let total = Array.fold_left ( +. ) 0. load in
    if total > 0. then begin
      let top = ref 0 in
      Array.iteri (fun s l -> if l > load.(!top) then top := s) load;
      if load.(!top) /. total > split_share then begin
        let s_top = !top in
        (* Components currently in the hot shard, ascending representative. *)
        let reps = Hashtbl.create 8 in
        Array.iteri
          (fun c sh -> if sh = s_top then Hashtbl.replace reps r.r_component.(c) ())
          r.r_shard_of;
        let all = List.sort compare (Hashtbl.fold (fun rep () acc -> rep :: acc) reps []) in
        let movable = List.filter (fun rep -> r.r_comp_safe.(rep)) all in
        (* [half] is at most half of [all], so the shard keeps at least one. *)
        let half = List.length movable / 2 in
        if List.length all >= 2 && half >= 1 then begin
          let moving = List.filteri (fun i _ -> i >= List.length movable - half) movable in
          let new_shard = shard_count in
          (* Least-loaded host by shard count, ties to the lowest id. *)
          let per_host = Array.make k 0 in
          Array.iter (fun h -> if h < k then per_host.(h) <- per_host.(h) + 1) r.r_active;
          let to_host = ref 0 in
          Array.iteri (fun h n -> if n < per_host.(!to_host) then to_host := h) per_host;
          let to_host = !to_host in
          let moved = ref 0 in
          Array.iteri
            (fun c sh ->
              if sh = s_top && List.mem r.r_component.(c) moving then begin
                r.r_shard_of.(c) <- new_shard;
                incr moved
              end)
            r.r_shard_of;
          r.r_active <- Array.append r.r_active [| to_host |];
          r.r_replicated <- Array.append r.r_replicated [| true |];
          r.r_load <- Array.append r.r_load [| 0. |];
          r.r_load_at <- Array.append r.r_load_at [| 0. |];
          r.r_splits <- r.r_splits + 1;
          if env.observed then
            Rte_env.emit env ~at_us:now
              (Event.Shard_split
                 { at_us = int_of_float now; shard = s_top; new_shard; moved = !moved; to_host })
        end
      end
    end
  end

(* Feed one served remote call into its shard's decayed load; check for
   a hot shard every [check_every] observations. Skipped entirely on a
   one-host rung. *)
let observe_load r ~callee_cls =
  if (shape r).Pool.sh_hosts > 1 then begin
    let now = Rte_env.now r.r_env in
    let s = shard r callee_cls in
    r.r_load.(s) <-
      Window.decay_by ~half_life_us ~from_us:r.r_load_at.(s) ~to_us:now r.r_load.(s) +. 1.;
    r.r_load_at.(s) <- now;
    r.r_since_check <- r.r_since_check + 1;
    if r.r_since_check >= check_every then begin
      r.r_since_check <- 0;
      maybe_split r ~now
    end
  end

(* One simulated round trip over host link [link], sent at [now], with
   its full fault accounting — the same instructions under every route,
   so a fault-free run is bit-identical whatever policy watches the
   outcome. Whether it made it. *)
let round_trip r ~link ~now ~request ~reply ~iface ~mname =
  let env = r.r_env in
  let retries = env.faults.Fault.retries in
  let ok =
    Fault.call ~model:r.r_faults.(link) ~retry:r.r_retry ~rng:r.r_retry_rng
      ~network:r.r_network ~jitter:r.r_jitter ~jitter_rng:r.r_rng ~now_us:now
      ~request_bytes:request ~reply_bytes:reply ~spent:env.spent ~counts:env.faults
  in
  let retries = env.faults.Fault.retries - retries in
  if retries > 0 && ok && env.observed then
    Rte_env.emit env ~at_us:now (Event.Call_retried { iface; meth = mname; retries });
  ok

(* Advance the link's breaker to [now]; whether it admits a call. *)
let admits r ~link ~now =
  let hb = r.r_health.(link) in
  (match Health.observe hb ~now_us:now with
  | Some tr -> on_transition r ~host:link tr
  | None -> ());
  Health.allows hb ~now_us:now

(* One admitted round trip sent at [now]: feed its outcome to the
   link's breaker and, when it made it, count it as remote. Whether it
   made it. *)
let attempt r ~link ~now ~request ~reply ~iface ~mname =
  let env = r.r_env in
  let ok = round_trip r ~link ~now ~request ~reply ~iface ~mname in
  let hb = r.r_health.(link) in
  let now = Rte_env.now env in
  (match
     if ok then Health.record_success hb ~now_us:now else Health.record_failure hb ~now_us:now
   with
  | Some tr -> on_transition r ~host:link tr
  | None -> ());
  r.r_ewma_link <- link;
  if ok then begin
    env.n_remote_calls <- env.n_remote_calls + 1;
    env.n_remote_bytes <- env.n_remote_bytes + request + reply
  end;
  ok

(* Route one call whose endpoints sit on different hosts. Failures feed
   the link's breaker; a transition may promote replicas or move the
   route along its ladder, after which the link is re-read — the call
   may then complete locally (the underlying [Runtime.call] already
   ran; the fault model only decides whether the communication made
   it), on a promoted replica, or on the shrunken pool. Calls meeting
   an open breaker are stranded: they wait out the cooloff and become
   the half-open probe. After [fc_max_probe_rounds] failed rounds the
   call is unreachable. [rounds] counts the failed rounds so far and
   [stranded] whether the call has waited on a breaker: the loop's
   state is in its arguments, so routing allocates no closure. *)
let rec route r ~caller ~callee ~caller_cls ~callee_cls ~request ~reply ~iface ~mname ~rounds
    ~stranded =
  let env = r.r_env in
  let src = Factory.machine_of r.r_factory caller in
  let dst = Factory.machine_of r.r_factory callee in
  let link = link r ~src ~dst ~caller_cls ~callee_cls in
  if link < 0 then begin
    if rounds > 0 then r.r_rescued <- r.r_rescued + 1
  end
  else begin
    let now = Rte_env.now env in
    if not (admits r ~link ~now) then begin
      if not stranded then r.r_stranded <- r.r_stranded + 1;
      let wait = Health.cooloff_expires_at r.r_health.(link) -. now in
      env.spent.Fault.comm_us <- env.spent.Fault.comm_us +. wait;
      env.spent.Fault.fault_us <- env.spent.Fault.fault_us +. wait;
      r.r_wait.wait_us <- r.r_wait.wait_us +. wait;
      route r ~caller ~callee ~caller_cls ~callee_cls ~request ~reply ~iface ~mname ~rounds
        ~stranded:true
    end
    else if rounds >= r.r_config.fc_max_probe_rounds then begin
      env.n_unreachable <- env.n_unreachable + 1;
      Hresult.fail
        (Hresult.E_unreachable
           (Printf.sprintf "%s.%s: no reply from %s after %d attempts" iface mname
              (Constraints.location_name dst)
              (max 1 r.r_retry.Fault.rp_max_attempts)))
    end
    else begin
      (match env.obs with
      | None -> ()
      | Some (request_bytes, reply_bytes) ->
          Metrics.observe request_bytes request;
          Metrics.observe reply_bytes reply);
      if attempt r ~link ~now ~request ~reply ~iface ~mname then begin
        if src = Constraints.Server && dst = Constraints.Server then
          r.r_inter_host <- r.r_inter_host + 1;
        if dst = Constraints.Server then observe_load r ~callee_cls
      end
      else
        route r ~caller ~callee ~caller_cls ~callee_cls ~request ~reply ~iface ~mname
          ~rounds:(rounds + 1) ~stranded
    end
  end

let call r ~caller ~callee ~caller_cls ~callee_cls ~request ~reply ~iface ~mname =
  route r ~caller ~callee ~caller_cls ~callee_cls ~request ~reply ~iface ~mname ~rounds:0
    ~stranded:false

let create_request_bytes = Marshal_size.scalar_overhead + (2 * 16)
let create_reply_bytes = Marshal_size.scalar_overhead + Marshal_size.objref_size

(* Forward an instantiation request to the peer factory over the link
   the new instance's shard lives on (the creator's when the request
   travels pool-to-client): one round trip, the request plus the
   marshaled object reference coming back. Graceful degradation: when
   the peer never answers — or the breaker is open, and no
   communication is spent on a link known to be down — the instance is
   placed with its creator, the factory's co-location default, instead
   of failing the instantiation. A failure may have tripped the breaker
   and switched rungs, so the creator's machine is re-read. *)
let forward_create r ~creator ~classification ~cname ~machine =
  let env = r.r_env in
  let link =
    host r
      (if machine = Constraints.Server then classification
       else Rte_env.classification_of env creator)
  in
  let now = Rte_env.now env in
  if
    admits r ~link ~now
    && attempt r ~link ~now ~request:create_request_bytes ~reply:create_reply_bytes
         ~iface:"ICoCreateInstance" ~mname:"create"
  then machine
  else begin
    env.n_fallbacks <- env.n_fallbacks + 1;
    if env.observed then
      Rte_env.emit env ~at_us:now (Event.Instantiation_degraded { cname; classification });
    Factory.machine_of r.r_factory creator
  end

(* Add the route's totals to [reg] and set its gauges to their final
   values: the breaker/ladder family for any route over a ladder, the
   pool family only when the widest rung has more than one host.
   Retry-only (that one config value) publishes nothing, so a run
   without a routing policy exposes exactly the base series. The rung
   gauge is set only once a rung has switched and the EWMA gauge only
   once a link has been used; until then a shared registry keeps what
   earlier runs left there. *)
let publish r reg =
  if r.r_config != retry_only then begin
    let count ~help name n = Metrics.inc_int (Metrics.counter reg ~help name) n in
    let gauge ~help name = Metrics.gauge reg ~help name in
    count ~help:"Circuit-breaker open transitions." "coign_resilience_breaker_opens_total"
      r.r_opens;
    count ~help:"Circuit-breaker close transitions." "coign_resilience_breaker_closes_total"
      r.r_closes;
    count ~help:"Placement switches down the fallback ladder." "coign_resilience_failovers_total"
      r.r_failovers;
    count ~help:"Placement switches back up the fallback ladder."
      "coign_resilience_failbacks_total" r.r_failbacks;
    count ~help:"Instances migrated live between machines."
      "coign_resilience_migrated_instances_total" r.r_migrations;
    count ~help:"Calls that had to wait out an open breaker."
      "coign_resilience_stranded_calls_total" r.r_stranded;
    count ~help:"Failed remote calls completed locally after failover."
      "coign_resilience_rescued_calls_total" r.r_rescued;
    Metrics.inc ~by:r.r_wait.wait_us
      (Metrics.counter reg
         ~help:"Virtual time stranded calls spent waiting on cooloffs, in microseconds."
         "coign_resilience_wait_us_total");
    let rung = gauge ~help:"Fallback rung currently installed (0 = primary)." "coign_resilience_rung" in
    if r.r_failovers + r.r_failbacks > 0 then Metrics.set rung (float_of_int r.r_rung);
    let ewma = gauge ~help:"EWMA link health (1 = all successes)." "coign_resilience_link_ewma" in
    if r.r_ewma_link >= 0 then Metrics.set ewma (Health.ewma r.r_health.(r.r_ewma_link));
    if Array.length r.r_health > 1 then begin
      count ~help:"Shards redirected to a standing replica on breaker open."
        "coign_fleet_promotions_total" r.r_promotions;
      count ~help:"Hot shards split by the decayed-load detector." "coign_fleet_shard_splits_total"
        r.r_splits;
      count ~help:"Pool size changes along the pool-elastic ladder." "coign_fleet_resizes_total"
        r.r_resizes;
      count ~help:"Completed server-to-server calls between pool hosts."
        "coign_fleet_inter_host_calls_total" r.r_inter_host;
      Metrics.set
        (gauge ~help:"Pool hosts currently serving." "coign_fleet_pool_hosts")
        (float_of_int (shape r).Pool.sh_hosts);
      Metrics.set
        (gauge ~help:"Shards currently mapped." "coign_fleet_shards")
        (float_of_int (Array.length r.r_active))
    end
  end

type stats = {
  fs_promotions : int;
  fs_splits : int;
  fs_resizes : int;
  fs_inter_host_calls : int;
  fs_final_hosts : int;
  fs_final_shards : int;
}

let pool r = r.r_pool

let breaker_opens r = r.r_opens
let breaker_closes r = r.r_closes
let failovers r = r.r_failovers
let failbacks r = r.r_failbacks
let migrations r = r.r_migrations
let stranded_calls r = r.r_stranded
let rescued_calls r = r.r_rescued
let rung r = r.r_rung

let stats r =
  {
    fs_promotions = r.r_promotions;
    fs_splits = r.r_splits;
    fs_resizes = r.r_resizes;
    fs_inter_host_calls = r.r_inter_host;
    fs_final_hosts = (shape r).Pool.sh_hosts;
    fs_final_shards = Array.length r.r_active;
  }
