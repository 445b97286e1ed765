open Coign_util
open Coign_idl
open Coign_com
open Coign_netsim
module Trace = Coign_obs.Trace
module Metrics = Coign_obs.Metrics
module Tap = Coign_obs.Tap

(* Registry instruments, resolved once at install time so the hot path
   never does a name lookup. *)
type instruments = {
  i_intercepted : Metrics.counter;
  i_instantiations : Metrics.counter;
  i_remote_calls : Metrics.counter;
  i_remote_bytes : Metrics.counter;
  i_comm_us : Metrics.counter;
  i_retries : Metrics.counter;
  i_drops : Metrics.counter;
  i_spikes : Metrics.counter;
  i_fallbacks : Metrics.counter;
  i_unreachable : Metrics.counter;
  i_fault_us : Metrics.counter;
  i_request_bytes : Metrics.histogram;
  i_reply_bytes : Metrics.histogram;
}

let make_instruments reg =
  let open Metrics in
  {
    i_intercepted =
      counter reg ~help:"Calls intercepted by the RTE, local and remote."
        "coign_rte_intercepted_calls_total";
    i_instantiations =
      counter reg ~help:"Component instantiations intercepted."
        "coign_rte_instantiations_total";
    i_remote_calls =
      counter reg ~help:"Completed cross-machine calls and forwarded instantiations."
        "coign_rte_remote_calls_total";
    i_remote_bytes =
      counter reg ~help:"Marshaled bytes moved across machines." "coign_rte_remote_bytes_total";
    i_comm_us =
      counter reg ~help:"Virtual communication time accumulated, in microseconds."
        "coign_rte_comm_us_total";
    i_retries =
      counter reg ~help:"Remote-call attempts beyond the first." "coign_rte_retries_total";
    i_drops = counter reg ~help:"Messages eaten by the fault model." "coign_rte_drops_total";
    i_spikes = counter reg ~help:"Latency spikes suffered." "coign_rte_spikes_total";
    i_fallbacks =
      counter reg ~help:"Instantiations degraded to the creator machine."
        "coign_rte_degraded_instantiations_total";
    i_unreachable =
      counter reg ~help:"Calls abandoned as unreachable." "coign_rte_unreachable_calls_total";
    i_fault_us =
      counter reg ~help:"Communication time attributable to faults, in microseconds."
        "coign_rte_fault_us_total";
    i_request_bytes =
      histogram reg ~help:"Cross-wrapper request message sizes, in bytes."
        "coign_rte_request_bytes";
    i_reply_bytes =
      histogram reg ~help:"Cross-wrapper reply message sizes, in bytes." "coign_rte_reply_bytes";
  }

(* Routing instruments: the breaker/ladder family and the pool family.
   Separate from the base set so a run without a policy exposes exactly
   the metrics it always did — a retry-only route registers none, and a
   single-host route registers its pool family in [pool_reg], a private
   registry nothing exports. *)
type route_instruments = {
  ri_opens : Metrics.counter;
  ri_closes : Metrics.counter;
  ri_failovers : Metrics.counter;
  ri_failbacks : Metrics.counter;
  ri_migrations : Metrics.counter;
  ri_stranded : Metrics.counter;
  ri_rescued : Metrics.counter;
  ri_wait_us : Metrics.counter;
  ri_rung : Metrics.gauge;
  ri_ewma : Metrics.gauge;
  ri_promotions : Metrics.counter;
  ri_splits : Metrics.counter;
  ri_resizes : Metrics.counter;
  ri_inter_host : Metrics.counter;
  ri_hosts : Metrics.gauge;
  ri_shards : Metrics.gauge;
}

let make_route_instruments reg ~pool_reg =
  let open Metrics in
  {
    ri_opens =
      counter reg ~help:"Circuit-breaker open transitions." "coign_resilience_breaker_opens_total";
    ri_closes =
      counter reg ~help:"Circuit-breaker close transitions."
        "coign_resilience_breaker_closes_total";
    ri_failovers =
      counter reg ~help:"Placement switches down the fallback ladder."
        "coign_resilience_failovers_total";
    ri_failbacks =
      counter reg ~help:"Placement switches back up the fallback ladder."
        "coign_resilience_failbacks_total";
    ri_migrations =
      counter reg ~help:"Instances migrated live between machines."
        "coign_resilience_migrated_instances_total";
    ri_stranded =
      counter reg ~help:"Calls that had to wait out an open breaker."
        "coign_resilience_stranded_calls_total";
    ri_rescued =
      counter reg ~help:"Failed remote calls completed locally after failover."
        "coign_resilience_rescued_calls_total";
    ri_wait_us =
      counter reg ~help:"Virtual time stranded calls spent waiting on cooloffs, in microseconds."
        "coign_resilience_wait_us_total";
    ri_rung = gauge reg ~help:"Fallback rung currently installed (0 = primary)." "coign_resilience_rung";
    ri_ewma =
      gauge reg ~help:"EWMA link health (1 = all successes)." "coign_resilience_link_ewma";
    ri_promotions =
      counter pool_reg ~help:"Shards redirected to a standing replica on breaker open."
        "coign_fleet_promotions_total";
    ri_splits =
      counter pool_reg ~help:"Hot shards split by the decayed-load detector."
        "coign_fleet_shard_splits_total";
    ri_resizes =
      counter pool_reg ~help:"Pool size changes along the pool-elastic ladder."
        "coign_fleet_resizes_total";
    ri_inter_host =
      counter pool_reg ~help:"Completed server-to-server calls between pool hosts."
        "coign_fleet_inter_host_calls_total";
    ri_hosts = gauge pool_reg ~help:"Pool hosts currently serving." "coign_fleet_pool_hosts";
    ri_shards = gauge pool_reg ~help:"Shards currently mapped." "coign_fleet_shards";
  }

type resilience_config = {
  rc_ladder : Fallback.t;
  rc_health : Health.policy;
  rc_max_probe_rounds : int;
}

let resilience ?(health = Health.default_policy) ?(max_probe_rounds = 8) ladder =
  { rc_ladder = ladder; rc_health = health; rc_max_probe_rounds = max_probe_rounds }

type fleet_config = {
  fc_ladder : Fallback.pool_ladder;
  fc_health : Health.policy;
  fc_max_probe_rounds : int;
  fc_split_share : float;
  fc_check_every : int;
  fc_half_life_us : float;
  fc_host_faults : (int * Fault.spec) list;
}

let fleet ?(health = Health.default_policy) ?(max_probe_rounds = 8) ?(split_share = 0.6)
    ?(check_every = 64) ?(half_life_us = 200_000.) ?(host_faults = []) ladder =
  if not (split_share > 0. && split_share <= 1.) then
    invalid_arg "Rte.fleet: split_share must be in (0, 1]";
  if check_every < 1 then invalid_arg "Rte.fleet: check_every must be >= 1";
  {
    fc_ladder = ladder;
    fc_health = health;
    fc_max_probe_rounds = max_probe_rounds;
    fc_split_share = split_share;
    fc_check_every = check_every;
    fc_half_life_us = half_life_us;
    fc_host_faults = host_faults;
  }

(* Watch instruments, separate for the same reason as the routing
   set: a run without a watch exposes exactly the metrics it always
   did. *)
type watch_instruments = {
  wi_similarity : Metrics.gauge;
  wi_window_pairs : Metrics.gauge;
  wi_window_mass : Metrics.gauge;
  wi_checks : Metrics.counter;
  wi_detections : Metrics.counter;
  wi_repartitions : Metrics.counter;
  wi_migrations : Metrics.counter;
  wi_unchanged : Metrics.counter;
  wi_rejected : Metrics.counter;
}

let make_watch_instruments reg =
  let open Metrics in
  {
    wi_similarity =
      gauge reg ~help:"Window-vs-baseline usage similarity at the last drift check."
        "coign_drift_similarity";
    wi_window_pairs =
      gauge reg ~help:"Distinct pairs carrying window mass at the last drift check."
        "coign_drift_window_pairs";
    wi_window_mass =
      gauge reg ~help:"Decayed observation mass in the window at the last drift check."
        "coign_drift_window_mass";
    wi_checks = counter reg ~help:"Drift checks performed." "coign_drift_checks_total";
    wi_detections =
      counter reg ~help:"Drift checks that crossed the threshold." "coign_drift_detections_total";
    wi_repartitions =
      counter reg ~help:"Placement switches installed by the watch loop."
        "coign_watch_repartitions_total";
    wi_migrations =
      counter reg ~help:"Instances migrated live by watch re-partitions."
        "coign_watch_migrated_instances_total";
    wi_unchanged =
      counter reg ~help:"Drift detections whose re-cut chose the installed placement."
        "coign_watch_unchanged_cuts_total";
    wi_rejected =
      counter reg ~help:"Candidate cuts rejected by constraint validation."
        "coign_watch_rejected_cuts_total";
  }

type watch_config = {
  wc_session : Analysis.Session.t;
  wc_net : Net_profiler.t;
  wc_threshold : float;
  wc_check_every : int;
  wc_min_dwell_us : float;
  wc_min_window : float;
  wc_half_life_us : float;
  wc_sample_every : int;
  wc_tap : Tap.sink option;
}

let watch ?(threshold = 0.90) ?(check_every = 256) ?(min_dwell_us = 50_000.)
    ?(min_window = 32.) ?(half_life_us = 200_000.) ?(sample_every = 16) ?tap ~net session =
  if not (threshold >= 0. && threshold <= 1.) then
    invalid_arg "Rte.watch: threshold must be in [0, 1]";
  if check_every < 1 then invalid_arg "Rte.watch: check_every must be >= 1";
  {
    wc_session = session;
    wc_net = net;
    wc_threshold = threshold;
    wc_check_every = check_every;
    wc_min_dwell_us = min_dwell_us;
    wc_min_window = min_window;
    wc_half_life_us = half_life_us;
    wc_sample_every = sample_every;
    wc_tap = tap;
  }

type watch_action =
  | W_steady
  | W_unchanged
  | W_repartitioned of { wa_migrated : int; wa_left : int; wa_servers : int }
  | W_rejected of int  (* constraint violations in the candidate cut *)

type watch_checkpoint = {
  wk_at_us : float;
  wk_similarity : float;
  wk_window_pairs : int;
  wk_action : watch_action;
}

(* Mutable watch state: window, adopted baseline, installed cut. *)
type watch = {
  w_config : watch_config;
  w_window : Window.t;
  (* Always present: besides feeding the optional sink, the tap's
     seeded sampler decides which observations get their message sizes
     measured — the window's byte dimension. *)
  w_tap : Tap.t;
  w_obs : watch_instruments option;
  w_safe : bool array;          (* per-classification migration safety *)
  w_prof_share : float array;   (* profile's per-pair message share *)
  w_prof_byte_share : float array;  (* profile's per-pair byte share *)
  w_scale : Icc_graph.scale;    (* scratch scale vectors, pair-id order *)
  mutable w_baseline : Drift.signature;        (* message counts *)
  mutable w_baseline_bytes : Drift.signature;  (* byte volumes *)
  mutable w_current : Analysis.distribution;
  mutable w_last_switch_us : float;
  mutable w_since_check : int;
  mutable w_checks : int;
  mutable w_detections : int;
  mutable w_repartitions : int;
  mutable w_migrations : int;
  mutable w_unchanged : int;
  mutable w_rejected : int;
  mutable w_last_similarity : float;
  mutable w_timeline : watch_checkpoint list;  (* reversed *)
}

(* Mutable routing state — the one engine every cross-host call and
   forwarded create goes through: the pool ladder and its current rung,
   one breaker and one fault model per host link (sized by the widest
   rung), the dynamic shard table (splits grow it), per-shard active
   hosts, and one counter set. Retry-only is a one-link, one-rung route
   whose breaker never opens; [dc_resilience] is a one-link route over
   the fallback ladder; [dc_fleet] is the same route with k links. *)
type route = {
  r_config : fleet_config;
  r_pool : bool; (* installed as [dc_fleet], so [fleet_stats] reports it *)
  r_health : Health.t array; (* one breaker per host link *)
  r_faults : Fault.t option array; (* one fault model per host link *)
  r_obs : route_instruments option;
  r_safe : bool array; (* per-classification migration safety *)
  r_component : int array; (* classification -> component representative *)
  r_comp_safe : bool array; (* by representative: all members safe *)
  r_window : Window.t; (* per-shard decayed remote-call load *)
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
}

type distributed = {
  m_factory : Factory.t;
  m_network : Network.t;
  m_jitter : float;
  m_rng : Prng.t;          (* jitter noise: stream of dc_seed itself *)
  m_retry : Fault.retry_policy;
  m_retry_rng : Prng.t;    (* backoff jitter: its own stream *)
  m_route : route;
  m_watch : watch option;
}

type mode = M_profiling | M_distributed of distributed

(* One Coign wrapper: the raw handle it forwards to, what is known
   about it at mint time, and per method the frame a call through it
   pushes — rebuilt only when the owner's classification changes (a
   wrapper minted inside its owner's constructor first sees -1). *)
type wrapper = {
  w_raw : int;
  w_itype : Itype.t;
  w_owner : int;
  w_iface : Icc.iface;  (* interned in [rte_icc] *)
  w_frames : Frame.t array;
}

type t = {
  ctx : Runtime.ctx;
  rte_classifier : Classifier.t;
  memo : Classifier.memo;  (* context key -> classification, this install only *)
  stack : Shadow_stack.t;
  logger : Logger.t;
  logging : bool;  (* loggers attached: events are built only then *)
  rte_icc : Icc.t;
  rte_inst_comm : Inst_comm.t;
  create_iface : Icc.iface;  (* "ICoCreateInstance" in [rte_icc] *)
  (* Dense int-indexed maps, -1 where unset: instance -> classification,
     raw handle -> wrapper handle, wrapper handle -> raw handle. *)
  mutable classifications : int array;
  mutable raw_to_wrap : int array;
  mutable wrap_to_raw : int array;
  mode : mode;
  mutable created : int list;  (* reversed *)
  mutable comm : float;
  mutable n_remote_calls : int;
  mutable n_remote_bytes : int;
  mutable n_intercepted : int;
  (* Fault counters (all zero in profiling mode and in fault-free
     distributed runs). *)
  mutable n_retries : int;
  mutable n_drops : int;
  mutable n_spikes : int;
  mutable n_fallbacks : int;
  mutable n_unreachable : int;
  mutable fault_us : float;
  (* Lightweight per-classification-pair message counter, kept even in
     distributed mode (paper SS6: count messages "with only slight
     additional overhead" so usage drift can be recognized). Keyed by
     [pair_key]. *)
  pair_counts : int Int_table.t;
  (* Observability, both [None] unless the install opted in; every use
     site is behind a match so an unobserved RTE runs the same
     instructions it always did. *)
  obs_tracer : Trace.t option;
  obs : instruments option;
}

type distributed_config = {
  dc_factory_policy : Factory.policy;
  dc_network : Network.t;
  dc_jitter : float;
  dc_seed : int64;
  dc_faults : Fault.spec option;
  dc_retry : Fault.retry_policy;
  dc_resilience : resilience_config option;
  dc_watch : watch_config option;
  dc_fleet : fleet_config option;
}

(* One master seed, one stream per stochastic concern. The jitter
   generator keeps the master seed itself (stream "-1") so fault-free
   runs reproduce the pre-fault draw sequence bit for bit; backoff
   jitter and fault verdicts get derived streams, so enabling either
   never perturbs the other draws. *)
let jitter_seed seed = seed
let retry_seed seed = Prng.stream seed 1
let fault_seed seed = Prng.stream seed 2
let watch_seed seed = Prng.stream seed 3

(* Per-host fault-verdict streams for overlays and pools wider than one
   host: streams 8, 9, ... so adding hosts never perturbs the
   jitter/retry/fault/watch draws. *)
let host_fault_seed seed h = Prng.stream seed (8 + h)

(* Read slot [i] of a dense map, -1 past its end. *)
let slot arr i = if i >= 0 && i < Array.length arr then Array.unsafe_get arr i else -1

(* Store [v] at slot [i], growing the map (the result replaces it). *)
let store arr i v =
  let arr =
    if i < Array.length arr then arr
    else begin
      let bigger = Array.make (max (i + 1) (2 * Array.length arr)) (-1) in
      Array.blit arr 0 bigger 0 (Array.length arr);
      bigger
    end
  in
  arr.(i) <- v;
  arr

(* The main program and unclassified instances read -1: main is never
   stored. *)
let classification_of t inst = slot t.classifications inst

(* [pair_counts] key of a (caller, callee) classification pair, each
   in [-1, 2^31 - 2]. *)
let pair_key a b = ((a + 1) lsl 31) lor (b + 1)
let pair_of_key k = ((k lsr 31) - 1, (k land 0x7FFF_FFFF) - 1)

(* Stands in for the top frame when the main program is running. *)
let root_frame =
  Frame.make ~inst:Runtime.main_instance ~cls:Runtime.main_class_name ~classification:(-1)
    ~iface:"" ~meth:""

(* Not yet built: no real classification equals [min_int]. *)
let unbuilt_frame = Frame.make ~inst:(-1) ~cls:"" ~classification:min_int ~iface:"" ~meth:""

(* The virtual clock spans are timed on: accumulated communication time
   plus the compute the application has charged. Deterministic for a
   seeded run, so traces golden-test. *)
let sim_now t = t.comm +. Runtime.compute_us t.ctx

(* Zero-duration marker span for a breaker transition or rung switch. *)
let resil_span t ~name ~at_us args =
  match t.obs_tracer with
  | None -> ()
  | Some tr ->
      let id = Trace.open_span tr ~name ~cat:"resilience" ~at_us in
      Trace.close_span tr ~args id ~at_us

(* Zero-duration marker span for a watch-loop decision. *)
let watch_span t ~name ~at_us args =
  match t.obs_tracer with
  | None -> ()
  | Some tr ->
      let id = Trace.open_span tr ~name ~cat:"watch" ~at_us in
      Trace.close_span tr ~args id ~at_us

(* Atomically install [dist] as the factory policy and migrate every
   live instance the safety predicate allows to its new home; the rest
   stay where they are. Shared by rung switches and watch
   re-partitions. Returns (migrated, left behind, moves in instance
   order). *)
let migrate_instances t m_factory ~safe ~dist =
  Factory.set_policy m_factory (Factory.By_classification dist);
  let migrated = ref 0 and left = ref 0 and moved = ref [] in
  List.iter
    (fun (inst, machine) ->
      if inst <> Runtime.main_instance then begin
        let c = classification_of t inst in
        let target =
          if c >= 0 && c < dist.Analysis.node_count then Analysis.location_of dist c
          else machine
        in
        if target <> machine then
          if safe c then begin
            Factory.record_instance m_factory ~inst target;
            moved := (inst, c, machine, target) :: !moved;
            incr migrated
          end
          else incr left
      end)
    (Factory.instances m_factory);
  (!migrated, !left, List.rev !moved)

(* Per-instance migration events, after the aggregate event. *)
let log_migrations t ~at_int moved =
  List.iter
    (fun (inst, c, machine, target) ->
      if t.logging then t.logger.Logger.log
        (Event.Instance_migrated
           {
             at_us = at_int;
             inst;
             classification = c;
             from_loc = Constraints.location_name machine;
             to_loc = Constraints.location_name target;
           }))
    moved

(* --- routing: one engine for retry-only, resilience and the pool ---- *)

let route_shape r = (Fallback.pool_rung_at r.r_config.fc_ladder r.r_rung).Fallback.pr_shape

(* Shard serving a classification: the dynamic table where it speaks,
   shard 0 for anything outside it (main, run-time classifications,
   instances stranded server-side by an unsafe migration). *)
let route_shard r c =
  let s =
    if c >= 0 && c < Array.length r.r_shard_of && r.r_shard_of.(c) >= 0 then r.r_shard_of.(c)
    else 0
  in
  if s < Array.length r.r_active then s else 0

let route_host r c = r.r_active.(route_shard r c)

(* The host link a call rides, or -1 when its endpoints share a host:
   the server-side endpoint's active host; for server-to-server
   traffic, the callee's. With one host this is exactly [src <> dst].
   An int, not an option: every intercepted call asks, and the local
   answer must not allocate. *)
let route_link r ~src ~dst ~caller_cls ~callee_cls =
  match (src, dst) with
  | Constraints.Client, Constraints.Client -> -1
  | _, Constraints.Server ->
      let h = route_host r callee_cls in
      if src = Constraints.Server && route_host r caller_cls = h then -1 else h
  | Constraints.Server, Constraints.Client -> route_host r caller_cls

(* Span arguments naming the link, on routes with more than one. *)
let with_host r h args =
  if Array.length r.r_health > 1 then ("host", Jsonu.Int h) :: args else args

(* Re-home every shard for the current shape: its primary host, unless
   that breaker is open and a standing replica is healthy — then the
   first healthy replica in ring order. Deterministic: shards ascend,
   replica rings are fixed by the shape. *)
let reset_actives r ~now =
  let shape = route_shape r in
  let k = shape.Pool.sh_hosts in
  Array.iteri
    (fun s _ ->
      let primary = s mod k in
      let serving =
        if Health.allows r.r_health.(primary) ~now_us:now then primary
        else if not r.r_replicated.(s) then primary
        else
          let rec pick i =
            if i >= shape.Pool.sh_replicas then primary
            else
              let h = (primary + i) mod k in
              if Health.allows r.r_health.(h) ~now_us:now then h else pick (i + 1)
          in
          pick 1
      in
      r.r_active.(s) <- serving)
    r.r_active

(* Move the route along its ladder: install the rung's distribution,
   migrate the instances the static remotability facts mark safe (the
   rest stay where they are; their calls may strand on the breaker),
   and re-home every shard onto the new host count. Events: the
   aggregate Failover/Failback first, then Pool_resized when the host
   count changed, then the per-instance migrations. *)
let switch_rung t factory r ~to_rung ~at_us =
  let from_rung = r.r_rung in
  let pr = Fallback.pool_rung_at r.r_config.fc_ladder to_rung in
  let from_hosts = (route_shape r).Pool.sh_hosts in
  let to_hosts = pr.Fallback.pr_shape.Pool.sh_hosts in
  let safe c = c >= 0 && c < Array.length r.r_safe && r.r_safe.(c) in
  let migrated, left, moved =
    migrate_instances t factory ~safe ~dist:pr.Fallback.pr_distribution
  in
  r.r_rung <- to_rung;
  r.r_migrations <- r.r_migrations + migrated;
  (match r.r_obs with
  | None -> ()
  | Some ri ->
      Metrics.inc_int ri.ri_migrations migrated;
      Metrics.set ri.ri_rung (float_of_int to_rung));
  let at_int = int_of_float at_us in
  if to_rung > from_rung then begin
    r.r_failovers <- r.r_failovers + 1;
    (match r.r_obs with None -> () | Some ri -> Metrics.inc ri.ri_failovers);
    if t.logging then t.logger.Logger.log
      (Event.Failover
         {
           at_us = at_int;
           rung = pr.Fallback.pr_name;
           from_rung;
           to_rung;
           migrated;
           stranded = left;
         });
    resil_span t ~name:"failover" ~at_us
      [
        ("from_rung", Jsonu.Int from_rung);
        ("to_rung", Jsonu.Int to_rung);
        ("migrated", Jsonu.Int migrated);
        ("stranded", Jsonu.Int left);
      ]
  end
  else begin
    r.r_failbacks <- r.r_failbacks + 1;
    (match r.r_obs with None -> () | Some ri -> Metrics.inc ri.ri_failbacks);
    if t.logging then t.logger.Logger.log
      (Event.Failback
         { at_us = at_int; rung = pr.Fallback.pr_name; from_rung; to_rung; migrated });
    resil_span t ~name:"failback" ~at_us
      [
        ("from_rung", Jsonu.Int from_rung);
        ("to_rung", Jsonu.Int to_rung);
        ("migrated", Jsonu.Int migrated);
      ]
  end;
  if from_hosts <> to_hosts then begin
    r.r_resizes <- r.r_resizes + 1;
    (match r.r_obs with
    | None -> ()
    | Some ri ->
        Metrics.inc ri.ri_resizes;
        Metrics.set ri.ri_hosts (float_of_int to_hosts));
    if t.logging then t.logger.Logger.log
      (Event.Pool_resized
         {
           at_us = at_int;
           from_hosts;
           to_hosts;
           shards = Array.length r.r_active;
           migrated;
         });
    resil_span t ~name:"pool.resize" ~at_us
      [ ("from_hosts", Jsonu.Int from_hosts); ("to_hosts", Jsonu.Int to_hosts) ]
  end;
  reset_actives r ~now:at_us;
  log_migrations t ~at_int moved

(* React to a link's breaker transition. An open promotes every shard
   the host was serving to a healthy replica; a shard with none (or one
   that may not replicate), and any open on a one-host rung, moves the
   route one rung down. A close climbs back to the top rung and
   re-homes the shards. *)
let on_transition t factory r ~host (tr : Health.transition) =
  let at_us = tr.Health.tr_at_us in
  let at_int = int_of_float at_us in
  let hb = r.r_health.(host) in
  (match r.r_obs with None -> () | Some ri -> Metrics.set ri.ri_ewma (Health.ewma hb));
  match tr.Health.tr_to with
  | Health.Half_open ->
      resil_span t ~name:"breaker.half_open" ~at_us
        (with_host r host [ ("cooloff_us", Jsonu.Float (Health.cooloff_us hb)) ])
  | Health.Open ->
      r.r_opens <- r.r_opens + 1;
      (match r.r_obs with None -> () | Some ri -> Metrics.inc ri.ri_opens);
      if t.logging then t.logger.Logger.log
        (Event.Breaker_opened
           {
             at_us = at_int;
             failures = Health.consecutive_failures hb;
             drops = t.n_drops;
             spikes = t.n_spikes;
           });
      resil_span t ~name:"breaker.open" ~at_us
        (with_host r host [ ("failures", Jsonu.Int (Health.consecutive_failures hb)) ]);
      let shape = route_shape r in
      let k = shape.Pool.sh_hosts in
      let stuck = ref (k = 1) in
      if k > 1 then
        Array.iteri
          (fun s serving ->
            if serving = host then
              if not r.r_replicated.(s) then stuck := true
              else begin
                let primary = s mod k in
                let rec pick i =
                  if i >= shape.Pool.sh_replicas then None
                  else
                    let h = (primary + i) mod k in
                    if h <> host && Health.allows r.r_health.(h) ~now_us:at_us then Some h
                    else pick (i + 1)
                in
                match pick 0 with
                | Some h ->
                    r.r_active.(s) <- h;
                    r.r_promotions <- r.r_promotions + 1;
                    (match r.r_obs with None -> () | Some ri -> Metrics.inc ri.ri_promotions);
                    if t.logging then t.logger.Logger.log
                      (Event.Replica_promoted
                         { at_us = at_int; shard = s; from_host = host; to_host = h });
                    resil_span t ~name:"replica.promote" ~at_us
                      [
                        ("shard", Jsonu.Int s);
                        ("from_host", Jsonu.Int host);
                        ("to_host", Jsonu.Int h);
                      ]
                | None -> stuck := true
              end)
          r.r_active;
      if !stuck then begin
        let bottom = Fallback.pool_rung_count r.r_config.fc_ladder - 1 in
        let next = min (r.r_rung + 1) bottom in
        if next <> r.r_rung then switch_rung t factory r ~to_rung:next ~at_us
      end
  | Health.Closed ->
      r.r_closes <- r.r_closes + 1;
      (match r.r_obs with None -> () | Some ri -> Metrics.inc ri.ri_closes);
      if t.logging then t.logger.Logger.log
        (Event.Breaker_closed
           { at_us = at_int; probes = (Health.policy hb).Health.hp_probe_successes });
      resil_span t ~name:"breaker.close" ~at_us (with_host r host []);
      if r.r_rung <> 0 then switch_rung t factory r ~to_rung:0 ~at_us
      else reset_actives r ~now:at_us

(* Deterministic hot-shard check: when one shard carries more than
   [fc_split_share] of the window's decayed remote-call mass and holds
   at least two components, carve off the upper half of its movable
   (migration-safe) components into a fresh shard on the least-loaded
   host. Pure arithmetic over the window snapshot — no randomness. *)
let maybe_split t r ~now =
  let shape = route_shape r in
  let k = shape.Pool.sh_hosts in
  if k > 1 then begin
    let shard_count = Array.length r.r_active in
    let counts = Window.counts_at r.r_window ~now_us:now in
    let extras = Window.extras_at r.r_window ~now_us:now in
    let load = Array.make shard_count 0. in
    Array.iteri (fun s c -> if s < shard_count then load.(s) <- c) counts;
    List.iter
      (fun ((a, b), c) -> if a = b && a >= 0 && a < shard_count then load.(a) <- load.(a) +. c)
      extras;
    let total = Array.fold_left ( +. ) 0. load in
    if total > 0. then begin
      let top = ref 0 in
      Array.iteri (fun s l -> if l > load.(!top) then top := s) load;
      if load.(!top) /. total > r.r_config.fc_split_share then begin
        let s_top = !top in
        (* Components currently in the hot shard, ascending representative. *)
        let reps = Hashtbl.create 8 in
        Array.iteri
          (fun c sh -> if sh = s_top then Hashtbl.replace reps r.r_component.(c) ())
          r.r_shard_of;
        let all = List.sort compare (Hashtbl.fold (fun rep () acc -> rep :: acc) reps []) in
        let movable = List.filter (fun rep -> r.r_comp_safe.(rep)) all in
        let half = List.length movable / 2 in
        let keep_at_least_one = List.length all - half >= 1 in
        if List.length all >= 2 && half >= 1 && keep_at_least_one then begin
          let moving =
            List.filteri (fun i _ -> i >= List.length movable - half) movable
          in
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
          r.r_active.(new_shard) <- to_host;
          r.r_splits <- r.r_splits + 1;
          (match r.r_obs with
          | None -> ()
          | Some ri ->
              Metrics.inc ri.ri_splits;
              Metrics.set ri.ri_shards (float_of_int (Array.length r.r_active)));
          if t.logging then t.logger.Logger.log
            (Event.Shard_split
               {
                 at_us = int_of_float now;
                 shard = s_top;
                 new_shard;
                 moved = !moved;
                 to_host;
               });
          resil_span t ~name:"shard.split" ~at_us:now
            [
              ("shard", Jsonu.Int s_top);
              ("new_shard", Jsonu.Int new_shard);
              ("moved", Jsonu.Int !moved);
              ("to_host", Jsonu.Int to_host);
            ]
        end
      end
    end
  end

(* Feed one served remote call into the per-shard load window; check
   for a hot shard every [fc_check_every] observations. Skipped
   entirely on a one-host rung. *)
let observe_load t r ~callee_cls ~bytes =
  if (route_shape r).Pool.sh_hosts > 1 then begin
    let now = sim_now t in
    let s = route_shard r callee_cls in
    Window.observe r.r_window ~at_us:now ~caller:s ~callee:s ~bytes;
    r.r_since_check <- r.r_since_check + 1;
    if r.r_since_check >= r.r_config.fc_check_every then begin
      r.r_since_check <- 0;
      maybe_split t r ~now
    end
  end

(* One simulated round trip over host link [link] with its full fault
   accounting — the same instructions under every route, so a
   fault-free run is bit-identical whatever policy watches the outcome.
   Virtual send time: communication so far plus the compute the
   application has charged — the clock fault windows are expressed
   against. *)
let round_trip t m ~link ~request ~reply ~iface ~mname =
  let jittered base =
    if m.m_jitter = 0. then base
    else Float.max 0. (Prng.gaussian m.m_rng ~mu:base ~sigma:(m.m_jitter *. base))
  in
  let oc =
    Fault.call ?model:m.m_route.r_faults.(link) ~retry:m.m_retry ~rng:m.m_retry_rng
      ~now_us:(sim_now t) ~request_bytes:request ~reply_bytes:reply
      ~request_us:(fun () -> jittered (Network.message_us m.m_network ~bytes:request))
      ~reply_us:(fun () -> jittered (Network.message_us m.m_network ~bytes:reply))
      ()
  in
  t.comm <- t.comm +. oc.Fault.oc_time_us;
  t.n_retries <- t.n_retries + oc.Fault.oc_retries;
  t.n_drops <- t.n_drops + oc.Fault.oc_drops;
  t.n_spikes <- t.n_spikes + oc.Fault.oc_spikes;
  t.fault_us <- t.fault_us +. oc.Fault.oc_fault_us;
  (match t.obs with
  | None -> ()
  | Some i ->
      Metrics.inc ~by:oc.Fault.oc_time_us i.i_comm_us;
      Metrics.inc_int i.i_retries oc.Fault.oc_retries;
      Metrics.inc_int i.i_drops oc.Fault.oc_drops;
      Metrics.inc_int i.i_spikes oc.Fault.oc_spikes;
      Metrics.inc ~by:oc.Fault.oc_fault_us i.i_fault_us);
  if oc.Fault.oc_retries > 0 && oc.Fault.oc_ok then
    if t.logging then t.logger.Logger.log
      (Event.Call_retried { iface; meth = mname; retries = oc.Fault.oc_retries });
  oc

(* Advance the link's breaker to [now]; whether it admits a call. *)
let admits t factory r ~link ~now =
  let hb = r.r_health.(link) in
  (match Health.observe hb ~now_us:now with
  | Some tr -> on_transition t factory r ~host:link tr
  | None -> ());
  Health.allows hb ~now_us:now

(* Feed a round trip's outcome to the link's breaker. *)
let record_outcome t factory r ~link ok =
  let hb = r.r_health.(link) in
  let now = sim_now t in
  (match
     if ok then Health.record_success hb ~now_us:now else Health.record_failure hb ~now_us:now
   with
  | Some tr -> on_transition t factory r ~host:link tr
  | None -> ());
  match r.r_obs with None -> () | Some ri -> Metrics.set ri.ri_ewma (Health.ewma hb)

let count_remote t ~bytes =
  t.n_remote_calls <- t.n_remote_calls + 1;
  t.n_remote_bytes <- t.n_remote_bytes + bytes;
  match t.obs with
  | None -> ()
  | Some i ->
      Metrics.inc i.i_remote_calls;
      Metrics.inc_int i.i_remote_bytes bytes

(* Route one call whose endpoints sit on different hosts. Failures feed
   the link's breaker; a transition may promote replicas or move the
   route along its ladder, after which the link is re-read — the call
   may then complete locally (the underlying [Runtime.call] already
   ran; the fault model only decides whether the communication made
   it), on a promoted replica, or on the shrunken pool. Calls meeting
   an open breaker are stranded: they wait out the cooloff and become
   the half-open probe. After [fc_max_probe_rounds] failed rounds the
   call is unreachable. *)
let route_call t m ~caller ~callee ~caller_cls ~callee_cls ~request ~reply ~iface ~mname =
  let r = m.m_route in
  let rounds = ref 0 and stranded = ref false in
  let rec go () =
    let src = Factory.machine_of m.m_factory caller in
    let dst = Factory.machine_of m.m_factory callee in
    let link = route_link r ~src ~dst ~caller_cls ~callee_cls in
    if link < 0 then begin
      if !rounds > 0 then begin
        r.r_rescued <- r.r_rescued + 1;
        match r.r_obs with None -> () | Some ri -> Metrics.inc ri.ri_rescued
      end
    end
    else begin
      let now = sim_now t in
      if not (admits t m.m_factory r ~link ~now) then begin
        if not !stranded then begin
          stranded := true;
          r.r_stranded <- r.r_stranded + 1;
          match r.r_obs with None -> () | Some ri -> Metrics.inc ri.ri_stranded
        end;
        let wait = Health.cooloff_expires_at r.r_health.(link) -. now in
        t.comm <- t.comm +. wait;
        t.fault_us <- t.fault_us +. wait;
        (match t.obs with
        | None -> ()
        | Some i ->
            Metrics.inc ~by:wait i.i_comm_us;
            Metrics.inc ~by:wait i.i_fault_us);
        (match r.r_obs with None -> () | Some ri -> Metrics.inc ~by:wait ri.ri_wait_us);
        go ()
      end
      else if !rounds >= r.r_config.fc_max_probe_rounds then begin
        t.n_unreachable <- t.n_unreachable + 1;
        (match t.obs with None -> () | Some i -> Metrics.inc i.i_unreachable);
        Hresult.fail
          (Hresult.E_unreachable
             (Printf.sprintf "%s.%s: no reply from %s after %d attempts" iface mname
                (Constraints.location_name dst)
                (max 1 m.m_retry.Fault.rp_max_attempts)))
      end
      else begin
        let oc = round_trip t m ~link ~request ~reply ~iface ~mname in
        (match t.obs with
        | None -> ()
        | Some i ->
            Metrics.observe i.i_request_bytes request;
            Metrics.observe i.i_reply_bytes reply);
        record_outcome t m.m_factory r ~link oc.Fault.oc_ok;
        if oc.Fault.oc_ok then begin
          count_remote t ~bytes:(request + reply);
          if src = Constraints.Server && dst = Constraints.Server then begin
            r.r_inter_host <- r.r_inter_host + 1;
            match r.r_obs with None -> () | Some ri -> Metrics.inc ri.ri_inter_host
          end;
          if dst = Constraints.Server then observe_load t r ~callee_cls ~bytes:(request + reply)
        end
        else begin
          incr rounds;
          go ()
        end
      end
    end
  in
  go ()

(* Forward an instantiation request to the peer factory over the link
   the new instance's shard lives on (the creator's when the request
   travels pool-to-client): one round trip, the request plus the
   marshaled object reference coming back. Graceful degradation: when
   the peer never answers — or the breaker is open, and no
   communication is spent on a link known to be down — the instance is
   placed with its creator, the factory's co-location default, instead
   of failing the instantiation. A failure may have tripped the breaker
   and switched rungs, so the creator's machine is re-read. *)
let forward_create t m ~creator ~classification ~cname ~machine =
  let r = m.m_route in
  let request = Marshal_size.scalar_overhead + (2 * 16) in
  let reply = Marshal_size.scalar_overhead + Marshal_size.objref_size in
  let link =
    route_host r
      (if machine = Constraints.Server then classification else classification_of t creator)
  in
  let ok =
    admits t m.m_factory r ~link ~now:(sim_now t)
    && begin
         let oc =
           round_trip t m ~link ~request ~reply ~iface:"ICoCreateInstance" ~mname:"create"
         in
         record_outcome t m.m_factory r ~link oc.Fault.oc_ok;
         oc.Fault.oc_ok
       end
  in
  if ok then begin
    count_remote t ~bytes:(request + reply);
    machine
  end
  else begin
    t.n_fallbacks <- t.n_fallbacks + 1;
    (match t.obs with None -> () | Some i -> Metrics.inc i.i_fallbacks);
    if t.logging then t.logger.Logger.log (Event.Instantiation_degraded { cname; classification });
    Factory.machine_of m.m_factory creator
  end

(* The window said usage drifted: re-price the profiled graph with the
   window's per-pair volumes, validate the candidate cut, and — when it
   differs from the installed one — atomically switch the factory and
   migrate the statically-safe instances. Either way the window
   snapshot becomes the new comparison baseline, so similarity snaps
   back to 1 and the loop cannot flap on the same shift. *)
let watch_repartition t m_factory w ~now ~similarity =
  let cfg = w.w_config in
  let adopt_baseline () =
    w.w_baseline <- Window.signature_at w.w_window ~now_us:now;
    w.w_baseline_bytes <- Window.byte_signature_at w.w_window ~now_us:now;
    w.w_last_switch_us <- now
  in
  let counts = Window.counts_at w.w_window ~now_us:now in
  let win_total = Window.total_at w.w_window ~now_us:now in
  let bytes = Window.bytes_at w.w_window ~now_us:now in
  let byte_total = Window.byte_total_at w.w_window ~now_us:now in
  for p = 0 to Array.length w.w_scale.Icc_graph.sc_messages - 1 do
    let ms = counts.(p) /. win_total /. w.w_prof_share.(p) in
    w.w_scale.Icc_graph.sc_messages.(p) <- ms;
    (* Pairs the profile priced by count alone (no measured bytes), or
       a window that has not yet seen a remote payload, fall back to
       the message multiplier: the byte dimension carries no signal. *)
    w.w_scale.Icc_graph.sc_bytes.(p) <-
      (if byte_total = 0. || w.w_prof_byte_share.(p) = 0. then ms
       else bytes.(p) /. byte_total /. w.w_prof_byte_share.(p))
  done;
  let candidate = Analysis.Session.solve cfg.wc_session ~scale:w.w_scale ~net:cfg.wc_net in
  let violations =
    Analysis.validate
      ~classifier:(Analysis.Session.classifier cfg.wc_session)
      ~constraints:(Analysis.Session.constraints cfg.wc_session)
      candidate
  in
  if violations <> [] then begin
    (* Cannot happen for a cut the session itself computed (the
       constraint edges are infinite), but the lint gate is cheap and
       keeps a bad candidate from ever reaching the factory. *)
    w.w_rejected <- w.w_rejected + 1;
    (match w.w_obs with None -> () | Some wi -> Metrics.inc wi.wi_rejected);
    w.w_last_switch_us <- now;
    W_rejected (List.length violations)
  end
  else if candidate.Analysis.placement = w.w_current.Analysis.placement then begin
    w.w_unchanged <- w.w_unchanged + 1;
    (match w.w_obs with None -> () | Some wi -> Metrics.inc wi.wi_unchanged);
    adopt_baseline ();
    W_unchanged
  end
  else begin
    let from_servers = w.w_current.Analysis.server_count in
    let migrated, left, moved =
      migrate_instances t m_factory
        ~safe:(fun c -> c >= 0 && c < Array.length w.w_safe && w.w_safe.(c))
        ~dist:candidate
    in
    w.w_repartitions <- w.w_repartitions + 1;
    w.w_migrations <- w.w_migrations + migrated;
    (match w.w_obs with
    | None -> ()
    | Some wi ->
        Metrics.inc wi.wi_repartitions;
        Metrics.inc_int wi.wi_migrations migrated);
    let at_int = int_of_float now in
    if t.logging then t.logger.Logger.log
      (Event.Repartitioned
         {
           at_us = at_int;
           similarity;
           from_servers;
           to_servers = candidate.Analysis.server_count;
           migrated;
           left;
         });
    watch_span t ~name:"repartition" ~at_us:now
      [
        ("similarity", Jsonu.Float similarity);
        ("migrated", Jsonu.Int migrated);
        ("left", Jsonu.Int left);
        ("servers", Jsonu.Int candidate.Analysis.server_count);
      ];
    log_migrations t ~at_int moved;
    w.w_current <- candidate;
    adopt_baseline ();
    W_repartitioned
      { wa_migrated = migrated; wa_left = left; wa_servers = candidate.Analysis.server_count }
  end

(* One drift check on the virtual clock: compare the decayed window
   signature against the adopted baseline; below the threshold — with
   enough evidence in the window and outside the dwell period — re-cut. *)
let watch_check t m_factory w ~now =
  let cfg = w.w_config in
  w.w_checks <- w.w_checks + 1;
  let signature = Window.signature_at w.w_window ~now_us:now in
  (* Drift in either dimension is drift: a usage shift that keeps the
     call mix but fattens payloads only moves the byte signature. The
     byte dimension is built from the tap's subsample, so it only
     speaks once enough sampled sizes back it. *)
  let count_sim = Drift.similarity w.w_baseline signature in
  let similarity =
    if float_of_int (Window.byte_observed w.w_window) < cfg.wc_min_window then count_sim
    else
      Float.min count_sim
        (Drift.similarity w.w_baseline_bytes
           (Window.byte_signature_at w.w_window ~now_us:now))
  in
  let window_pairs = Drift.pair_count signature in
  let mass = Window.total_at w.w_window ~now_us:now in
  w.w_last_similarity <- similarity;
  (match w.w_obs with
  | None -> ()
  | Some wi ->
      Metrics.inc wi.wi_checks;
      Metrics.set wi.wi_similarity similarity;
      Metrics.set wi.wi_window_pairs (float_of_int window_pairs);
      Metrics.set wi.wi_window_mass mass);
  let drifted =
    similarity < cfg.wc_threshold
    && mass >= cfg.wc_min_window
    && now -. w.w_last_switch_us >= cfg.wc_min_dwell_us
  in
  let action =
    if not drifted then W_steady
    else begin
      w.w_detections <- w.w_detections + 1;
      (match w.w_obs with None -> () | Some wi -> Metrics.inc wi.wi_detections);
      if t.logging then t.logger.Logger.log
        (Event.Drift_detected
           { at_us = int_of_float now; similarity; threshold = cfg.wc_threshold; window_pairs });
      watch_span t ~name:"drift" ~at_us:now
        [
          ("similarity", Jsonu.Float similarity);
          ("threshold", Jsonu.Float cfg.wc_threshold);
          ("window_pairs", Jsonu.Int window_pairs);
        ];
      watch_repartition t m_factory w ~now ~similarity
    end
  in
  w.w_timeline <-
    { wk_at_us = now; wk_similarity = similarity; wk_window_pairs = window_pairs;
      wk_action = action }
    :: w.w_timeline

(* Feed one observation into the window (and the tap's sink, when one
   is attached), and run a drift check every [wc_check_every]
   observations. Counts are exact — every observation lands in the
   window — but message sizes are walked only for the tap's seeded
   1-in-k subsample ([measure] runs solely for selected observations),
   local and remote calls alike, so the window's per-pair byte shares
   estimate the full traffic without per-call measurement cost.
   Called before the observed call is routed, so a re-cut applies to
   the very call that triggered it — the staleness bound. *)
let watch_observe t m_factory w ~kind ~caller_cls ~callee_cls ~measure =
  let now = sim_now t in
  let bytes =
    if Tap.accept w.w_tap then begin
      let b = measure () in
      Tap.emit w.w_tap
        {
          Tap.ob_at_us = now;
          ob_kind = kind;
          ob_caller = caller_cls;
          ob_callee = callee_cls;
          ob_bytes = b;
        };
      b
    end
    else 0
  in
  Window.observe w.w_window ~at_us:now ~caller:caller_cls ~callee:callee_cls ~bytes;
  w.w_since_check <- w.w_since_check + 1;
  if w.w_since_check >= w.w_config.wc_check_every then begin
    w.w_since_check <- 0;
    watch_check t m_factory w ~now
  end

(* Mint (or reuse) the Coign-instrumented wrapper for a raw handle. *)
let rec wrap t raw_h =
  if Runtime.handle_is_wrapper t.ctx raw_h then raw_h
  else
    let known = slot t.raw_to_wrap raw_h in
    if known >= 0 then known
    else begin
      let itype = Runtime.handle_itype t.ctx raw_h in
      let owner = Runtime.handle_owner t.ctx raw_h in
      let w =
        {
          w_raw = raw_h;
          w_itype = itype;
          w_owner = owner;
          w_iface = Icc.intern t.rte_icc (Itype.name itype);
          w_frames = Array.make (Itype.method_count itype) unbuilt_frame;
        }
      in
      let h =
        Runtime.alloc_foreign_handle t.ctx ~owner ~itype ~wrapper:true (fun _ctx ~meth args ->
            intercept t w ~meth args)
      in
      t.raw_to_wrap <- store t.raw_to_wrap raw_h h;
      t.wrap_to_raw <- store t.wrap_to_raw h raw_h;
      if t.logging then
        t.logger.Logger.log
          (Event.Interface_instantiated { owner; iface = Itype.name itype; handle = h });
      h
    end

and intercept t w ~meth args =
  match t.obs_tracer with
  | None -> intercept_run t w ~meth args
  | Some tr ->
      let caller = (Shadow_stack.top_or t.stack root_frame).Frame.f_inst in
      let msig = Itype.method_sig w.w_itype meth in
      let id =
        Trace.open_span tr
          ~name:(Itype.name w.w_itype ^ "." ^ msig.Idl_type.mname)
          ~cat:"call" ~at_us:(sim_now t)
      in
      let span_args = [ ("caller", Jsonu.Int caller); ("callee", Jsonu.Int w.w_owner) ] in
      (match intercept_run t w ~meth args with
      | result ->
          Trace.close_span tr ~args:span_args id ~at_us:(sim_now t);
          result
      | exception e ->
          Trace.close_span tr
            ~args:(span_args @ [ ("error", Jsonu.Str (Printexc.to_string e)) ])
            id ~at_us:(sim_now t);
          raise e)

(* The frame a call through [w] pushes: cached per method, rebuilt when
   the owner's classification is not the one it was built with. *)
and frame_for t w ~meth classification =
  let f = w.w_frames.(meth) in
  if f.Frame.f_classification = classification then f
  else begin
    let cls = Runtime.instance_class_name t.ctx w.w_owner in
    let iface = Itype.name w.w_itype in
    let mname = (Itype.method_sig w.w_itype meth).Idl_type.mname in
    let site =
      if f == unbuilt_frame then Classifier.site t.memo ~cls ~iface ~meth:mname
      else f.Frame.f_site
    in
    let f =
      Frame.make_site ~site ~inst:w.w_owner ~cls ~classification ~iface ~meth:mname
    in
    w.w_frames.(meth) <- f;
    f
  end

(* The per-call path. The caller and its classification come off the
   top frame (the root frame for the main program): a frame's
   classification is the one its instance had when the frame was
   pushed, and an instance's frames have all popped by the time its
   creation assigns it one. *)
and intercept_run t w ~meth args =
  let top = Shadow_stack.top_or t.stack root_frame in
  let caller = top.Frame.f_inst and caller_cls = top.Frame.f_classification in
  let callee = w.w_owner in
  let callee_cls = classification_of t callee in
  let frame = frame_for t w ~meth callee_cls in
  Shadow_stack.push t.stack frame;
  let result =
    match Runtime.call t.ctx w.w_raw ~meth args with
    | result ->
        Shadow_stack.pop t.stack;
        result
    | exception e ->
        Shadow_stack.pop t.stack;
        raise e
  in
  let outs, ret = result in
  let itype = w.w_itype in
  t.n_intercepted <- t.n_intercepted + 1;
  (match t.obs with None -> () | Some i -> Metrics.inc i.i_intercepted);
  Int_table.add_to t.pair_counts (pair_key caller_cls callee_cls) 1;
  (match t.mode with
  | M_profiling ->
      let sizes = Informer.measure_call itype ~meth ~ins:args ~outs ~ret in
      let request = sizes.Informer.request_bytes and reply = sizes.Informer.reply_bytes in
      (match t.obs with
      | None -> ()
      | Some i ->
          Metrics.observe i.i_request_bytes request;
          Metrics.observe i.i_reply_bytes reply);
      Icc.record_interned t.rte_icc ~src:caller_cls ~dst:callee_cls w.w_iface
        ~remotable:sizes.Informer.remotable ~request ~reply;
      Inst_comm.record_call t.rte_inst_comm ~caller ~callee ~request ~reply;
      if t.logging then
        t.logger.Logger.log
          (Event.Interface_call
             {
               caller;
               caller_classification = caller_cls;
               callee;
               callee_classification = callee_cls;
               iface = frame.Frame.f_iface;
               meth = frame.Frame.f_meth;
               remotable = sizes.Informer.remotable;
               request_bytes = request;
               reply_bytes = reply;
             })
  | M_distributed m ->
      (match m.m_watch with
      | None -> ()
      | Some w ->
          watch_observe t m.m_factory w ~kind:Tap.Call ~caller_cls ~callee_cls
            ~measure:(fun () ->
              let sizes = Informer.measure_call itype ~meth ~ins:args ~outs ~ret in
              sizes.Informer.request_bytes + sizes.Informer.reply_bytes));
      let src = Factory.machine_of m.m_factory caller in
      let dst = Factory.machine_of m.m_factory callee in
      if route_link m.m_route ~src ~dst ~caller_cls ~callee_cls >= 0 then begin
        let sizes = Informer.measure_call itype ~meth ~ins:args ~outs ~ret in
        if not sizes.Informer.remotable then
          Hresult.fail
            (Hresult.E_cannot_marshal
               (Printf.sprintf "cross-machine call on non-remotable %s.%s" frame.Frame.f_iface
                  frame.Frame.f_meth));
        route_call t m ~caller ~callee ~caller_cls ~callee_cls
          ~request:sizes.Informer.request_bytes ~reply:sizes.Informer.reply_bytes
          ~iface:frame.Frame.f_iface ~mname:frame.Frame.f_meth
      end);
  (* Keep every escaping interface pointer wrapped — but only walk the
     reply when the method can actually output interface pointers (the
     distribution informer's "examine parameters only enough to
     identify interface pointers"; most methods skip the walk
     entirely). *)
  if (Itype.procs itype meth).Midl.may_output_ifaces then begin
    let rewrap v = Value.map_iface_handles (fun h -> wrap t h) v in
    (List.map rewrap outs, rewrap ret)
  end
  else result

(* The instantiation request as an ICC entry: a fixed-size round trip
   from the creator, priced whether or not it ends up crossing. *)
let create_request_bytes = Marshal_size.scalar_overhead + (2 * 16)
let create_reply_bytes = Marshal_size.scalar_overhead + Marshal_size.objref_size

let rec on_create t (req : Runtime.create_request) =
  match t.obs_tracer with
  | None -> on_create_run t req
  | Some tr ->
      let cname = req.Runtime.req_class.Runtime.cname in
      let id = Trace.open_span tr ~name:cname ~cat:"create" ~at_us:(sim_now t) in
      (match on_create_run t req with
      | h ->
          let inst = Runtime.handle_owner t.ctx h in
          Trace.close_span tr
            ~args:
              [
                ("inst", Jsonu.Int inst);
                ("classification", Jsonu.Int (classification_of t inst));
              ]
            id ~at_us:(sim_now t);
          h
      | exception e ->
          Trace.close_span tr
            ~args:[ ("error", Jsonu.Str (Printexc.to_string e)) ]
            id ~at_us:(sim_now t);
          raise e)

and on_create_run t (req : Runtime.create_request) =
  let cname = req.Runtime.req_class.Runtime.cname in
  let classification = Classifier.classify_memo t.memo ~cname t.stack in
  let top = Shadow_stack.top_or t.stack root_frame in
  let creator = top.Frame.f_inst and creator_cls = top.Frame.f_classification in
  (match t.mode with
  | M_profiling -> ()
  | M_distributed m ->
      (match m.m_watch with
      | None -> ()
      | Some w ->
          (* An instantiation request costs a fixed-size round trip
             (see [forward_create]) whether or not it crosses machines;
             that pair of messages is its measured size. *)
          watch_observe t m.m_factory w ~kind:Tap.Create ~caller_cls:creator_cls
            ~callee_cls:classification
            ~measure:(fun () -> create_request_bytes + create_reply_bytes));
      let creator_machine = Factory.machine_of m.m_factory creator in
      let machine = Factory.decide m.m_factory ~classification ~cname ~creator_machine in
      let machine =
        if machine = creator_machine then machine
        else forward_create t m ~creator ~classification ~cname ~machine
      in
      (* Record the machine under the instance id we are about to
         allocate; ids are dense so the next instance gets the current
         count. *)
      Factory.record_instance m.m_factory ~inst:(Runtime.instance_count t.ctx) machine);
  let raw = Runtime.raw_create_instance t.ctx req.Runtime.req_clsid ~iid:req.Runtime.req_iid in
  let inst = Runtime.handle_owner t.ctx raw in
  t.classifications <- store t.classifications inst classification;
  t.created <- inst :: t.created;
  (match t.obs with None -> () | Some i -> Metrics.inc i.i_instantiations);
  if t.logging then
    t.logger.Logger.log (Event.Component_instantiated { inst; cname; classification; creator });
  (* The instantiation request itself is communication: if creator and
     instance end up on different machines, the factory pays a round
     trip. Record it so the analysis engine prices relocated
     instantiations (and Table 5's model covers them). *)
  (match t.mode with
  | M_profiling ->
      Icc.record_interned t.rte_icc ~src:creator_cls ~dst:classification t.create_iface
        ~remotable:true ~request:create_request_bytes ~reply:create_reply_bytes;
      Inst_comm.record_call t.rte_inst_comm ~caller:creator ~callee:inst
        ~request:create_request_bytes ~reply:create_reply_bytes;
      if t.logging then
        t.logger.Logger.log
          (Event.Interface_call
             {
               caller = creator;
               caller_classification = creator_cls;
               callee = inst;
               callee_classification = classification;
               iface = "ICoCreateInstance";
               meth = "create";
               remotable = true;
               request_bytes = create_request_bytes;
               reply_bytes = create_reply_bytes;
             })
  | M_distributed _ -> ());
  wrap t raw

let on_query t h ~iid =
  let raw = slot t.wrap_to_raw h in
  wrap t (Runtime.raw_query_interface t.ctx (if raw >= 0 then raw else h) ~iid)

let on_destroy t inst = if t.logging then t.logger.Logger.log (Event.Component_destroyed { inst })

let install ?(loggers = []) ?tracer ?metrics ~classifier ~mode ctx =
  let rte_icc = Icc.create () in
  let t =
    {
      ctx;
      rte_classifier = classifier;
      memo = Classifier.memo classifier;
      stack = Shadow_stack.create ();
      logger = (match loggers with [] -> Logger.null | _ -> Logger.tee loggers);
      logging = loggers <> [];
      rte_icc;
      rte_inst_comm = Inst_comm.create ();
      create_iface = Icc.intern rte_icc "ICoCreateInstance";
      classifications = Array.make 256 (-1);
      raw_to_wrap = Array.make 256 (-1);
      wrap_to_raw = Array.make 256 (-1);
      mode;
      created = [];
      comm = 0.;
      n_remote_calls = 0;
      n_remote_bytes = 0;
      n_intercepted = 0;
      n_retries = 0;
      n_drops = 0;
      n_spikes = 0;
      n_fallbacks = 0;
      n_unreachable = 0;
      fault_us = 0.;
      pair_counts = Int_table.create ~absent:0 256;
      obs_tracer = tracer;
      obs = Option.map make_instruments metrics;
    }
  in
  Runtime.set_create_hook ctx (Some (on_create t));
  Runtime.set_query_hook ctx (Some (on_query t));
  Runtime.set_destroy_hook ctx (Some (on_destroy t));
  t

let install_profiling ?loggers ?tracer ?metrics ~classifier ctx =
  install ?loggers ?tracer ?metrics ~classifier ~mode:M_profiling ctx

(* Build a route over a pool ladder: one breaker and one fault model
   per host link of the widest rung (rung 0). A link's fault spec is
   its host overlay, else the global [dc_faults]. A one-host route
   draws its verdicts from the global model's stream 2 unless an
   overlay is given, so retry-only, two-host resilience and a pool of
   one see the same fault schedule; an overlay, and every host of a
   wider pool, draws from stream [8 + host]. *)
let create_route ?metrics ~pool ~seed ~faults fc =
  let pl = fc.fc_ladder in
  let rung0 = Fallback.pool_rung_at pl 0 in
  let hosts = rung0.Fallback.pr_shape.Pool.sh_hosts in
  let safe = Fallback.migration_safety_table (Fallback.pool_base pl) in
  let component = Fallback.pool_components pl in
  let comp_safe = Array.make (max 1 (Array.length component)) true in
  Array.iteri
    (fun c rep -> if not (c < Array.length safe && safe.(c)) then comp_safe.(rep) <- false)
    component;
  let shard_count = rung0.Fallback.pr_shard_count in
  let link_model h =
    let spec, stream =
      match List.assoc_opt h fc.fc_host_faults with
      | Some sp -> (Some sp, host_fault_seed seed h)
      | None -> (faults, if hosts = 1 then fault_seed seed else host_fault_seed seed h)
    in
    Option.map (Fault.make ~seed:stream) spec
  in
  let obs =
    Option.map
      (fun reg ->
        let ri =
          make_route_instruments reg
            ~pool_reg:(if hosts > 1 then reg else Metrics.registry ())
        in
        Metrics.set ri.ri_hosts (float_of_int hosts);
        Metrics.set ri.ri_shards (float_of_int shard_count);
        ri)
      metrics
  in
  {
    r_config = fc;
    r_pool = pool;
    r_health = Array.init hosts (fun _ -> Health.create ~policy:fc.fc_health ());
    r_faults = Array.init hosts link_model;
    r_obs = obs;
    r_safe = safe;
    r_component = component;
    r_comp_safe = comp_safe;
    r_window =
      Window.create ~half_life_us:fc.fc_half_life_us
        ~pairs:(Array.init shard_count (fun s -> (s, s)));
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
  }

(* The retry-only route: one host, one rung that places nothing, and a
   breaker that never opens, so the route never leaves the installed
   factory policy and a call gets exactly one round of retries. *)
let retry_only =
  fleet ~max_probe_rounds:1
    ~health:{ Health.default_policy with Health.hp_failure_threshold = max_int }
    (Fallback.single_host
       (Fallback.of_rungs ~migration_safe:[||]
          [
            {
              Fallback.rg_name = "static";
              rg_distribution =
                {
                  Analysis.placement = [||];
                  cut_ns = 0;
                  predicted_comm_us = 0.;
                  server_count = 0;
                  node_count = 0;
                  algorithm = Coign_flowgraph.Mincut.Dinic;
                };
            };
          ]))

let install_distributed ?loggers ?tracer ?metrics ~classifier ~config ctx =
  (match (config.dc_watch, config.dc_resilience) with
  | Some _, Some _ ->
      (* Both layers drive the factory policy; arbitrating between a
         failover rung and a freshly-cut placement is out of scope. *)
      invalid_arg "Rte.install_distributed: dc_watch and dc_resilience cannot be combined"
  | _ -> ());
  (match (config.dc_fleet, config.dc_resilience, config.dc_watch) with
  | Some _, Some _, _ ->
      invalid_arg "Rte.install_distributed: dc_fleet and dc_resilience cannot be combined"
  | Some _, _, Some _ ->
      invalid_arg "Rte.install_distributed: dc_fleet and dc_watch cannot be combined"
  | _ -> ());
  (* The main program lives on the client. *)
  let factory = Factory.create ?metrics config.dc_factory_policy in
  Factory.record_instance factory ~inst:Runtime.main_instance Constraints.Client;
  let watch_state =
    Option.map
      (fun wc ->
        let dist =
          match config.dc_factory_policy with
          | Factory.By_classification d -> d
          | _ ->
              invalid_arg
                "Rte.install_distributed: dc_watch requires a By_classification policy"
        in
        let graph = Analysis.Session.graph wc.wc_session in
        let main = Icc_graph.main_node graph in
        let cls v = if v = main then -1 else v in
        (* Graph pairs in pair-id order, mapped from node space to
           unordered classification space — the window's slot layout,
           so a window snapshot is directly a scale vector. *)
        let pairs =
          Array.init (Icc_graph.pair_count graph) (fun p ->
              let a, b = Icc_graph.pair graph p in
              let ca = cls a and cb = cls b in
              (min ca cb, max ca cb))
        in
        let msgs = Icc_graph.pair_messages graph in
        let total = Array.fold_left ( +. ) 0. msgs in
        let pbytes = Icc_graph.pair_bytes graph in
        let byte_total = Array.fold_left ( +. ) 0. pbytes in
        {
          w_config = wc;
          w_window = Window.create ~half_life_us:wc.wc_half_life_us ~pairs;
          w_tap =
            Tap.create ~sample_every:wc.wc_sample_every ~seed:(watch_seed config.dc_seed)
              (Option.value ~default:Tap.null_sink wc.wc_tap);
          w_obs = Option.map make_watch_instruments metrics;
          w_safe = Analysis.Session.migration_safety wc.wc_session;
          w_prof_share = Array.map (fun m -> m /. total) msgs;
          w_prof_byte_share =
            (if byte_total = 0. then Array.map (fun _ -> 0.) pbytes
             else Array.map (fun b -> b /. byte_total) pbytes);
          w_scale =
            {
              Icc_graph.sc_messages = Array.make (Icc_graph.pair_count graph) 1.;
              sc_bytes = Array.make (Icc_graph.pair_count graph) 1.;
            };
          w_baseline =
            Drift.of_weights
              (Array.to_list (Array.mapi (fun p key -> (key, msgs.(p))) pairs));
          w_baseline_bytes =
            Drift.of_weights
              (Array.to_list (Array.mapi (fun p key -> (key, pbytes.(p))) pairs));
          w_current = dist;
          w_last_switch_us = 0.;
          w_since_check = 0;
          w_checks = 0;
          w_detections = 0;
          w_repartitions = 0;
          w_migrations = 0;
          w_unchanged = 0;
          w_rejected = 0;
          w_last_similarity = 1.;
          w_timeline = [];
        })
      config.dc_watch
  in
  let route =
    let create = create_route ~seed:config.dc_seed ~faults:config.dc_faults in
    match (config.dc_fleet, config.dc_resilience) with
    | Some fc, _ -> create ?metrics ~pool:true fc
    | None, Some rc ->
        create ?metrics ~pool:false
          (fleet ~health:rc.rc_health ~max_probe_rounds:rc.rc_max_probe_rounds
             (Fallback.single_host rc.rc_ladder))
    | None, None -> create ~pool:false retry_only
  in
  install ?loggers ?tracer ?metrics ~classifier
    ~mode:
      (M_distributed
         {
           m_factory = factory;
           m_network = config.dc_network;
           m_jitter = config.dc_jitter;
           m_rng = Prng.create (jitter_seed config.dc_seed);
           m_retry = config.dc_retry;
           m_retry_rng = Prng.create (retry_seed config.dc_seed);
           m_route = route;
           m_watch = watch_state;
         })
    ctx

let uninstall t =
  Runtime.set_create_hook t.ctx None;
  Runtime.set_query_hook t.ctx None;
  Runtime.set_destroy_hook t.ctx None

let icc t = t.rte_icc
let inst_comm t = t.rte_inst_comm
let classifier t = t.rte_classifier

let instance_classifications t =
  let acc = ref [] in
  for inst = Array.length t.classifications - 1 downto 0 do
    let c = t.classifications.(inst) in
    if c >= 0 then acc := (inst, c) :: !acc
  done;
  !acc

let instances_created t = List.rev t.created
let factory t = match t.mode with M_profiling -> None | M_distributed m -> Some m.m_factory

let call_counts t =
  Int_table.fold (fun k n acc -> (pair_of_key k, n) :: acc) t.pair_counts [] |> List.sort compare

let comm_us t = t.comm
let remote_calls t = t.n_remote_calls
let remote_bytes t = t.n_remote_bytes
let intercepted_calls t = t.n_intercepted
let route_of t = match t.mode with M_profiling -> None | M_distributed m -> Some m.m_route

let watch_of t =
  match t.mode with
  | M_profiling | M_distributed { m_watch = None; _ } -> None
  | M_distributed { m_watch = Some w; _ } -> Some w

let watch_timeline t = match watch_of t with None -> [] | Some w -> List.rev w.w_timeline
let watch_placement t = Option.map (fun w -> w.w_current) (watch_of t)

let watch_tap_counts t =
  Option.map (fun w -> (Tap.offered w.w_tap, Tap.sampled w.w_tap)) (watch_of t)

type fleet_stats = {
  fs_breaker_opens : int;
  fs_breaker_closes : int;
  fs_failovers : int;
  fs_failbacks : int;
  fs_migrations : int;
  fs_stranded_calls : int;
  fs_rescued_calls : int;
  fs_promotions : int;
  fs_splits : int;
  fs_resizes : int;
  fs_inter_host_calls : int;
  fs_final_rung : int;
  fs_final_hosts : int;
  fs_final_shards : int;
}

let fleet_stats t =
  match route_of t with
  | Some r when r.r_pool ->
      Some
        {
          fs_breaker_opens = r.r_opens;
          fs_breaker_closes = r.r_closes;
          fs_failovers = r.r_failovers;
          fs_failbacks = r.r_failbacks;
          fs_migrations = r.r_migrations;
          fs_stranded_calls = r.r_stranded;
          fs_rescued_calls = r.r_rescued;
          fs_promotions = r.r_promotions;
          fs_splits = r.r_splits;
          fs_resizes = r.r_resizes;
          fs_inter_host_calls = r.r_inter_host;
          fs_final_rung = r.r_rung;
          fs_final_hosts = (route_shape r).Pool.sh_hosts;
          fs_final_shards = Array.length r.r_active;
        }
  | _ -> None

type stats = {
  st_comm_us : float;
  st_remote_calls : int;
  st_remote_bytes : int;
  st_intercepted : int;
  st_retries : int;
  st_drops : int;
  st_spikes : int;
  st_fallbacks : int;
  st_unreachable : int;
  st_fault_us : float;
  (* Routing counters — all zero on a retry-only route. *)
  st_breaker_opens : int;
  st_breaker_closes : int;
  st_failovers : int;
  st_failbacks : int;
  st_migrations : int;
  st_stranded_calls : int;
  st_rescued_calls : int;
  st_final_rung : int;
  (* Watch counters — all zero (similarity 1) unless a watch was
     installed. *)
  st_drift_checks : int;
  st_drift_detections : int;
  st_repartitions : int;
  st_watch_migrations : int;
  st_unchanged_cuts : int;
  st_rejected_cuts : int;
  st_last_similarity : float;
}

let stats t =
  let r = route_of t in
  let ri f = match r with None -> 0 | Some r -> f r in
  let w = watch_of t in
  let wi f = match w with None -> 0 | Some w -> f w in
  {
    st_comm_us = t.comm;
    st_remote_calls = t.n_remote_calls;
    st_remote_bytes = t.n_remote_bytes;
    st_intercepted = t.n_intercepted;
    st_retries = t.n_retries;
    st_drops = t.n_drops;
    st_spikes = t.n_spikes;
    st_fallbacks = t.n_fallbacks;
    st_unreachable = t.n_unreachable;
    st_fault_us = t.fault_us;
    st_breaker_opens = ri (fun r -> r.r_opens);
    st_breaker_closes = ri (fun r -> r.r_closes);
    st_failovers = ri (fun r -> r.r_failovers);
    st_failbacks = ri (fun r -> r.r_failbacks);
    st_migrations = ri (fun r -> r.r_migrations);
    st_stranded_calls = ri (fun r -> r.r_stranded);
    st_rescued_calls = ri (fun r -> r.r_rescued);
    st_final_rung = ri (fun r -> r.r_rung);
    st_drift_checks = wi (fun w -> w.w_checks);
    st_drift_detections = wi (fun w -> w.w_detections);
    st_repartitions = wi (fun w -> w.w_repartitions);
    st_watch_migrations = wi (fun w -> w.w_migrations);
    st_unchanged_cuts = wi (fun w -> w.w_unchanged);
    st_rejected_cuts = wi (fun w -> w.w_rejected);
    st_last_similarity = (match w with None -> 1. | Some w -> w.w_last_similarity);
  }
