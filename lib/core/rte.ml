open Coign_util
open Coign_idl
open Coign_com
module Trace = Coign_obs.Trace
module Metrics = Coign_obs.Metrics
module Tap = Coign_obs.Tap
module Fault = Coign_netsim.Fault

(* Both route configs are one [Route.config]; the interface keeps them
   apart so a pool config cannot be passed as [dc_resilience]. *)
type resilience_config = Route.config
type fleet_config = Route.config
type watch_config = Watch.config

let resilience ?health ladder = Route.config ?health ladder
let fleet = Route.config
let watch = Watch.config

type watch_action = Watch.action =
  | W_steady
  | W_unchanged
  | W_repartitioned of { wa_migrated : int; wa_left : int; wa_servers : int }
  | W_rejected of int

type watch_checkpoint = Watch.checkpoint = {
  wk_at_us : float;
  wk_similarity : float;
  wk_window_pairs : int;
  wk_action : watch_action;
}

type distributed = { m_factory : Factory.t; m_route : Route.t; m_watch : Watch.t option }

(* What only profiling records: the run's summaries, and the
   instantiation request's interface interned in its ICC. *)
type profiling = { p_icc : Icc.t; p_inst_comm : Inst_comm.t; p_create_iface : Icc.iface }

type mode = M_profiling of profiling | M_distributed of distributed

(* One Coign wrapper: the raw handle it forwards to, what is known
   about it at mint time, and per method the call site a call through
   it pushes. Every wrapper of one class's instances on one interface
   shares one site array. *)
type wrapper = {
  w_raw : int;
  w_itype : Itype.t;
  w_owner : int;
  w_iface : Icc.iface;  (* interned in the profile's ICC; [Icc.no_iface] when distributed *)
  w_sites : int array;
}

type t = {
  ctx : Runtime.ctx;
  env : Rte_env.t;  (* clock, counters, registry, logger, classifications *)
  rte_classifier : Classifier.t;
  memo : Classifier.memo;  (* context key -> classification, this install only *)
  stack : Shadow_stack.t;
  (* Raw handle -> wrapper handle (-1 where unset) and wrapper handle
     -> wrapper ([no_wrapper] where unset), both dense. *)
  mutable raw_to_wrap : int array;
  mutable wrappers : wrapper array;
  (* Class name -> per interface type, its methods' call sites. *)
  sites : (string, (Itype.t * int array) list) Hashtbl.t;
  mode : mode;
  mutable n_intercepted : int;
  (* Lightweight per-classification-pair message counter, kept even in
     distributed mode (paper SS6: count messages "with only slight
     additional overhead" so usage drift can be recognized). Keyed by
     [pair_key]. *)
  pair_counts : int Int_table.t;
}

type distributed_config = {
  dc_factory_policy : Factory.policy;
  dc_network : Coign_netsim.Network.t;
  dc_jitter : float;
  dc_seed : int64;
  dc_faults : Coign_netsim.Fault.spec option;
  dc_retry : Coign_netsim.Fault.retry_policy;
  dc_resilience : resilience_config option;
  dc_watch : watch_config option;
  dc_fleet : fleet_config option;
}

(* [pair_counts] key of a (caller, callee) classification pair, each
   in [-1, 2^31 - 2]. *)
let pair_key a b = ((a + 1) lsl 31) lor (b + 1)
let pair_of_key k = ((k lsr 31) - 1, (k land 0x7FFF_FFFF) - 1)

let no_wrapper =
  { w_raw = -1; w_itype = Itype.declare "" []; w_owner = -1; w_iface = Icc.no_iface; w_sites = [||] }

(* The instance whose method is executing, and its classification:
   the main program (-1) on an empty stack. *)
let current_inst t =
  if Shadow_stack.depth t.stack = 0 then Runtime.main_instance else Shadow_stack.inst t.stack 0

let current_cls t =
  if Shadow_stack.depth t.stack = 0 then -1 else Shadow_stack.classification t.stack 0

let rec find_sites itype = function
  | [] -> [||]
  | (it, sites) :: rest -> if it == itype then sites else find_sites itype rest

(* The call sites of [itype]'s methods on class [cls], interned when
   the first wrapper of that class on that interface is minted. *)
let sites_of t ~cls itype =
  let known = match Hashtbl.find t.sites cls with l -> l | exception Not_found -> [] in
  let sites = find_sites itype known in
  if Array.length sites > 0 || Itype.method_count itype = 0 then sites
  else begin
    let iface = Itype.name itype in
    let sites =
      Array.init (Itype.method_count itype) (fun m ->
          Classifier.site t.memo ~cls ~iface ~meth:(Itype.method_sig itype m).Idl_type.mname)
    in
    Hashtbl.replace t.sites cls ((itype, sites) :: known);
    sites
  end

(* Record a wrapper for [raw] under handle [h]. *)
let register t ~raw h =
  let itype = Runtime.handle_itype t.ctx raw in
  let owner = Runtime.handle_owner t.ctx raw in
  let w =
    {
      w_raw = raw;
      w_itype = itype;
      w_owner = owner;
      w_iface =
        (match t.mode with
        | M_profiling p -> Icc.intern p.p_icc (Itype.name itype)
        | M_distributed _ -> Icc.no_iface);
      w_sites = sites_of t ~cls:(Runtime.instance_class_name t.ctx owner) itype;
    }
  in
  if h >= Array.length t.wrappers then begin
    let bigger = Array.make (Int.max (h + 1) (2 * Array.length t.wrappers)) no_wrapper in
    Array.blit t.wrappers 0 bigger 0 (Array.length t.wrappers);
    t.wrappers <- bigger
  end;
  t.wrappers.(h) <- w;
  w

(* The wrapper behind handle [h]. One minted by an earlier install on
   this context is adopted: calls through it are this install's. *)
let wrapper_of t h =
  let w = if h < Array.length t.wrappers then t.wrappers.(h) else no_wrapper in
  if w != no_wrapper then w else register t ~raw:(Runtime.wrapped_handle t.ctx h) h

(* Mint (or reuse) the Coign-instrumented wrapper for a raw handle. *)
let wrap t raw_h =
  if Runtime.handle_is_wrapper t.ctx raw_h then raw_h
  else
    let known = Rte_env.slot t.raw_to_wrap raw_h in
    if known >= 0 then known
    else begin
      let h = Runtime.alloc_wrapper t.ctx raw_h in
      let w = register t ~raw:raw_h h in
      t.raw_to_wrap <- Rte_env.store t.raw_to_wrap raw_h h;
      if t.env.observed then
        t.env.logger
          (Event.Interface_instantiated
             { owner = w.w_owner; iface = Itype.name w.w_itype; handle = h });
      h
    end

(* The per-call path. The caller and its classification come off the
   top frame (the main program on an empty stack): a frame's
   classification is the one its instance had when the frame was
   pushed, and an instance's frames have all popped by the time its
   creation assigns it one. *)
let intercept_run t w ~meth args =
  let env = t.env in
  let caller = current_inst t and caller_cls = current_cls t in
  let callee = w.w_owner in
  let callee_cls = Rte_env.classification_of env callee in
  Shadow_stack.push t.stack ~inst:callee ~classification:callee_cls ~site:w.w_sites.(meth);
  let ret =
    match Runtime.call t.ctx w.w_raw ~meth args with
    | ret ->
        Shadow_stack.pop t.stack;
        ret
    | exception e ->
        Shadow_stack.pop t.stack;
        raise e
  in
  (* A method writes no parameter slot, so a call's out slots are its
     arguments. *)
  let outs = args in
  let itype = w.w_itype in
  t.n_intercepted <- t.n_intercepted + 1;
  Int_table.add_to t.pair_counts (pair_key caller_cls callee_cls) 1;
  (match t.mode with
  | M_profiling p ->
      let sizes = Informer.measure_call itype ~meth ~ins:args ~outs ~ret in
      let request = Informer.request_bytes sizes and reply = Informer.reply_bytes sizes in
      let remotable = Informer.remotable sizes in
      (match env.obs with
      | None -> ()
      | Some (request_bytes, reply_bytes) ->
          Metrics.observe request_bytes request;
          Metrics.observe reply_bytes reply);
      Icc.record_interned p.p_icc ~src:caller_cls ~dst:callee_cls w.w_iface ~remotable
        ~request ~reply;
      Inst_comm.record_call p.p_inst_comm ~caller ~callee ~request ~reply;
      if env.observed then
        env.logger
          (Event.Interface_call
             {
               caller;
               caller_classification = caller_cls;
               callee;
               callee_classification = callee_cls;
               iface = Itype.name itype;
               meth = (Itype.method_sig itype meth).Idl_type.mname;
               remotable;
               request_bytes = request;
               reply_bytes = reply;
             })
  | M_distributed m ->
      (* The watch sees every call before it is routed, so a re-cut
         applies to the very call that triggered it. Message sizes are
         walked only for the tap's sample or a remote call, and once. *)
      let sampled = match m.m_watch with None -> false | Some wt -> Watch.sample wt in
      let sizes =
        if sampled then Informer.measure_call itype ~meth ~ins:args ~outs ~ret
        else Informer.non_remotable
      in
      (match m.m_watch with
      | None -> ()
      | Some wt ->
          Watch.observe wt ~sampled ~kind:Tap.Call ~caller_cls ~callee_cls
            ~bytes:(Informer.request_bytes sizes + Informer.reply_bytes sizes));
      let src = Factory.machine_of m.m_factory caller in
      let dst = Factory.machine_of m.m_factory callee in
      if Route.link m.m_route ~src ~dst ~caller_cls ~callee_cls >= 0 then begin
        let sizes =
          if sampled then sizes else Informer.measure_call itype ~meth ~ins:args ~outs ~ret
        in
        let iface = Itype.name itype and mname = (Itype.method_sig itype meth).Idl_type.mname in
        if not (Informer.remotable sizes) then
          Hresult.fail
            (Hresult.E_cannot_marshal
               (Printf.sprintf "cross-machine call on non-remotable %s.%s" iface mname));
        Route.call m.m_route ~caller ~callee ~caller_cls ~callee_cls
          ~request:(Informer.request_bytes sizes) ~reply:(Informer.reply_bytes sizes) ~iface
          ~mname
      end);
  (* Keep every escaping interface pointer wrapped: the distribution
     informer "examines parameters only enough to identify interface
     pointers", and most methods skip the walk entirely. *)
  if (Itype.procs itype meth).Midl.may_output_ifaces then
    Informer.map_handles itype ~meth wrap t ~outs ret
  else ret

(* The wrapper hook: every call through a wrapper lands here. *)
let on_call t h ~meth args =
  let w = wrapper_of t h in
  match t.env.tracer with
  | None -> intercept_run t w ~meth args
  | Some tr ->
      let caller = current_inst t in
      let msig = Itype.method_sig w.w_itype meth in
      Trace.with_span tr
        ~name:(Itype.name w.w_itype ^ "." ^ msig.Idl_type.mname)
        ~cat:"call" ~clock:(fun () -> Rte_env.now t.env)
        ~args:(fun _ -> [ ("caller", Jsonu.Int caller); ("callee", Jsonu.Int w.w_owner) ])
        (fun () -> intercept_run t w ~meth args)

let rec on_create t (cls : Runtime.component_class) ~iid =
  match t.env.tracer with
  | None -> on_create_run t cls ~iid
  | Some tr ->
      let args = function
        | Ok h ->
            let inst = Runtime.handle_owner t.ctx h in
            [
              ("inst", Jsonu.Int inst);
              ("classification", Jsonu.Int (Rte_env.classification_of t.env inst));
            ]
        | Error _ -> []
      in
      Trace.with_span tr ~name:cls.Runtime.cname ~cat:"create"
        ~clock:(fun () -> Rte_env.now t.env) ~args
        (fun () -> on_create_run t cls ~iid)

and on_create_run t (cls : Runtime.component_class) ~iid =
  let env = t.env in
  let cname = cls.Runtime.cname in
  let classification = Classifier.classify_memo t.memo ~cname t.stack in
  let creator = current_inst t and creator_cls = current_cls t in
  (* The instantiation request as an ICC entry: a fixed-size round trip
     from the creator, priced whether or not it ends up crossing. *)
  let request = Route.create_request_bytes and reply = Route.create_reply_bytes in
  (match t.mode with
  | M_profiling _ -> ()
  | M_distributed m ->
      (match m.m_watch with
      | None -> ()
      | Some wt ->
          let sampled = Watch.sample wt in
          Watch.observe wt ~sampled ~kind:Tap.Create ~caller_cls:creator_cls
            ~callee_cls:classification ~bytes:(if sampled then request + reply else 0));
      let creator_machine = Factory.machine_of m.m_factory creator in
      let machine = Factory.decide m.m_factory ~classification ~cname ~creator_machine in
      let machine =
        if machine = creator_machine then machine
        else Route.forward_create m.m_route ~creator ~classification ~cname ~machine
      in
      (* Record the machine under the instance id we are about to
         allocate; ids are dense so the next instance gets the current
         count. *)
      Factory.record_instance m.m_factory ~inst:(Runtime.instance_count t.ctx) machine);
  let raw = Runtime.raw_create_instance t.ctx cls ~iid in
  let inst = Runtime.handle_owner t.ctx raw in
  env.classifications <- Rte_env.store env.classifications inst classification;
  if env.observed then
    env.logger (Event.Component_instantiated { inst; cname; classification; creator });
  (* The instantiation request itself is communication: if creator and
     instance end up on different machines, the factory pays a round
     trip. Record it so the analysis engine prices relocated
     instantiations (and Table 5's model covers them). *)
  (match t.mode with
  | M_profiling p ->
      Icc.record_interned p.p_icc ~src:creator_cls ~dst:classification p.p_create_iface
        ~remotable:true ~request ~reply;
      Inst_comm.record_call p.p_inst_comm ~caller:creator ~callee:inst ~request ~reply;
      if env.observed then
        env.logger
          (Event.Interface_call
             {
               caller = creator;
               caller_classification = creator_cls;
               callee = inst;
               callee_classification = classification;
               iface = "ICoCreateInstance";
               meth = "create";
               remotable = true;
               request_bytes = request;
               reply_bytes = reply;
             })
  | M_distributed _ -> ());
  wrap t raw

(* A wrapper and its raw handle share an owner, so either can be
   queried directly. *)
let on_query t h ~iid = wrap t (Runtime.raw_query_interface t.ctx h ~iid)

let install ~env ~classifier ~mode ctx =
  let t =
    {
      ctx;
      env;
      rte_classifier = classifier;
      memo = Classifier.memo classifier;
      stack = Shadow_stack.create ();
      raw_to_wrap = Array.make 256 (-1);
      wrappers = Array.make 256 no_wrapper;
      sites = Hashtbl.create 64;
      mode;
      n_intercepted = 0;
      pair_counts = Int_table.create ~absent:0 256;
    }
  in
  Runtime.set_create_hook ctx (Some (on_create t));
  Runtime.set_query_hook ctx (Some (on_query t));
  Runtime.set_wrapper_hook ctx (Some (on_call t));
  t

let install_profiling ?logger ?tracer ?metrics ~classifier ctx =
  let icc = Icc.create () in
  let mode =
    M_profiling
      {
        p_icc = icc;
        p_inst_comm = Inst_comm.create ();
        p_create_iface = Icc.intern icc "ICoCreateInstance";
      }
  in
  install ~env:(Rte_env.create ?logger ?tracer ?metrics ctx) ~classifier ~mode ctx

let install_distributed ?logger ?tracer ?metrics ~classifier ~config ctx =
  (* Each of these layers drives the factory policy; arbitrating
     between a failover rung, a pool shape and a freshly-cut placement
     is out of scope. *)
  let set o = Bool.to_int (Option.is_some o) in
  if set config.dc_resilience + set config.dc_fleet + set config.dc_watch > 1 then
    invalid_arg
      "Rte.install_distributed: at most one of dc_resilience, dc_fleet and dc_watch may be set";
  let env = Rte_env.create ?logger ?tracer ?metrics ctx in
  (* The main program lives on the client. *)
  let factory = Factory.create config.dc_factory_policy in
  Factory.record_instance factory ~inst:Runtime.main_instance Constraints.Client;
  let watch_state =
    Option.map
      (fun wc ->
        match config.dc_factory_policy with
        | Factory.By_classification dist ->
            Watch.create ~env ~factory ~seed:config.dc_seed ~dist wc
        | _ ->
            invalid_arg "Rte.install_distributed: dc_watch requires a By_classification policy")
      config.dc_watch
  in
  let route =
    let create =
      Route.create ~env ~factory ~network:config.dc_network ~jitter:config.dc_jitter
        ~seed:config.dc_seed ~retry:config.dc_retry ~faults:config.dc_faults
    in
    match (config.dc_fleet, config.dc_resilience) with
    | Some fc, _ -> create ~pool:true fc
    | None, Some rc -> create ~pool:false rc
    | None, None -> create ~pool:false Route.retry_only
  in
  install ~env ~classifier
    ~mode:(M_distributed { m_factory = factory; m_route = route; m_watch = watch_state })
    ctx

(* Publishing clears the registry, so a second uninstall adds nothing.
   A wrapper outlives the install: with the hooks gone, a call through
   it runs the raw method, uninterrupted. *)
let uninstall t =
  Runtime.set_create_hook t.ctx None;
  Runtime.set_query_hook t.ctx None;
  Runtime.set_wrapper_hook t.ctx None;
  match t.env.metrics with
  | None -> ()
  | Some reg ->
      t.env.metrics <- None;
      Rte_env.publish t.env reg ~intercepted:t.n_intercepted
        ~instantiations:(Array.fold_left (fun n c -> if c >= 0 then n + 1 else n) 0
                           t.env.classifications);
      (match t.mode with
      | M_profiling _ -> ()
      | M_distributed m ->
          Factory.publish m.m_factory reg;
          Route.publish m.m_route reg;
          Option.iter (fun w -> Watch.publish w reg) m.m_watch)

(* A distributed install builds no summaries: it reports empty ones. *)
let icc t = match t.mode with M_profiling p -> p.p_icc | M_distributed _ -> Icc.create ()

let inst_comm t =
  match t.mode with M_profiling p -> p.p_inst_comm | M_distributed _ -> Inst_comm.create ()

let classifier t = t.rte_classifier

(* Every classified instance is one this install created. *)
let instance_classifications t =
  let cs = t.env.classifications in
  let acc = ref [] in
  for inst = Array.length cs - 1 downto 0 do
    if cs.(inst) >= 0 then acc := (inst, cs.(inst)) :: !acc
  done;
  !acc

let instances_created t = List.map fst (instance_classifications t)
let factory t = match t.mode with M_profiling _ -> None | M_distributed m -> Some m.m_factory

let call_counts t =
  Int_table.fold (fun k n acc -> (pair_of_key k, n) :: acc) t.pair_counts [] |> List.sort compare

let comm_us t = t.env.spent.Fault.comm_us
let intercepted_calls t = t.n_intercepted
let route_of t = match t.mode with M_profiling _ -> None | M_distributed m -> Some m.m_route

let watch_of t =
  match t.mode with
  | M_profiling _ | M_distributed { m_watch = None; _ } -> None
  | M_distributed { m_watch = Some w; _ } -> Some w

let watch_timeline t = match watch_of t with None -> [] | Some w -> Watch.timeline w
let watch_placement t = Option.map Watch.placement (watch_of t)
let watch_tap_counts t = Option.map Watch.tap_counts (watch_of t)

type fleet_stats = Route.stats = {
  fs_promotions : int;
  fs_splits : int;
  fs_resizes : int;
  fs_inter_host_calls : int;
  fs_final_hosts : int;
  fs_final_shards : int;
}

let fleet_stats t =
  match route_of t with Some r when Route.pool r -> Some (Route.stats r) | _ -> None

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
  let e = t.env in
  let r = route_of t in
  let ri f = match r with None -> 0 | Some r -> f r in
  let w = Option.map Watch.stats (watch_of t) in
  let wi f = match w with None -> 0 | Some w -> f w in
  {
    st_comm_us = e.spent.Fault.comm_us;
    st_remote_calls = e.n_remote_calls;
    st_remote_bytes = e.n_remote_bytes;
    st_intercepted = t.n_intercepted;
    st_retries = e.faults.Fault.retries;
    st_drops = e.faults.Fault.drops;
    st_spikes = e.faults.Fault.spikes;
    st_fallbacks = e.n_fallbacks;
    st_unreachable = e.n_unreachable;
    st_fault_us = e.spent.Fault.fault_us;
    st_breaker_opens = ri Route.breaker_opens;
    st_breaker_closes = ri Route.breaker_closes;
    st_failovers = ri Route.failovers;
    st_failbacks = ri Route.failbacks;
    st_migrations = ri Route.migrations;
    st_stranded_calls = ri Route.stranded_calls;
    st_rescued_calls = ri Route.rescued_calls;
    st_final_rung = ri Route.rung;
    st_drift_checks = wi (fun w -> w.Watch.checks);
    st_drift_detections = wi (fun w -> w.Watch.detections);
    st_repartitions = wi (fun w -> w.Watch.repartitions);
    st_watch_migrations = wi (fun w -> w.Watch.migrations);
    st_unchanged_cuts = wi (fun w -> w.Watch.unchanged);
    st_rejected_cuts = wi (fun w -> w.Watch.rejected);
    st_last_similarity = (match w with None -> 1. | Some w -> w.Watch.last_similarity);
  }
