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

let resilience ?health ladder = Route.config ?health (Fallback.single_host ladder)
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
type mode = M_profiling | M_distributed of distributed

(* One Coign wrapper: the raw handle it forwards to, what is known
   about it at mint time, and per method the frame a call through it
   pushes — rebuilt only when the owner's classification changes (a
   wrapper minted inside its owner's constructor first sees -1). The
   frame array is built at the first call: many wrappers never see
   one. *)
type wrapper = {
  w_raw : int;
  w_itype : Itype.t;
  w_owner : int;
  w_iface : Icc.iface;  (* interned in [rte_icc] *)
  mutable w_frames : Frame.t array;  (* empty until the first call *)
}

type t = {
  ctx : Runtime.ctx;
  env : Rte_env.t;  (* clock, counters, registry, logger, classifications *)
  rte_classifier : Classifier.t;
  memo : Classifier.memo;  (* context key -> classification, this install only *)
  stack : Shadow_stack.t;
  rte_icc : Icc.t;
  rte_inst_comm : Inst_comm.t;
  create_iface : Icc.iface;  (* "ICoCreateInstance" in [rte_icc] *)
  (* Dense int-indexed maps, -1 where unset: raw handle -> wrapper
     handle, wrapper handle -> raw handle. *)
  mutable raw_to_wrap : int array;
  mutable wrap_to_raw : int array;
  mode : mode;
  mutable created : int list;  (* reversed *)
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

(* Stands in for the top frame when the main program is running. *)
let root_frame =
  Frame.make ~inst:Runtime.main_instance ~cls:Runtime.main_class_name ~classification:(-1)
    ~iface:"" ~meth:""

(* Not yet built: no real classification equals [min_int]. *)
let unbuilt_frame = Frame.make ~inst:(-1) ~cls:"" ~classification:min_int ~iface:"" ~meth:""

(* Mint (or reuse) the Coign-instrumented wrapper for a raw handle. *)
let rec wrap t raw_h =
  if Runtime.handle_is_wrapper t.ctx raw_h then raw_h
  else
    let known = Rte_env.slot t.raw_to_wrap raw_h in
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
          w_frames = [||];
        }
      in
      let h =
        Runtime.alloc_foreign_handle t.ctx ~owner ~itype ~wrapper:true (fun _ctx ~meth args ->
            intercept t w ~meth args)
      in
      t.raw_to_wrap <- Rte_env.store t.raw_to_wrap raw_h h;
      t.wrap_to_raw <- Rte_env.store t.wrap_to_raw h raw_h;
      if t.env.observed then
        t.env.logger
          (Event.Interface_instantiated { owner; iface = Itype.name itype; handle = h });
      h
    end

and intercept t w ~meth args =
  match t.env.tracer with
  | None -> intercept_run t w ~meth args
  | Some tr ->
      let caller = (Shadow_stack.top_or t.stack root_frame).Frame.f_inst in
      let msig = Itype.method_sig w.w_itype meth in
      Trace.with_span tr
        ~name:(Itype.name w.w_itype ^ "." ^ msig.Idl_type.mname)
        ~cat:"call" ~clock:(fun () -> Rte_env.now t.env)
        ~args:(fun _ -> [ ("caller", Jsonu.Int caller); ("callee", Jsonu.Int w.w_owner) ])
        (fun () -> intercept_run t w ~meth args)

(* The frame a call through [w] pushes: cached per method, rebuilt when
   the owner's classification is not the one it was built with. *)
and frame_for t w ~meth classification =
  if Array.length w.w_frames = 0 then
    w.w_frames <- Array.make (Itype.method_count w.w_itype) unbuilt_frame;
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
  let env = t.env in
  let top = Shadow_stack.top_or t.stack root_frame in
  let caller = top.Frame.f_inst and caller_cls = top.Frame.f_classification in
  let callee = w.w_owner in
  let callee_cls = Rte_env.classification_of env callee in
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
  Int_table.add_to t.pair_counts (pair_key caller_cls callee_cls) 1;
  (match t.mode with
  | M_profiling ->
      let sizes = Informer.measure_call itype ~meth ~ins:args ~outs ~ret in
      let request = Informer.request_bytes sizes and reply = Informer.reply_bytes sizes in
      let remotable = Informer.remotable sizes in
      (match env.obs with
      | None -> ()
      | Some (request_bytes, reply_bytes) ->
          Metrics.observe request_bytes request;
          Metrics.observe reply_bytes reply);
      Icc.record_interned t.rte_icc ~src:caller_cls ~dst:callee_cls w.w_iface
        ~remotable ~request ~reply;
      Inst_comm.record_call t.rte_inst_comm ~caller ~callee ~request ~reply;
      if env.observed then
        env.logger
          (Event.Interface_call
             {
               caller;
               caller_classification = caller_cls;
               callee;
               callee_classification = callee_cls;
               iface = frame.Frame.f_iface;
               meth = frame.Frame.f_meth;
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
        if not (Informer.remotable sizes) then
          Hresult.fail
            (Hresult.E_cannot_marshal
               (Printf.sprintf "cross-machine call on non-remotable %s.%s" frame.Frame.f_iface
                  frame.Frame.f_meth));
        Route.call m.m_route ~caller ~callee ~caller_cls ~callee_cls
          ~request:(Informer.request_bytes sizes) ~reply:(Informer.reply_bytes sizes)
          ~iface:frame.Frame.f_iface ~mname:frame.Frame.f_meth
      end);
  (* Keep every escaping interface pointer wrapped: the distribution
     informer "examines parameters only enough to identify interface
     pointers", and most methods skip the walk entirely. *)
  Informer.map_handles itype ~meth wrap t result

let rec on_create t (req : Runtime.create_request) =
  match t.env.tracer with
  | None -> on_create_run t req
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
      Trace.with_span tr ~name:req.Runtime.req_class.Runtime.cname ~cat:"create"
        ~clock:(fun () -> Rte_env.now t.env) ~args
        (fun () -> on_create_run t req)

and on_create_run t (req : Runtime.create_request) =
  let env = t.env in
  let cname = req.Runtime.req_class.Runtime.cname in
  let classification = Classifier.classify_memo t.memo ~cname t.stack in
  let top = Shadow_stack.top_or t.stack root_frame in
  let creator = top.Frame.f_inst and creator_cls = top.Frame.f_classification in
  (* The instantiation request as an ICC entry: a fixed-size round trip
     from the creator, priced whether or not it ends up crossing. *)
  let request = Route.create_request_bytes and reply = Route.create_reply_bytes in
  (match t.mode with
  | M_profiling -> ()
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
  let raw = Runtime.raw_create_instance t.ctx req.Runtime.req_clsid ~iid:req.Runtime.req_iid in
  let inst = Runtime.handle_owner t.ctx raw in
  env.classifications <- Rte_env.store env.classifications inst classification;
  t.created <- inst :: t.created;
  if env.observed then
    env.logger (Event.Component_instantiated { inst; cname; classification; creator });
  (* The instantiation request itself is communication: if creator and
     instance end up on different machines, the factory pays a round
     trip. Record it so the analysis engine prices relocated
     instantiations (and Table 5's model covers them). *)
  (match t.mode with
  | M_profiling ->
      Icc.record_interned t.rte_icc ~src:creator_cls ~dst:classification t.create_iface
        ~remotable:true ~request ~reply;
      Inst_comm.record_call t.rte_inst_comm ~caller:creator ~callee:inst ~request ~reply;
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

let on_query t h ~iid =
  let raw = Rte_env.slot t.wrap_to_raw h in
  wrap t (Runtime.raw_query_interface t.ctx (if raw >= 0 then raw else h) ~iid)

let on_destroy t inst =
  if t.env.observed then t.env.logger (Event.Component_destroyed { inst })

let install ~env ~classifier ~mode ctx =
  let rte_icc = Icc.create () in
  let t =
    {
      ctx;
      env;
      rte_classifier = classifier;
      memo = Classifier.memo classifier;
      stack = Shadow_stack.create ();
      rte_icc;
      rte_inst_comm = Inst_comm.create ();
      create_iface = Icc.intern rte_icc "ICoCreateInstance";
      raw_to_wrap = Array.make 256 (-1);
      wrap_to_raw = Array.make 256 (-1);
      mode;
      created = [];
      n_intercepted = 0;
      pair_counts = Int_table.create ~absent:0 256;
    }
  in
  Runtime.set_create_hook ctx (Some (on_create t));
  Runtime.set_query_hook ctx (Some (on_query t));
  Runtime.set_destroy_hook ctx (Some (on_destroy t));
  t

let install_profiling ?logger ?tracer ?metrics ~classifier ctx =
  install ~env:(Rte_env.create ?logger ?tracer ?metrics ctx) ~classifier ~mode:M_profiling ctx

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

(* Publishing clears the registry, so a second uninstall adds nothing. *)
let uninstall t =
  Runtime.set_create_hook t.ctx None;
  Runtime.set_query_hook t.ctx None;
  Runtime.set_destroy_hook t.ctx None;
  match t.env.metrics with
  | None -> ()
  | Some reg ->
      t.env.metrics <- None;
      Rte_env.publish t.env reg ~intercepted:t.n_intercepted
        ~instantiations:(List.length t.created);
      (match t.mode with
      | M_profiling -> ()
      | M_distributed m ->
          Factory.publish m.m_factory reg;
          Route.publish m.m_route reg;
          Option.iter (fun w -> Watch.publish w reg) m.m_watch)

let icc t = t.rte_icc
let inst_comm t = t.rte_inst_comm
let classifier t = t.rte_classifier

let instance_classifications t =
  let cs = t.env.classifications in
  let acc = ref [] in
  for inst = Array.length cs - 1 downto 0 do
    if cs.(inst) >= 0 then acc := (inst, cs.(inst)) :: !acc
  done;
  !acc

let instances_created t = List.rev t.created
let factory t = match t.mode with M_profiling -> None | M_distributed m -> Some m.m_factory

let call_counts t =
  Int_table.fold (fun k n acc -> (pair_of_key k, n) :: acc) t.pair_counts [] |> List.sort compare

let comm_us t = t.env.spent.Fault.comm_us
let remote_calls t = t.env.n_remote_calls
let remote_bytes t = t.env.n_remote_bytes
let intercepted_calls t = t.n_intercepted
let route_of t = match t.mode with M_profiling -> None | M_distributed m -> Some m.m_route

let watch_of t =
  match t.mode with
  | M_profiling | M_distributed { m_watch = None; _ } -> None
  | M_distributed { m_watch = Some w; _ } -> Some w

let watch_timeline t = match watch_of t with None -> [] | Some w -> Watch.timeline w
let watch_placement t = Option.map Watch.placement (watch_of t)
let watch_tap_counts t = Option.map Watch.tap_counts (watch_of t)

type fleet_stats = Route.stats = {
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
  let r = Option.map Route.stats (route_of t) in
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
    st_breaker_opens = ri (fun r -> r.fs_breaker_opens);
    st_breaker_closes = ri (fun r -> r.fs_breaker_closes);
    st_failovers = ri (fun r -> r.fs_failovers);
    st_failbacks = ri (fun r -> r.fs_failbacks);
    st_migrations = ri (fun r -> r.fs_migrations);
    st_stranded_calls = ri (fun r -> r.fs_stranded_calls);
    st_rescued_calls = ri (fun r -> r.fs_rescued_calls);
    st_final_rung = ri (fun r -> r.fs_final_rung);
    st_drift_checks = wi (fun w -> w.Watch.checks);
    st_drift_detections = wi (fun w -> w.Watch.detections);
    st_repartitions = wi (fun w -> w.Watch.repartitions);
    st_watch_migrations = wi (fun w -> w.Watch.migrations);
    st_unchanged_cuts = wi (fun w -> w.Watch.unchanged);
    st_rejected_cuts = wi (fun w -> w.Watch.rejected);
    st_last_similarity = (match w with None -> 1. | Some w -> w.Watch.last_similarity);
  }
