open Coign_util
open Coign_netsim
open Coign_com
open Coign_core

type estimate = {
  re_comm_us : float;
  re_remote_calls : int;
  re_remote_bytes : int;
  re_server_instances : int;
  re_violations : (string * string) list;
  re_retries : int;
  re_drops : int;
  re_spikes : int;
  re_fallbacks : int;
  re_unreachable : int;
  re_fault_us : float;
}

(* An instantiation whose forward did not make it is degraded to its
   creator's machine, as the distributed RTE would. *)
let walk ~placement ~charge ~violation events =
  let machines : (int, Constraints.location) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.replace machines Runtime.main_instance Constraints.Client;
  let machine_of inst =
    Option.value ~default:Constraints.Client (Hashtbl.find_opt machines inst)
  in
  List.iter
    (fun event ->
      match event with
      | Event.Component_instantiated { inst; classification; creator; _ } ->
          let creator_machine = machine_of creator in
          (* Follow the factory: the placement decides every
             classification; an instance without one stays with its
             creator. *)
          let machine =
            if classification < 0 then creator_machine else placement classification
          in
          let machine =
            if
              machine = creator_machine
              || charge ~create:true ~request:Route.create_request_bytes
                   ~reply:Route.create_reply_bytes
            then machine
            else creator_machine
          in
          Hashtbl.replace machines inst machine
      | Event.Interface_call
          { caller; callee; iface; meth; remotable; request_bytes; reply_bytes; _ } ->
          (* Instantiation requests are charged by the creation event
             above (they only cross when the factory forwards). *)
          if (not (String.equal iface "ICoCreateInstance"))
             && machine_of caller <> machine_of callee
          then
            if remotable then
              ignore (charge ~create:false ~request:request_bytes ~reply:reply_bytes : bool)
            else
              (* Defense in depth: Adps.analyze proves its distribution
                 splits no profiled non-remotable pair
                 (Analysis.Session.validate), so this fires only for
                 pairs the profile never saw or hand-built placements. *)
              violation ~iface ~meth
      | Event.Interface_instantiated _ | Event.Call_retried _ | Event.Instantiation_degraded _
      | Event.Breaker_opened _ | Event.Breaker_closed _ | Event.Failover _ | Event.Failback _
      | Event.Instance_migrated _ | Event.Drift_detected _ | Event.Repartitioned _
      | Event.Replica_promoted _ | Event.Shard_split _ | Event.Pool_resized _
        ->
          ())
    events;
  machines

let replay ?faults ?(retry = Fault.default_retry) ~events ~placement ~network () =
  let spent = Fault.spent () and counts = Fault.counts () in
  let calls = ref 0 and bytes = ref 0 in
  let violations = ref [] in
  let fallbacks = ref 0 and unreachable = ref 0 in
  (* Backoff jitter for retried estimates; its own stream of the fault
     seed, so the verdict hashes stay untouched. Unused when fault-free
     (a call without a model never retries). *)
  let rng =
    Prng.create (match faults with Some m -> Prng.stream (Fault.seed m) 1 | None -> 0L)
  in
  (* Replay knows nothing of compute, so its virtual clock is the
     accumulated communication time — fault windows for trace-driven
     estimates are expressed against that clock. A lost instantiation
     is one the distributed RTE would degrade; a lost call, one a live
     run would abandon with [E_unreachable] — the estimator counts it
     and keeps replaying. *)
  let charge ~create ~request ~reply =
    let ok =
      Fault.call ~model:faults ~retry ~rng ~network ~jitter:0. ~jitter_rng:rng
        ~now_us:spent.Fault.comm_us ~request_bytes:request ~reply_bytes:reply ~spent ~counts
    in
    if ok then begin
      incr calls;
      bytes := !bytes + request + reply
    end
    else if create then incr fallbacks
    else incr unreachable;
    ok
  in
  let machines =
    walk ~placement ~charge
      ~violation:(fun ~iface ~meth -> violations := (iface, meth) :: !violations)
      events
  in
  let server_instances =
    Hashtbl.fold
      (fun inst m acc ->
        if inst <> Runtime.main_instance && m = Constraints.Server then acc + 1 else acc)
      machines 0
  in
  {
    re_comm_us = spent.Fault.comm_us;
    re_remote_calls = !calls;
    re_remote_bytes = !bytes;
    re_server_instances = server_instances;
    re_violations = List.rev !violations;
    re_retries = counts.Fault.retries;
    re_drops = counts.Fault.drops;
    re_spikes = counts.Fault.spikes;
    re_fallbacks = !fallbacks;
    re_unreachable = !unreachable;
    re_fault_us = spent.Fault.fault_us;
  }

let record_scenario ~registry ~classifier scenario =
  let ctx = Runtime.create_ctx registry in
  let logger, events = Coign_obs.Sink.collector () in
  let rte = Rte.install_profiling ~logger ~classifier ctx in
  scenario ctx;
  Rte.uninstall rte;
  events ()

let what_if ?faults ?retry ~events ~distribution ~network () =
  replay ?faults ?retry ~events ~placement:(Analysis.location_of distribution) ~network ()
