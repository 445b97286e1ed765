(* What the RTE's interception ([Rte]), routing ([Route]) and drift
   watch ([Watch]) share: the virtual clock, the communication and fault
   counters, the metrics registry and the per-message size histograms,
   the logger and tracer, and the instance -> classification map.
   Internal to the RTE and without an interface file: the record is the
   interface, and each layer updates its counters in place. *)

open Coign_com
module Trace = Coign_obs.Trace
module Metrics = Coign_obs.Metrics
module Fault = Coign_netsim.Fault

type t = {
  ctx : Runtime.ctx;
  compute : float array;  (* [Runtime.compute_clock ctx], read in place *)
  logger : Logger.t;
  observed : bool;  (* a logger or a tracer attached: events are built only then *)
  (* Observability, all [None] unless the install opted in. Counters
     and gauges are plain fields, published to [metrics] once at
     uninstall; only the request/reply size histograms ([obs]) are
     updated per message, because a distribution has no plain-field
     counterpart. *)
  tracer : Trace.t option;
  mutable metrics : Metrics.registry option;  (* cleared once published *)
  obs : (Metrics.histogram * Metrics.histogram) option;
  mutable classifications : int array;  (* dense, -1 where unset *)
  (* Communication time and the part of it due to faults, in a flat
     all-float record: a mixed record would box every update. *)
  spent : Fault.spent;
  mutable n_remote_calls : int;
  mutable n_remote_bytes : int;
  (* Fault counters (all zero in profiling mode and in fault-free
     distributed runs). *)
  faults : Fault.counts;
  mutable n_fallbacks : int;
  mutable n_unreachable : int;
}

let create ?logger ?tracer ?metrics ctx =
  {
    ctx;
    compute = Runtime.compute_clock ctx;
    logger = Option.value logger ~default:Coign_obs.Sink.null;
    observed = Option.is_some logger || Option.is_some tracer;
    tracer;
    metrics;
    obs =
      Option.map
        (fun reg ->
          ( Metrics.histogram reg ~help:"Cross-wrapper request message sizes, in bytes."
              "coign_rte_request_bytes",
            Metrics.histogram reg ~help:"Cross-wrapper reply message sizes, in bytes."
              "coign_rte_reply_bytes" ))
        metrics;
    classifications = Array.make 256 (-1);
    spent = Fault.spent ();
    n_remote_calls = 0;
    n_remote_bytes = 0;
    faults = Fault.counts ();
    n_fallbacks = 0;
    n_unreachable = 0;
  }

(* Add the run's [coign_rte_*] totals to [reg]. [intercepted] and
   [instantiations] are the interception layer's counts. *)
let publish t reg ~intercepted ~instantiations =
  let total ~help name v = Metrics.inc ~by:v (Metrics.counter reg ~help name) in
  let count ~help name n = Metrics.inc_int (Metrics.counter reg ~help name) n in
  count ~help:"Calls intercepted by the RTE, local and remote."
    "coign_rte_intercepted_calls_total" intercepted;
  count ~help:"Component instantiations intercepted." "coign_rte_instantiations_total"
    instantiations;
  count ~help:"Completed cross-machine calls and forwarded instantiations."
    "coign_rte_remote_calls_total" t.n_remote_calls;
  count ~help:"Marshaled bytes moved across machines." "coign_rte_remote_bytes_total"
    t.n_remote_bytes;
  total ~help:"Virtual communication time accumulated, in microseconds."
    "coign_rte_comm_us_total" t.spent.comm_us;
  count ~help:"Remote-call attempts beyond the first." "coign_rte_retries_total"
    t.faults.retries;
  count ~help:"Messages eaten by the fault model." "coign_rte_drops_total" t.faults.drops;
  count ~help:"Latency spikes suffered." "coign_rte_spikes_total" t.faults.spikes;
  count ~help:"Instantiations degraded to the creator machine."
    "coign_rte_degraded_instantiations_total" t.n_fallbacks;
  count ~help:"Calls abandoned as unreachable." "coign_rte_unreachable_calls_total"
    t.n_unreachable;
  total ~help:"Communication time attributable to faults, in microseconds."
    "coign_rte_fault_us_total" t.spent.fault_us

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

(* The virtual clock spans are timed on: accumulated communication time
   plus the compute the application has charged. Deterministic for a
   seeded run, so traces golden-test. Inlined into [now_into], which
   writes the reading to [cell.(0)]: a float array holds it unboxed, so
   a reading taken on every call reaches another module without the box
   [now]'s result needs. *)
let[@inline] now t = t.spent.comm_us +. t.compute.(0)

let now_into t cell = cell.(0) <- now t

(* Report one routing or watch decision: to the logger and, with a
   tracer, as a zero-duration ["event"] span at sim time [at_us] named
   by its kind. Callers build [ev] only when [t.observed]. *)
let emit t ~at_us ev =
  t.logger ev;
  match t.tracer with
  | None -> ()
  | Some tr ->
      let id = Trace.open_span tr ~name:(Event.kind_name ev) ~cat:"event" ~at_us in
      Trace.close_span tr ~args:(Event.fields ev) id ~at_us

(* Atomically install [dist] as the factory policy and migrate every
   live instance whose classification [safe] marks to its new home; the
   rest stay where they are. The home is [Analysis.location_of], the
   factory's rule: an instance whose classification the distribution
   never saw belongs on the client, and is left behind when it sits on
   the server. Shared by rung switches and watch re-partitions. Returns
   (migrated, left behind, moves in instance order). *)
let migrate_instances t factory ~safe ~dist =
  Factory.set_policy factory (Factory.By_classification dist);
  let migrated = ref 0 and left = ref 0 and moved = ref [] in
  List.iter
    (fun (inst, machine) ->
      if inst <> Runtime.main_instance then begin
        let c = classification_of t inst in
        let target = Analysis.location_of dist c in
        if target <> machine then
          if c >= 0 && c < Array.length safe && safe.(c) then begin
            Factory.record_instance factory ~inst target;
            moved := (inst, c, machine, target) :: !moved;
            incr migrated
          end
          else incr left
      end)
    (Factory.instances factory);
  (!migrated, !left, List.rev !moved)

(* Per-instance migration events, after the aggregate event. *)
let log_migrations t ~at_us moved =
  if t.observed then
    List.iter
      (fun (inst, c, machine, target) ->
        emit t ~at_us
          (Event.Instance_migrated
             {
               at_us = int_of_float at_us;
               inst;
               classification = c;
               from_loc = Constraints.location_name machine;
               to_loc = Constraints.location_name target;
             }))
      moved
