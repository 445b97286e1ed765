(* Reference implementations the suites check the system against, and
   drivers that call it the way a test finds convenient. The system
   itself runs none of them. *)

open Coign_idl

(* --- Statistics ------------------------------------------------------ *)

(* Arithmetic mean; 0 on empty input. *)
let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* Population standard deviation; 0 below two samples. *)
let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else
    let m = mean xs in
    sqrt (Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs /. float_of_int n)

(* One percentile of [xs], which is left untouched. *)
let percentile xs p = (Coign_util.Stats.percentiles_in_place (Array.copy xs) [| p |]).(0)

(* Two histograms hold the same count and bytes in every bucket. *)
let bucket_equal a b =
  let cells h =
    Coign_util.Exp_bucket.fold (fun ~index ~count ~bytes acc -> (index, count, bytes) :: acc) h []
  in
  cells a = cells b

(* --- Cuts ------------------------------------------------------------ *)

(* Minimum s-t cut of an arena's base capacities: reset, solve on fresh
   scratch, read off the minimal source side. Bad terminals raise as
   [Mincut.run] does. *)
let min_cut g ~s ~t =
  let module G = Coign_flowgraph.Flow_network in
  G.reset g;
  let value = Coign_flowgraph.Mincut.run g (Coign_flowgraph.Mincut.scratch g) ~s ~t in
  { Coign_flowgraph.Mincut.value; source_side = G.min_cut_side g ~s }

(* Exhaustive minimum cut of a raw [(src, dst, cap)] edge array over
   nodes [0 .. n-1]; exponential, so it refuses graphs with more than
   22 nodes. *)
let brute_force_min_cut ~n edges ~s ~t =
  if s < 0 || s >= n || t < 0 || t >= n then invalid_arg "Mincut: terminal out of range";
  if s = t then invalid_arg "Mincut: s = t";
  if n > 22 then invalid_arg "Oracles.brute_force_min_cut: too many nodes";
  let best_value = ref max_int and best_mask = ref 0 in
  (* Enumerate source-side sets containing s and excluding t. *)
  for mask = 0 to (1 lsl n) - 1 do
    if mask land (1 lsl s) <> 0 && mask land (1 lsl t) = 0 then begin
      let v =
        Array.fold_left
          (fun acc (src, dst, cap) ->
            if mask land (1 lsl src) <> 0 && mask land (1 lsl dst) = 0 then acc + cap
            else acc)
          0 edges
      in
      if v < !best_value then begin
        best_value := v;
        best_mask := mask
      end
    end
  done;
  {
    Coign_flowgraph.Mincut.value = !best_value;
    source_side = Array.init n (fun v -> !best_mask land (1 lsl v) <> 0);
  }

(* Capacity of all edges (the arrays [Multiway.multiway_cut] takes)
   whose endpoints get different machines under [assignment]. *)
let partition_cost ~src ~dst ~cap (assignment : int array) =
  let total = ref 0 in
  for i = 0 to Array.length src - 1 do
    if assignment.(src.(i)) <> assignment.(dst.(i)) then total := !total + cap.(i)
  done;
  !total

(* --- Pricing --------------------------------------------------------- *)

(* Time (µs) for one ICC entry's messages if its endpoints were
   separated: per-bucket message count times the fitted per-message
   time at the bucket's mean size. *)
let price_entry net (e : Coign_core.Icc.entry) =
  Coign_util.Exp_bucket.fold
    (fun ~index:_ ~count ~bytes acc ->
      let mean = float_of_int bytes /. float_of_int count in
      acc
      +. float_of_int count
         *. Coign_netsim.Net_profiler.predict_us net ~bytes:(int_of_float (Float.round mean)))
    e.Coign_core.Icc.messages 0.

(* Predicted communication time (µs) of an arbitrary placement: the
   priced traffic of every ICC entry whose endpoints are separated,
   non-remotable ones priced as if remotable. *)
let comm_time_under ~icc ~net ~(placement : int -> Coign_core.Constraints.location) =
  List.fold_left
    (fun acc (e : Coign_core.Icc.entry) ->
      if placement e.Coign_core.Icc.src <> placement e.Coign_core.Icc.dst then
        acc +. price_entry net e
      else acc)
    0. (Coign_core.Icc.entries icc)

(* --- Values and their declared types -------------------------------- *)

(* Structural conformance of a value to an IDL type. [Int] conforms to
   both integer widths; [Null] and [Ref _] conform to [Ptr _];
   [Iface_ref] conforms to any [Iface _]. *)
let rec conforms ty v =
  match (ty, v) with
  | Idl_type.Void, Value.Unit -> true
  | (Idl_type.Int32 | Idl_type.Int64), Value.Int _ -> true
  | Idl_type.Double, Value.Float _ -> true
  | Idl_type.Bool, Value.Bool _ -> true
  | Idl_type.Str, Value.Str _ -> true
  | Idl_type.Blob, Value.Blob n -> n >= 0
  | Idl_type.Array elt, Value.Arr vs -> List.for_all (conforms elt) vs
  | Idl_type.Struct fts, Value.Struct fvs ->
      List.length fts = List.length fvs
      && List.for_all2
           (fun (fname, fty) (vname, fv) -> String.equal fname vname && conforms fty fv)
           fts fvs
  | Idl_type.Ptr _, Value.Null -> true
  | Idl_type.Ptr pointee, Value.Ref v -> conforms pointee v
  | Idl_type.Iface _, Value.Iface_ref _ -> true
  | Idl_type.Iface _, Value.Null -> true
  | Idl_type.Opaque _, Value.Opaque_handle _ -> true
  | _, _ -> false

(* All interface handles reachable in a value, in traversal order,
   whatever its declared type. *)
let rec iface_handles = function
  | Value.Unit | Value.Int _ | Value.Float _ | Value.Bool _ | Value.Str _ | Value.Blob _
  | Value.Null | Value.Opaque_handle _ ->
      []
  | Value.Iface_ref h -> [ h ]
  | Value.Ref v -> iface_handles v
  | Value.Arr vs -> List.concat_map iface_handles vs
  | Value.Struct fvs -> List.concat_map (fun (_, v) -> iface_handles v) fvs

(* The distribution informer's walk of one declared type: the only
   parameter of a one-method signature, compiled as the RTE compiles
   it. *)
let compile_iface_walk ty =
  List.hd (Midl.compile_method (Idl_type.method_ "walk" [ Idl_type.param "p" ty ])).Midl.iface_procs

(* Interface handles at positions the walk types [Iface], in traversal
   order. *)
let handles_with p v =
  let acc = ref [] in
  ignore
    (Midl.map_handles_with p
       (fun acc h ->
         acc := h :: !acc;
         h)
       acc v);
  List.rev !acc

(* Deep-copy size of one value against its declared type, as a
   result. *)
let value_size ty v =
  match Marshal_size.value_size_exn ty v with
  | n -> Ok n
  | exception Marshal_size.Err e -> Error e

(* --- Classification -------------------------------------------------- *)

(* Load [frames] (most recent first) onto [stack] as the RTE would:
   three ints a frame, the call site interned by the memo. *)
let load_stack memo stack frames =
  let open Coign_core in
  while Shadow_stack.depth stack > 0 do
    Shadow_stack.pop stack
  done;
  List.iter
    (fun (f : Frame.t) ->
      Shadow_stack.push stack ~inst:f.f_inst ~classification:f.f_classification
        ~site:(Classifier.site memo ~cls:f.f_class ~iface:f.f_iface ~meth:f.f_meth))
    (List.rev frames)

(* Classify an instantiation whose shadow stack holds [stack] through a
   fresh memo, which always misses: the descriptor path the RTE's memo
   falls back to, which counts the instance as every classification
   does. *)
let classify t ~cname ~stack =
  let memo = Coign_core.Classifier.memo t and shadow = Coign_core.Shadow_stack.create () in
  load_stack memo shadow stack;
  Coign_core.Classifier.classify_memo memo ~cname shadow

(* --- Events ---------------------------------------------------------- *)

(* The profiling logger: summarizes [Interface_call] events into the
   classification-level ICC histograms and the instance-level matrix;
   other events are ignored (instantiation data lives in the classifier
   state). The profiling RTE records the same summaries without
   building events. *)
let profiling_logger ~icc ~inst_comm : Coign_core.Logger.t =
  let open Coign_core in
  function
  | Event.Interface_call
      { caller; caller_classification; callee; callee_classification; iface; meth = _;
        remotable; request_bytes; reply_bytes } ->
      Icc.record icc ~src:caller_classification ~dst:callee_classification ~iface ~remotable
        ~request:request_bytes ~reply:reply_bytes;
      Inst_comm.record inst_comm ~src:caller ~dst:callee ~bytes:request_bytes;
      Inst_comm.record inst_comm ~src:callee ~dst:caller ~bytes:reply_bytes
  | Event.Component_instantiated _ | Event.Interface_instantiated _ | Event.Call_retried _
  | Event.Instantiation_degraded _ | Event.Breaker_opened _ | Event.Breaker_closed _
  | Event.Failover _ | Event.Failback _ | Event.Instance_migrated _ | Event.Drift_detected _
  | Event.Repartitioned _ | Event.Replica_promoted _ | Event.Shard_split _ | Event.Pool_resized _ ->
      ()

(* --- Images ---------------------------------------------------------- *)

(* The un-instrumented image: no runtime import, no configuration
   record. *)
let strip (img : Coign_image.Binary_image.t) =
  {
    img with
    imports = List.filter (fun d -> d <> "coignrte.dll") img.imports;
    config = None;
  }

(* --- Calls ----------------------------------------------------------- *)

(* A handler that ignores its arguments and returns [v]. *)
let ret v : Coign_com.Combuild.handler = fun _ctx _args -> v

(* Resolve the method by name on the handle's interface, then call it:
   a lookup per call, where an application calls by slot. *)
let call_named ctx h mname args =
  let open Coign_com in
  let itype = Runtime.handle_itype ctx h in
  match Itype.method_index itype mname with
  | meth -> Runtime.call ctx h ~meth args
  | exception Not_found ->
      Hresult.fail
        (Hresult.E_invalidarg
           (Printf.sprintf "interface %s has no method %S" (Itype.name itype) mname))

(* --- Counterexample traces -------------------------------------------- *)

(* Replay a verifier counterexample trace through the real runtime
   machinery. The explorer works on canonicalized abstractions; replay
   drives the genuine articles — a mutable [Health.t] breaker advanced
   on a real virtual clock, and a [Factory] whose recorded instances
   stand in for the groups, moved under exactly the ladder-table gating
   the RTE's rung switch applies. A trace is confirmed when the
   violations it was reported for manifest here too: a separated
   non-remotable pair read back from [Factory.machine_of] is precisely
   the condition under which the RTE's marshaling layer raises
   [E_cannot_marshal]. *)
module Replay = struct
  open Coign_core
  open Coign_verify
  module Health = Coign_netsim.Health

  type outcome = {
    ro_codes : string list;  (* violation codes manifested, in order *)
    ro_invalid : string option;
        (* [Some reason] when the trace is not executable (a call the
           breaker rejects, a migration the ladder table forbids); the
           explorer never emits such traces *)
  }

  (* One factory instance per group, numbered from 1 (0 is main). *)
  let inst_of_group g = g + 1

  let run m trace =
    let rung0 = Array.map (fun g -> g.Model.g_targets.(0)) m.Model.m_groups in
    let factory = Factory.create Factory.All_client in
    Array.iteri (fun g loc -> Factory.record_instance factory ~inst:(inst_of_group g) loc) rung0;
    let breaker = Health.create ~policy:m.Model.m_policy () in
    let rung = ref 0 and now = ref 0. and codes = ref [] and invalid = ref None in
    let bottom = Model.rung_count m - 1 in
    let note code = if not (List.mem code !codes) then codes := !codes @ [ code ] in
    let fail msg = if !invalid = None then invalid := Some msg in
    let check_crossings () =
      Array.iter
        (fun e ->
          if
            e.Model.e_non_remotable
            && Factory.machine_of factory (inst_of_group e.Model.e_a)
               <> Factory.machine_of factory (inst_of_group e.Model.e_b)
          then note "CG008")
        m.Model.m_edges
    in
    let on_transition = function
      | Some { Health.tr_to = Health.Open; _ } -> rung := min (!rung + 1) bottom
      | Some { Health.tr_to = Health.Closed; _ } -> rung := 0
      | _ -> ()
    in
    let migrate g =
      let grp = m.Model.m_groups.(g) in
      if not grp.Model.g_ladder_safe then
        fail (Printf.sprintf "trace migrates ladder-unsafe group %s" grp.Model.g_subject)
      else begin
        Factory.record_instance factory ~inst:(inst_of_group g) grp.Model.g_targets.(!rung);
        if not grp.Model.g_truth_safe then note "CG009"
      end
    in
    let step ev =
      (match ev with
      | Explore.Link_ok | Explore.Link_fail ->
          now := !now +. 1.;
          if not (Health.allows breaker ~now_us:!now) then
            fail "trace issues a call the open breaker rejects"
          else
            on_transition
              (if ev = Explore.Link_ok then Health.record_success breaker ~now_us:!now
               else Health.record_failure breaker ~now_us:!now)
      | Explore.Cooloff -> (
          now := Float.max !now (Health.cooloff_expires_at breaker);
          match Health.observe breaker ~now_us:!now with
          | Some { Health.tr_to = Health.Half_open; _ } -> ()
          | _ -> note "CG010")
      | Explore.Migrate g -> migrate g
      | Explore.Promote g ->
          (* The factory abstraction has one server machine, so a
             promotion cannot move the instance anywhere observable —
             replay confirms the gating instead: the ladder table must
             claim the group safe for the RTE to promote it at all, and
             a truth-unsafe subject is the I4 violation the trace was
             reported for. *)
          let grp = m.Model.m_groups.(g) in
          if not grp.Model.g_ladder_safe then
            fail (Printf.sprintf "trace promotes ladder-unsafe group %s" grp.Model.g_subject)
          else if not grp.Model.g_truth_safe then note "CG009"
      | Explore.Migrate_rest ->
          Array.iter
            (fun grp ->
              if
                (not (Model.risky grp))
                && grp.Model.g_ladder_safe
                && Factory.machine_of factory (inst_of_group grp.Model.g_id)
                   <> grp.Model.g_targets.(!rung)
              then migrate grp.Model.g_id)
            m.Model.m_groups);
      check_crossings ()
    in
    check_crossings ();
    List.iter (fun ev -> if !invalid = None then step ev) trace;
    { ro_codes = !codes; ro_invalid = !invalid }
end
