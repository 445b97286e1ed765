(* Reference implementations the suites check the system against, and
   drivers that call it the way a test finds convenient. The system
   itself runs none of them. *)

open Coign_idl

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
  Shadow_stack.clear stack;
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

(* --- Calls ----------------------------------------------------------- *)

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
