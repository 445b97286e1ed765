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

(* --- Network profiles ------------------------------------------------ *)

(* The profiler as it was before a profile stored flat arrays: each
   observation a [(bytes, us)] tuple built through lists, the means a
   tuple array, the fit over a float-pair array. [Net_profiler] must
   reproduce every field of it, bit for bit. *)
module Profiler_ref = struct
  open Coign_util
  open Coign_netsim

  type t = {
    profiled_name : string;
    observations : (int * float) array;
    means : (int * float) array;
    fixed_us : float;
    per_byte_us : float;
  }

  let representative_sizes =
    let rec go acc size = if size > 1 lsl 20 then List.rev acc else go (size :: acc) (size * 2) in
    go [ 16 ] 64

  let linear_fit points =
    let n = Array.length points in
    if n < 2 then invalid_arg "Profiler_ref.linear_fit: need at least two points";
    let sx = ref 0. and sy = ref 0. and sxx = ref 0. and sxy = ref 0. in
    Array.iter
      (fun (x, y) ->
        sx := !sx +. x;
        sy := !sy +. y;
        sxx := !sxx +. (x *. x);
        sxy := !sxy +. (x *. y))
      points;
    let nf = float_of_int n in
    let denom = (nf *. !sxx) -. (!sx *. !sx) in
    let slope = ((nf *. !sxy) -. (!sx *. !sy)) /. denom in
    let intercept = (!sy -. (slope *. !sx)) /. nf in
    (intercept, slope)

  let means_of (observations : (int * float) array) =
    let n = Array.length observations in
    let runs = ref [] and i = ref 0 in
    while !i < n do
      let size = fst observations.(!i) in
      let sum = ref 0. and count = ref 0 in
      while !i < n && fst observations.(!i) = size do
        sum := !sum +. snd observations.(!i);
        incr count;
        incr i
      done;
      runs := (size, !sum /. float_of_int !count) :: !runs
    done;
    Array.of_list (List.rev !runs)

  let profile rng net =
    let observations =
      List.concat_map
        (fun size ->
          List.init 7 (fun _ ->
              let true_us = Network.message_us net ~bytes:size in
              let observed = Prng.gaussian rng ~mu:true_us ~sigma:(0.02 *. true_us) in
              (size, Float.max 0. observed)))
        representative_sizes
      |> Array.of_list
    in
    let points = Array.map (fun (b, us) -> (float_of_int b, us)) observations in
    let fixed_us, per_byte_us = linear_fit points in
    {
      profiled_name = net.Network.net_name;
      observations;
      means = means_of observations;
      fixed_us;
      per_byte_us;
    }

  let exact net =
    {
      profiled_name = net.Network.net_name;
      observations = [||];
      means = [||];
      fixed_us = net.Network.proc_us +. net.Network.latency_us;
      per_byte_us = 8. /. net.Network.bandwidth_mbps;
    }

  let penalize t ~suffix ~penalty_us =
    let observations = Array.map (fun (b, us) -> (b, us +. penalty_us)) t.observations in
    {
      profiled_name = t.profiled_name ^ "+" ^ suffix;
      observations;
      means = means_of observations;
      fixed_us = t.fixed_us +. penalty_us;
      per_byte_us = t.per_byte_us;
    }

  let degrade t =
    let drop_rate = 0.3 and retry = Fault.default_retry in
    let p_fail = 1. -. ((1. -. drop_rate) ** 2.) in
    let expected_retries = p_fail /. (1. -. p_fail) in
    let penalty_us =
      expected_retries *. (retry.Fault.rp_timeout_us +. retry.Fault.rp_backoff_us)
    in
    penalize t ~suffix:(Printf.sprintf "lossy%g" drop_rate) ~penalty_us

  let link_down t = penalize t ~suffix:"down" ~penalty_us:1e7

  (* Field by field, floats compared by their bits. *)
  let equal (ref_ : t) (p : Net_profiler.t) =
    let bits = Int64.bits_of_float in
    let same_floats a b =
      Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b
    in
    String.equal ref_.profiled_name p.Net_profiler.profiled_name
    && Array.map fst ref_.observations = p.Net_profiler.obs_bytes
    && same_floats (Array.map snd ref_.observations) p.Net_profiler.obs_us
    && Array.map fst ref_.means = p.Net_profiler.mean_bytes
    && same_floats (Array.map snd ref_.means) p.Net_profiler.mean_us
    && bits ref_.fixed_us = bits p.Net_profiler.fixed_us
    && bits ref_.per_byte_us = bits p.Net_profiler.per_byte_us
end

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

(* --- Constraints ----------------------------------------------------- *)

module Validate_ref = struct
  open Coign_core

  (* The classifications of each class name among the first [n],
     ascending — one index per pass over the class pins. *)
  let classifications_by_class classifier ~n =
    let tbl : (string, int list) Hashtbl.t = Hashtbl.create 32 in
    for c = n - 1 downto 0 do
      let cname = Classifier.class_of_classification classifier c in
      Hashtbl.replace tbl cname (c :: Option.value ~default:[] (Hashtbl.find_opt tbl cname))
    done;
    fun cname -> Option.value ~default:[] (Hashtbl.find_opt tbl cname)

  (* The by-name validator [Analysis.validate] replaced: each pinned
     class's classifications looked up in a class-name table built per
     call. Broken class pins in name order, then classification pins
     and split co-location pairs as listed. *)
  let validate ~classifier ~constraints (d : Analysis.distribution) =
    let location_of = Analysis.location_of in
    let n = Classifier.classification_count classifier in
    let classifications_of = classifications_by_class classifier ~n in
    let pin_violations =
      List.concat_map
        (fun (cname, loc) ->
          if List.exists (fun c -> location_of d c <> loc) (classifications_of cname)
          then [ Analysis.Pin_violated (cname, loc) ]
          else [])
        (Constraints.pinned_classes constraints)
      @ List.concat_map
          (fun (c, loc) ->
            if c >= 0 && c < n && location_of d c <> loc then
              [ Analysis.Pin_violated (Printf.sprintf "classification %d" c, loc) ]
            else [])
          (Constraints.pinned_classifications constraints)
    in
    let split_classifications =
      List.filter_map
        (fun (a, b) ->
          if location_of d a <> location_of d b then Some (Analysis.Split_classifications (a, b))
          else None)
        (Constraints.colocated_pairs constraints)
    in
    pin_violations @ split_classifications
end

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

(* An analysis session over an in-memory ICC summary: the abstract
   graph built from it, then the session over the graph. *)
let session ~classifier ~icc ~constraints =
  Coign_core.Analysis.Session.of_graph ~classifier
    ~graph:(Coign_core.Icc_graph.build ~classifier ~icc)
    ~constraints ()

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

(* --- Reference verifier ------------------------------------------------
   The string-keyed model builder and explorer the verifier replaced,
   kept as the differential oracle for [Coign_verify.Model.build] and
   [Coign_verify.Explore.run]: polymorphic hash tables keyed on whole
   signatures and state strings, lists for every event and edge scan.
   Slow and simple; the properties in [test_verify] check that the
   int-keyed implementation returns exactly what this one does. *)
module Verify_ref = struct
  open Coign_core
  open Coign_verify
  module Health = Coign_netsim.Health

  let build ?(policy = Health.default_policy) ~classifier ~icc ~ladder ~truth () =
    let prs = Array.init (Fallback.rung_count ladder) (Fallback.rung ladder) in
    let n = Array.length truth in
    let place r c = Analysis.location_of prs.(r).Fallback.pr_distribution c in
    let ring r c =
      if place r c <> Constraints.Server then [||]
      else
        let pr = prs.(r) in
        let s = Pool.shard_in pr.Fallback.pr_shard_of c in
        let shape = pr.Fallback.pr_shape in
        let len = if pr.Fallback.pr_replicated.(s) then shape.Pool.sh_replicas else 1 in
        Array.init len (fun i -> (Pool.host_of shape s + i) mod shape.Pool.sh_hosts)
    in
    let rungs = Array.length prs in
    let members = Array.init (n + 1) (fun i -> i - 1) in
    let non_remotable_adjacent = Hashtbl.create 16 in
    List.iter
      (fun (e : Icc.entry) ->
        if (not e.Icc.remotable) && e.Icc.src <> e.Icc.dst then begin
          Hashtbl.replace non_remotable_adjacent e.Icc.src ();
          Hashtbl.replace non_remotable_adjacent e.Icc.dst ()
        end)
      (Icc.entries icc);
    let signature c =
      let targets = Array.init rungs (fun r -> place r c) in
      let rings = Array.init rungs (fun r -> ring r c) in
      let ladder_safe = Fallback.migration_safe ladder c in
      let truth_safe = c >= 0 && c < n && truth.(c) in
      (targets, rings, ladder_safe, truth_safe)
    in
    let subject c = if c < 0 then "main" else Classifier.class_of_classification classifier c in
    let buckets :
        (Constraints.location array * int array array * bool * bool, int list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let singletons = ref [] in
    Array.iter
      (fun c ->
        if Hashtbl.mem non_remotable_adjacent c then singletons := c :: !singletons
        else
          let key = signature c in
          match Hashtbl.find_opt buckets key with
          | Some l -> l := c :: !l
          | None -> Hashtbl.add buckets key (ref [ c ]))
      members;
    let proto =
      List.map (fun c -> [ c ]) !singletons
      @ Hashtbl.fold (fun _ l acc -> List.rev !l :: acc) buckets []
    in
    let proto =
      List.sort (fun a b -> compare (List.hd a) (List.hd b))
        (List.map (fun l -> List.sort compare l) proto)
    in
    let groups =
      Array.of_list
        (List.mapi
           (fun i ms ->
             let c0 = List.hd ms in
             let targets, rings, ladder_safe, truth_safe = signature c0 in
             {
               Model.g_id = i;
               g_members = ms;
               g_subject = subject c0;
               g_targets = targets;
               g_hosts = Array.map (fun ring -> if ring = [||] then 0 else ring.(0)) rings;
               g_promote =
                 Array.map (fun ring -> if Array.length ring > 1 then ring.(1) else -1) rings;
               g_ladder_safe = ladder_safe;
               g_truth_safe = truth_safe;
             })
           proto)
    in
    let group_of = Hashtbl.create 16 in
    Array.iter
      (fun g -> List.iter (fun c -> Hashtbl.replace group_of c g.Model.g_id) g.Model.g_members)
      groups;
    let acc : (int * int, string * bool * bool) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (e : Icc.entry) ->
        if e.Icc.src <> e.Icc.dst then
          let ga = Hashtbl.find group_of e.Icc.src and gb = Hashtbl.find group_of e.Icc.dst in
          if ga <> gb then begin
            let key = (min ga gb, max ga gb) in
            let iface, rem, nonrem =
              match Hashtbl.find_opt acc key with
              | Some cur -> cur
              | None -> (e.Icc.iface, false, false)
            in
            let iface = if (not e.Icc.remotable) && not nonrem then e.Icc.iface else iface in
            Hashtbl.replace acc key (iface, rem || e.Icc.remotable, nonrem || not e.Icc.remotable)
          end)
      (Icc.entries icc);
    let edges =
      Hashtbl.fold
        (fun (a, b) (iface, rem, nonrem) l ->
          { Model.e_a = a; e_b = b; e_iface = iface; e_remotable = rem; e_non_remotable = nonrem }
          :: l)
        acc []
    in
    let edges =
      List.sort (fun x y -> compare (x.Model.e_a, x.Model.e_b) (y.Model.e_a, y.Model.e_b)) edges
    in
    {
      Model.m_groups = groups;
      m_edges = Array.of_list edges;
      m_rung_names = Array.map (fun pr -> pr.Fallback.pr_name) prs;
      m_policy = policy;
      m_cooloffs =
        (let p = policy in
         let rec go acc c =
           let c' = Float.min (c *. p.Health.hp_cooloff_mult) p.Health.hp_cooloff_max_us in
           if c' = c then List.rev (c :: acc) else go (c :: acc) c'
         in
         Array.of_list (go [] p.Health.hp_cooloff_us));
      m_classifications = n + 1;
    }

  type state = {
    st_rung : int;
    st_snap : Health.snapshot;
    st_locs : Constraints.location array;
    st_hosts : int array;
  }

  let canon (snap : Health.snapshot) =
    {
      snap with
      Health.sn_opened_at_us = 0.;
      sn_consecutive_failures =
        (match snap.Health.sn_state with
        | Health.Closed -> snap.Health.sn_consecutive_failures
        | _ -> 0);
      sn_probe_successes =
        (match snap.Health.sn_state with
        | Health.Half_open -> snap.Health.sn_probe_successes
        | _ -> 0);
    }

  let init m =
    {
      st_rung = 0;
      st_snap = canon (Health.initial_snapshot m.Model.m_policy);
      st_locs = Array.map (fun g -> g.Model.g_targets.(0)) m.Model.m_groups;
      st_hosts = Array.map (fun g -> g.Model.g_hosts.(0)) m.Model.m_groups;
    }

  (* The parent's key wrote each host as one character, which raised
     for hosts above 207; this one writes it as a number, so the
     oracle explores every pool the explorer does. *)
  let key m st =
    let b = Buffer.create 32 in
    Buffer.add_string b (string_of_int st.st_rung);
    Buffer.add_char b '|';
    Buffer.add_string b (Health.state_name st.st_snap.Health.sn_state);
    Buffer.add_char b '|';
    Buffer.add_string b (string_of_int st.st_snap.Health.sn_consecutive_failures);
    Buffer.add_char b '|';
    Buffer.add_string b (string_of_int st.st_snap.Health.sn_probe_successes);
    Buffer.add_char b '|';
    Buffer.add_string b (string_of_int (Model.cooloff_index m st.st_snap.Health.sn_cooloff_us));
    Buffer.add_char b '|';
    Array.iter
      (fun loc ->
        Buffer.add_char b (match loc with Constraints.Client -> 'c' | Constraints.Server -> 's'))
      st.st_locs;
    Array.iter
      (fun h ->
        Buffer.add_char b '|';
        Buffer.add_string b (string_of_int h))
      st.st_hosts;
    Buffer.contents b

  let separated_loc st (e : Model.edge) = st.st_locs.(e.Model.e_a) <> st.st_locs.(e.Model.e_b)

  let separated st (e : Model.edge) =
    separated_loc st e
    || st.st_locs.(e.Model.e_a) = Constraints.Server
       && st.st_hosts.(e.Model.e_a) <> st.st_hosts.(e.Model.e_b)

  let link_active m st =
    Array.exists (fun e -> e.Model.e_remotable && separated_loc st e) m.Model.m_edges

  let off_target m st g =
    let grp = m.Model.m_groups.(g) in
    grp.Model.g_ladder_safe
    && (st.st_locs.(g) <> grp.Model.g_targets.(st.st_rung)
       || st.st_hosts.(g) <> grp.Model.g_hosts.(st.st_rung))

  let enabled m st =
    let migrations =
      let risky = ref [] and rest = ref false in
      Array.iter
        (fun grp ->
          if off_target m st grp.Model.g_id then
            if Model.risky grp then risky := Explore.Migrate grp.Model.g_id :: !risky
            else rest := true)
        m.Model.m_groups;
      List.rev !risky @ if !rest then [ Explore.Migrate_rest ] else []
    in
    let promotions =
      Array.to_list m.Model.m_groups
      |> List.filter_map (fun grp ->
             if
               Model.risky grp
               && grp.Model.g_promote.(st.st_rung) >= 0
               && st.st_locs.(grp.Model.g_id) = Constraints.Server
               && not (off_target m st grp.Model.g_id)
             then Some (Explore.Promote grp.Model.g_id)
             else None)
    in
    let breaker =
      match st.st_snap.Health.sn_state with
      | Health.Open -> [ Explore.Cooloff ]
      | Health.Closed | Health.Half_open ->
          if link_active m st then [ Explore.Link_ok; Explore.Link_fail ] else []
    in
    breaker @ migrations @ promotions

  let rung_after m rung = function
    | Some { Health.tr_to = Health.Open; _ } -> min (rung + 1) (Model.rung_count m - 1)
    | Some { Health.tr_to = Health.Closed; _ } -> 0
    | _ -> rung

  let apply m st ev =
    match ev with
    | Explore.Link_ok | Explore.Link_fail ->
        let input = match ev with Explore.Link_ok -> Health.Success | _ -> Health.Failure in
        let snap, tr = Health.transition m.Model.m_policy st.st_snap ~at_us:0. input in
        ({ st with st_rung = rung_after m st.st_rung tr; st_snap = canon snap }, [])
    | Explore.Cooloff -> (
        let at_us = st.st_snap.Health.sn_opened_at_us +. st.st_snap.Health.sn_cooloff_us in
        let snap, tr = Health.transition m.Model.m_policy st.st_snap ~at_us Health.Observe in
        match tr with
        | Some { Health.tr_to = Health.Half_open; _ } -> ({ st with st_snap = canon snap }, [])
        | _ ->
            ( st,
              [
                ( "CG010",
                  Lint.Error,
                  m.Model.m_rung_names.(st.st_rung),
                  Printf.sprintf
                    "open breaker on rung %d (%s) admits no half-open probe at cooloff expiry"
                    st.st_rung m.Model.m_rung_names.(st.st_rung) );
              ] ))
    | Explore.Migrate g ->
        let grp = m.Model.m_groups.(g) in
        let locs = Array.copy st.st_locs and hosts = Array.copy st.st_hosts in
        locs.(g) <- grp.Model.g_targets.(st.st_rung);
        hosts.(g) <- grp.Model.g_hosts.(st.st_rung);
        let viols =
          if grp.Model.g_truth_safe then []
          else
            [
              ( "CG009",
                Lint.Error,
                grp.Model.g_subject,
                Printf.sprintf
                  "ladder table migrates %s live on rung %d (%s), but the static facts mark it \
                   unsafe"
                  grp.Model.g_subject st.st_rung m.Model.m_rung_names.(st.st_rung) );
            ]
        in
        ({ st with st_locs = locs; st_hosts = hosts }, viols)
    | Explore.Migrate_rest ->
        let locs = Array.copy st.st_locs and hosts = Array.copy st.st_hosts in
        Array.iter
          (fun grp ->
            if (not (Model.risky grp)) && off_target m st grp.Model.g_id then begin
              locs.(grp.Model.g_id) <- grp.Model.g_targets.(st.st_rung);
              hosts.(grp.Model.g_id) <- grp.Model.g_hosts.(st.st_rung)
            end)
          m.Model.m_groups;
        ({ st with st_locs = locs; st_hosts = hosts }, [])
    | Explore.Promote g ->
        let grp = m.Model.m_groups.(g) in
        let hosts = Array.copy st.st_hosts in
        hosts.(g) <- grp.Model.g_promote.(st.st_rung);
        let viols =
          [
            ( "CG009",
              Lint.Error,
              grp.Model.g_subject,
              Printf.sprintf
                "ladder table promotes %s between pool hosts on rung %d (%s), but the static \
                 facts mark it unsafe"
                grp.Model.g_subject st.st_rung m.Model.m_rung_names.(st.st_rung) );
          ]
        in
        ({ st with st_hosts = hosts }, viols)

  let state_violations m st =
    Array.to_list m.Model.m_edges
    |> List.filter_map (fun e ->
           if e.Model.e_non_remotable && separated st e then
             let a = m.Model.m_groups.(e.Model.e_a).Model.g_subject
             and b = m.Model.m_groups.(e.Model.e_b).Model.g_subject in
             let message =
               if separated_loc st e then
                 Printf.sprintf
                   "reachable placement separates %s and %s across non-remotable %s (rung %d, %s)"
                   a b e.Model.e_iface st.st_rung m.Model.m_rung_names.(st.st_rung)
               else
                 Printf.sprintf
                   "reachable placement splits %s and %s across pool hosts %d/%d on \
                    non-remotable %s (rung %d, %s)"
                   a b
                   st.st_hosts.(e.Model.e_a)
                   st.st_hosts.(e.Model.e_b)
                   e.Model.e_iface st.st_rung m.Model.m_rung_names.(st.st_rung)
             in
             Some ("CG008", Lint.Error, e.Model.e_iface, message)
           else None)

  type subtree = {
    su_keys : string list;
    su_transitions : int;
    su_dedup_hits : int;
    su_depth : int;
    su_complete : bool;
    su_rungs : bool array;
    su_violations : (string * Explore.violation) list;
  }

  let record_violation tbl trace (code, severity, subject, message) =
    let k = code ^ "\x00" ^ subject in
    if not (Hashtbl.mem tbl k) then
      Hashtbl.add tbl k
        {
          Explore.vl_code = code;
          vl_severity = severity;
          vl_subject = subject;
          vl_message = message;
          vl_trace = List.rev trace;
        }

  let explore_subtree m ~budget ~init_key (root_ev, root_st, root_viols) =
    let visited = Hashtbl.create 256 in
    Hashtbl.replace visited init_key ();
    let viols = Hashtbl.create 8 in
    let transitions = ref 1 and dedup = ref 0 and max_depth = ref 0 in
    let rungs = Array.make (Array.length m.Model.m_rung_names) false in
    let truncated = ref false in
    let q = Queue.create () in
    let admit st trace depth =
      let k = key m st in
      if Hashtbl.mem visited k then incr dedup
      else begin
        Hashtbl.replace visited k ();
        rungs.(st.st_rung) <- true;
        if depth > !max_depth then max_depth := depth;
        List.iter (record_violation viols trace) (state_violations m st);
        if depth < budget then Queue.add (st, trace, depth) q else truncated := true
      end
    in
    List.iter (record_violation viols [ root_ev ]) root_viols;
    admit root_st [ root_ev ] 1;
    while not (Queue.is_empty q) do
      let st, trace, depth = Queue.pop q in
      List.iter
        (fun ev ->
          incr transitions;
          let st', step_viols = apply m st ev in
          let trace' = ev :: trace in
          List.iter (record_violation viols trace') step_viols;
          admit st' trace' (depth + 1))
        (enabled m st)
    done;
    {
      su_keys = Hashtbl.fold (fun k () acc -> k :: acc) visited [];
      su_transitions = !transitions;
      su_dedup_hits = !dedup;
      su_depth = !max_depth;
      su_complete = not !truncated;
      su_rungs = rungs;
      su_violations = Hashtbl.fold (fun k v acc -> (k, v) :: acc) viols [];
    }

  let trace_lt m a b =
    let la = List.length a and lb = List.length b in
    if la <> lb then la < lb
    else
      String.concat ";" (List.map (Explore.event_id m) a)
      < String.concat ";" (List.map (Explore.event_id m) b)

  let run ?(pool = Coign_util.Parallel.sequential) ?(depth = Explore.default_depth) m =
    if depth < 1 then invalid_arg "Verify.Explore.run: depth < 1";
    let st0 = init m in
    let init_key = key m st0 in
    let roots =
      List.map
        (fun ev ->
          let st', viols = apply m st0 ev in
          (ev, st', viols))
        (enabled m st0)
    in
    let subtrees =
      Coign_util.Parallel.map_list pool ~f:(explore_subtree m ~budget:depth ~init_key) roots
    in
    let keys = Hashtbl.create 256 in
    Hashtbl.replace keys init_key ();
    List.iter (fun s -> List.iter (fun k -> Hashtbl.replace keys k ()) s.su_keys) subtrees;
    let rungs = Array.make (Model.rung_count m) false in
    rungs.(st0.st_rung) <- true;
    List.iter
      (fun s -> Array.iteri (fun i b -> if b then rungs.(i) <- true) s.su_rungs)
      subtrees;
    let viols = Hashtbl.create 8 in
    List.iter (record_violation viols []) (state_violations m st0);
    List.iter
      (fun s ->
        List.iter
          (fun (k, v) ->
            match Hashtbl.find_opt viols k with
            | Some cur when not (trace_lt m v.Explore.vl_trace cur.Explore.vl_trace) -> ()
            | _ -> Hashtbl.replace viols k v)
          s.su_violations)
      subtrees;
    let violations =
      Hashtbl.fold (fun _ v acc -> v :: acc) viols []
      |> List.sort (fun a b ->
             compare
               (a.Explore.vl_code, a.Explore.vl_subject)
               (b.Explore.vl_code, b.Explore.vl_subject))
    in
    {
      Explore.r_stats =
        {
          Explore.sr_states = Hashtbl.length keys;
          sr_transitions = List.fold_left (fun a s -> a + s.su_transitions) 0 subtrees;
          sr_dedup_hits = List.fold_left (fun a s -> a + s.su_dedup_hits) 0 subtrees;
          sr_depth = List.fold_left (fun a s -> max a s.su_depth) 0 subtrees;
          sr_complete = List.for_all (fun s -> s.su_complete) subtrees;
          sr_rungs_reached = rungs;
        };
      r_violations = violations;
    }
end
