(* Compile an image's static facts, its fallback ladder and the breaker
   policy into a finite component-interaction model.

   The raw system is too large to enumerate directly — every instance
   placement would be a state — so construction performs a symmetry
   reduction up front: classifications are partitioned into groups that
   are interchangeable with respect to every checked invariant.  Two
   classifications share a group iff they have the same per-rung
   placement vector, the same per-rung replica ring (host vector) under
   the ladder, the same ladder migration-safety bit and the same
   derived (truth) safety bit — and neither touches a non-remotable ICC
   edge.  Classifications incident to a non-remotable edge are split
   into singleton groups so the I1 crossing check stays exact per
   endpoint.

   Soundness of tracking one location per group: members of a group are
   only ever connected to the rest of the graph by remotable edges
   (non-remotable endpoints are singletons), they share safety bits, and
   they share placement targets and pool hosts on every rung — so any
   state that distinguishes two members differs from its merged image
   only on remotable separations, which no invariant observes. *)

open Coign_core
module Health = Coign_netsim.Health

type group = {
  g_id : int;
  g_members : int list; (* classifications; -1 is the main program *)
  g_subject : string; (* representative class name, for diagnostics *)
  g_targets : Constraints.location array; (* placement per rung *)
  g_rings : int array array; (* per rung: the shard's replica ring, primary first *)
  g_ladder_safe : bool; (* what the ladder's table will act on *)
  g_truth_safe : bool; (* what the static facts actually derive *)
}

type edge = {
  e_a : int; (* group ids, e_a < e_b *)
  e_b : int;
  e_iface : string; (* sample interface; a non-remotable one if any *)
  e_remotable : bool; (* some remotable traffic crosses the pair *)
  e_non_remotable : bool; (* some non-remotable traffic does *)
}

type t = {
  m_groups : group array;
  m_edges : edge array;
  m_rung_names : string array;
  m_policy : Health.policy;
  m_cooloffs : float array; (* escalation chain, base to cap *)
  m_classifications : int; (* classifications folded in, incl. main *)
}

let rung_count m = Array.length m.m_rung_names

(* The host a group belongs on under a rung: its shard's primary, as
   the ladder placed it; 0 client-side. *)
let target_host g r =
  let ring = g.g_rings.(r) in
  if Array.length ring = 0 then 0 else ring.(0)

(* Where the RTE promotes a shard whose host [from] loses its breaker:
   the first other host of its replica ring; [from] when it has none. *)
let next_replica g r ~from =
  let ring = g.g_rings.(r) in
  let rec pick i =
    if i >= Array.length ring then from else if ring.(i) <> from then ring.(i) else pick (i + 1)
  in
  pick 0

let group_count m = Array.length m.m_groups

(* A group is risky when the ladder's table will migrate it but the
   static facts say it must not move: exactly the migrations that can
   manifest I1/I4 violations, so the explorer interleaves each one
   individually.  (Non-remotable adjacency implies truth-unsafe, so
   this single predicate covers both.) *)
let risky g = g.g_ladder_safe && not g.g_truth_safe

(* The cooloff values reachable by escalation: c, min(c*m, cap), ... to
   fixpoint.  Finite because the multiplier is >= 1 and capped. *)
let cooloff_chain (p : Health.policy) =
  let rec go acc c =
    let c' = Float.min (c *. p.Health.hp_cooloff_mult) p.Health.hp_cooloff_max_us in
    if c' = c then List.rev (c :: acc) else go (c :: acc) c'
  in
  Array.of_list (go [] p.Health.hp_cooloff_us)

let cooloff_index m c =
  let rec find i =
    if i >= Array.length m.m_cooloffs then
      invalid_arg
        (Printf.sprintf "Verify.Model: cooloff %g outside the escalation chain" c)
    else if Int64.bits_of_float m.m_cooloffs.(i) = Int64.bits_of_float c then i
    else find (i + 1)
  in
  find 0

let build ?(policy = Health.default_policy) ~classifier ~icc ~ladder ~truth () =
  let prs = Array.init (Fallback.rung_count ladder) (Fallback.rung ladder) in
  let n = Array.length truth in
  let place r c = Analysis.location_of prs.(r).Fallback.pr_distribution c in
  (* The replica ring of [c]'s shard on rung [r], as the RTE homes and
     promotes it: one host for a shard that may not replicate. *)
  let ring r c =
    if place r c <> Constraints.Server then [||]
    else
      let pr = prs.(r) in
      let s = Pool.shard_in pr.Fallback.pr_shard_of c in
      let shape = pr.Fallback.pr_shape in
      let len = if pr.Fallback.pr_replicated.(s) then shape.Pool.sh_replicas else 1 in
      Array.init len (Pool.replica shape s)
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
  (* Partition: singletons for non-remotable endpoints, signature
     buckets for the rest.  Group order is deterministic: by lowest
     member classification. *)
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
             g_id = i;
             g_members = ms;
             g_subject = subject c0;
             g_targets = targets;
             g_rings = rings;
             g_ladder_safe = ladder_safe;
             g_truth_safe = truth_safe;
           })
         proto)
  in
  let group_of = Hashtbl.create 16 in
  Array.iter (fun g -> List.iter (fun c -> Hashtbl.replace group_of c g.g_id) g.g_members) groups;
  (* Aggregate ICC traffic onto group pairs; intra-group edges are
     dropped (members never separate — see the header argument). *)
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
          Hashtbl.replace acc key
            (iface, rem || e.Icc.remotable, nonrem || not e.Icc.remotable)
        end)
    (Icc.entries icc);
  let edges =
    Hashtbl.fold
      (fun (a, b) (iface, rem, nonrem) l ->
        { e_a = a; e_b = b; e_iface = iface; e_remotable = rem; e_non_remotable = nonrem } :: l)
      acc []
  in
  let edges = List.sort (fun x y -> compare (x.e_a, x.e_b) (y.e_a, y.e_b)) edges in
  {
    m_groups = groups;
    m_edges = Array.of_list edges;
    m_rung_names = Array.map (fun pr -> pr.Fallback.pr_name) prs;
    m_policy = policy;
    m_cooloffs = cooloff_chain policy;
    m_classifications = n + 1;
  }
