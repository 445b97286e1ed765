(* Compile an image's static facts, its fallback ladder and the breaker
   policy into a finite component-interaction model.

   The raw system is too large to enumerate directly — every instance
   placement would be a state — so construction performs a symmetry
   reduction up front: classifications are partitioned into groups that
   are interchangeable with respect to every checked invariant.  Two
   classifications share a group iff they have the same per-rung
   placement vector, the same per-rung primary and promotion hosts under
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

open Coign_util
open Coign_core
module Health = Coign_netsim.Health

type group = {
  g_id : int;
  g_members : int list; (* classifications; -1 is the main program *)
  g_subject : string; (* representative class name, for diagnostics *)
  g_targets : Constraints.location array; (* placement per rung *)
  g_hosts : int array; (* per rung: the shard's primary host, 0 client-side *)
  g_promote : int array; (* per rung: the host a promotion moves it to, -1 for none *)
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

(* Per-domain scratch, cleared for each build: signature hash -> the
   newest bucket with that hash, and packed group pair -> edge index. *)
let bucket_table = Domain.DLS.new_key (fun () -> Int_table.create ~absent:(-1) 64)
let pair_table = Domain.DLS.new_key (fun () -> Int_table.create ~absent:(-1) 64)

(* [before src dst iface i j]: ICC entry [i] precedes [j] in the
   summary's canonical order, (source, target, interface). *)
let before src dst iface i j =
  let c = Int.compare src.(i) src.(j) in
  if c <> 0 then c < 0
  else
    let c = Int.compare dst.(i) dst.(j) in
    if c <> 0 then c < 0 else String.compare iface.(i) iface.(j) < 0

(* The core: one ICC entry per index of [src], [dst], [iface] and
   [remotable], in any order.  Nothing here depends on the order: the
   adjacency marks and remotability bits are unions, and an edge's
   sample interface is picked by the canonical order itself. *)
let of_pairs ~policy ~classifier ~ladder ~truth ~src ~dst ~iface ~remotable =
  let prs = Array.init (Fallback.rung_count ladder) (Fallback.rung ladder) in
  let rungs = Array.length prs in
  let n = Array.length truth in
  let place r c = Analysis.location_of prs.(r).Fallback.pr_distribution c in
  (* One signature word per rung: 0 client-side, else the shard's
     replica ring.  A ring runs round the pool from its primary, so its
     primary and whether it is longer than one host name it (and with
     them the promotion host): 1 + 2 * primary + long.  A last word
     holds the ladder and truth safety bits. *)
  let code r c =
    if place r c <> Constraints.Server then 0
    else
      let pr = prs.(r) in
      let s = Pool.shard_in pr.Fallback.pr_shard_of c in
      let shape = pr.Fallback.pr_shape in
      let long = pr.Fallback.pr_replicated.(s) && shape.Pool.sh_replicas > 1 in
      1 + (2 * Pool.host_of shape s) + Bool.to_int long
  in
  let ladder_safe c = Fallback.migration_safe ladder c in
  let truth_safe c = c >= 0 && c < n && truth.(c) in
  let width = rungs + 1 in
  (* Classification [c] lives at index [c + 1]: main is -1. *)
  let slot c = if c < -1 || c >= n then raise Not_found else c + 1 in
  let entries = Array.length src in
  let non_remotable_adjacent = Array.make (n + 1) false in
  for i = 0 to entries - 1 do
    if (not remotable.(i)) && src.(i) <> dst.(i) then begin
      if src.(i) >= -1 && src.(i) < n then non_remotable_adjacent.(src.(i) + 1) <- true;
      if dst.(i) >= -1 && dst.(i) < n then non_remotable_adjacent.(dst.(i) + 1) <- true
    end
  done;
  (* Partition: singletons for non-remotable endpoints, signature
     buckets for the rest.  Classifications are visited in ascending
     order, so group ids come out ordered by lowest member. *)
  let group_of = Array.make (n + 1) 0 and rep = Array.make (n + 1) 0 in
  let groups = ref 0 in
  let sigs = Array.make ((n + 1) * width) 0 in
  let bucket_group = Array.make (n + 1) 0 and bucket_next = Array.make (n + 1) 0 in
  let buckets = ref 0 in
  let index = Domain.DLS.get bucket_table in
  Int_table.clear index;
  let scratch = Array.make width 0 in
  let same b =
    let base = b * width in
    let rec go j = j >= width || (sigs.(base + j) = scratch.(j) && go (j + 1)) in
    go 0
  in
  for c = -1 to n - 1 do
    let g =
      if non_remotable_adjacent.(c + 1) then begin
        let g = !groups in
        incr groups;
        rep.(g) <- c;
        g
      end
      else begin
        let h = ref ((2 * Bool.to_int (ladder_safe c)) + Bool.to_int (truth_safe c)) in
        scratch.(rungs) <- !h;
        for r = 0 to rungs - 1 do
          let w = code r c in
          scratch.(r) <- w;
          h := (!h * 0x100000001b3) lxor w
        done;
        let h = !h land max_int in
        let head = Int_table.find index h in
        let b = ref head in
        while !b >= 0 && not (same !b) do
          b := bucket_next.(!b)
        done;
        if !b >= 0 then bucket_group.(!b)
        else begin
          let b = !buckets and g = !groups in
          incr buckets;
          incr groups;
          Array.blit scratch 0 sigs (b * width) width;
          bucket_group.(b) <- g;
          bucket_next.(b) <- head;
          Int_table.replace index h b;
          rep.(g) <- c;
          g
        end
      end
    in
    group_of.(c + 1) <- g
  done;
  let ngroups = !groups in
  let members = Array.make ngroups [] in
  for c = n - 1 downto -1 do
    let g = group_of.(c + 1) in
    members.(g) <- c :: members.(g)
  done;
  (* Per rung, a server-side group lives on its shard's primary, and a
     replicated shard promotes along the RTE's ring walk, every other
     host admitted. *)
  let groups =
    Array.init ngroups (fun g ->
        let c0 = rep.(g) in
        let targets = Array.make rungs Constraints.Client in
        let hosts = Array.make rungs 0 and promote = Array.make rungs (-1) in
        for r = 0 to rungs - 1 do
          if place r c0 = Constraints.Server then begin
            targets.(r) <- Constraints.Server;
            let pr = prs.(r) in
            let s = Pool.shard_in pr.Fallback.pr_shard_of c0 in
            let shape = pr.Fallback.pr_shape in
            let primary = Pool.host_of shape s in
            hosts.(r) <- primary;
            if pr.Fallback.pr_replicated.(s) then
              promote.(r) <- Pool.first_replica shape s ~except:primary ~admits:(fun _ -> true)
          end
        done;
        {
          g_id = g;
          g_members = members.(g);
          g_subject = (if c0 < 0 then "main" else Classifier.class_of_classification classifier c0);
          g_targets = targets;
          g_hosts = hosts;
          g_promote = promote;
          g_ladder_safe = ladder_safe c0;
          g_truth_safe = truth_safe c0;
        })
  in
  (* Aggregate ICC traffic onto group pairs, packed lower group high;
     intra-group edges are dropped (members never separate — see the
     header argument).  An edge's sample interface is its canonically
     first non-remotable entry's, else its canonically first entry's. *)
  let pairs = Domain.DLS.get pair_table in
  Int_table.clear pairs;
  let pair_key = Array.make entries 0 and first = Array.make entries 0 in
  let first_non_remotable = Array.make entries (-1) and any_remotable = Array.make entries false in
  let edges = ref 0 in
  for i = 0 to entries - 1 do
    if src.(i) <> dst.(i) then begin
      let ga = group_of.(slot src.(i)) and gb = group_of.(slot dst.(i)) in
      if ga <> gb then begin
        let key = (Int.min ga gb lsl 30) lor Int.max ga gb in
        let e = Int_table.find_or_add pairs key !edges in
        if e = !edges then begin
          incr edges;
          pair_key.(e) <- key;
          first.(e) <- i
        end
        else if before src dst iface i first.(e) then first.(e) <- i;
        if remotable.(i) then any_remotable.(e) <- true
        else if first_non_remotable.(e) < 0 || before src dst iface i first_non_remotable.(e)
        then first_non_remotable.(e) <- i
      end
    end
  done;
  (* Edges in (lower, higher) group order: a counting sort by the
     higher group, then a stable one by the lower. *)
  let edges = !edges in
  let count = Array.make (ngroups + 1) 0 in
  let by_b = Array.make edges 0 and order = Array.make edges 0 in
  let sort_by field ~from ~into =
    Array.fill count 0 (ngroups + 1) 0;
    for j = 0 to edges - 1 do
      let f = field pair_key.(from.(j)) + 1 in
      count.(f) <- count.(f) + 1
    done;
    for v = 1 to ngroups do
      count.(v) <- count.(v) + count.(v - 1)
    done;
    for j = 0 to edges - 1 do
      let e = from.(j) in
      let f = field pair_key.(e) in
      into.(count.(f)) <- e;
      count.(f) <- count.(f) + 1
    done
  in
  for e = 0 to edges - 1 do
    order.(e) <- e
  done;
  sort_by (fun key -> key land ((1 lsl 30) - 1)) ~from:order ~into:by_b;
  sort_by (fun key -> key lsr 30) ~from:by_b ~into:order;
  let edges =
    Array.map
      (fun e ->
        let key = pair_key.(e) and nr = first_non_remotable.(e) in
        {
          e_a = key lsr 30;
          e_b = key land ((1 lsl 30) - 1);
          e_iface = iface.(if nr >= 0 then nr else first.(e));
          e_remotable = any_remotable.(e);
          e_non_remotable = nr >= 0;
        })
      order
  in
  {
    m_groups = groups;
    m_edges = edges;
    m_rung_names = Array.map (fun pr -> pr.Fallback.pr_name) prs;
    m_policy = policy;
    m_cooloffs = cooloff_chain policy;
    m_classifications = n + 1;
  }

let build ?(policy = Health.default_policy) ~classifier ~icc ~ladder ~truth () =
  let src, dst, iface, remotable = Icc.columns icc in
  of_pairs ~policy ~classifier ~ladder ~truth ~src ~dst ~iface ~remotable
