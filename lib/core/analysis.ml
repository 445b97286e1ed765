open Coign_util
open Coign_netsim
open Coign_flowgraph

type distribution = {
  placement : Constraints.location array;
  cut_ns : int;
  predicted_comm_us : float;
  server_count : int;
  node_count : int;
}

let ns_of_us us = int_of_float (Float.round (us *. 1000.))

let location_of d c =
  if c < 0 || c >= Array.length d.placement then Constraints.Client else d.placement.(c)

type violation =
  | Split_classifications of int * int
  | Pin_violated of string * Constraints.location
  | Split_non_remotable of int * int

(* The hard constraints of a session, resolved over the first [n]
   classifications: the pinned classes in name order, each
   classification's class pin as an index among them (-1 for none; [n]
   entries), the classification pins and co-location pairs as listed,
   and the graph whose non-remotable pairs are read in place (none for
   a check by name alone). *)
type resolved = {
  r_pinned : (string * Constraints.location) array;
  r_class_pin : int array;
  r_classification_pins : (int * Constraints.location) list;
  r_colocated : (int * int) list;
  r_graph : Icc_graph.t option;
}

let resolve ?graph ~classifier ~constraints ~n () =
  let pinned = Array.of_list (Constraints.pinned_classes constraints) in
  let rec index cname lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare cname (fst pinned.(mid)) in
      if c = 0 then mid else if c < 0 then index cname lo mid else index cname (mid + 1) hi
  in
  {
    r_pinned = pinned;
    r_class_pin =
      Array.init n (fun c ->
          index (Classifier.class_of_classification classifier c) 0 (Array.length pinned));
    r_classification_pins = Constraints.pinned_classifications constraints;
    r_colocated = Constraints.colocated_pairs constraints;
    r_graph = graph;
  }

(* Each non-remotable pair of the record's graph as its two graph
   nodes, a classification and a classification or main (node n). *)
let iter_non_remotable r f =
  match r.r_graph with
  | None -> ()
  | Some g ->
      for p = 0 to Icc_graph.pair_count g - 1 do
        if Icc_graph.non_remotable g p then f (Icc_graph.pair_a g p) (Icc_graph.pair_b g p)
      done

(* The scans below are top-level functions, so on a clean distribution
   [check] builds no closure and returns the shared empty list. *)
let rec off_class_pin r d c =
  if c >= Array.length r.r_class_pin then -1
  else
    let i = r.r_class_pin.(c) in
    if i >= 0 && location_of d c <> snd r.r_pinned.(i) then c else off_class_pin r d (c + 1)

let rec pin_violations d n = function
  | [] -> []
  | (c, loc) :: rest ->
      if c >= 0 && c < n && location_of d c <> loc then
        Pin_violated (Printf.sprintf "classification %d" c, loc) :: pin_violations d n rest
      else pin_violations d n rest

let rec split_violations d = function
  | [] -> []
  | (a, b) :: rest ->
      if location_of d a <> location_of d b then
        Split_classifications (a, b) :: split_violations d rest
      else split_violations d rest

(* The non-remotable pairs of [g] from pair [p] on that [d] separates;
   node n is main, on the client whatever [d] holds there. *)
let rec non_remotable_violations g d p =
  if p >= Icc_graph.pair_count g then []
  else
    let a = Icc_graph.pair_a g p and b = Icc_graph.pair_b g p in
    let main = b = Icc_graph.main_node g in
    if
      Icc_graph.non_remotable g p
      && location_of d a <> if main then Constraints.Client else location_of d b
    then Split_non_remotable (a, if main then -1 else b) :: non_remotable_violations g d (p + 1)
    else non_remotable_violations g d (p + 1)

(* Independent re-check of a distribution against the hard constraints:
   distributions arrive from config records and hand-forced placements,
   and unsatisfiable constraints leave a cut crossing an infinite edge.
   Broken class pins come first, in name order, then classification
   pins and split co-location pairs as listed, then split non-remotable
   pairs in pair order. *)
let check r d =
  let class_violations =
    match off_class_pin r d 0 with
    | -1 -> []
    | first ->
        let broken = Array.make (Array.length r.r_pinned) false in
        let c = ref first in
        while !c >= 0 do
          broken.(r.r_class_pin.(!c)) <- true;
          c := off_class_pin r d (!c + 1)
        done;
        List.filteri (fun i _ -> broken.(i)) (Array.to_list r.r_pinned)
        |> List.map (fun (cname, loc) -> Pin_violated (cname, loc))
  in
  class_violations
  @ pin_violations d (Array.length r.r_class_pin) r.r_classification_pins
  @ split_violations d r.r_colocated
  @ match r.r_graph with None -> [] | Some g -> non_remotable_violations g d 0

let validate ~classifier ~constraints d =
  check (resolve ~classifier ~constraints ~n:(Classifier.classification_count classifier) ()) d

module Session = struct
  (* The network-dependent half of pricing, memoized per network
     profile (by physical identity — profiles are immutable records, so
     the same profile object always yields the same table). Sweeps and
     fallback ladders re-solve against a small set of profile objects,
     so the per-size predictions are paid once per profile instead of
     once per solve. *)
  let cost_cache_cap = 64

  type session = {
    s_classifier : Classifier.t;
    s_constraints : Constraints.t;
    s_graph : Icc_graph.t;
    (* The session's hard constraints, resolved once over the graph:
       the build, [migration_safety] and [validate] read them here. *)
    s_resolved : resolved;
    (* CSR flow arena over the quotient of the infinite edges
       (Flow_network.Components), one zero-capacity slot per pair of
       arena nodes that priced traffic joins. Repricing writes
       capacities straight into the arena — no edge list is ever
       rebuilt. *)
    s_arena : Flow_network.t;
    s_scratch : Mincut.scratch;
    s_node : int array;  (* graph node (0..n+1) -> arena node *)
    s_client : int;  (* arena node of the client terminal and main *)
    s_server : int;
    (* Pair id -> the slot its price adds into, -1 for a pair inside
       one arena node or beside an infinite arc: pairs between the same
       two arena nodes share one slot. *)
    s_pair_slot : int array;
    s_arc_ab : int array;  (* per slot: arena arc lower node -> higher *)
    s_arc_ba : int array;  (* per slot: the opposite arc *)
    (* Classification -> smallest member of its component under the
       infinite classification-classification edges; immutable. *)
    s_component : int array;
    (* Per-solve scratch over the arena's nodes, preallocated once. *)
    s_seen : bool array;
    s_stack : int array;
    s_server_side : bool array;
    (* Per-solve host of each graph node 0..n, 1 on the server, for
       [Icc_graph.predicted_us]; main (n) stays on the client, 0. *)
    s_host : int array;
    s_pricing : Icc_graph.pricing;
    (* Cost tables per seen net in two generations, newest first: an
       insertion conses onto [s_cost_young]; once it holds
       [cost_cache_cap] entries it becomes [s_cost_old] and the old
       generation is dropped whole, so eviction allocates nothing and
       the cache holds the [cost_cache_cap] newest tables or more. *)
    mutable s_cost_young : (Net_profiler.t * float array) list;
    mutable s_cost_young_len : int;
    mutable s_cost_old : (Net_profiler.t * float array) list;
  }

  type t = session

  let classifier t = t.s_classifier
  let constraints t = t.s_constraints
  let node_count t = Icc_graph.classification_count t.s_graph
  let graph t = t.s_graph

  let slot_table = Domain.DLS.new_key (fun () -> Int_table.create ~absent:(-1) 64)

  let build_session ~classifier ~graph ~constraints =
    let n = Icc_graph.classification_count graph in
    (* Graph nodes: 0..n-1 classifications, n = client terminal (also
       the main program's node), n+1 = server. Node pairs are packed
       into one int, the lower node in the high bits. *)
    let client = n and server = n + 1 in
    let pack a b = (Int.min a b lsl 30) lor Int.max a b in
    let lo key = key lsr 30 and hi key = key land ((1 lsl 30) - 1) in
    let resolved = resolve ~graph ~classifier ~constraints ~n () in
    (* The record's infinite undirected edges, handed to [f] without
       being stored: with [~terminals:false] those between two
       classifications, with [~terminals:true] those reaching main or a
       terminal. A co-location with one end outside the session (main,
       or an id past the graph) joins the other end to the client,
       where [check] reads the outside end. *)
    let iter_infinite ~terminals f =
      iter_non_remotable resolved (fun a b -> if (b >= n) = terminals then f a b);
      let terminal = function Constraints.Client -> client | Constraints.Server -> server in
      let inside c = c >= 0 && c < n in
      if terminals then begin
        List.iter
          (fun (c, loc) -> if inside c then f c (terminal loc))
          resolved.r_classification_pins;
        Array.iteri
          (fun c i -> if i >= 0 then f c (terminal (snd resolved.r_pinned.(i))))
          resolved.r_class_pin;
        List.iter
          (fun (a, b) ->
            if inside a <> inside b then f (if inside a then a else b) client)
          resolved.r_colocated
      end
      else
        List.iter (fun (a, b) -> if inside a && inside b then f a b) resolved.r_colocated
    in
    (* Edges between two classifications join first: that snapshot is
       [s_component]. Pins and the main node's edges then join
       components to the terminals, and the quotient is the arena. *)
    let components = Flow_network.Components.create (n + 2) in
    let join a b = Flow_network.Components.join components a b in
    iter_infinite ~terminals:false join;
    let component = Array.init n (Flow_network.Components.root components) in
    iter_infinite ~terminals:true join;
    let node, nodes =
      Flow_network.Components.quotient components ~terminals:[| client; server |]
    in
    (* One undirected arena edge per pair of arena nodes, keyed in
       [slot_of] by the packed pair: the infinite edges that still join
       two nodes (identity quotient only; otherwise every infinite edge
       lies inside one node) marked -2, then a zero-capacity slot per
       node pair that priced traffic joins. An infinite pair dominates
       any finite traffic, so it gets no slot: repricing would
       overwrite its infinite capacity. The table is per-domain
       scratch, cleared for each build. *)
    let slot_of = Domain.DLS.get slot_table in
    Int_table.clear slot_of;
    let pair_slot = Array.make (Icc_graph.pair_count graph) (-1) in
    if nodes = n + 2 then begin
      let mark a b =
        if node.(a) <> node.(b) then Int_table.replace slot_of (pack node.(a) node.(b)) (-2)
      in
      iter_infinite ~terminals:false mark;
      iter_infinite ~terminals:true mark
    end;
    let nslots = ref 0 in
    for p = 0 to Array.length pair_slot - 1 do
      let a = node.(Icc_graph.pair_a graph p) and b = node.(Icc_graph.pair_b graph p) in
      if a <> b then
        match Int_table.find_or_add slot_of (pack a b) !nslots with
        | -2 -> ()
        | sl ->
            pair_slot.(p) <- sl;
            if sl = !nslots then incr nslots
    done;
    (* Both directions of each slot-table edge, the lower node first,
       in table order; [of_edges] lays them out in (src, dst) order.
       Every arc starts at zero; an infinite pair's arcs are raised to
       infinity_cap once compiled, and the reset makes that their
       residual too. A zero-residual arc is invisible to every
       solver. *)
    let ndir = 2 * Int_table.length slot_of in
    let src = Array.make ndir 0 and dst = Array.make ndir 0 in
    let k = ref 0 in
    Int_table.iter
      (fun key _ ->
        src.(!k) <- lo key;
        dst.(!k) <- hi key;
        src.(!k + 1) <- hi key;
        dst.(!k + 1) <- lo key;
        k := !k + 2)
      slot_of;
    let arena, fwd = Flow_network.of_edges ~n:nodes ~src ~dst ~cap:(Array.make ndir 0) in
    let arc_ab = Array.make !nslots 0 and arc_ba = Array.make !nslots 0 in
    for i = 0 to ndir - 1 do
      match Int_table.find slot_of (pack src.(i) dst.(i)) with
      | -2 -> Flow_network.set_arc_cap arena fwd.(i) Flow_network.infinity_cap
      | sl -> if src.(i) < dst.(i) then arc_ab.(sl) <- fwd.(i) else arc_ba.(sl) <- fwd.(i)
    done;
    Flow_network.reset arena;
    {
      s_classifier = classifier;
      s_constraints = constraints;
      s_graph = graph;
      s_resolved = resolved;
      s_arena = arena;
      s_scratch = Mincut.scratch arena;
      s_node = node;
      s_client = node.(client);
      s_server = node.(server);
      s_pair_slot = pair_slot;
      s_arc_ab = arc_ab;
      s_arc_ba = arc_ba;
      s_component = component;
      s_seen = Array.make nodes false;
      s_stack = Array.make nodes 0;
      s_server_side = Array.make nodes false;
      s_host = Array.make (n + 1) 0;
      s_pricing = Icc_graph.make_pricing graph;
      s_cost_young = [];
      s_cost_young_len = 0;
      s_cost_old = [];
    }

  let timed profiler name f =
    match profiler with None -> f () | Some p -> Coign_obs.Profiler.time p name f

  let of_graph ?profiler ~classifier ~graph ~constraints () =
    timed profiler "icc_graph_build" (fun () -> build_session ~classifier ~graph ~constraints)

  let copy t =
    let nodes = Flow_network.node_count t.s_arena in
    let arena = Flow_network.copy t.s_arena in
    (* The cost cache's generations and their entries are immutable
       once published; [t with] shares them, so a copied session skips
       re-pricing profiles the original already priced. *)
    {
      t with
      s_arena = arena;
      s_scratch = Mincut.scratch arena;
      s_seen = Array.make nodes false;
      s_stack = Array.make nodes 0;
      s_server_side = Array.make nodes false;
      s_host = Array.make (Array.length t.s_host) 0;
      s_pricing = Icc_graph.make_pricing t.s_graph;
    }

  (* The table cached for [net], found by physical identity; a
     top-level loop, so a lookup builds no closure. *)
  let rec cached net = function
    | [] -> raise_notrace Not_found
    | (key, entry) :: rest -> if key == net then entry else cached net rest

  let cost_table_for t net =
    match cached net t.s_cost_young with
    | cost -> cost
    | exception Not_found -> (
        match cached net t.s_cost_old with
        | cost -> cost
        | exception Not_found ->
            let cost = Icc_graph.cost_table t.s_graph net in
            if t.s_cost_young_len = cost_cache_cap then begin
              t.s_cost_old <- t.s_cost_young;
              t.s_cost_young <- [];
              t.s_cost_young_len <- 0
            end;
            t.s_cost_young <- (net, cost) :: t.s_cost_young;
            t.s_cost_young_len <- t.s_cost_young_len + 1;
            cost)

  (* With ?scale, an observation window rescales each pair's profiled
     traffic before pricing (online re-partitioning); without it, the
     pricing loop is untouched and its floats are bit for bit the
     offline engine's. Then reprice: zero every slot, add each priced
     pair's capacity into its slot's arc straight in the arena,
     saturating at infinity_cap as a compile would, then mirror it onto
     the opposite arc. Integer sums are exact, so every cut of the
     quotient costs what it costs over the pairs. Zero-cost slots leave
     zero-capacity arcs, which no solver can traverse. *)
  let reprice ?scale t ~net =
    let cost = cost_table_for t net in
    (match scale with
    | None -> Icc_graph.price_into t.s_graph ~cost t.s_pricing
    | Some scale ->
        Icc_graph.price_scaled_into t.s_graph ~cost ~zero_us:(Net_profiler.predict_us net ~bytes:0)
          ~scale t.s_pricing);
    let pricing = t.s_pricing in
    let arena = t.s_arena in
    for sl = 0 to Array.length t.s_arc_ab - 1 do
      Flow_network.set_arc_cap arena t.s_arc_ab.(sl) 0
    done;
    for p = 0 to Array.length t.s_pair_slot - 1 do
      let sl = t.s_pair_slot.(p) in
      if sl >= 0 then begin
        let a = t.s_arc_ab.(sl) in
        Flow_network.set_arc_cap arena a
          (Int.min Flow_network.infinity_cap
             (Flow_network.arc_cap arena a + ns_of_us pricing.Icc_graph.pair_us.(p)))
      end
    done;
    for sl = 0 to Array.length t.s_arc_ab - 1 do
      Flow_network.set_arc_cap arena t.s_arc_ba.(sl) (Flow_network.arc_cap arena t.s_arc_ab.(sl))
    done;
    pricing

  (* Cut the repriced arena and read the placement off it. *)
  let cut ?metrics t pricing =
    let graph = t.s_graph in
    let n = Icc_graph.classification_count graph in
    (* A cut must exist even in a graph with no server-pinned component:
       terminals are always present (the cut just puts everything on
       the client). *)
    Flow_network.reset t.s_arena;
    let cut_ns = Mincut.run t.s_arena t.s_scratch ~s:t.s_client ~t:t.s_server in
    let source_side = t.s_seen in
    Flow_network.min_cut_side_into t.s_arena ~s:t.s_client ~seen:source_side ~stack:t.s_stack;
    (* A node the min cut leaves on the sink side belongs on the server
       only if it is actually connected to the server's side; components
       that never communicated are free and default to the client. The
       walk follows arcs of positive base capacity: an infinite edge or
       a priced pair with traffic has both directions' forward arcs
       above zero, so this is the undirected placement adjacency. *)
    let server_side = t.s_server_side in
    for v = 0 to Array.length server_side - 1 do
      server_side.(v) <- false
    done;
    server_side.(t.s_server) <- true;
    let queue = t.s_stack in
    queue.(0) <- t.s_server;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      for a = Flow_network.arc_start t.s_arena v to Flow_network.arc_stop t.s_arena v - 1 do
        let u = Flow_network.arc_dst t.s_arena a in
        if
          Flow_network.arc_cap t.s_arena a > 0
          && (not server_side.(u))
          && not source_side.(u)
        then begin
          server_side.(u) <- true;
          queue.(!tail) <- u;
          incr tail
        end
      done
    done;
    (* Placement, server count and each node's host in one pass; main
       (node n) keeps host 0, the client's. *)
    let placement = Array.make n Constraints.Client in
    let host = t.s_host in
    let server_count = ref 0 in
    for c = 0 to n - 1 do
      if server_side.(t.s_node.(c)) then begin
        placement.(c) <- Constraints.Server;
        host.(c) <- 1;
        incr server_count
      end
      else host.(c) <- 0
    done;
    let server_count = !server_count in
    let predicted_comm_us = Icc_graph.predicted_us graph pricing ~host in
    let d = { placement; cut_ns; predicted_comm_us; server_count; node_count = n } in
    (match metrics with
    | None -> ()
    | Some reg ->
        let open Coign_obs.Metrics in
        inc (counter reg ~help:"Partitioning solves completed." "coign_analysis_solves_total");
        set
          (gauge reg ~help:"Classification nodes in the last solve." "coign_analysis_nodes")
          (float_of_int n);
        set
          (gauge reg ~help:"Classifications the last solve placed on the server."
             "coign_analysis_server_count")
          (float_of_int server_count);
        set
          (gauge reg
             ~help:
               "Predicted cross-machine communication time of the last solve, in microseconds."
             "coign_analysis_predicted_comm_us")
          predicted_comm_us);
    d

  (* Without a profiler the two phases are direct calls, so a solve
     allocates only its result. *)
  let solve ?profiler ?metrics ?scale t ~net =
    match profiler with
    | None -> cut ?metrics t (reprice ?scale t ~net)
    | Some p ->
        let pricing = Coign_obs.Profiler.time p "pricing" (fun () -> reprice ?scale t ~net) in
        Coign_obs.Profiler.time p "cut" (fun () -> cut ?metrics t pricing)

  let components t = Array.copy t.s_component

  (* Static migration-safety facts for the resilience layer: a
     classification may be moved live between distributions only if no
     member of its component touches a non-remotable ICC edge — moving
     one end of a co-location chain would split the pair the constraint
     exists to keep whole. *)
  let migration_safety t =
    let n = node_count t in
    let comp = t.s_component in
    let safe = Array.make n true in
    iter_non_remotable t.s_resolved (fun a b ->
        safe.(comp.(a)) <- false;
        if b < n then safe.(comp.(b)) <- false);
    Array.init n (fun c -> safe.(comp.(c)))

  (* A classifier that has grown past the session's graph since the
     build has classifications the session never resolved: its pins go
     by name, then the graph's pairs. *)
  let validate t d =
    let n = Classifier.classification_count t.s_classifier in
    check
      (if n = node_count t then t.s_resolved
       else resolve ~graph:t.s_graph ~classifier:t.s_classifier ~constraints:t.s_constraints ~n ())
      d
end

let choose ?profiler ~classifier ~icc ~constraints ~net () =
  Session.solve ?profiler
    (Session.of_graph ?profiler ~classifier ~graph:(Icc_graph.build ~classifier ~icc) ~constraints ())
    ~net

let pp_violation ppf = function
  | Split_classifications (a, b) ->
      Format.fprintf ppf "co-located classifications %d and %d are split across the cut" a b
  | Pin_violated (what, loc) ->
      Format.fprintf ppf "%s is pinned to the %s but placed elsewhere" what
        (Constraints.location_name loc)
  | Split_non_remotable (a, b) ->
      Format.fprintf ppf "%s share a non-remotable interface but are split across the cut"
        (if b < 0 then Printf.sprintf "classification %d and the main program" a
         else Printf.sprintf "classifications %d and %d" a b)

let server_classifications d =
  let acc = ref [] in
  for c = Array.length d.placement - 1 downto 0 do
    if d.placement.(c) = Constraints.Server then acc := c :: !acc
  done;
  !acc

exception Decode_error of string

(* The header's last field names the solver that made the cut. There
   is one, push-relabel in the paper's lift-to-front slot, and it has
   always written "rtf"; keeping the field keeps every stored
   distribution byte for byte. *)
let encode d =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d %f rtf\n" d.node_count d.cut_ns d.predicted_comm_us);
  Array.iter
    (fun loc -> Buffer.add_char buf (match loc with Constraints.Client -> 'C' | Constraints.Server -> 'S'))
    d.placement;
  Buffer.contents buf

let decode s =
  let fail fmt =
    Printf.ksprintf (fun msg -> raise (Decode_error ("Analysis.decode: " ^ msg))) fmt
  in
  let number parse ~what v = try parse v with Failure _ -> fail "bad %s %S" what v in
  match String.index_opt s '\n' with
  | None -> fail "truncated"
  | Some nl -> (
      let header = String.sub s 0 nl in
      let body = String.sub s (nl + 1) (String.length s - nl - 1) in
      match String.split_on_char ' ' header with
      | [ n; cut; comm; alg ] ->
          if alg <> "rtf" then fail "unknown algorithm %s" alg;
          let node_count = number int_of_string ~what:"node count" n in
          if String.length body <> node_count then fail "placement length mismatch";
          let placement =
            Array.init node_count (fun i ->
                match body.[i] with
                | 'C' -> Constraints.Client
                | 'S' -> Constraints.Server
                | c -> fail "bad location %c" c)
          in
          let server_count =
            Array.fold_left
              (fun acc l -> if l = Constraints.Server then acc + 1 else acc)
              0 placement
          in
          {
            placement;
            cut_ns = number int_of_string ~what:"cut" cut;
            predicted_comm_us = number float_of_string ~what:"predicted comm" comm;
            server_count;
            node_count;
          }
      | _ -> fail "malformed header")
