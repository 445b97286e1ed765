open Coign_util
open Coign_netsim
open Coign_flowgraph

type distribution = {
  placement : Constraints.location array;
  cut_ns : int;
  predicted_comm_us : float;
  server_count : int;
  node_count : int;
  algorithm : Mincut.algorithm;
}

let price_entry net (e : Icc.entry) =
  Exp_bucket.fold
    (fun ~index ~count ~bytes:_ acc ->
      let mean = Exp_bucket.mean_bytes_in_bucket e.Icc.messages index in
      acc
      +. (float_of_int count
         *. Net_profiler.predict_us net ~bytes:(int_of_float (Float.round mean))))
    e.Icc.messages 0.

let ns_of_us us = int_of_float (Float.round (us *. 1000.))

module Session = struct
  module R = Flow_network.Residual

  (* The network-dependent half of pricing, memoized per network
     profile (by physical identity — profiles are immutable records, so
     the same profile object always compiles to the same table). Sweeps
     and fallback ladders re-solve against a small set of profile
     objects, so the compile + per-size prediction work is paid once
     per profile instead of once per solve. *)
  let cost_cache_cap = 64

  type session = {
    s_classifier : Classifier.t;
    s_constraints : Constraints.t;
    s_graph : Icc_graph.t;
    s_client : int;  (* = main node of the abstract graph *)
    s_server : int;
    (* CSR flow arena holding every potential edge: infinite constraint
       edges plus one zero-capacity slot per priced traffic pair.
       Repricing writes capacities straight into the arena — no edge
       list is ever rebuilt. *)
    s_arena : R.g;
    s_scratch : Mincut.scratch;
    (* Pair ids whose capacity must be re-priced per network: the pairs
       not already held together by an infinite edge. *)
    s_priced : int array;
    s_arc_ab : int array;  (* per priced slot: arena arc a->b *)
    s_arc_ba : int array;  (* per priced slot: arena arc b->a *)
    s_caps : int array;    (* per priced slot: capacity of the last solve *)
    (* Static placement adjacency in CSR form over the n+2 nodes; a tag
       of -1 marks an infinite (constraint) edge, otherwise the priced
       slot whose current capacity decides whether the edge exists. *)
    s_adj_first : int array;
    s_adj_node : int array;
    s_adj_tag : int array;
    (* Per-solve scratch, preallocated once. *)
    s_seen : bool array;
    s_stack : int array;
    s_server_side : bool array;
    s_pricing : Icc_graph.pricing;
    (* cost table + zero-byte message cost, one entry per seen net *)
    mutable s_cost_cache : (Net_profiler.t * (float array * float)) list;
  }

  type t = session

  let classifier t = t.s_classifier
  let constraints t = t.s_constraints
  let node_count t = Icc_graph.classification_count t.s_graph
  let graph t = t.s_graph

  let build_session ~classifier ~icc ~constraints () =
    let graph = Icc_graph.build ~classifier ~icc in
    let n = Icc_graph.classification_count graph in
    (* Nodes: 0..n-1 classifications, n = client terminal (also the
       main program's node), n+1 = server. *)
    let client = n and server = n + 1 in
    let fixed = Array.make (Icc_graph.pair_count graph) false in
    let pair_id : (int * int, int) Hashtbl.t =
      Hashtbl.create (max 16 (2 * Icc_graph.pair_count graph))
    in
    Icc_graph.iter_pairs graph (fun p ~a ~b ~non_remotable:_ ->
        Hashtbl.replace pair_id (a, b) p);
    (* Infinite undirected edges, deduplicated: repeat constraints on
       one pair saturate at infinity_cap anyway, so one arena slot per
       unordered pair carries them all. *)
    let inf_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
    let inf_rev = ref [] in
    let add_infinite a b =
      let key = (min a b, max a b) in
      if not (Hashtbl.mem inf_seen key) then begin
        Hashtbl.add inf_seen key ();
        inf_rev := key :: !inf_rev
      end;
      (* An infinite edge dominates any finite traffic on the pair, so
         its price can never change the cut: skip it when repricing. *)
      match Hashtbl.find_opt pair_id key with
      | Some p -> fixed.(p) <- true
      | None -> ()
    in
    Icc_graph.iter_pairs graph (fun _ ~a ~b ~non_remotable ->
        if non_remotable then add_infinite a b);
    (* Constraint edges. *)
    let pin c loc =
      let terminal =
        match loc with Constraints.Client -> client | Constraints.Server -> server
      in
      add_infinite c terminal
    in
    for c = 0 to n - 1 do
      (match Constraints.classification_pin constraints c with
      | Some loc -> pin c loc
      | None -> ());
      match
        Constraints.class_pin constraints
          ~cname:(Classifier.class_of_classification classifier c)
      with
      | Some loc -> pin c loc
      | None -> ()
    done;
    List.iter
      (fun (a, b) -> if a >= 0 && a < n && b >= 0 && b < n then add_infinite a b)
      (Constraints.colocated_pairs constraints);
    (* Static class-pair co-location: every classification of one class
       must end up with every classification of the other. *)
    let classifications_of =
      let tbl : (string, int list) Hashtbl.t = Hashtbl.create 32 in
      for c = n - 1 downto 0 do
        let cname = Classifier.class_of_classification classifier c in
        Hashtbl.replace tbl cname
          (c :: Option.value ~default:[] (Hashtbl.find_opt tbl cname))
      done;
      fun cname -> Option.value ~default:[] (Hashtbl.find_opt tbl cname)
    in
    List.iter
      (fun (ca, cb) ->
        List.iter
          (fun a -> List.iter (fun b -> add_infinite a b) (classifications_of cb))
          (classifications_of ca))
      (Constraints.colocated_class_pairs constraints);
    let priced = ref [] in
    for p = Icc_graph.pair_count graph - 1 downto 0 do
      if not fixed.(p) then priced := p :: !priced
    done;
    let priced = Array.of_list !priced in
    let np = Array.length priced in
    let inf_pairs = Array.of_list (List.rev !inf_rev) in
    let ninf = Array.length inf_pairs in
    (* Directed edge list for the arena: both directions of every
       infinite edge and of every priced pair (the latter at capacity
       zero — inert until priced up). Sorted by (src, dst), the same
       order Flow_network.edges fed the legacy compile; the inert
       zero-capacity slots interleave without disturbing the relative
       order of live arcs, and a zero-residual arc is invisible to
       every solver, so traversals see exactly the legacy arc
       sequence. *)
    let nedges = 2 * (ninf + np) in
    let edges = Array.make (max 1 nedges) (0, 0, 0, -1) in
    Array.iteri
      (fun i (a, b) ->
        edges.(2 * i) <- (a, b, Flow_network.infinity_cap, -1);
        edges.((2 * i) + 1) <- (b, a, Flow_network.infinity_cap, -1))
      inf_pairs;
    Array.iteri
      (fun i p ->
        let a, b = Icc_graph.pair graph p in
        edges.((2 * ninf) + (2 * i)) <- (a, b, 0, i);
        edges.((2 * ninf) + (2 * i) + 1) <- (b, a, 0, i))
      priced;
    let edges = if nedges = 0 then [||] else edges in
    Array.sort compare edges;
    let arena, fwd =
      R.of_edges ~n:(n + 2) (Array.map (fun (s, d, c, _) -> (s, d, c)) edges)
    in
    let arc_ab = Array.make np 0 and arc_ba = Array.make np 0 in
    Array.iteri
      (fun i (src, dst, _, slot) ->
        if slot >= 0 then
          if src < dst then arc_ab.(slot) <- fwd.(i) else arc_ba.(slot) <- fwd.(i))
      edges;
    (* Placement adjacency CSR over the same undirected edge sets. *)
    let deg = Array.make (n + 2) 0 in
    let bump (a, b) =
      deg.(a) <- deg.(a) + 1;
      deg.(b) <- deg.(b) + 1
    in
    Array.iter bump inf_pairs;
    Array.iter (fun p -> bump (Icc_graph.pair graph p)) priced;
    let adj_first = Array.make (n + 3) 0 in
    for v = 1 to n + 2 do
      adj_first.(v) <- adj_first.(v - 1) + deg.(v - 1)
    done;
    let nadj = adj_first.(n + 2) in
    let adj_node = Array.make (max 1 nadj) 0 in
    let adj_tag = Array.make (max 1 nadj) 0 in
    let fill = Array.make (n + 2) 0 in
    let link a b tag =
      let i = adj_first.(a) + fill.(a) in
      fill.(a) <- fill.(a) + 1;
      adj_node.(i) <- b;
      adj_tag.(i) <- tag;
      let j = adj_first.(b) + fill.(b) in
      fill.(b) <- fill.(b) + 1;
      adj_node.(j) <- a;
      adj_tag.(j) <- tag
    in
    Array.iter (fun (a, b) -> link a b (-1)) inf_pairs;
    Array.iteri
      (fun i p ->
        let a, b = Icc_graph.pair graph p in
        link a b i)
      priced;
    {
      s_classifier = classifier;
      s_constraints = constraints;
      s_graph = graph;
      s_client = client;
      s_server = server;
      s_arena = arena;
      s_scratch = Mincut.scratch arena;
      s_priced = priced;
      s_arc_ab = arc_ab;
      s_arc_ba = arc_ba;
      s_caps = Array.make np 0;
      s_adj_first = adj_first;
      s_adj_node = adj_node;
      s_adj_tag = adj_tag;
      s_seen = Array.make (n + 2) false;
      s_stack = Array.make (n + 2) 0;
      s_server_side = Array.make (n + 2) false;
      s_pricing = Icc_graph.make_pricing graph;
      s_cost_cache = [];
    }

  let create ?profiler ~classifier ~icc ~constraints () =
    match profiler with
    | None -> build_session ~classifier ~icc ~constraints ()
    | Some p ->
        Coign_obs.Profiler.time p "icc_graph_build" (fun () ->
            build_session ~classifier ~icc ~constraints ())

  let copy t =
    let n2 = Icc_graph.classification_count t.s_graph + 2 in
    let arena = R.copy t.s_arena in
    {
      t with
      s_arena = arena;
      s_scratch = Mincut.scratch arena;
      s_caps = Array.copy t.s_caps;
      s_seen = Array.make n2 false;
      s_stack = Array.make n2 0;
      s_server_side = Array.make n2 false;
      s_pricing = Icc_graph.make_pricing t.s_graph;
      (* The cache list and its entries are immutable once published;
         sharing the snapshot lets a copied session skip re-compiling
         profiles the original already priced. *)
      s_cost_cache = t.s_cost_cache;
    }

  let cost_table_for t net =
    let rec find = function
      | [] ->
          let compiled = Net_profiler.compile net in
          let cost = Icc_graph.cost_table t.s_graph compiled in
          let zero = Net_profiler.predict_compiled_us compiled ~bytes:0 in
          let cache = t.s_cost_cache in
          let cache =
            if List.length cache >= cost_cache_cap then
              List.filteri (fun i _ -> i < cost_cache_cap - 1) cache
            else cache
          in
          t.s_cost_cache <- (net, (cost, zero)) :: cache;
          (cost, zero)
      | (key, entry) :: rest -> if key == net then entry else find rest
    in
    find t.s_cost_cache

  let solve ?(algorithm = Mincut.Relabel_to_front) ?profiler ?metrics ?scale t ~net =
    let timed name f =
      match profiler with None -> f () | Some p -> Coign_obs.Profiler.time p name f
    in
    let graph = t.s_graph in
    let n = Icc_graph.classification_count graph in
    let pricing =
      timed "pricing" (fun () ->
          let pricing = t.s_pricing in
          (* With ?scale, an observation window rescales each pair's
             profiled traffic before pricing (online re-partitioning);
             without it, the pricing loop is untouched and its floats
             are bit for bit the offline engine's. *)
          (match scale with
          | None -> Icc_graph.price_into graph ~cost:(fst (cost_table_for t net)) pricing
          | Some scale ->
              let cost, zero_us = cost_table_for t net in
              Icc_graph.price_scaled_into graph ~cost ~zero_us ~scale pricing);
          (* Reprice: write every non-fixed pair's capacity straight
             into its preallocated arena slots (clamped exactly as the
             legacy Hashtbl path clamped). Zero-cost pairs leave
             zero-capacity arcs, which no solver can traverse, so the
             usable edge set is exactly what a from-scratch build
             produces. *)
          for i = 0 to Array.length t.s_priced - 1 do
            let cap =
              min Flow_network.infinity_cap
                (ns_of_us pricing.Icc_graph.pair_us.(t.s_priced.(i)))
            in
            t.s_caps.(i) <- cap;
            R.set_arc_cap t.s_arena t.s_arc_ab.(i) cap;
            R.set_arc_cap t.s_arena t.s_arc_ba.(i) cap
          done;
          pricing)
    in
    timed "cut" @@ fun () ->
    (* A cut must exist even in a graph with no server-pinned component:
       terminals are always present (the cut just puts everything on
       the client). *)
    R.reset t.s_arena;
    let cut_ns =
      Mincut.run ~algorithm t.s_arena t.s_scratch ~s:t.s_client ~t:t.s_server
    in
    let source_side = t.s_seen in
    R.min_cut_side_into t.s_arena ~s:t.s_client ~seen:source_side ~stack:t.s_stack;
    (* A node the min cut leaves on the sink side belongs on the server
       only if it is actually connected to the server's side; components
       that never communicated are free and default to the client. *)
    let server_side = t.s_server_side in
    Array.fill server_side 0 (n + 2) false;
    server_side.(t.s_server) <- true;
    let queue = t.s_stack in
    queue.(0) <- t.s_server;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      for i = t.s_adj_first.(v) to t.s_adj_first.(v + 1) - 1 do
        let u = t.s_adj_node.(i) in
        let tag = t.s_adj_tag.(i) in
        if
          (tag < 0 || t.s_caps.(tag) > 0)
          && (not server_side.(u))
          && not source_side.(u)
        then begin
          server_side.(u) <- true;
          queue.(!tail) <- u;
          incr tail
        end
      done
    done;
    let placement =
      Array.init n (fun c ->
          if server_side.(c) then Constraints.Server else Constraints.Client)
    in
    let server_count =
      Array.fold_left
        (fun acc l -> if l = Constraints.Server then acc + 1 else acc)
        0 placement
    in
    let location_of_node v =
      if v < 0 || v >= n then Constraints.Client else placement.(v)
    in
    let predicted_comm_us =
      Icc_graph.predicted_us graph pricing ~separated:(fun p ->
          let a, b = Icc_graph.pair graph p in
          location_of_node a <> location_of_node b)
    in
    let d =
      {
        placement;
        cut_ns;
        predicted_comm_us;
        server_count;
        node_count = n;
        algorithm;
      }
    in
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

  (* Static migration-safety facts for the resilience layer: a
     classification may be moved live between distributions only if it
     touches no non-remotable ICC edge and is not co-location-chained
     (transitively) to one that does — moving one end of such a chain
     would split the pair the constraint exists to keep whole. *)
  let migration_safety t =
    let graph = t.s_graph in
    let n = Icc_graph.classification_count graph in
    let safe = Array.make n true in
    Icc_graph.iter_pairs graph (fun _ ~a ~b ~non_remotable ->
        if non_remotable then begin
          if a < n then safe.(a) <- false;
          if b < n then safe.(b) <- false
        end);
    let adj = Array.make n [] in
    let link a b =
      if a >= 0 && a < n && b >= 0 && b < n && a <> b then begin
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b)
      end
    in
    List.iter (fun (a, b) -> link a b) (Constraints.colocated_pairs t.s_constraints);
    (match Constraints.colocated_class_pairs t.s_constraints with
    | [] -> ()
    | class_pairs ->
        let by_class = Hashtbl.create 16 in
        for c = 0 to n - 1 do
          let cname = Classifier.class_of_classification t.s_classifier c in
          Hashtbl.replace by_class cname
            (c :: Option.value ~default:[] (Hashtbl.find_opt by_class cname))
        done;
        let of_class cname =
          Option.value ~default:[] (Hashtbl.find_opt by_class cname)
        in
        List.iter
          (fun (ca, cb) ->
            List.iter
              (fun a -> List.iter (fun b -> link a b) (of_class cb))
              (of_class ca))
          class_pairs);
    let queue = Queue.create () in
    for c = 0 to n - 1 do
      if not safe.(c) then Queue.add c queue
    done;
    while not (Queue.is_empty queue) do
      let c = Queue.pop queue in
      List.iter
        (fun d ->
          if safe.(d) then begin
            safe.(d) <- false;
            Queue.add d queue
          end)
        adj.(c)
    done;
    safe

  (* Domain-parallel pricing across network profiles: each
     participating domain solves on its own session copy (own arena,
     scratch and pricing buffers; the abstract graph and any already-
     published cost tables are shared — both immutable). The pool's
     order-preserving map keeps results bit-identical to the
     sequential path. *)
  let solve_many ?algorithm ?profiler ?metrics ?pool t ~nets =
    match pool with
    | None -> List.map (fun net -> solve ?algorithm ?profiler ?metrics t ~net) nets
    | Some pool ->
        Array.to_list
          (Parallel.map_init pool
             ~init:(fun () -> copy t)
             ~f:(fun s net -> solve ?algorithm ?profiler ?metrics s ~net)
             (Array.of_list nets))
end

let choose ?algorithm ?profiler ?metrics ~classifier ~icc ~constraints ~net () =
  Session.solve ?algorithm ?profiler ?metrics
    (Session.create ?profiler ~classifier ~icc ~constraints ())
    ~net

let location_of d c =
  if c < 0 || c >= Array.length d.placement then Constraints.Client else d.placement.(c)

type violation =
  | Split_pair of string * string
  | Split_classifications of int * int
  | Pin_violated of string * Constraints.location

(* Independent re-check of a distribution against the constraint set:
   the cut construction above makes violations impossible for
   distributions it computes itself, but distributions can also arrive
   from a config record or a caller's hand-forced placement. *)
let validate ~classifier ~constraints d =
  let n = Classifier.classification_count classifier in
  let classifications_of cname =
    let acc = ref [] in
    for c = n - 1 downto 0 do
      if Classifier.class_of_classification classifier c = cname then acc := c :: !acc
    done;
    !acc
  in
  let pin_violations =
    List.concat_map
      (fun (cname, loc) ->
        if List.exists (fun c -> location_of d c <> loc) (classifications_of cname)
        then [ Pin_violated (cname, loc) ]
        else [])
      (Constraints.pinned_classes constraints)
    @ List.concat_map
        (fun (c, loc) ->
          if c >= 0 && c < n && location_of d c <> loc then
            [ Pin_violated (Printf.sprintf "classification %d" c, loc) ]
          else [])
        (Constraints.pinned_classifications constraints)
  in
  let split_classifications =
    List.filter_map
      (fun (a, b) ->
        if location_of d a <> location_of d b then Some (Split_classifications (a, b))
        else None)
      (Constraints.colocated_pairs constraints)
  in
  let split_pairs =
    List.filter_map
      (fun (ca, cb) ->
        let locs cname = List.map (location_of d) (classifications_of cname) in
        match (locs ca, locs cb) with
        | [], _ | _, [] -> None
        | la, lb ->
            if List.exists (fun x -> List.exists (fun y -> x <> y) lb) la then
              Some (Split_pair (ca, cb))
            else None)
      (Constraints.colocated_class_pairs constraints)
  in
  pin_violations @ split_classifications @ split_pairs

let pp_violation ppf = function
  | Split_pair (a, b) ->
      Format.fprintf ppf "co-location pair %s <-> %s is split across the cut" a b
  | Split_classifications (a, b) ->
      Format.fprintf ppf "co-located classifications %d and %d are split across the cut" a b
  | Pin_violated (what, loc) ->
      Format.fprintf ppf "%s is pinned to the %s but placed elsewhere" what
        (Constraints.location_name loc)

let server_classifications d =
  let acc = ref [] in
  for c = Array.length d.placement - 1 downto 0 do
    if d.placement.(c) = Constraints.Server then acc := c :: !acc
  done;
  !acc

let comm_time_under ~icc ~net ~placement =
  List.fold_left
    (fun acc (e : Icc.entry) ->
      if placement e.Icc.src <> placement e.Icc.dst then acc +. price_entry net e else acc)
    0. (Icc.entries icc)

let algorithm_tag = function
  | Mincut.Relabel_to_front -> "rtf"
  | Mincut.Edmonds_karp -> "ek"
  | Mincut.Dinic -> "dinic"

exception Decode_error of string

let algorithm_of_tag = function
  | "rtf" -> Mincut.Relabel_to_front
  | "ek" -> Mincut.Edmonds_karp
  | "dinic" -> Mincut.Dinic
  | s -> raise (Decode_error ("Analysis.decode: unknown algorithm " ^ s))

let encode d =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d %f %s\n" d.node_count d.cut_ns d.predicted_comm_us
       (algorithm_tag d.algorithm));
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
            algorithm = algorithm_of_tag alg;
          }
      | _ -> fail "malformed header")
