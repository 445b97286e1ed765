open Coign_flowgraph

let qtest = QCheck_alcotest.to_alcotest

let arena ~n edges = fst (Harness.of_edges ~n (Array.of_list edges))
let undirected a b cap = [ (a, b, cap); (b, a, cap) ]

(* --- Flow_network -------------------------------------------------- *)

let test_edge_accumulation () =
  let g, fwd = Harness.of_edges ~n:3 [| (0, 1, 5); (0, 1, 7) |] in
  Alcotest.(check int) "one arc pair" 2 (Flow_network.arc_count g);
  Alcotest.(check int) "shared arc" fwd.(0) fwd.(1);
  Alcotest.(check int) "accumulated" 12 (Flow_network.arc_cap g fwd.(0));
  Alcotest.(check int) "reverse arc" 0
    (Flow_network.arc_cap g (Flow_network.arc_pair g fwd.(0)))

let test_self_loop_ignored () =
  let g, fwd = Harness.of_edges ~n:2 [| (1, 1, 100) |] in
  Alcotest.(check int) "no arcs" 0 (Flow_network.arc_count g);
  Alcotest.(check int) "no forward arc" (-1) fwd.(0)

let test_infinity_saturation () =
  let inf = Flow_network.infinity_cap in
  let g, fwd = Harness.of_edges ~n:2 [| (0, 1, inf); (0, 1, inf) |] in
  Alcotest.(check int) "saturated" inf (Flow_network.arc_cap g fwd.(0))

let test_undirected () =
  let g, fwd = Harness.of_edges ~n:2 (Array.of_list (undirected 0 1 4)) in
  Alcotest.(check int) "two arc pairs" 4 (Flow_network.arc_count g);
  Alcotest.(check int) "fwd" 4 (Flow_network.arc_cap g fwd.(0));
  Alcotest.(check int) "bwd" 4 (Flow_network.arc_cap g fwd.(1))

let test_copy_isolated () =
  let g, fwd = Harness.of_edges ~n:2 [| (0, 1, 1) |] in
  let h = Flow_network.copy g in
  Flow_network.set_arc_cap h fwd.(0) 2;
  Alcotest.(check int) "original unchanged" 1 (Flow_network.arc_cap g fwd.(0));
  Alcotest.(check int) "copy rewritten" 2 (Flow_network.arc_cap h fwd.(0))

let test_of_edges_rejects_bad_input () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Flow_network.of_edges: negative capacity") (fun () ->
      ignore (Harness.of_edges ~n:2 [| (0, 1, -1) |]));
  Alcotest.check_raises "node out of range" (Invalid_argument "Flow_network.of_edges: node 2")
    (fun () -> ignore (Harness.of_edges ~n:2 [| (0, 2, 1) |]));
  Alcotest.check_raises "negative node" (Invalid_argument "Flow_network.of_edges: node -1")
    (fun () -> ignore (Harness.of_edges ~n:2 [| (-1, 0, 1) |]));
  Alcotest.check_raises "ragged arrays"
    (Invalid_argument "Flow_network.of_edges: edge arrays differ in length") (fun () ->
      ignore (Flow_network.of_edges ~n:2 ~src:[| 0 |] ~dst:[| 1 |] ~cap:[||]))

(* Unsorted input is put in (src, dst) order before the arena is laid
   out, so a shuffled edge list, with duplicates, self-loops and
   infinite edges, compiles to the arena of the same list sorted: the
   same node ranges and the same destination, base capacity and pair of
   every arc. Each edge's forward arc still joins its own endpoints. *)
let gen_edge_list =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    list_size (int_range 0 30)
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
         (frequency [ (4, int_range 0 50); (1, return Flow_network.infinity_cap) ]))
    >>= fun edges ->
    shuffle_l edges >>= fun shuffled -> return (n, edges, shuffled))

let arb_edge_list =
  QCheck.make
    ~print:(fun (n, edges, _) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ";" (List.map (fun (a, b, c) -> Printf.sprintf "%d->%d:%d" a b c) edges)))
    gen_edge_list

let prop_of_edges_orders_input =
  QCheck.Test.make ~name:"of_edges orders any input like sorted input" ~count:300 arb_edge_list
    (fun (n, _, shuffled) ->
      let module G = Flow_network in
      let sorted =
        List.stable_sort (fun (a, b, _) (c, d, _) -> compare (a, b) (c, d)) shuffled
      in
      let g, fwd = Harness.of_edges ~n (Array.of_list shuffled) in
      let h, _ = Harness.of_edges ~n (Array.of_list sorted) in
      let arcs g f = List.init (G.arc_count g) f in
      let same_arena =
        List.for_all (fun v -> G.arc_start g v = G.arc_start h v && G.arc_stop g v = G.arc_stop h v)
          (List.init n Fun.id)
        && arcs g (G.arc_dst g) = arcs h (G.arc_dst h)
        && arcs g (G.arc_cap g) = arcs h (G.arc_cap h)
        && arcs g (G.arc_pair g) = arcs h (G.arc_pair h)
      in
      same_arena
      && List.for_all2
           (fun (src, dst, _) a ->
             if src = dst then a = -1
             else G.arc_dst g a = dst && G.arc_dst g (G.arc_pair g a) = src)
           shuffled (Array.to_list fwd))

(* --- Min cut: textbook instances ----------------------------------- *)

(* The classic CLRS figure 26.1-ish network. *)
let clrs_edges =
  [ (0, 1, 16); (0, 2, 13); (1, 2, 10); (2, 1, 4); (1, 3, 12); (3, 2, 9); (2, 4, 14);
    (4, 3, 7); (3, 5, 20); (4, 5, 4) ]

let clrs_network () = arena ~n:6 clrs_edges

let cut_edges edges cut =
  List.filter
    (fun (src, dst, _) -> cut.Mincut.source_side.(src) && not cut.Mincut.source_side.(dst))
    edges

let sum_caps = List.fold_left (fun acc (_, _, c) -> acc + c) 0

let test_clrs_maxflow () =
  Alcotest.(check int) "solver value" 23 (Mincut.min_cut (clrs_network ()) ~s:0 ~t:5).Mincut.value;
  Alcotest.(check int) "reference value" 23
    (Mincut.augmenting_path_min_cut (clrs_network ()) ~s:0 ~t:5).Mincut.value

let test_cut_edges_sum_to_value () =
  let cut = Mincut.min_cut (clrs_network ()) ~s:0 ~t:5 in
  Alcotest.(check int) "cut edges sum" cut.Mincut.value (sum_caps (cut_edges clrs_edges cut))

let test_cut_separates_terminals () =
  let cut = Mincut.min_cut (clrs_network ()) ~s:0 ~t:5 in
  Alcotest.(check bool) "s on source side" true cut.Mincut.source_side.(0);
  Alcotest.(check bool) "t on sink side" false cut.Mincut.source_side.(5)

let test_disconnected_zero_cut () =
  let cut = Mincut.min_cut (arena ~n:4 [ (0, 1, 9); (2, 3, 9) ]) ~s:0 ~t:3 in
  Alcotest.(check int) "zero" 0 cut.Mincut.value

let test_single_edge () =
  let g = arena ~n:2 [ (0, 1, 42) ] in
  Alcotest.(check int) "value" 42 (Mincut.min_cut g ~s:0 ~t:1).Mincut.value

let test_terminal_validation () =
  let g = arena ~n:3 [] in
  Alcotest.check_raises "s = t" (Invalid_argument "Mincut: s = t") (fun () ->
      ignore (Mincut.min_cut g ~s:1 ~t:1));
  Alcotest.check_raises "out of range" (Invalid_argument "Mincut: terminal out of range")
    (fun () -> ignore (Mincut.min_cut g ~s:0 ~t:9))

let test_infinity_edge_never_cut () =
  let inf = Flow_network.infinity_cap in
  let g = arena ~n:4 (undirected 0 1 inf @ undirected 1 2 5 @ undirected 2 3 inf) in
  let cut = Mincut.min_cut g ~s:0 ~t:3 in
  Alcotest.(check int) "cut at finite edge" 5 cut.Mincut.value;
  Alcotest.(check bool) "1 with source" true cut.Mincut.source_side.(1);
  Alcotest.(check bool) "2 with sink" false cut.Mincut.source_side.(2)

(* --- Min cut: randomized agreement --------------------------------- *)

let gen_graph =
  QCheck.Gen.(
    int_range 4 9 >>= fun n ->
    list_size (int_range 3 20)
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 50))
    >>= fun edges -> return (n, edges))

let arb_graph =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ";"
           (List.map (fun (a, b, c) -> Printf.sprintf "%d->%d:%d" a b c) edges)))
    gen_graph

let build (n, edges) = arena ~n edges

let brute_force (n, edges) = Mincut.brute_force_min_cut ~n (Array.of_list edges) ~s:0 ~t:1

(* The solver and the augmenting-path reference: any two maximum flows
   leave the same minimal source side, not merely the same value. *)
let prop_algorithms_agree =
  QCheck.Test.make ~name:"all max-flow algorithms agree" ~count:300 arb_graph (fun spec ->
      Mincut.min_cut (build spec) ~s:0 ~t:1
      = Mincut.augmenting_path_min_cut (build spec) ~s:0 ~t:1)

let prop_each_algorithm_matches_brute_force =
  QCheck.Test.make ~name:"each algorithm matches brute force" ~count:150 arb_graph
    (fun spec ->
      let brute = (brute_force spec).Mincut.value in
      (Mincut.min_cut (build spec) ~s:0 ~t:1).Mincut.value = brute
      && (Mincut.augmenting_path_min_cut (build spec) ~s:0 ~t:1).Mincut.value = brute)

let prop_matches_brute_force =
  QCheck.Test.make ~name:"min cut equals brute force" ~count:200 arb_graph (fun spec ->
      let cut = Mincut.min_cut (build spec) ~s:0 ~t:1 in
      cut.Mincut.value = (brute_force spec).Mincut.value)

let prop_cut_edges_sum =
  QCheck.Test.make ~name:"cut edge capacities sum to cut value" ~count:200 arb_graph
    (fun ((_, edges) as spec) ->
      let cut = Mincut.min_cut (build spec) ~s:0 ~t:1 in
      sum_caps (cut_edges edges cut) = cut.Mincut.value)

(* --- Relabel-to-front on analysis-sized graphs --------------------- *)

(* A deterministic generator for graphs big enough to have triggered
   the old relabel-to-front pathology (hundreds of nodes, 4n arcs). *)
let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 25214903917) + 11) land 0x3FFFFFFFFFFF;
    !state mod bound

let lcg_graph ~seed ~n ~m =
  let rand = lcg seed in
  arena ~n
    (List.concat
       (List.init m (fun _ ->
            let a = rand n in
            let b = rand n in
            if a <> b then [ (a, b, 1 + rand 10_000) ] else [])))

(* Above brute force's 22 nodes the augmenting-path reference is the
   independent check. Both run to a genuine max flow, so the minimal
   source side — residual reachability from s — is the same bool array,
   not merely some min cut. *)
let check_matches_reference msg g ~s ~t =
  let reference = Mincut.augmenting_path_min_cut g ~s ~t in
  let cut = Mincut.min_cut g ~s ~t in
  Alcotest.(check int) (msg ^ " value") reference.Mincut.value cut.Mincut.value;
  Alcotest.(check (array bool)) (msg ^ " source side") reference.Mincut.source_side
    cut.Mincut.source_side

let test_large_random_algorithms_agree () =
  for trial = 1 to 6 do
    let n = 20 + (trial * 7) in
    check_matches_reference (Printf.sprintf "trial %d" trial)
      (lcg_graph ~seed:(42 + trial) ~n ~m:(4 * n))
      ~s:0 ~t:(n - 1)
  done

let test_bench_sized_graph_matches_reference () =
  (* The shape of the bench micro kernel that exposed the pathology:
     150 nodes, 600 undirected heavy edges. *)
  let n = 150 in
  let rand = lcg 77 in
  let g =
    arena ~n
      (List.concat
         (List.init (n * 4) (fun _ ->
              let a = rand n in
              let b = rand n in
              if a <> b then undirected a b (1 + rand 10_000) else [])))
  in
  check_matches_reference "bench graph" g ~s:0 ~t:1

(* --- Max-flow certificate ------------------------------------------ *)

(* After [Mincut.run] the arena holds the solver's flow: an arc carries
   its base capacity minus its residual, and a reverse arc (base
   capacity 0) its forward arc's flow negated. A feasible, conserved
   flow whose value equals the capacity of an s-t cut is a maximum flow
   and that cut a minimum one (weak duality), so this proves the
   solver's answer optimal at any size with no second solver. Returns
   the first violation found. *)
let certificate_violation g ~s ~t =
  let module G = Flow_network in
  let n = G.node_count g in
  G.reset g;
  let value = Mincut.run g (Mincut.scratch g) ~s ~t in
  let side = G.min_cut_side g ~s in
  let flow a = G.arc_cap g a - G.residual g a in
  let net_out = Array.make n 0 and cut_cap = ref 0 in
  let found = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !found = None then found := Some m) fmt in
  for v = 0 to n - 1 do
    for a = G.arc_start g v to G.arc_stop g v - 1 do
      let p = G.arc_pair g a in
      let f = flow a in
      if f <> -flow p then fail "arc %d carries %d but its pair %d" a f (flow p);
      if f < -G.arc_cap g p || f > G.arc_cap g a then
        fail "arc %d carries %d outside [-%d, %d]" a f (G.arc_cap g p) (G.arc_cap g a);
      net_out.(v) <- net_out.(v) + f;
      if side.(v) && not side.(G.arc_dst g a) then cut_cap := !cut_cap + G.arc_cap g a
    done
  done;
  for v = 0 to n - 1 do
    if v <> s && v <> t && net_out.(v) <> 0 then fail "node %d leaks %d" v net_out.(v)
  done;
  if net_out.(s) <> value then fail "flow out of s %d, returned %d" net_out.(s) value;
  if !cut_cap <> value then fail "source side cut %d, flow %d" !cut_cap value;
  if side.(t) then fail "t on the source side";
  !found

let prop_flow_certificate =
  QCheck.Test.make ~name:"solver's flow certifies its cut" ~count:300 arb_graph (fun spec ->
      match certificate_violation (build spec) ~s:0 ~t:1 with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

(* The large-random trials' graphs, then two far past them. *)
let test_flow_certificate_large () =
  List.iter
    (fun (seed, n) ->
      Alcotest.(check (option string))
        (Printf.sprintf "seed %d, n = %d" seed n)
        None
        (certificate_violation (lcg_graph ~seed ~n ~m:(4 * n)) ~s:0 ~t:(n - 1)))
    (List.init 6 (fun i -> (43 + i, 27 + (7 * i))) @ [ (49, 300); (50, 2000) ])

(* --- CSR arena: reprice path vs fresh compile ---------------------- *)

(* Mimic a session arena: compile every potential edge as a
   zero-capacity slot, raise capacities through set_arc_cap, reset,
   solve in place with preallocated scratch. *)
let reprice arena scratch fwd ~dedup ~cap_of =
  List.iteri
    (fun i (src, dst) -> Flow_network.set_arc_cap arena fwd.(i) (cap_of src dst))
    dedup;
  Flow_network.reset arena;
  let value = Mincut.run arena scratch ~s:0 ~t:1 in
  (value, Flow_network.min_cut_side arena ~s:0)

let fresh_cut ~n ~dedup ~cap_of =
  Mincut.min_cut (arena ~n (List.map (fun (src, dst) -> (src, dst, cap_of src dst)) dedup))
    ~s:0 ~t:1

let prop_arena_reprice_matches_fresh =
  QCheck.Test.make ~name:"CSR arena reprice equals fresh cut" ~count:200 arb_graph
    (fun (n, edges) ->
      (* Aggregate to distinct directed pairs (a session's slots),
         saturating as a compile does. *)
      let caps = Hashtbl.create 16 in
      List.iter
        (fun (src, dst, cap) ->
          if src <> dst then
            let prior = Option.value ~default:0 (Hashtbl.find_opt caps (src, dst)) in
            Hashtbl.replace caps (src, dst) (min Flow_network.infinity_cap (prior + cap)))
        edges;
      let dedup = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) caps []) in
      let slots, fwd =
        Harness.of_edges ~n
          (Array.of_list (List.map (fun (src, dst) -> (src, dst, 0)) dedup))
      in
      let scratch = Mincut.scratch slots in
      let matches cap_of =
        let value, side = reprice slots scratch fwd ~dedup ~cap_of in
        let fresh = fresh_cut ~n ~dedup ~cap_of in
        value = fresh.Mincut.value && side = fresh.Mincut.source_side
      in
      let cap_of src dst = Hashtbl.find caps (src, dst) in
      (* Second round on the same arena: halved capacities, exercising
         set_arc_cap over dirty residuals plus reset. *)
      matches cap_of && matches (fun src dst -> cap_of src dst / 2))

let test_scratch_reuse () =
  let arena = clrs_network () in
  let scratch = Mincut.scratch arena in
  let v1 = Mincut.run arena scratch ~s:0 ~t:5 in
  Flow_network.reset arena;
  let v2 = Mincut.run arena scratch ~s:0 ~t:5 in
  Alcotest.(check int) "first solve" 23 v1;
  Alcotest.(check int) "re-solve on reused scratch" 23 v2

(* A solve keeps all its state in the scratch: on a 31-node arena of
   94 undirected edges (376 arcs, octarine's session size), re-solving
   allocates nothing. The solver's old local closures and the refs they
   captured cost 84 words a solve here, in dev and release builds. *)
let test_solve_allocation_free () =
  let n = 31 in
  let rand = lcg 5 in
  (* Each node joined to the next three round the ring, plus a chord. *)
  let g =
    arena ~n
      (undirected 0 15 (1 + rand 10_000)
      @ List.concat
          (List.init (3 * n) (fun i ->
               undirected (i / 3) (((i / 3) + 1 + (i mod 3)) mod n) (1 + rand 10_000))))
  in
  Alcotest.(check int) "arcs" 376 (Flow_network.arc_count g);
  let scratch = Mincut.scratch g in
  let words =
    Harness.words_per_run 1_000 (fun () ->
        Flow_network.reset g;
        ignore (Mincut.run g scratch ~s:0 ~t:(n - 1)))
  in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per solve" words) true (words < 1.)

(* --- Multiway ------------------------------------------------------ *)

(* [Multiway.multiway_cut] over an array of [(src, dst, cap)] edges. *)
let multiway_cut ~n edges ~terminals =
  let src, dst, cap = Harness.columns edges in
  Multiway.multiway_cut ~n ~src ~dst ~cap ~terminals

let test_multiway_two_terminals_exact () =
  let p = multiway_cut ~n:6 (Array.of_list clrs_edges) ~terminals:[ 0; 5 ] in
  let exact = Mincut.min_cut (clrs_network ()) ~s:0 ~t:5 in
  Alcotest.(check int) "reduces to exact cut" exact.Mincut.value p.Multiway.cost

let test_multiway_three_terminals () =
  (* A triangle of cheap bridges between three heavy clusters:
     {0,1,2} {3,4,5} {6,7,8} with terminals 0,3,6. *)
  let heavy a b = undirected a b 100 and light a b = undirected a b 3 in
  let edges =
    List.concat
      [ heavy 0 1; heavy 1 2; heavy 3 4; heavy 4 5; heavy 6 7; heavy 7 8;
        light 2 3; light 5 6; light 8 0 ]
  in
  let p = multiway_cut ~n:9 (Array.of_list edges) ~terminals:[ 0; 3; 6 ] in
  (* Each undirected bridge contributes both directed arcs (2 * 3). *)
  Alcotest.(check int) "cost is the three bridges" 18 p.Multiway.cost;
  Alcotest.(check int) "cluster 1 intact" p.Multiway.assignment.(0) p.Multiway.assignment.(1);
  Alcotest.(check int) "cluster 2 intact" p.Multiway.assignment.(3) p.Multiway.assignment.(4);
  Alcotest.(check int) "cluster 3 intact" p.Multiway.assignment.(6) p.Multiway.assignment.(8)

let test_multiway_terminal_ownership () =
  let edges = Array.of_list (undirected 0 1 1 @ undirected 2 3 1) in
  let p = multiway_cut ~n:5 edges ~terminals:[ 0; 2; 4 ] in
  Alcotest.(check int) "terminal 0" 0 p.Multiway.assignment.(0);
  Alcotest.(check int) "terminal 2" 1 p.Multiway.assignment.(2);
  Alcotest.(check int) "terminal 4" 2 p.Multiway.assignment.(4)

let test_multiway_unreached_to_terminal_zero () =
  (* {5,6} shares no component with a terminal; 4 is a lone terminal. *)
  let edges = Array.of_list (undirected 0 1 5 @ undirected 2 3 5 @ undirected 5 6 5) in
  let two = multiway_cut ~n:7 edges ~terminals:[ 0; 2 ] in
  Alcotest.(check (array int)) "two terminals" [| 0; 0; 1; 1; 0; 0; 0 |] two.Multiway.assignment;
  Alcotest.(check int) "two terminals cost" 0 two.Multiway.cost;
  let three = multiway_cut ~n:7 edges ~terminals:[ 0; 2; 4 ] in
  Alcotest.(check (array int)) "three terminals" [| 0; 0; 1; 1; 2; 0; 0 |]
    three.Multiway.assignment;
  Alcotest.(check int) "three terminals cost" 0 three.Multiway.cost

let test_multiway_terminal_order () =
  (* Machine i is the i-th terminal as listed, not in sorted order. *)
  let edges = Array.of_list (undirected 0 1 1 @ undirected 2 3 1) in
  let p = multiway_cut ~n:5 edges ~terminals:[ 4; 2; 0 ] in
  Alcotest.(check (array int)) "listed order" [| 2; 2; 1; 1; 0 |] p.Multiway.assignment;
  Alcotest.check_raises "repeated terminal"
    (Invalid_argument "Multiway.multiway_cut: repeated terminal") (fun () ->
      ignore (multiway_cut ~n:5 edges ~terminals:[ 0; 2; 0 ]))

(* The k-way cut runs on the quotient of the infinite edges. This
   reference owns no quotient: it compiles every node with
   [Flow_network.of_edges] plus a super-sink, runs the exact cut (two
   terminals) or one [Mincut.min_cut] isolating cut per terminal with
   the other terminals wired to the super-sink at infinite capacity,
   and assigns greedily in ascending cut value (ties broken by the same
   [Array.sort]). Nodes with no positive-capacity path to a terminal go
   to terminal 0, and each terminal to itself. *)
let reference_multiway ~n edges ~terminals =
  let terminals = Array.of_list terminals in
  let k = Array.length terminals in
  let cuts =
    if k = 2 then
      [| Mincut.min_cut (arena ~n (Array.to_list edges)) ~s:terminals.(0) ~t:terminals.(1) |]
    else
      Array.init k (fun i ->
          let sink = ref [] in
          Array.iteri
            (fun j t -> if j <> i then sink := undirected t n Flow_network.infinity_cap @ !sink)
            terminals;
          Mincut.min_cut (arena ~n:(n + 1) (Array.to_list edges @ !sink)) ~s:terminals.(i) ~t:n)
  in
  let order = Array.init k Fun.id in
  if k > 2 then Array.sort (fun a b -> compare cuts.(a).Mincut.value cuts.(b).Mincut.value) order;
  let assignment = Array.make n order.(k - 1) in
  for rank = k - 2 downto 0 do
    let i = order.(rank) in
    for v = 0 to n - 1 do
      if cuts.(i).Mincut.source_side.(v) then assignment.(v) <- i
    done
  done;
  let cost =
    if k = 2 then cuts.(0).Mincut.value
    else
      Array.fold_left
        (fun acc (src, dst, cap) -> if assignment.(src) <> assignment.(dst) then acc + cap else acc)
        0 edges
  in
  let anchored = Array.make n false in
  Array.iter (fun t -> anchored.(t) <- true) terminals;
  let grew = ref true in
  while !grew do
    grew := false;
    Array.iter
      (fun (src, dst, cap) ->
        if cap > 0 && anchored.(src) <> anchored.(dst) then begin
          anchored.(src) <- true;
          anchored.(dst) <- true;
          grew := true
        end)
      edges
  done;
  Array.iteri (fun v a -> if not a then assignment.(v) <- 0) anchored;
  Array.iteri (fun i t -> assignment.(t) <- i) terminals;
  (assignment, cost)

(* Random graphs plus infinite chains (both directions) over node
   ranges, so a chain often joins two terminals and the quotient is
   then the identity; terminals come in random order. *)
let gen_multiway =
  QCheck.Gen.(
    int_range 4 10 >>= fun n ->
    int_range 2 4 >>= fun k ->
    shuffle_l (List.init n Fun.id) >>= fun nodes ->
    list_size (int_range 0 20) (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 50))
    >>= fun edges ->
    list_size (int_range 0 3) (pair (int_range 0 (n - 2)) (int_range 1 4)) >>= fun chains ->
    return (n, List.filteri (fun i _ -> i < k) nodes, edges, chains))

let arb_multiway =
  let ints l = String.concat "," (List.map string_of_int l) in
  QCheck.make
    ~print:(fun (n, terminals, edges, chains) ->
      Printf.sprintf "n=%d terminals=%s edges=%s chains=%s" n (ints terminals)
        (String.concat ";" (List.map (fun (a, b, c) -> Printf.sprintf "%d->%d:%d" a b c) edges))
        (String.concat ";" (List.map (fun (s, l) -> Printf.sprintf "%d+%d" s l) chains)))
    gen_multiway

let prop_multiway_equals_uncontracted =
  QCheck.Test.make ~name:"multiway cut equals the uncontracted reference" ~count:300 arb_multiway
    (fun (n, terminals, edges, chains) ->
      let inf = Flow_network.infinity_cap in
      let chain_edges =
        List.concat_map
          (fun (start, len) ->
            List.concat
              (List.init (min len (n - 1 - start)) (fun i ->
                   undirected (start + i) (start + i + 1) inf)))
          chains
      in
      let edges = Array.of_list (edges @ chain_edges) in
      let p = multiway_cut ~n edges ~terminals in
      let assignment, cost = reference_multiway ~n edges ~terminals in
      p.Multiway.assignment = assignment && p.Multiway.cost = cost)

let prop_multiway_cost_consistent =
  QCheck.Test.make ~name:"multiway reported cost equals recomputed cost" ~count:100 arb_graph
    (fun (n, edges) ->
      let terminals = [ 0; 1; n - 1 ] |> List.sort_uniq compare in
      if List.length terminals < 2 then true
      else
        let edges = Array.of_list edges in
        let p = multiway_cut ~n edges ~terminals in
        let src, dst, cap = Harness.columns edges in
        Multiway.partition_cost ~src ~dst ~cap p.Multiway.assignment = p.Multiway.cost)

let suite =
  [
    Alcotest.test_case "edge accumulation" `Quick test_edge_accumulation;
    Alcotest.test_case "self loop ignored" `Quick test_self_loop_ignored;
    Alcotest.test_case "infinity saturation" `Quick test_infinity_saturation;
    Alcotest.test_case "undirected" `Quick test_undirected;
    Alcotest.test_case "copy isolated" `Quick test_copy_isolated;
    Alcotest.test_case "of_edges rejects bad input" `Quick test_of_edges_rejects_bad_input;
    qtest prop_of_edges_orders_input;
    Alcotest.test_case "clrs maxflow (all algorithms)" `Quick test_clrs_maxflow;
    Alcotest.test_case "cut edges sum to value" `Quick test_cut_edges_sum_to_value;
    Alcotest.test_case "cut separates terminals" `Quick test_cut_separates_terminals;
    Alcotest.test_case "disconnected zero cut" `Quick test_disconnected_zero_cut;
    Alcotest.test_case "single edge" `Quick test_single_edge;
    Alcotest.test_case "terminal validation" `Quick test_terminal_validation;
    Alcotest.test_case "infinity edge never cut" `Quick test_infinity_edge_never_cut;
    qtest prop_algorithms_agree;
    qtest prop_each_algorithm_matches_brute_force;
    qtest prop_matches_brute_force;
    qtest prop_cut_edges_sum;
    Alcotest.test_case "large random graphs: all algorithms agree" `Quick
      test_large_random_algorithms_agree;
    Alcotest.test_case "bench-sized graph: rtf matches EK" `Quick
      test_bench_sized_graph_matches_reference;
    qtest prop_flow_certificate;
    Alcotest.test_case "max-flow certificate on large graphs" `Quick test_flow_certificate_large;
    qtest prop_arena_reprice_matches_fresh;
    Alcotest.test_case "scratch reuse across solves" `Quick test_scratch_reuse;
    Alcotest.test_case "a solve allocates nothing" `Quick test_solve_allocation_free;
    Alcotest.test_case "multiway two terminals exact" `Quick test_multiway_two_terminals_exact;
    Alcotest.test_case "multiway three terminals" `Quick test_multiway_three_terminals;
    Alcotest.test_case "multiway terminal ownership" `Quick test_multiway_terminal_ownership;
    Alcotest.test_case "multiway unreached nodes go to terminal 0" `Quick
      test_multiway_unreached_to_terminal_zero;
    qtest prop_multiway_cost_consistent;
    Alcotest.test_case "multiway terminal order" `Quick test_multiway_terminal_order;
    qtest prop_multiway_equals_uncontracted;
  ]
