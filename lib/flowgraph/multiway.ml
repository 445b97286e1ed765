module G = Flow_network
module C = G.Components

type partition = { assignment : int array; cost : int }

let partition_cost edges assignment =
  Array.fold_left
    (fun acc (src, dst, cap) ->
      if assignment.(src) <> assignment.(dst) then acc + cap else acc)
    0 edges

let multiway_cut ~n edges ~terminals =
  let terminals = Array.of_list terminals in
  let k = Array.length terminals in
  if k < 2 then invalid_arg "Multiway.multiway_cut: need at least two terminals";
  Array.iteri
    (fun i t ->
      if t < 0 || t >= n then invalid_arg "Multiway.multiway_cut: bad terminal";
      if Array.exists (( = ) t) (Array.sub terminals 0 i) then
        invalid_arg "Multiway.multiway_cut: repeated terminal")
    terminals;
  if Array.exists (fun (src, dst, _) -> src < 0 || src >= n || dst < 0 || dst >= n) edges then
    invalid_arg "Multiway.multiway_cut: edge node out of range";
  (* One arena for every cut: the quotient of the infinite edges plus a
     super-sink, wired to each terminal by a slot pair that starts at
     zero capacity. *)
  let components = C.create n in
  Array.iter (fun (src, dst, cap) -> if cap >= G.infinity_cap then C.join components src dst) edges;
  let node, sink = C.quotient components ~terminals in
  let terminal i = node.(terminals.(i)) in
  let m = Array.length edges in
  let src = Array.make (m + (2 * k)) sink and dst = Array.make (m + (2 * k)) sink in
  let cap = Array.make (m + (2 * k)) 0 in
  Array.iteri
    (fun i (s, d, c) ->
      src.(i) <- node.(s);
      dst.(i) <- node.(d);
      cap.(i) <- c)
    edges;
  (* Slot pair i: terminal i -> super-sink, then back. *)
  for i = 0 to k - 1 do
    src.(m + (2 * i)) <- terminal i;
    dst.(m + (2 * i) + 1) <- terminal i
  done;
  let g, fwd = G.of_edges ~n:(sink + 1) ~src ~dst ~cap in
  (* Nodes sharing no component with a terminal (over positive-capacity
     edges) cost nothing wherever they go: they land on terminal 0. *)
  Array.iter (fun (src, dst, cap) -> if cap > 0 then C.join components src dst) edges;
  let anchored = Array.make n false in
  Array.iter (fun t -> anchored.(C.root components t) <- true) terminals;
  (* Two terminals take the exact cut between them. With more, terminal
     i's isolating cut raises every other terminal's slot pair to
     infinite capacity, so the super-sink stands for all of them merged;
     the most expensive cut is dropped (its terminal keeps the
     leftovers) and cheaper cuts claim their side first. *)
  let scratch = Mincut.scratch g in
  let cut i =
    if k > 2 then
      Array.iteri
        (fun j _ ->
          let cap = if j = i then 0 else G.infinity_cap in
          G.set_arc_cap g fwd.(m + (2 * j)) cap;
          G.set_arc_cap g fwd.(m + (2 * j) + 1) cap)
        terminals;
    let s, t = if k = 2 then (terminal 0, terminal 1) else (terminal i, sink) in
    G.reset g;
    let value = Mincut.run g scratch ~s ~t in
    { Mincut.value; source_side = G.min_cut_side g ~s }
  in
  let cuts = Array.init (if k = 2 then 1 else k) cut in
  let order = Array.init k Fun.id in
  if k > 2 then Array.sort (fun a b -> compare cuts.(a).Mincut.value cuts.(b).Mincut.value) order;
  let assignment = Array.make n order.(k - 1) in
  let claimed = Array.make n false in
  for rank = 0 to k - 2 do
    let side = cuts.(order.(rank)).Mincut.source_side in
    for v = 0 to n - 1 do
      if side.(node.(v)) && not claimed.(v) then begin
        assignment.(v) <- order.(rank);
        claimed.(v) <- true
      end
    done
  done;
  let cost = if k = 2 then cuts.(0).Mincut.value else partition_cost edges assignment in
  for v = 0 to n - 1 do
    if not anchored.(C.root components v) then assignment.(v) <- 0
  done;
  (* Terminals always belong to themselves. *)
  Array.iteri (fun i t -> assignment.(t) <- i) terminals;
  { assignment; cost }
