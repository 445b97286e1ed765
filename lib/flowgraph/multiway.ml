type partition = { assignment : int array; cost : int }

let partition_cost edges assignment =
  Array.fold_left
    (fun acc (src, dst, cap) ->
      if assignment.(src) <> assignment.(dst) then acc + cap else acc)
    0 edges

let multiway_cut ?algorithm ~n edges ~terminals =
  let terminals = Array.of_list (List.sort_uniq compare terminals) in
  let k = Array.length terminals in
  if k < 2 then invalid_arg "Multiway.multiway_cut: need at least two terminals";
  Array.iter
    (fun t -> if t < 0 || t >= n then invalid_arg "Multiway.multiway_cut: bad terminal")
    terminals;
  if Array.exists (fun (src, dst, _) -> src >= n || dst >= n) edges then
    invalid_arg "Multiway.multiway_cut: edge node out of range";
  (* One arena for every cut: the graph plus a super-sink [n], wired to
     each terminal by a slot pair that starts at zero capacity. *)
  let m = Array.length edges in
  let sink_slots =
    Array.concat (List.map (fun t -> [| (t, n, 0); (n, t, 0) |]) (Array.to_list terminals))
  in
  let g, fwd = Flow_network.of_edges ~n:(n + 1) (Array.append edges sink_slots) in
  (* Nodes sharing no component with a terminal (over positive-capacity
     edges) cost nothing wherever they go: they land on terminal 0. *)
  let parent = Array.init n Fun.id in
  let rec root v =
    if parent.(v) = v then v
    else begin
      let r = root parent.(v) in
      parent.(v) <- r;
      r
    end
  in
  Array.iter (fun (src, dst, cap) -> if cap > 0 then parent.(root src) <- root dst) edges;
  let anchored = Array.make n false in
  Array.iter (fun t -> anchored.(root t) <- true) terminals;
  let finish assignment cost =
    for v = 0 to n - 1 do
      if not anchored.(root v) then assignment.(v) <- 0
    done;
    (* Terminals always belong to themselves. *)
    Array.iteri (fun i t -> assignment.(t) <- i) terminals;
    { assignment; cost }
  in
  if k = 2 then begin
    let cut = Mincut.min_cut ?algorithm g ~s:terminals.(0) ~t:terminals.(1) in
    finish
      (Array.init n (fun v -> if cut.Mincut.source_side.(v) then 0 else 1))
      cut.Mincut.value
  end
  else begin
    (* Isolating cut for terminal i: every other terminal's slot pair
       goes to infinite capacity, so the super-sink stands for all of
       them merged. *)
    let isolating i =
      Array.iteri
        (fun j _ ->
          let cap = if j = i then 0 else Flow_network.infinity_cap in
          Flow_network.set_arc_cap g fwd.(m + (2 * j)) cap;
          Flow_network.set_arc_cap g fwd.(m + (2 * j) + 1) cap)
        terminals;
      Mincut.min_cut ?algorithm g ~s:terminals.(i) ~t:n
    in
    let cuts = Array.init k isolating in
    (* Drop the most expensive isolating cut (its terminal keeps the
       leftovers), then assign nodes greedily in ascending cut cost so
       cheaper cuts claim their side first. *)
    let order = Array.init k (fun i -> i) in
    Array.sort (fun a b -> compare cuts.(a).Mincut.value cuts.(b).Mincut.value) order;
    let assignment = Array.make n order.(k - 1) in
    let claimed = Array.make n false in
    Array.iteri
      (fun rank i ->
        if rank < k - 1 then
          let side = cuts.(i).Mincut.source_side in
          for v = 0 to n - 1 do
            if side.(v) && not claimed.(v) then begin
              assignment.(v) <- i;
              claimed.(v) <- true
            end
          done)
      order;
    finish assignment (partition_cost edges assignment)
  end
