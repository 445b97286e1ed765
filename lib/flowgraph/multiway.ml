module G = Flow_network
module C = G.Components

type partition = { assignment : int array; cost : int }

let partition_cost ~src ~dst ~cap (assignment : int array) =
  let total = ref 0 in
  for i = 0 to Array.length src - 1 do
    if assignment.(src.(i)) <> assignment.(dst.(i)) then total := !total + cap.(i)
  done;
  !total

let multiway_cut ~n ~src ~dst ~cap ~terminals =
  let terminals = Array.of_list terminals in
  let k = Array.length terminals in
  if k < 2 then invalid_arg "Multiway.multiway_cut: need at least two terminals";
  Array.iteri
    (fun i t ->
      if t < 0 || t >= n then invalid_arg "Multiway.multiway_cut: bad terminal";
      if Array.exists (Int.equal t) (Array.sub terminals 0 i) then
        invalid_arg "Multiway.multiway_cut: repeated terminal")
    terminals;
  let m = Array.length src in
  if Array.length dst <> m || Array.length cap <> m then
    invalid_arg "Multiway.multiway_cut: edge arrays differ in length";
  for i = 0 to m - 1 do
    let s = src.(i) and d = dst.(i) in
    if s < 0 || s >= n || d < 0 || d >= n then
      invalid_arg "Multiway.multiway_cut: edge node out of range"
  done;
  (* One arena for every cut: the quotient of the infinite edges plus a
     super-sink, wired to each terminal by a slot pair that starts at
     zero capacity. *)
  let components = C.create n in
  for i = 0 to m - 1 do
    if cap.(i) >= G.infinity_cap then C.join components src.(i) dst.(i)
  done;
  let node, sink = C.quotient components ~terminals in
  let terminal i = node.(terminals.(i)) in
  let qsrc = Array.make (m + (2 * k)) sink and qdst = Array.make (m + (2 * k)) sink in
  let qcap = Array.append cap (Array.make (2 * k) 0) in
  for i = 0 to m - 1 do
    qsrc.(i) <- node.(src.(i));
    qdst.(i) <- node.(dst.(i))
  done;
  (* Slot pair i: terminal i -> super-sink, then back. *)
  for i = 0 to k - 1 do
    qsrc.(m + (2 * i)) <- terminal i;
    qdst.(m + (2 * i) + 1) <- terminal i
  done;
  let g, fwd = G.of_edges ~n:(sink + 1) ~src:qsrc ~dst:qdst ~cap:qcap in
  (* Nodes sharing no component with a terminal (over positive-capacity
     edges) cost nothing wherever they go: they land on terminal 0. *)
  for i = 0 to m - 1 do
    if cap.(i) > 0 then C.join components src.(i) dst.(i)
  done;
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
          let c = if j = i then 0 else G.infinity_cap in
          G.set_arc_cap g fwd.(m + (2 * j)) c;
          G.set_arc_cap g fwd.(m + (2 * j) + 1) c)
        terminals;
    let s, t = if k = 2 then (terminal 0, terminal 1) else (terminal i, sink) in
    G.reset g;
    let value = Mincut.run g scratch ~s ~t in
    { Mincut.value; source_side = G.min_cut_side g ~s }
  in
  let cuts = Array.init (if k = 2 then 1 else k) cut in
  let order = Array.init k Fun.id in
  if k > 2 then
    Array.sort (fun a b -> Int.compare cuts.(a).Mincut.value cuts.(b).Mincut.value) order;
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
  let cost =
    if k = 2 then cuts.(0).Mincut.value
    else partition_cost ~src ~dst ~cap assignment
  in
  for v = 0 to n - 1 do
    if not anchored.(C.root components v) then assignment.(v) <- 0
  done;
  (* Terminals always belong to themselves. *)
  Array.iteri (fun i t -> assignment.(t) <- i) terminals;
  { assignment; cost }
