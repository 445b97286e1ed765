open Coign_flowgraph

type t = {
  machines : string array;
  assignment : int array;
  cost_ns : int;
  predicted_comm_us : float;
}

let ns_of_us us = int_of_float (Float.round (us *. 1000.))

let choose ~classifier ~icc ~machines ~pins ~net () =
  let machines = Array.of_list machines in
  let k = Array.length machines in
  if k < 2 then invalid_arg "Multiway_analysis.choose: need at least two machines";
  let machine_index = function
    | None -> -1
    | Some name -> (
        match Array.find_index (String.equal name) machines with
        | Some i -> i
        | None -> invalid_arg ("Multiway_analysis.choose: unknown machine " ^ name))
  in
  (* Stage 1: the shared abstract ICC graph. Its main node (= n) is
     machine terminal 0, matching the two-way engine's client node. *)
  let graph = Icc_graph.build ~classifier ~icc in
  let n = Icc_graph.classification_count graph in
  (* Each classification's pinned machine, -1 when free: [pins] is
     asked once per class name. *)
  let by_class = Hashtbl.create 16 in
  let pinned =
    Array.init n (fun c ->
        let cname = Classifier.class_of_classification classifier c in
        match Hashtbl.find_opt by_class cname with
        | Some m -> m
        | None ->
            let m = machine_index (pins cname) in
            Hashtbl.add by_class cname m;
            m)
  in
  let npinned = Array.fold_left (fun acc m -> if m >= 0 then acc + 1 else acc) 0 pinned in
  (* Stage 2: price the abstract pairs against this network profile.
     Nodes 0..n-1 are classifications, n..n+k-1 machine terminals; each
     priced pair and each pin is an undirected edge, written both ways
     straight into the cut's arrays. Non-remotable pairs and pins are
     infinite edges. *)
  let pricing = Icc_graph.price graph ~net in
  let npairs = Icc_graph.pair_count graph in
  let m = 2 * (npairs + npinned) in
  let src = Array.make m 0 and dst = Array.make m 0 and cap = Array.make m 0 in
  let e = ref 0 in
  let undirected a b c =
    src.(!e) <- a;
    dst.(!e) <- b;
    cap.(!e) <- c;
    src.(!e + 1) <- b;
    dst.(!e + 1) <- a;
    cap.(!e + 1) <- c;
    e := !e + 2
  in
  for p = 0 to npairs - 1 do
    undirected (Icc_graph.pair_a graph p) (Icc_graph.pair_b graph p)
      (if Icc_graph.non_remotable graph p then Flow_network.infinity_cap
       else ns_of_us pricing.Icc_graph.pair_us.(p))
  done;
  for c = 0 to n - 1 do
    if pinned.(c) >= 0 then undirected c (n + pinned.(c)) Flow_network.infinity_cap
  done;
  let partition =
    Multiway.multiway_cut ~n:(n + k) ~src ~dst ~cap ~terminals:(List.init k (fun i -> n + i))
  in
  (* Machine indices follow the terminal list, which is our machine
     order; the main program's node is terminal 0, so the assignment
     is the host of every graph node 0..n. *)
  let machine = partition.Multiway.assignment in
  let predicted_comm_us = Icc_graph.predicted_us graph pricing ~host:machine in
  let assignment = Array.sub machine 0 n in
  { machines; assignment; cost_ns = partition.Multiway.cost; predicted_comm_us }

let machine_of t c =
  if c < 0 || c >= Array.length t.assignment then t.machines.(0)
  else t.machines.(t.assignment.(c))

let machine_histogram t =
  Array.to_list
    (Array.mapi
       (fun m name ->
         (name, Array.fold_left (fun acc a -> if a = m then acc + 1 else acc) 0 t.assignment))
       t.machines)
