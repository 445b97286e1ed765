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
  let machine_index name =
    match Array.find_index (String.equal name) machines with
    | Some i -> i
    | None -> invalid_arg ("Multiway_analysis.choose: unknown machine " ^ name)
  in
  (* Stage 1: the shared abstract ICC graph. Its main node (= n) is
     machine terminal 0, matching the two-way engine's client node. *)
  let graph = Icc_graph.build ~classifier ~icc in
  let n = Icc_graph.classification_count graph in
  (* Nodes 0..n-1: classifications; n..n+k-1: machine terminals. *)
  let terminal m = n + m in
  (* Stage 2: price the abstract pairs against this network profile;
     non-remotable pairs and pins are infinite edges. *)
  let pricing = Icc_graph.price graph ~net in
  let edges = ref [] in
  let undirected a b cap = edges := (b, a, cap) :: (a, b, cap) :: !edges in
  Icc_graph.iter_pairs graph (fun p ~a ~b ~non_remotable ->
      undirected a b
        (if non_remotable then Flow_network.infinity_cap
         else ns_of_us pricing.Icc_graph.pair_us.(p)));
  for c = 0 to n - 1 do
    match pins (Classifier.class_of_classification classifier c) with
    | Some name -> undirected c (terminal (machine_index name)) Flow_network.infinity_cap
    | None -> ()
  done;
  let partition =
    Multiway.multiway_cut ~n:(n + k) (Array.of_list !edges) ~terminals:(List.init k terminal)
  in
  (* Machine indices follow the terminal list, which is our machine
     order; the main program's node is terminal 0. *)
  let machine = partition.Multiway.assignment in
  let predicted_comm_us =
    Icc_graph.predicted_us graph pricing ~separated:(fun a b -> machine.(a) <> machine.(b))
  in
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
