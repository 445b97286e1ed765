(** Heuristic multiway cut (the paper's future-work extension).

    Partitioning across three or more machines is NP-hard (paper §2
    cites Dahlhaus et al.); Coign restricts itself to an exact two-way
    cut. As the extension the paper anticipates, we provide the classic
    isolation heuristic: compute a minimum isolating cut for each
    terminal (terminal vs. all other terminals merged), keep the k-1
    cheapest, and assign every node to the terminal whose isolating cut
    retains it — a (2 - 2/k)-approximation for undirected multiway
    cut. All k cuts run on one {!Flow_network} arena over the quotient
    graph ({!Flow_network.Components}: each component of the
    {!Flow_network.infinity_cap} edges is one node), repricing the
    terminals' super-sink slots between cuts. *)

type partition = {
  assignment : int array;
      (** [assignment.(v)] is the index (into the terminal list) of the
          machine node [v] lands on. *)
  cost : int;  (** total capacity crossing between different machines *)
}

val multiway_cut : n:int -> (int * int * int) array -> terminals:int list -> partition
(** [multiway_cut ~n edges ~terminals] cuts the directed edge array
    [(src, dst, cap)] over nodes [0 .. n-1]. Machine [i] is the [i]-th
    of at least two distinct terminals ([Invalid_argument] otherwise).
    With exactly two, this reduces to the exact minimum cut. Treats
    edge capacities as symmetric demand (an undirected multiway-cut
    instance): for best results list every edge in both directions.
    An {!Flow_network.infinity_cap} edge, either way, keeps its ends on
    one machine unless infinite edges join two terminals. Nodes sharing
    no connected component with a terminal land on terminal 0. *)

val partition_cost : (int * int * int) array -> int array -> int
(** Capacity of all edges whose endpoints get different machines under
    a given assignment. *)
