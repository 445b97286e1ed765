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

val multiway_cut :
  n:int -> src:int array -> dst:int array -> cap:int array -> terminals:int list -> partition
(** [multiway_cut ~n ~src ~dst ~cap ~terminals] cuts the directed edges
    held as three parallel arrays over nodes [0 .. n-1]: edge [i] runs
    from [src.(i)] to [dst.(i)] with capacity [cap.(i)], as
    {!Flow_network.of_edges} takes them, so a caller builds no tuple
    per edge. Machine [i] is the [i]-th of at least two distinct
    terminals ([Invalid_argument] otherwise, and on arrays of different
    lengths or an edge node out of range). With exactly two, this
    reduces to the exact minimum cut. Treats edge capacities as
    symmetric demand (an undirected multiway-cut instance): for best
    results list every edge in both directions. The edges may come in
    any order: the result depends only on the edge multiset. An
    {!Flow_network.infinity_cap} edge, either way, keeps its ends on
    one machine unless infinite edges join two terminals. Nodes sharing
    no connected component with a terminal land on terminal 0. *)
