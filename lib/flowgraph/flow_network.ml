let infinity_cap = max_int / 1024

type t = { n : int; caps : (int, int) Hashtbl.t (* key = src * n + dst *) }

let create ~n =
  if n < 0 then invalid_arg "Flow_network.create: negative size";
  { n; caps = Hashtbl.create 64 }

let node_count t = t.n

let check_node t v name =
  if v < 0 || v >= t.n then invalid_arg (Printf.sprintf "Flow_network.%s: node %d" name v)

let key t src dst = (src * t.n) + dst

let add_edge t ~src ~dst ~cap =
  check_node t src "add_edge";
  check_node t dst "add_edge";
  if cap < 0 then invalid_arg "Flow_network.add_edge: negative capacity";
  if src <> dst && cap > 0 then begin
    let k = key t src dst in
    let cur = Option.value ~default:0 (Hashtbl.find_opt t.caps k) in
    Hashtbl.replace t.caps k (min infinity_cap (cur + cap))
  end

let add_undirected t a b ~cap =
  add_edge t ~src:a ~dst:b ~cap;
  add_edge t ~src:b ~dst:a ~cap

let edge_cap t ~src ~dst =
  check_node t src "edge_cap";
  check_node t dst "edge_cap";
  Option.value ~default:0 (Hashtbl.find_opt t.caps (key t src dst))

let edges t =
  Hashtbl.fold (fun k cap acc -> (k / t.n, k mod t.n, cap) :: acc) t.caps []
  |> List.sort compare

let edge_count t = Hashtbl.length t.caps

let copy t = { n = t.n; caps = Hashtbl.copy t.caps }

module Residual = struct
  (* Forward-star CSR arena: each node's arcs occupy a contiguous slot
     range of the flat int arrays; [pair.(a)] is the reverse arc of
     [a]. Forward arcs carry the edge capacity, reverse arcs start at
     zero. The arena is reusable: [arc_cap] holds base capacities that
     [set_arc_cap] rewrites and [reset] blits back into [arc_res], so a
     pricing round touches no heap beyond these preallocated arrays. *)
  type g = {
    rn : int;
    arc_to : int array;
    arc_res : int array;      (* residual capacity, mutated by push *)
    arc_cap : int array;      (* base capacity; reset restores res from it *)
    pair : int array;
    node_first : int array;   (* length rn + 1; arcs of v are
                                 node_first.(v) .. node_first.(v+1)-1 *)
  }

  let of_edges ~n edges =
    let m = Array.length edges in
    let degree = Array.make (n + 1) 0 in
    Array.iter
      (fun (src, dst, _) ->
        degree.(src) <- degree.(src) + 1;
        degree.(dst) <- degree.(dst) + 1)
      edges;
    let node_first = Array.make (n + 1) 0 in
    for v = 1 to n do
      node_first.(v) <- node_first.(v - 1) + degree.(v - 1)
    done;
    let fill = Array.make (max 1 n) 0 in
    let arc_to = Array.make (2 * m) 0 in
    let arc_cap = Array.make (2 * m) 0 in
    let pair = Array.make (2 * m) 0 in
    let fwd = Array.make m 0 in
    Array.iteri
      (fun i (src, dst, cap) ->
        let a = node_first.(src) + fill.(src) in
        fill.(src) <- fill.(src) + 1;
        let b = node_first.(dst) + fill.(dst) in
        fill.(dst) <- fill.(dst) + 1;
        arc_to.(a) <- dst;
        arc_cap.(a) <- cap;
        arc_to.(b) <- src;
        arc_cap.(b) <- 0;
        pair.(a) <- b;
        pair.(b) <- a;
        fwd.(i) <- a)
      edges;
    ({ rn = n; arc_to; arc_res = Array.copy arc_cap; arc_cap; pair; node_first }, fwd)

  let of_network t = fst (of_edges ~n:t.n (Array.of_list (edges t)))

  let node_count g = g.rn
  let arc_count g = Array.length g.arc_to

  let arc_start g v = g.node_first.(v)
  let arc_stop g v = g.node_first.(v + 1)

  let arc_dst g a = g.arc_to.(a)
  let arc_pair g a = g.pair.(a)
  let residual g a = g.arc_res.(a)

  let set_arc_cap g a cap = g.arc_cap.(a) <- cap

  let reset g = Array.blit g.arc_cap 0 g.arc_res 0 (Array.length g.arc_cap)

  let copy g =
    { g with arc_res = Array.copy g.arc_res; arc_cap = Array.copy g.arc_cap }

  let push g a amount =
    assert (amount >= 0 && amount <= g.arc_res.(a));
    g.arc_res.(a) <- g.arc_res.(a) - amount;
    let p = g.pair.(a) in
    g.arc_res.(p) <- g.arc_res.(p) + amount

  let min_cut_side_into g ~s ~seen ~stack =
    Array.fill seen 0 g.rn false;
    seen.(s) <- true;
    stack.(0) <- s;
    let top = ref 1 in
    while !top > 0 do
      decr top;
      let v = stack.(!top) in
      for a = g.node_first.(v) to g.node_first.(v + 1) - 1 do
        let u = g.arc_to.(a) in
        if g.arc_res.(a) > 0 && not seen.(u) then begin
          seen.(u) <- true;
          stack.(!top) <- u;
          incr top
        end
      done
    done

  let min_cut_side g ~s =
    let seen = Array.make g.rn false in
    let stack = Array.make (max 1 g.rn) 0 in
    min_cut_side_into g ~s ~seen ~stack;
    seen
end
