let infinity_cap = max_int / 1024

(* Forward-star CSR arena: each node's arcs occupy a contiguous slot
   range of the flat int arrays; [pair.(a)] is the reverse arc of [a].
   Forward arcs carry the edge capacity, reverse arcs start at zero.
   The arena is reusable: [arc_cap] holds base capacities that
   [set_arc_cap] rewrites and [reset] blits back into [arc_res], so a
   pricing round touches no heap beyond these preallocated arrays. *)
type t = {
  n : int;
  arc_to : int array;
  arc_res : int array;      (* residual capacity, mutated by push *)
  arc_cap : int array;      (* base capacity; reset restores res from it *)
  pair : int array;
  node_first : int array;   (* length n + 1; arcs of v are
                               node_first.(v) .. node_first.(v+1)-1 *)
}

(* Stable counting sort of the edge indices [from] into [into] by
   [key.(i)], a node id; [count] has one cell per node plus one. *)
let sort_by key ~count ~from ~into =
  Array.fill count 0 (Array.length count) 0;
  for j = 0 to Array.length from - 1 do
    let f = key.(from.(j)) + 1 in
    count.(f) <- count.(f) + 1
  done;
  for v = 1 to Array.length count - 1 do
    count.(v) <- count.(v) + count.(v - 1)
  done;
  for j = 0 to Array.length from - 1 do
    let i = from.(j) in
    let f = key.(i) in
    into.(count.(f)) <- i;
    count.(f) <- count.(f) + 1
  done

let of_edges ~n ~src ~dst ~cap =
  if n < 0 then invalid_arg "Flow_network.of_edges: negative size";
  let m = Array.length src in
  if Array.length dst <> m || Array.length cap <> m then
    invalid_arg "Flow_network.of_edges: edge arrays differ in length";
  let check_node v =
    if v < 0 || v >= n then invalid_arg (Printf.sprintf "Flow_network.of_edges: node %d" v)
  in
  for i = 0 to m - 1 do
    let s = src.(i) and d = dst.(i) in
    if s < 0 || s >= n || d < 0 || d >= n || cap.(i) < 0 then begin
      check_node s;
      check_node d;
      invalid_arg "Flow_network.of_edges: negative capacity"
    end
  done;
  (* The arena is laid out in (src, dst) order, input order among equal
     pairs: two stable counting sorts, by dst and then by src, order the
     edge indices. *)
  let order = Array.init m Fun.id and spare = Array.make m 0 in
  let count = Array.make (n + 1) 0 in
  sort_by dst ~count ~from:order ~into:spare;
  sort_by src ~count ~from:spare ~into:order;
  (* [fwd.(i)] first holds edge i's representative: the first edge in
     order sharing its (src, dst), whose arc carries the summed
     capacity; -1 for a self-loop, which no cut can separate. Degrees
     are counted one slot up per representative, then summed into
     offsets. *)
  let fwd = Array.make m (-1) in
  let node_first = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    let i = order.(k) in
    let s = src.(i) and d = dst.(i) in
    let prev = if k > 0 then order.(k - 1) else i in
    if s <> d then
      if prev <> i && src.(prev) = s && dst.(prev) = d then fwd.(i) <- fwd.(prev)
      else begin
        fwd.(i) <- i;
        node_first.(s + 1) <- node_first.(s + 1) + 1;
        node_first.(d + 1) <- node_first.(d + 1) + 1
      end
  done;
  for v = 1 to n do
    node_first.(v) <- node_first.(v) + node_first.(v - 1)
  done;
  let arcs = node_first.(n) in
  let fill = Array.sub node_first 0 (max 1 n) in
  let arc_to = Array.make arcs 0 in
  let arc_cap = Array.make arcs 0 in
  let pair = Array.make arcs 0 in
  (* In order, so a representative's arc exists before its duplicates
     read it; [fwd.(i)] becomes edge i's forward arc. *)
  for k = 0 to m - 1 do
    let i = order.(k) in
    let r = fwd.(i) in
    if r = i then begin
      let s = src.(i) and d = dst.(i) in
      let a = fill.(s) in
      fill.(s) <- a + 1;
      let b = fill.(d) in
      fill.(d) <- b + 1;
      arc_to.(a) <- d;
      arc_to.(b) <- s;
      pair.(a) <- b;
      pair.(b) <- a;
      fwd.(i) <- a
    end
    else if r >= 0 then fwd.(i) <- fwd.(r);
    if r >= 0 then arc_cap.(fwd.(i)) <- Int.min infinity_cap (arc_cap.(fwd.(i)) + cap.(i))
  done;
  ({ n; arc_to; arc_res = Array.copy arc_cap; arc_cap; pair; node_first }, fwd)

let node_count g = g.n
let arc_count g = Array.length g.arc_to

let arc_start g v = g.node_first.(v)
let arc_stop g v = g.node_first.(v + 1)

let arc_dst g a = g.arc_to.(a)
let arc_pair g a = g.pair.(a)
let arc_cap g a = g.arc_cap.(a)
let residual g a = g.arc_res.(a)

let set_arc_cap g a cap = g.arc_cap.(a) <- cap

(* A loop, not [Array.blit]: the runtime's blit cannot tell an int
   array from one of pointers, so into an array on the major heap it
   stores each element through [caml_modify]. *)
let reset g =
  for a = 0 to Array.length g.arc_cap - 1 do
    g.arc_res.(a) <- g.arc_cap.(a)
  done

let copy g = { g with arc_res = Array.copy g.arc_res; arc_cap = Array.copy g.arc_cap }

let push g a amount =
  assert (amount >= 0 && amount <= g.arc_res.(a));
  g.arc_res.(a) <- g.arc_res.(a) - amount;
  let p = g.pair.(a) in
  g.arc_res.(p) <- g.arc_res.(p) + amount

let min_cut_side_into g ~s ~seen ~stack =
  for v = 0 to g.n - 1 do
    seen.(v) <- false
  done;
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
  let seen = Array.make g.n false in
  let stack = Array.make (max 1 g.n) 0 in
  min_cut_side_into g ~s ~seen ~stack;
  seen

module Components = struct
  (* Union by minimum: a root is its component's smallest member. *)
  type t = int array

  let create n = Array.init n Fun.id

  let rec root parent v =
    let p = parent.(v) in
    if p = v then v
    else begin
      let r = root parent p in
      parent.(v) <- r;
      r
    end

  let join parent a b =
    let ra = root parent a and rb = root parent b in
    parent.(Int.max ra rb) <- Int.min ra rb

  let quotient parent ~terminals =
    let shared = ref false in
    for i = 0 to Array.length terminals - 1 do
      for j = 0 to i - 1 do
        if root parent terminals.(i) = root parent terminals.(j) then shared := true
      done
    done;
    let n = Array.length parent in
    let node = Array.make n 0 and nodes = ref 0 in
    for v = 0 to n - 1 do
      let r = if !shared then v else root parent v in
      node.(v) <- (if r = v then !nodes else node.(r));
      if r = v then incr nodes
    done;
    (node, !nodes)
end
