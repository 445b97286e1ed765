module G = Flow_network

type cut = { value : int; source_side : bool array }

(* Per-arena solver scratch, so a session can solve repeatedly without
   allocating: every array and counter the solver touches lives here. *)
type scratch = {
  sc_n : int;
  sc_h : int array;    (* heights *)
  sc_e : int array;    (* excess *)
  sc_cur : int array;  (* current-arc offsets *)
  sc_cnt : int array;  (* height occupancy counts, length 2n+3 *)
  sc_q : int array;    (* FIFO ring, length n+1 *)
  sc_inq : bool array; (* queued? *)
  mutable sc_qhead : int;
  mutable sc_qtail : int;
  mutable sc_qlen : int;
}

let scratch g =
  let n = G.node_count g in
  {
    sc_n = n;
    sc_h = Array.make n 0;
    sc_e = Array.make n 0;
    sc_cur = Array.make n 0;
    sc_cnt = Array.make ((2 * n) + 3) 0;
    sc_q = Array.make (n + 1) 0;
    sc_inq = Array.make n false;
    sc_qhead = 0;
    sc_qtail = 0;
    sc_qlen = 0;
  }

(* --- Push-relabel (the paper's "lift-to-front" solver) ------------ *)

(* Coign names the CLR lift-to-front discharge order; that order turned
   out pathologically slow on the analysis graphs (~60x a blocking-flow
   solver), so the solver runs FIFO push-relabel with the gap heuristic
   and periodic exact-distance global relabeling. It runs to completion
   (every non-terminal excess drained back to the source), producing a
   genuine maximum flow — and every maximum flow induces the same
   minimal source side in the residual graph, so cut values and chosen
   placements are the textbook algorithm's, a property the test suite
   checks against the augmenting-path reference, brute force and the
   flow's own optimality certificate. The opening
   saturation pushes each source arc's full capacity, so an infinite
   pin arc floods its node with infinity_cap excess that must all
   drain back. Both cuts therefore run on the quotient of the infinite
   edges (Flow_network.Components), which holds no infinite arc
   unless its constraints are unsatisfiable.

   Each step is a top-level function over the scratch, so a solve
   allocates no closure, and every comparison is on ints ([Int.min]),
   never the polymorphic [Stdlib.min]. Scratch is cleared by loops
   rather than [Array.fill], a C call per array. *)

(* The ring's cursors wrap with a compare, not [mod]: an integer
   division per queue step costs tens of cycles. *)
let next sc i = if i + 1 = Array.length sc.sc_q then 0 else i + 1

let qpush sc v =
  sc.sc_q.(sc.sc_qtail) <- v;
  sc.sc_qtail <- next sc sc.sc_qtail;
  sc.sc_qlen <- sc.sc_qlen + 1

let qpop sc =
  let v = sc.sc_q.(sc.sc_qhead) in
  sc.sc_qhead <- next sc sc.sc_qhead;
  sc.sc_qlen <- sc.sc_qlen - 1;
  v

let activate sc ~s ~t v =
  if v <> s && v <> t && (not sc.sc_inq.(v)) && sc.sc_e.(v) > 0 then begin
    sc.sc_inq.(v) <- true;
    qpush sc v
  end

(* Nodes cut off from the sink sit above every label a BFS gives. *)
let unreachable sc = (2 * sc.sc_n) + 1

(* Label every node [root] reaches backwards over residual arcs with
   its distance plus [height]; [s] is never labelled. *)
let bfs g sc ~s root height =
  let h = sc.sc_h in
  h.(root) <- height;
  qpush sc root;
  while sc.sc_qlen > 0 do
    let v = qpop sc in
    let hv = h.(v) in
    for a = G.arc_start g v to G.arc_stop g v - 1 do
      let u = G.arc_dst g a in
      (* u can step to v iff the arc u->v (our arc's pair) has
         residual capacity. *)
      if u <> s && h.(u) = unreachable sc && G.residual g (G.arc_pair g a) > 0 then begin
        h.(u) <- hv + 1;
        qpush sc u
      end
    done
  done

(* Exact-distance heights: BFS from t labels distance-to-sink; nodes
   cut off from t (their excess must return) get n + distance-to-s
   from a second BFS. Heights only ever grow under this update (BFS
   distance >= current height while the labeling is valid), which
   keeps the standard validity invariant — in particular a node that
   ever pushed into s sits at height >= n+1 forever and can never be
   relabeled below the source. Rebuilds counts, current-arc pointers
   and the active queue. *)
let global_relabel g sc ~s ~t =
  let n = sc.sc_n and h = sc.sc_h and cnt = sc.sc_cnt in
  for k = 0 to (2 * n) + 2 do
    cnt.(k) <- 0
  done;
  for v = 0 to n - 1 do
    h.(v) <- unreachable sc;
    sc.sc_cur.(v) <- 0;
    sc.sc_inq.(v) <- false
  done;
  sc.sc_qhead <- 0;
  sc.sc_qtail <- 0;
  sc.sc_qlen <- 0;
  bfs g sc ~s t 0;
  h.(s) <- unreachable sc;
  bfs g sc ~s s n;
  for v = 0 to n - 1 do
    cnt.(h.(v)) <- cnt.(h.(v)) + 1
  done;
  for v = 0 to n - 1 do
    activate sc ~s ~t v
  done

(* The gap heuristic: when no node sits at height [k] any more, no
   excess above [k] can ever descend through it to reach t — lift the
   whole stranded band straight past n. *)
let gap sc ~s k =
  let n = sc.sc_n and h = sc.sc_h and cnt = sc.sc_cnt in
  for v = 0 to n - 1 do
    if v <> s && h.(v) > k && h.(v) < n then begin
      cnt.(h.(v)) <- cnt.(h.(v)) - 1;
      h.(v) <- n + 1;
      cnt.(n + 1) <- cnt.(n + 1) + 1;
      sc.sc_cur.(v) <- 0
    end
  done

let push_relabel g sc ~s ~t =
  let n = G.node_count g in
  let h = sc.sc_h and e = sc.sc_e and cur = sc.sc_cur in
  let cnt = sc.sc_cnt and inq = sc.sc_inq in
  (* The global relabel below clears the queue flags. *)
  for v = 0 to n - 1 do
    e.(v) <- 0
  done;
  (* Saturate all arcs out of s. *)
  for a = G.arc_start g s to G.arc_stop g s - 1 do
    let c = G.residual g a in
    if c > 0 then begin
      G.push g a c;
      e.(G.arc_dst g a) <- e.(G.arc_dst g a) + c;
      e.(s) <- e.(s) - c
    end
  done;
  global_relabel g sc ~s ~t;
  let gr_threshold = (6 * n) + (G.arc_count g / 2) + 64 in
  let gr_work = ref 0 in
  while sc.sc_qlen > 0 do
    let u = qpop sc in
    inq.(u) <- false;
    let base = G.arc_start g u in
    let stop = G.arc_stop g u in
    let deg = stop - base in
    let discharging = ref true in
    while !discharging && e.(u) > 0 do
      if cur.(u) >= deg then begin
        (* Relabel: u still has excess, so a residual arc out of it
           must exist (the flow that got here can retreat). *)
        let old = h.(u) in
        let min_h = ref max_int in
        for a = base to stop - 1 do
          if G.residual g a > 0 then min_h := Int.min !min_h h.(G.arc_dst g a)
        done;
        cnt.(old) <- cnt.(old) - 1;
        h.(u) <- !min_h + 1;
        cnt.(h.(u)) <- cnt.(h.(u)) + 1;
        cur.(u) <- 0;
        if old < n && cnt.(old) = 0 then gap sc ~s old;
        gr_work := !gr_work + deg + 8;
        if !gr_work >= gr_threshold then begin
          gr_work := 0;
          global_relabel g sc ~s ~t;
          (* u was re-queued by the rebuild if it still has excess. *)
          discharging := false
        end
      end
      else begin
        let a = base + cur.(u) in
        let dst = G.arc_dst g a in
        let r = G.residual g a in
        if r > 0 && h.(u) = h.(dst) + 1 then begin
          let amount = Int.min e.(u) r in
          G.push g a amount;
          e.(u) <- e.(u) - amount;
          e.(dst) <- e.(dst) + amount;
          activate sc ~s ~t dst
        end
        else cur.(u) <- cur.(u) + 1
      end
    done
  done;
  e.(t)

let check_terminals n ~s ~t =
  if s < 0 || s >= n || t < 0 || t >= n then invalid_arg "Mincut: terminal out of range";
  if s = t then invalid_arg "Mincut: s = t"

let run g sc ~s ~t =
  check_terminals (G.node_count g) ~s ~t;
  if sc.sc_n <> G.node_count g then
    invalid_arg "Mincut.run: scratch/arena size mismatch";
  push_relabel g sc ~s ~t

(* --- A reference for verification ---------------------------------- *)

(* Edmonds-Karp: shortest augmenting paths by BFS, sharing no code with
   the solver above. *)
let augmenting_path_min_cut g ~s ~t =
  let n = G.node_count g in
  check_terminals n ~s ~t;
  G.reset g;
  let parent_node = Array.make n (-1) and parent_arc = Array.make n 0 in
  let q = Array.make n 0 in
  let total = ref 0 in
  let augmenting = ref true in
  while !augmenting do
    Array.fill parent_node 0 n (-1);
    parent_node.(s) <- s;
    q.(0) <- s;
    let qhead = ref 0 and qtail = ref 1 in
    while parent_node.(t) < 0 && !qhead < !qtail do
      let v = q.(!qhead) in
      incr qhead;
      for a = G.arc_start g v to G.arc_stop g v - 1 do
        let dst = G.arc_dst g a in
        if G.residual g a > 0 && parent_node.(dst) < 0 then begin
          parent_node.(dst) <- v;
          parent_arc.(dst) <- a;
          q.(!qtail) <- dst;
          incr qtail
        end
      done
    done;
    if parent_node.(t) >= 0 then begin
      (* Bottleneck along the path, then apply it. *)
      let b = ref max_int in
      let v = ref t in
      while !v <> s do
        b := Int.min !b (G.residual g parent_arc.(!v));
        v := parent_node.(!v)
      done;
      v := t;
      while !v <> s do
        G.push g parent_arc.(!v) !b;
        v := parent_node.(!v)
      done;
      total := !total + !b
    end
    else augmenting := false
  done;
  { value = !total; source_side = G.min_cut_side g ~s }
