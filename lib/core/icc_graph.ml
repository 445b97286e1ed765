open Coign_util
open Coign_netsim

(* Flat CSR form: pairs as parallel endpoint arrays, segments as an
   offset array over flat (size index, count) item arrays. One segment
   per a<>b ICC entry, in entry order; sizes are interned into a shared
   dictionary so pricing is one prediction per distinct size. *)
type t = {
  n : int;
  pair_a : int array;
  pair_b : int array;
  non_remotable : bool array;
  seg_pair : int array;      (* pair id per segment, in entry order *)
  seg_first : int array;     (* length nsegs + 1; items of segment s are
                                seg_first.(s) .. seg_first.(s+1)-1 *)
  item_size : int array;     (* indices into [sizes] *)
  item_count : float array;  (* message count per item, as float *)
  sizes : int array;         (* distinct rounded bucket-mean sizes *)
}

type pricing = { pair_us : float array; seg_us : float array }

let classification_count t = t.n
let main_node t = t.n
let pair_count t = Array.length t.pair_a
let pair t p = (t.pair_a.(p), t.pair_b.(p))

let iter_pairs t f =
  for p = 0 to Array.length t.pair_a - 1 do
    f p ~a:t.pair_a.(p) ~b:t.pair_b.(p) ~non_remotable:t.non_remotable.(p)
  done

let build ~classifier ~icc =
  let n = Classifier.classification_count classifier in
  let node_of c = if c < 0 then n else c in
  let pair_ids : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let pair_rev = ref [] and npairs = ref 0 in
  let non_remotable_ids : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let size_ids : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let size_rev = ref [] and nsizes = ref 0 in
  (* Segments accumulate in reverse entry order; items in reverse item
     order within each segment, flattened at the end. *)
  let seg_rev = ref [] and nsegs = ref 0 and nitems = ref 0 in
  let intern_size s =
    match Hashtbl.find_opt size_ids s with
    | Some i -> i
    | None ->
        let i = !nsizes in
        incr nsizes;
        Hashtbl.add size_ids s i;
        size_rev := s :: !size_rev;
        i
  in
  List.iter
    (fun (e : Icc.entry) ->
      let a = node_of e.Icc.src and b = node_of e.Icc.dst in
      if a <> b then begin
        let key = (min a b, max a b) in
        let pid =
          match Hashtbl.find_opt pair_ids key with
          | Some id -> id
          | None ->
              let id = !npairs in
              incr npairs;
              Hashtbl.add pair_ids key id;
              pair_rev := key :: !pair_rev;
              id
        in
        if not e.Icc.remotable then Hashtbl.replace non_remotable_ids pid ();
        let items, count =
          Exp_bucket.fold
            (fun ~index ~count ~bytes:_ (acc, k) ->
              let mean = Exp_bucket.mean_bytes_in_bucket e.Icc.messages index in
              ( (intern_size (int_of_float (Float.round mean)), float_of_int count)
                :: acc,
                k + 1 ))
            e.Icc.messages ([], 0)
        in
        seg_rev := (pid, count, items) :: !seg_rev;
        incr nsegs;
        nitems := !nitems + count
      end)
    (Icc.entries icc);
  let seg_pair = Array.make !nsegs 0 in
  let seg_first = Array.make (!nsegs + 1) 0 in
  let item_size = Array.make !nitems 0 in
  let item_count = Array.make !nitems 0. in
  seg_first.(!nsegs) <- !nitems;
  (* Walk the reversed segment list back to front, filling items from
     the tail; within a segment the reversed item list unreverses the
     same way. *)
  let pos = ref !nitems in
  let si = ref !nsegs in
  List.iter
    (fun (pid, count, items) ->
      decr si;
      seg_pair.(!si) <- pid;
      seg_first.(!si) <- !pos - count;
      List.iter
        (fun (size, cnt) ->
          decr pos;
          item_size.(!pos) <- size;
          item_count.(!pos) <- cnt)
        items)
    !seg_rev;
  let pairs = Array.of_list (List.rev !pair_rev) in
  {
    n;
    pair_a = Array.map fst pairs;
    pair_b = Array.map snd pairs;
    non_remotable = Array.init !npairs (Hashtbl.mem non_remotable_ids);
    seg_pair;
    seg_first;
    item_size;
    item_count;
    sizes = Array.of_list (List.rev !size_rev);
  }

let cost_table t compiled =
  Array.map (fun bytes -> Net_profiler.predict_compiled_us compiled ~bytes) t.sizes

let price_into t ~cost pricing =
  Array.fill pricing.pair_us 0 (Array.length pricing.pair_us) 0.;
  (* Segment order is entry order; within a segment, bucket order —
     the same float additions, in the same order, the one-stage
     engine performed, so costs match it bit for bit. *)
  for s = 0 to Array.length t.seg_pair - 1 do
    let total = ref 0. in
    for i = t.seg_first.(s) to t.seg_first.(s + 1) - 1 do
      total := !total +. (t.item_count.(i) *. cost.(t.item_size.(i)))
    done;
    pricing.pair_us.(t.seg_pair.(s)) <- pricing.pair_us.(t.seg_pair.(s)) +. !total;
    pricing.seg_us.(s) <- !total
  done

type scale = { sc_messages : float array; sc_bytes : float array }

let price_scaled_into t ~cost ~zero_us ~scale pricing =
  (* [price_into] with each pair's traffic rescaled: segment s's
     per-message fixed cost (count · zero_us) follows the pair's
     message multiplier, the size-dependent remainder follows its byte
     multiplier. Equal multipliers collapse to one multiply of the
     profiled total, so an all-ones scale reproduces [price_into] bit
     for bit (×1.0 is exact); the unscaled path still keeps its own
     loop. *)
  if
    Array.length scale.sc_messages <> Array.length t.pair_a
    || Array.length scale.sc_bytes <> Array.length t.pair_a
  then invalid_arg "Icc_graph.price_scaled_into: scale length <> pair count";
  Array.fill pricing.pair_us 0 (Array.length pricing.pair_us) 0.;
  for s = 0 to Array.length t.seg_pair - 1 do
    let total = ref 0. and msgs = ref 0. in
    for i = t.seg_first.(s) to t.seg_first.(s + 1) - 1 do
      total := !total +. (t.item_count.(i) *. cost.(t.item_size.(i)));
      msgs := !msgs +. t.item_count.(i)
    done;
    let pid = t.seg_pair.(s) in
    let ms = scale.sc_messages.(pid) and bs = scale.sc_bytes.(pid) in
    let scaled =
      if ms = bs then !total *. ms
      else
        let fixed = !msgs *. zero_us in
        (ms *. fixed) +. (bs *. (!total -. fixed))
    in
    pricing.pair_us.(pid) <- pricing.pair_us.(pid) +. scaled;
    pricing.seg_us.(s) <- scaled
  done

let pair_messages t =
  let m = Array.make (Array.length t.pair_a) 0. in
  for s = 0 to Array.length t.seg_pair - 1 do
    let total = ref 0. in
    for i = t.seg_first.(s) to t.seg_first.(s + 1) - 1 do
      total := !total +. t.item_count.(i)
    done;
    m.(t.seg_pair.(s)) <- m.(t.seg_pair.(s)) +. !total
  done;
  m

let pair_bytes t =
  let m = Array.make (Array.length t.pair_a) 0. in
  for s = 0 to Array.length t.seg_pair - 1 do
    let total = ref 0. in
    for i = t.seg_first.(s) to t.seg_first.(s + 1) - 1 do
      total := !total +. (t.item_count.(i) *. float_of_int t.sizes.(t.item_size.(i)))
    done;
    m.(t.seg_pair.(s)) <- m.(t.seg_pair.(s)) +. !total
  done;
  m

let make_pricing t =
  {
    pair_us = Array.make (Array.length t.pair_a) 0.;
    seg_us = Array.make (Array.length t.seg_pair) 0.;
  }

let price t ~net =
  let cost = cost_table t (Net_profiler.compile net) in
  let pricing = make_pricing t in
  price_into t ~cost pricing;
  pricing

let predicted_us t pricing ~separated =
  let total = ref 0. in
  for s = 0 to Array.length t.seg_pair - 1 do
    if separated t.seg_pair.(s) then total := !total +. pricing.seg_us.(s)
  done;
  !total
