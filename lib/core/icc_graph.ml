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

let pair_a t p = t.pair_a.(p)
let pair_b t p = t.pair_b.(p)
let non_remotable t p = t.non_remotable.(p)

(* The one segment accumulator both builders feed, in entry order: a
   segment per ICC cell, an item per non-empty bucket. Pairs and sizes
   are interned in first-appearance order, a pair keyed by its
   endpoints packed into one int. The accumulator's arrays grow by
   doubling and are kept per domain, reused by every build on it, so
   a build allocates only the trimmed arrays [finish] returns. *)
type acc = {
  mutable a_n : int;
  mutable a_pair_a : int array;
  mutable a_pair_b : int array;
  mutable a_non_remotable : bool array;  (* pair arrays: never longer than the segments *)
  mutable a_seg_pair : int array;
  mutable a_seg_first : int array;  (* one longer than [a_seg_pair] *)
  mutable a_item_size : int array;
  mutable a_item_count : float array;
  mutable a_sizes : int array;  (* never longer than the items *)
  pair_ids : int Int_table.t;
  size_ids : int Int_table.t;
  mutable npairs : int;
  mutable nsegs : int;
  mutable nitems : int;
  mutable nsizes : int;
  mutable open_pair : int;  (* pair of the open segment; -1 skips its items *)
}

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        a_n = 0;
        a_pair_a = Array.make 64 0;
        a_pair_b = Array.make 64 0;
        a_non_remotable = Array.make 64 false;
        a_seg_pair = Array.make 64 0;
        a_seg_first = Array.make 65 0;
        a_item_size = Array.make 64 0;
        a_item_count = Array.make 64 0.;
        a_sizes = Array.make 64 0;
        pair_ids = Int_table.create ~absent:(-1) 64;
        size_ids = Int_table.create ~absent:(-1) 64;
        npairs = 0;
        nsegs = 0;
        nitems = 0;
        nsizes = 0;
        open_pair = -1;
      })

let accumulator ~n =
  let acc = Domain.DLS.get scratch in
  acc.a_n <- n;
  Int_table.clear acc.pair_ids;
  Int_table.clear acc.size_ids;
  acc.npairs <- 0;
  acc.nsegs <- 0;
  acc.nitems <- 0;
  acc.nsizes <- 0;
  acc.open_pair <- -1;
  acc

let doubled a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Open the segment of one cell. A cell whose endpoints map to the
   same node carries no potential communication: its items are
   dropped. *)
let open_segment acc ~src ~dst ~remotable =
  let n = acc.a_n in
  let src = if src < 0 then n else src and dst = if dst < 0 then n else dst in
  let a = Int.min src dst and b = Int.max src dst in
  if a = b then acc.open_pair <- -1
  else begin
    if acc.nsegs = Array.length acc.a_seg_pair then begin
      acc.a_pair_a <- doubled acc.a_pair_a 0;
      acc.a_pair_b <- doubled acc.a_pair_b 0;
      acc.a_non_remotable <- doubled acc.a_non_remotable false;
      acc.a_seg_pair <- doubled acc.a_seg_pair 0;
      acc.a_seg_first <- doubled acc.a_seg_first 0
    end;
    let key = (a lsl 30) lor b in
    let pid = Int_table.find_or_add acc.pair_ids key acc.npairs in
    if pid = acc.npairs then begin
      acc.a_pair_a.(pid) <- a;
      acc.a_pair_b.(pid) <- b;
      acc.a_non_remotable.(pid) <- false;
      acc.npairs <- pid + 1
    end;
    if not remotable then acc.a_non_remotable.(pid) <- true;
    acc.a_seg_pair.(acc.nsegs) <- pid;
    acc.a_seg_first.(acc.nsegs) <- acc.nitems;
    acc.nsegs <- acc.nsegs + 1;
    acc.open_pair <- pid
  end

(* One bucket of the open segment, priced later at its rounded mean
   message size. A mean that rounds to 2^62 or more saturates at
   max_int instead of wrapping. *)
let add_item acc ~count ~bytes =
  if acc.open_pair >= 0 then begin
    if acc.nitems = Array.length acc.a_item_size then begin
      acc.a_item_size <- doubled acc.a_item_size 0;
      acc.a_item_count <- doubled acc.a_item_count 0.;
      acc.a_sizes <- doubled acc.a_sizes 0
    end;
    let mean = Float.round (float_of_int bytes /. float_of_int count) in
    let size = if mean >= 0x1p62 then max_int else int_of_float mean in
    let sid = Int_table.find_or_add acc.size_ids size acc.nsizes in
    if sid = acc.nsizes then begin
      acc.a_sizes.(sid) <- size;
      acc.nsizes <- sid + 1
    end;
    acc.a_item_size.(acc.nitems) <- sid;
    acc.a_item_count.(acc.nitems) <- float_of_int count;
    acc.nitems <- acc.nitems + 1
  end

let finish acc =
  acc.a_seg_first.(acc.nsegs) <- acc.nitems;
  {
    n = acc.a_n;
    pair_a = Array.sub acc.a_pair_a 0 acc.npairs;
    pair_b = Array.sub acc.a_pair_b 0 acc.npairs;
    non_remotable = Array.sub acc.a_non_remotable 0 acc.npairs;
    seg_pair = Array.sub acc.a_seg_pair 0 acc.nsegs;
    seg_first = Array.sub acc.a_seg_first 0 (acc.nsegs + 1);
    item_size = Array.sub acc.a_item_size 0 acc.nitems;
    item_count = Array.sub acc.a_item_count 0 acc.nitems;
    sizes = Array.sub acc.a_sizes 0 acc.nsizes;
  }

let build ~classifier ~icc =
  let acc = accumulator ~n:(Classifier.classification_count classifier) in
  List.iter
    (fun (e : Icc.entry) ->
      open_segment acc ~src:e.Icc.src ~dst:e.Icc.dst ~remotable:e.Icc.remotable;
      Exp_bucket.fold
        (fun ~index:_ ~count ~bytes () -> add_item acc ~count ~bytes)
        e.Icc.messages ())
    (Icc.entries icc);
  finish acc

let decode ~classifier text =
  let n = Classifier.classification_count classifier in
  let acc = accumulator ~n in
  ignore
    (Icc.scan ~classifications:n text
       ~cell:(fun ~src ~dst ~remotable _ _ -> open_segment acc ~src ~dst ~remotable)
       ~bucket:(fun ~index:_ ~count ~bytes -> add_item acc ~count ~bytes));
  finish acc

let cost_table t net = Array.map (fun bytes -> Net_profiler.predict_us net ~bytes) t.sizes

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
  let cost = cost_table t net in
  let pricing = make_pricing t in
  price_into t ~cost pricing;
  pricing

let predicted_us t pricing ~(host : int array) =
  if Array.length host <= t.n then
    invalid_arg "Icc_graph.predicted_us: host array shorter than the graph's nodes";
  let total = ref 0. in
  for s = 0 to Array.length t.seg_pair - 1 do
    let p = t.seg_pair.(s) in
    if host.(t.pair_a.(p)) <> host.(t.pair_b.(p)) then total := !total +. pricing.seg_us.(s)
  done;
  !total
