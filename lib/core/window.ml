open Coign_util

(* Cells [0, w_slots) are the creation pairs in slot order; later cells
   are the extras in first-observation order. Every per-cell array has
   the same capacity and grows by doubling when an extra appears. *)
type t = {
  w_half_life_us : float;
  w_slots : int;
  w_cell : int Int_table.t;  (* packed pair -> cell; -1 when absent *)
  (* Extras by pair. Lookups go through [w_cell] unless a classification
     is too wide to pack; the table is kept for its iteration order,
     which is the order the extras join the mass (see [w_mass_order]). *)
  w_extra : (int * int, int) Hashtbl.t;
  mutable w_cells : int;
  mutable w_pair : (int * int) array;
  mutable w_hash : int array;  (* [Hashtbl.hash] of the pair *)
  mutable w_count : float array;
  mutable w_bytes : float array;
  mutable w_last : float array;
  mutable w_observed : int;
  mutable w_byte_observed : int;
  (* Drift's summation orders, rebuilt only when an extra appears:
     extras in [w_extra]'s iteration order, cells in signature insertion
     order (slots, then extras by pair), and per bucket count
     [64 lsl k] the cells in that signature table's iteration order
     (stale once its length is not [w_cells]). *)
  mutable w_mass_order : int array;
  mutable w_rank : int array;
  mutable w_orders : int array array;
  (* The last [refresh]: per-cell decayed counts and bytes, the two
     masses, and how many cells carry weight in each dimension. *)
  mutable r_count : float array;
  mutable r_bytes : float array;
  r_mass : float array;  (* [| calls; bytes |], unboxed *)
  mutable r_live : int;
  mutable r_live_bytes : int;
}

(* Classifications in [-2^30, 2^30) pack into one non-negative int
   below 2^62, never [Int_table]'s reserved [min_int]. *)
let packable c = c >= -(1 lsl 30) && c < 1 lsl 30
let pack lo hi = ((lo + (1 lsl 30)) lsl 31) lor (hi + (1 lsl 30))

let create ~half_life_us ~pairs =
  if not (half_life_us > 0.) then
    invalid_arg "Window.create: half_life_us must be positive";
  let n = Array.length pairs in
  let pairs = Array.map (fun (a, b) -> (Int.min a b, Int.max a b)) pairs in
  let cell = Int_table.create ~absent:(-1) (n + 16) in
  Array.iteri
    (fun slot (lo, hi) ->
      if not (packable lo && packable hi) then
        invalid_arg "Window.create: classification out of range";
      let key = pack lo hi in
      if Int_table.find cell key >= 0 then invalid_arg "Window.create: duplicate pair"
      else Int_table.replace cell key slot)
    pairs;
  {
    w_half_life_us = half_life_us;
    w_slots = n;
    w_cell = cell;
    w_extra = Hashtbl.create 16;
    w_cells = n;
    w_pair = pairs;
    w_hash = Array.map Hashtbl.hash pairs;
    w_count = Array.make n 0.;
    w_bytes = Array.make n 0.;
    w_last = Array.make n 0.;
    w_observed = 0;
    w_byte_observed = 0;
    w_mass_order = [||];
    w_rank = Array.init n Fun.id;
    w_orders = [||];
    r_count = Array.make n 0.;
    r_bytes = Array.make n 0.;
    r_mass = [| 0.; 0. |];
    r_live = 0;
    r_live_bytes = 0;
  }

let observed t = t.w_observed
let byte_observed t = t.w_byte_observed
let extra_pairs t = t.w_cells - t.w_slots

(* Per-cell lazy decay: a cell's stored weight is exact as of its own
   last-update time; reading or bumping it first multiplies in the decay
   since then. 2^(-dt/h) keeps half-life arithmetic exact at powers of
   two, which the unit tests pin down. A factor of exactly 1 for
   [dt <= 0] leaves every weight's bits as they are. *)
let[@inline] factor ~half_life_us ~from_us ~to_us =
  let dt = to_us -. from_us in
  if dt <= 0. then 1. else Float.pow 2. (-.dt /. half_life_us)

let decay_by ~half_life_us ~from_us ~to_us v = v *. factor ~half_life_us ~from_us ~to_us

let grow t =
  let cap = 2 * Array.length t.w_count + 8 in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  t.w_pair <- extend t.w_pair (0, 0);
  t.w_hash <- extend t.w_hash 0;
  t.w_count <- extend t.w_count 0.;
  t.w_bytes <- extend t.w_bytes 0.;
  t.w_last <- extend t.w_last 0.;
  t.r_count <- extend t.r_count 0.;
  t.r_bytes <- extend t.r_bytes 0.

(* A pair the profile never saw: a new cell, and the summation orders
   that depend on the set of extras. *)
let add_extra t lo hi ~at_us ~bytes =
  let c = t.w_cells in
  if c = Array.length t.w_count then grow t;
  let pair = (lo, hi) in
  t.w_pair.(c) <- pair;
  t.w_hash.(c) <- Hashtbl.hash pair;
  t.w_count.(c) <- 1.;
  t.w_bytes.(c) <- float_of_int bytes;
  t.w_last.(c) <- at_us;
  t.w_cells <- c + 1;
  if packable lo && packable hi then Int_table.replace t.w_cell (pack lo hi) c;
  Hashtbl.add t.w_extra pair c;
  let order = Array.make (Hashtbl.length t.w_extra) 0 and i = ref 0 in
  Hashtbl.iter
    (fun _ c ->
      order.(!i) <- c;
      incr i)
    t.w_extra;
  t.w_mass_order <- order;
  let extras = Array.init (c + 1 - t.w_slots) (fun i -> t.w_slots + i) in
  Array.sort (fun a b -> compare t.w_pair.(a) t.w_pair.(b)) extras;
  t.w_rank <- Array.append (Array.init t.w_slots Fun.id) extras

let observe t ~clock ~caller ~callee ~bytes =
  let at_us = clock.(0) in
  t.w_observed <- t.w_observed + 1;
  if bytes > 0 then t.w_byte_observed <- t.w_byte_observed + 1;
  let lo = Int.min caller callee and hi = Int.max caller callee in
  let c =
    if packable lo && packable hi then Int_table.find t.w_cell (pack lo hi)
    else Option.value ~default:(-1) (Hashtbl.find_opt t.w_extra (lo, hi))
  in
  if c < 0 then add_extra t lo hi ~at_us ~bytes
  else begin
    let f = factor ~half_life_us:t.w_half_life_us ~from_us:t.w_last.(c) ~to_us:at_us in
    t.w_count.(c) <- (t.w_count.(c) *. f) +. 1.;
    t.w_bytes.(c) <- (t.w_bytes.(c) *. f) +. float_of_int bytes;
    t.w_last.(c) <- at_us
  end

let decayed_slots t w ~now_us =
  Array.init t.w_slots (fun s ->
      decay_by ~half_life_us:t.w_half_life_us ~from_us:t.w_last.(s) ~to_us:now_us w.(s))

let counts_at t ~now_us = decayed_slots t t.w_count ~now_us
let bytes_at t ~now_us = decayed_slots t t.w_bytes ~now_us

(* --- Reads for drift checks ---------------------------------------------- *)

(* Decay cell [c] once into the read buffers and add it to the masses. *)
let read_cell t ~now_us c =
  let f = factor ~half_life_us:t.w_half_life_us ~from_us:t.w_last.(c) ~to_us:now_us in
  let n = t.w_count.(c) *. f and b = t.w_bytes.(c) *. f in
  t.r_count.(c) <- n;
  t.r_bytes.(c) <- b;
  t.r_mass.(0) <- t.r_mass.(0) +. n;
  t.r_mass.(1) <- t.r_mass.(1) +. b;
  if n > 0. then t.r_live <- t.r_live + 1;
  if b > 0. then t.r_live_bytes <- t.r_live_bytes + 1

(* Slots in slot order, then extras in [w_extra]'s iteration order: the
   order the masses were always summed in. *)
let refresh t ~now_us =
  t.r_mass.(0) <- 0.;
  t.r_mass.(1) <- 0.;
  t.r_live <- 0;
  t.r_live_bytes <- 0;
  for c = 0 to t.w_slots - 1 do
    read_cell t ~now_us c
  done;
  let extras = t.w_mass_order in
  for i = 0 to Array.length extras - 1 do
    read_cell t ~now_us extras.(i)
  done

let mass t = t.r_mass.(0)
let byte_mass t = t.r_mass.(1)
let live_pairs t = t.r_live
let slot_count t s = t.r_count.(s)
let slot_bytes t s = t.r_bytes.(s)

type dim = Calls | Bytes

(* A signature of [live] weighted cells is a [Hashtbl] of
   [Hashtbl.create 64] grown by doubling while it holds more than twice
   its bucket count. Its iteration order: ascending bucket
   [hash land (B - 1)], and within a bucket the latest inserted first.
   Cosine sums in any other order round differently. *)
let order t live =
  let k = ref 0 in
  while live > 128 lsl !k do
    incr k
  done;
  let k = !k in
  if k >= Array.length t.w_orders then
    t.w_orders <- Array.append t.w_orders (Array.make (k + 1 - Array.length t.w_orders) [||]);
  if Array.length t.w_orders.(k) <> t.w_cells then begin
    let mask = (64 lsl k) - 1 in
    let start = Array.make (mask + 2) 0 in
    for c = 0 to t.w_cells - 1 do
      let b = t.w_hash.(c) land mask in
      start.(b + 1) <- start.(b + 1) + 1
    done;
    for b = 1 to mask + 1 do
      start.(b) <- start.(b) + start.(b - 1)
    done;
    let perm = Array.make t.w_cells 0 in
    for r = t.w_cells - 1 downto 0 do
      let c = t.w_rank.(r) in
      let b = t.w_hash.(c) land mask in
      perm.(start.(b)) <- c;
      start.(b) <- start.(b) + 1
    done;
    t.w_orders.(k) <- perm
  end;
  t.w_orders.(k)

type baseline = {
  b_dim : dim;
  b_cell : int array;  (* weighted cells in signature order *)
  b_weight : float array;
  b_norm2 : float;  (* sum of squared weights, in that order *)
}

let freeze t dim weights =
  let weight c = if c < Array.length weights then weights.(c) else 0. in
  let live = ref 0 in
  for c = 0 to t.w_cells - 1 do
    if weight c > 0. then incr live
  done;
  let cell = Array.make !live 0 and w = Array.make !live 0. in
  let k = ref 0 and norm2 = ref 0. in
  Array.iter
    (fun c ->
      let v = weight c in
      if v > 0. then begin
        cell.(!k) <- c;
        w.(!k) <- v;
        norm2 := !norm2 +. (v *. v);
        incr k
      end)
    (order t !live);
  { b_dim = dim; b_cell = cell; b_weight = w; b_norm2 = !norm2 }

let baseline t dim weights =
  if Array.length weights <> t.w_slots then invalid_arg "Window.baseline: one weight per slot";
  freeze t dim weights

let adopt t dim = freeze t dim (match dim with Calls -> t.r_count | Bytes -> t.r_bytes)

(* [Drift.similarity baseline window]: the dot product in the
   baseline's order, the window's norm in its own. *)
let similarity t b =
  let values = match b.b_dim with Calls -> t.r_count | Bytes -> t.r_bytes in
  let live = match b.b_dim with Calls -> t.r_live | Bytes -> t.r_live_bytes in
  let dot = ref 0. in
  for i = 0 to Array.length b.b_cell - 1 do
    let v = values.(b.b_cell.(i)) in
    if v > 0. then dot := !dot +. (b.b_weight.(i) *. v)
  done;
  let order = order t live in
  let nb = ref 0. in
  for i = 0 to Array.length order - 1 do
    let v = values.(order.(i)) in
    if v > 0. then nb := !nb +. (v *. v)
  done;
  let na = b.b_norm2 and nb = !nb in
  if na = 0. && nb = 0. then 1.
  else if na = 0. || nb = 0. then 0.
  else !dot /. (sqrt na *. sqrt nb)
