open Coign_util

(* Cells [0, w_slots) are the creation pairs in slot order; later cells
   are the extras in first-observation order. Every drift-check sum runs
   over the cells in that order. Every per-cell array has the same
   capacity and grows by doubling when an extra appears. *)
type t = {
  w_half_life_us : float;
  w_slots : int;
  w_cell : int Int_table.t;  (* packed pair -> cell; -1 when absent *)
  w_wide : (int * int, int) Hashtbl.t;  (* extras too wide to pack -> cell *)
  mutable w_cells : int;
  mutable w_count : float array;
  mutable w_bytes : float array;
  mutable w_last : float array;
  mutable w_byte_observed : int;
  (* The last [refresh]: per-cell decayed counts and bytes, the two
     masses, and how many cells carry calls. *)
  mutable r_count : float array;
  mutable r_bytes : float array;
  r_mass : float array;  (* [| calls; bytes |], unboxed *)
  mutable r_live : int;
}

(* Classifications in [-2^30, 2^30) pack into one non-negative int
   below 2^62, never [Int_table]'s reserved [min_int]. *)
let packable c = c >= -(1 lsl 30) && c < 1 lsl 30
let pack lo hi = ((lo + (1 lsl 30)) lsl 31) lor (hi + (1 lsl 30))

let create ~half_life_us ~a ~b =
  if not (half_life_us > 0.) then
    invalid_arg "Window.create: half_life_us must be positive";
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Window.create: one b per a";
  let cell = Int_table.create ~absent:(-1) (n + 16) in
  for slot = 0 to n - 1 do
    let lo = Int.min a.(slot) b.(slot) and hi = Int.max a.(slot) b.(slot) in
    if not (packable lo && packable hi) then
      invalid_arg "Window.create: classification out of range";
    let key = pack lo hi in
    if Int_table.find cell key >= 0 then invalid_arg "Window.create: duplicate pair"
    else Int_table.replace cell key slot
  done;
  {
    w_half_life_us = half_life_us;
    w_slots = n;
    w_cell = cell;
    w_wide = Hashtbl.create 1;
    w_cells = n;
    w_count = Array.make n 0.;
    w_bytes = Array.make n 0.;
    w_last = Array.make n 0.;
    w_byte_observed = 0;
    r_count = Array.make n 0.;
    r_bytes = Array.make n 0.;
    r_mass = [| 0.; 0. |];
    r_live = 0;
  }

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
  let extend a =
    let a' = Array.make cap 0. in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  t.w_count <- extend t.w_count;
  t.w_bytes <- extend t.w_bytes;
  t.w_last <- extend t.w_last;
  t.r_count <- extend t.r_count;
  t.r_bytes <- extend t.r_bytes

(* A pair the profile never saw: the next cell. *)
let add_extra t lo hi ~at_us ~bytes =
  let c = t.w_cells in
  if c = Array.length t.w_count then grow t;
  t.w_count.(c) <- 1.;
  t.w_bytes.(c) <- float_of_int bytes;
  t.w_last.(c) <- at_us;
  t.w_cells <- c + 1;
  if packable lo && packable hi then Int_table.replace t.w_cell (pack lo hi) c
  else Hashtbl.replace t.w_wide (lo, hi) c

let observe t ~clock ~caller ~callee ~bytes =
  let at_us = clock.(0) in
  if bytes > 0 then t.w_byte_observed <- t.w_byte_observed + 1;
  let lo = Int.min caller callee and hi = Int.max caller callee in
  let c =
    if packable lo && packable hi then Int_table.find t.w_cell (pack lo hi)
    else Option.value ~default:(-1) (Hashtbl.find_opt t.w_wide (lo, hi))
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

let refresh t ~now_us =
  t.r_mass.(0) <- 0.;
  t.r_mass.(1) <- 0.;
  t.r_live <- 0;
  for c = 0 to t.w_cells - 1 do
    let f = factor ~half_life_us:t.w_half_life_us ~from_us:t.w_last.(c) ~to_us:now_us in
    let n = t.w_count.(c) *. f and b = t.w_bytes.(c) *. f in
    t.r_count.(c) <- n;
    t.r_bytes.(c) <- b;
    t.r_mass.(0) <- t.r_mass.(0) +. n;
    t.r_mass.(1) <- t.r_mass.(1) +. b;
    if n > 0. then t.r_live <- t.r_live + 1
  done

let mass t = t.r_mass.(0)
let byte_mass t = t.r_mass.(1)
let live_pairs t = t.r_live
let slot_count t s = t.r_count.(s)
let slot_bytes t s = t.r_bytes.(s)

type dim = Calls | Bytes

type baseline = {
  b_dim : dim;
  b_cell : int array;  (* the weighted cells, ascending *)
  b_weight : float array;
}

let freeze t dim weights =
  let weight c = if c < Array.length weights then weights.(c) else 0. in
  let n = ref 0 in
  for c = 0 to t.w_cells - 1 do
    if weight c > 0. then incr n
  done;
  let b_cell = Array.make !n 0 and b_weight = Array.make !n 0. in
  n := 0;
  for c = 0 to t.w_cells - 1 do
    if weight c > 0. then begin
      b_cell.(!n) <- c;
      b_weight.(!n) <- weight c;
      incr n
    end
  done;
  { b_dim = dim; b_cell; b_weight }

let baseline t dim weights =
  if Array.length weights <> t.w_slots then invalid_arg "Window.baseline: one weight per slot";
  freeze t dim weights

let adopt t dim = freeze t dim (match dim with Calls -> t.r_count | Bytes -> t.r_bytes)

let similarity t b =
  let values = match b.b_dim with Calls -> t.r_count | Bytes -> t.r_bytes in
  let dot = ref 0. and na = ref 0. and nb = ref 0. in
  for i = 0 to Array.length b.b_cell - 1 do
    let w = b.b_weight.(i) and v = values.(b.b_cell.(i)) in
    na := !na +. (w *. w);
    if v > 0. then dot := !dot +. (w *. v)
  done;
  for c = 0 to t.w_cells - 1 do
    let v = values.(c) in
    if v > 0. then nb := !nb +. (v *. v)
  done;
  let na = !na and nb = !nb in
  if na = 0. && nb = 0. then 1.
  else if na = 0. || nb = 0. then 0.
  else !dot /. (sqrt na *. sqrt nb)
