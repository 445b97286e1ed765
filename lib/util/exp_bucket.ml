(* Buckets: [0,31], [32,63], [64,127], ... doubling; 58 cover any
   non-negative int. A histogram stores (count, bytes) per bucket,
   interleaved in one array that reaches only as far as the highest
   bucket used: most summaries never see a message past bucket 3, so
   they never pay for the other 54. *)

let base_bits = 5 (* first bucket covers 0 .. 2^5 - 1 *)
let nbuckets = 58

(* Bucket [i]'s count at [2i], its bytes at [2i + 1]. *)
type t = { mutable cells : int array }

let create () = { cells = [||] }

(* Top-level, so indexing a size allocates no closure. *)
let rec find_bucket bytes i lo =
  if bytes < lo * 2 || i = nbuckets - 1 then i else find_bucket bytes (i + 1) (lo * 2)

let bucket_index bytes =
  assert (bytes >= 0);
  if bytes < 1 lsl base_bits then 0 else find_bucket bytes 1 (1 lsl base_bits)

let bucket_lo i = if i = 0 then 0 else 1 lsl (base_bits + i - 1)
let bucket_hi i = if i = 0 then (1 lsl base_bits) - 1 else (2 * bucket_lo i) - 1
let bucket_bounds i = (bucket_lo i, bucket_hi i)

let used t = Array.length t.cells / 2
let count t i = if i < used t then t.cells.(2 * i) else 0
let bytes t i = if i < used t then t.cells.((2 * i) + 1) else 0

(* Make room for bucket [i]. *)
let reach t i =
  let n = Array.length t.cells in
  if 2 * i >= n then begin
    let cells = Array.make (2 * (i + 1)) 0 in
    Array.blit t.cells 0 cells 0 n;
    t.cells <- cells
  end

let add_many t ~bytes ~count =
  assert (count >= 0);
  if count > 0 then begin
    let i = bucket_index bytes in
    reach t i;
    let c = t.cells in
    c.(2 * i) <- c.(2 * i) + count;
    c.((2 * i) + 1) <- c.((2 * i) + 1) + (count * bytes)
  end

let add t ~bytes = add_many t ~bytes ~count:1

let merge a b =
  let n = Int.max (used a) (used b) in
  let cells = Array.make (2 * n) 0 in
  for i = 0 to n - 1 do
    cells.(2 * i) <- count a i + count b i;
    cells.((2 * i) + 1) <- bytes a i + bytes b i
  done;
  { cells }

let sum t ~from =
  let acc = ref 0 in
  let i = ref from in
  while !i < Array.length t.cells do
    acc := !acc + t.cells.(!i);
    i := !i + 2
  done;
  !acc

let message_count t = sum t ~from:0
let total_bytes t = sum t ~from:1

let fold f t init =
  let acc = ref init in
  for i = 0 to used t - 1 do
    if t.cells.(2 * i) > 0 then acc := f ~index:i ~count:t.cells.(2 * i) ~bytes:t.cells.((2 * i) + 1) !acc
  done;
  !acc

let mean_bytes_in_bucket t i =
  let n = count t i in
  if n = 0 then 0. else float_of_int (bytes t i) /. float_of_int n
