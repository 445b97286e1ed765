(* Buckets: [0,31], [32,63], [64,127], ... doubling. 63 slots is enough
   for any 62-bit size. Stored sparsely-ish in arrays; histograms are
   tiny so plain arrays are simplest. *)

let base_bits = 5 (* first bucket covers 0 .. 2^5 - 1 *)
let nbuckets = 58

type t = { counts : int array; bytes : int array }

let create () = { counts = Array.make nbuckets 0; bytes = Array.make nbuckets 0 }

(* Top-level, so indexing a size allocates no closure. *)
let rec find_bucket bytes i lo =
  if bytes < lo * 2 || i = nbuckets - 1 then i else find_bucket bytes (i + 1) (lo * 2)

let bucket_index bytes =
  assert (bytes >= 0);
  if bytes < 1 lsl base_bits then 0 else find_bucket bytes 1 (1 lsl base_bits)

let bucket_bounds i =
  if i = 0 then (0, (1 lsl base_bits) - 1)
  else
    let lo = 1 lsl (base_bits + i - 1) in
    (lo, (2 * lo) - 1)

let add t ~bytes =
  let i = bucket_index bytes in
  t.counts.(i) <- t.counts.(i) + 1;
  t.bytes.(i) <- t.bytes.(i) + bytes

let add_many t ~bytes ~count =
  assert (count >= 0);
  if count > 0 then begin
    let i = bucket_index bytes in
    t.counts.(i) <- t.counts.(i) + count;
    t.bytes.(i) <- t.bytes.(i) + (count * bytes)
  end

let merge a b =
  let r = create () in
  for i = 0 to nbuckets - 1 do
    r.counts.(i) <- a.counts.(i) + b.counts.(i);
    r.bytes.(i) <- a.bytes.(i) + b.bytes.(i)
  done;
  r

let message_count t = Array.fold_left ( + ) 0 t.counts

let total_bytes t = Array.fold_left ( + ) 0 t.bytes

let fold f t init =
  let acc = ref init in
  for i = 0 to nbuckets - 1 do
    if t.counts.(i) > 0 then acc := f ~index:i ~count:t.counts.(i) ~bytes:t.bytes.(i) !acc
  done;
  !acc

let mean_bytes_in_bucket t i =
  if t.counts.(i) = 0 then 0. else float_of_int t.bytes.(i) /. float_of_int t.counts.(i)

let is_empty t = message_count t = 0

let equal a b = a.counts = b.counts && a.bytes = b.bytes

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  ignore
    (fold
       (fun ~index ~count ~bytes first ->
         let lo, hi = bucket_bounds index in
         if not first then Format.fprintf ppf "@,";
         Format.fprintf ppf "[%d..%d]: %d msgs, %d bytes" lo hi count bytes;
         false)
       t true);
  Format.fprintf ppf "@]"
