(* The arithmetic the benchmark reports with, kept apart from the
   workloads so it can be tested on hand-computed inputs. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between order statistics at rank p(n-1). *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pstats.percentile: no samples";
  if p < 0. || p > 100. then invalid_arg "Pstats.percentile: p outside [0, 100]";
  let a = sorted xs in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float rank in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] gives
   them (the default "exclusive" method), so spreads computed here and
   by steady.py agree to the last bit. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Pstats.quartiles: needs at least two samples";
  let n = 4 and m = ld + 1 in
  let q i =
    let j = i * m / n in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n
  in
  (q 1, q 2, q 3)

(* Distance between the first and third quartile as a share of the
   median: the steadiness figure a metric's bound is compared with. *)
let iqr_frac xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then invalid_arg "Pstats.iqr_frac: zero median";
  (q3 -. q1) /. Float.abs m

(* [total] spread over [count] operations; zero operations cost
   nothing rather than dividing by zero. *)
let per ~count total = if count <= 0 then 0. else total /. float_of_int count

let us_per ~count seconds = per ~count (seconds *. 1e6)

let fail_frac ~failed ~attempted =
  if attempted <= 0 then invalid_arg "Pstats.fail_frac: nothing attempted";
  if failed < 0 || failed > attempted then invalid_arg "Pstats.fail_frac: failed outside [0, attempted]";
  float_of_int failed /. float_of_int attempted
