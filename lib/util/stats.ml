let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else
    let m = mean xs in
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs /. float_of_int n

let stddev xs = sqrt (variance xs)

(* Exact order statistics by selection. [select_rank xs hi k] is
   Hoare-partition quickselect (Wirth's form) over [xs.(0..hi)] with a
   median-of-three pivot: it leaves at index [k] the value a sort would
   put there, everything before it no larger and everything after it up
   to [hi] no smaller. The monomorphic [<] on a [float array] keeps the
   scan free of boxing; scans stop on equal keys, so all-equal and
   heavy-duplicate inputs split evenly, and the median of three keeps
   sorted and reverse-sorted inputs linear. *)
let swap (xs : float array) i j =
  let t = xs.(i) in
  xs.(i) <- xs.(j);
  xs.(j) <- t

let select_rank (xs : float array) hi k =
  let lo = ref 0 and hi = ref hi in
  while !lo < !hi do
    let l = !lo and h = !hi in
    let m = l + ((h - l) / 2) in
    if xs.(m) < xs.(l) then swap xs m l;
    if xs.(h) < xs.(l) then swap xs h l;
    if xs.(h) < xs.(m) then swap xs h m;
    let pivot = xs.(m) in
    let i = ref l and j = ref h in
    while !i <= !j do
      while xs.(!i) < pivot do
        incr i
      done;
      while pivot < xs.(!j) do
        decr j
      done;
      if !i <= !j then begin
        swap xs !i !j;
        incr i;
        decr j
      end
    done;
    (* [l..j] <= pivot <= [i..h]; anything strictly between is the
       pivot itself, already at its sorted index. *)
    if !j < k then lo := !i;
    if k < !i then hi := !j
  done

(* Largest rank first: once rank [k] is in place, [xs.(0..k-1)] holds
   exactly the [k] smallest values, so every smaller rank is found in
   that prefix and positions from [k] on are never touched again. *)
let select xs ranks =
  let n = Array.length xs in
  let hi = ref (n - 1) in
  List.iter
    (fun k ->
      if k <= !hi then begin
        select_rank xs !hi k;
        hi := k - 1
      end)
    (List.sort (fun a b -> compare b a) ranks)

(* The lower and upper ranks percentile [p] of [n] values interpolates
   between, and the upper one's weight. *)
let bounds n p =
  let rank = p /. 100. *. float_of_int (n - 1) in
  (int_of_float (floor rank), int_of_float (ceil rank), rank -. floor rank)

let percentiles_in_place xs ps =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if not (Array.for_all (fun p -> p >= 0. && p <= 100.) ps) then
    invalid_arg "Stats.percentile: p outside [0, 100]";
  let bs = Array.map (bounds n) ps in
  select xs (Array.fold_left (fun acc (lo, hi, _) -> lo :: hi :: acc) [] bs);
  Array.map (fun (lo, hi, frac) -> (xs.(lo) *. (1. -. frac)) +. (xs.(hi) *. frac)) bs

let percentile xs p = (percentiles_in_place (Array.copy xs) [| p |]).(0)

let dot a b =
  if Array.length a <> Array.length b then invalid_arg "Stats.dot: length mismatch";
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm a = sqrt (dot a a)

let cosine_correlation a b =
  let na = norm a and nb = norm b in
  if na = 0. && nb = 0. then 1.
  else if na = 0. || nb = 0. then 0.
  else dot a b /. (na *. nb)

let linear_fit points =
  let n = Array.length points in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let sx = ref 0. and sy = ref 0. and sxx = ref 0. and sxy = ref 0. in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y))
    points;
  let nf = float_of_int n in
  let denom = (nf *. !sxx) -. (!sx *. !sx) in
  if denom = 0. then invalid_arg "Stats.linear_fit: degenerate x values";
  let slope = ((nf *. !sxy) -. (!sx *. !sy)) /. denom in
  let intercept = (!sy -. (slope *. !sx)) /. nf in
  (intercept, slope)

let ratio_error ~predicted ~measured =
  if measured = 0. then if predicted = 0. then 0. else infinity
  else (predicted -. measured) /. measured
