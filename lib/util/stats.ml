(* Exact order statistics by selection. [select_ranks] is one
   Hoare-partition descent (Wirth's form) over all of [xs] with a
   median-of-three pivot: it leaves at every wanted rank the value a
   sort would put there. After a partition of [lo..hi], every rank at
   or left of [j] lies in [lo..j], every rank at or right of [i] in
   [i..hi], and anything strictly between is the pivot itself, already
   at its sorted index; the descent goes on only into the sides that
   hold a wanted rank, so each element is scanned about once per level
   however many ranks are asked for. When both sides hold ranks it
   recurses into the left one and loops on the right one, and each
   recursion takes a strict subset of the ranks, so the stack is at most
   as deep as there are ranks. The monomorphic [<] on a [float array]
   keeps the scan free of boxing; scans stop on equal keys, so
   all-equal and heavy-duplicate inputs split evenly, and the median of
   three keeps sorted and reverse-sorted inputs linear. *)
let swap (xs : float array) i j =
  let t = xs.(i) in
  xs.(i) <- xs.(j);
  xs.(j) <- t

(* [ks.(klo..khi)] are nondecreasing ranks, all inside [lo..hi]. *)
let rec select_ranks (xs : float array) (ks : int array) lo hi klo khi =
  let lo = ref lo and hi = ref hi and klo = ref klo and khi = ref khi in
  while !lo < !hi && !klo <= !khi do
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
    (* Ranks [klo..a-1] fall in [l..j], ranks [b..khi] in [i..h]. *)
    let a = ref !klo in
    while !a <= !khi && ks.(!a) <= !j do
      incr a
    done;
    let b = ref !a in
    while !b <= !khi && ks.(!b) < !i do
      incr b
    done;
    if !a > !klo && !b <= !khi then select_ranks xs ks l !j !klo (!a - 1);
    if !b <= !khi then begin
      lo := !i;
      klo := !b
    end
    else begin
      hi := !j;
      khi := !a - 1
    end
  done

(* Where percentile [p] of [n] values sits: between the order
   statistics at [floor] and [ceil] of this rank, weighted by its
   fractional part. *)
let rank n p = p /. 100. *. float_of_int (n - 1)

let percentiles_in_place xs ps =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if not (Array.for_all (fun p -> p >= 0. && p <= 100.) ps) then
    invalid_arg "Stats.percentile: p outside [0, 100]";
  (* Both ranks of every percentile, insertion-sorted into one small
     int array; a rank asked for twice is harmless to the descent. *)
  let ks = Array.make (2 * Array.length ps) 0 in
  for i = 0 to Array.length ks - 1 do
    let r = rank n ps.(i / 2) in
    let k = int_of_float (if i land 1 = 0 then floor r else ceil r) in
    let j = ref i in
    while !j > 0 && k < ks.(!j - 1) do
      ks.(!j) <- ks.(!j - 1);
      decr j
    done;
    ks.(!j) <- k
  done;
  select_ranks xs ks 0 (n - 1) 0 (Array.length ks - 1);
  Array.map
    (fun p ->
      let r = rank n p in
      let lo = int_of_float (floor r) and hi = int_of_float (ceil r) and frac = r -. floor r in
      (xs.(lo) *. (1. -. frac)) +. (xs.(hi) *. frac))
    ps

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

let linear_fit ~xs ~ys =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Stats.linear_fit: xs and ys differ in length";
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let sx = ref 0. and sy = ref 0. and sxx = ref 0. and sxy = ref 0. in
  for i = 0 to n - 1 do
    let x = float_of_int xs.(i) and y = ys.(i) in
    sx := !sx +. x;
    sy := !sy +. y;
    sxx := !sxx +. (x *. x);
    sxy := !sxy +. (x *. y)
  done;
  let nf = float_of_int n in
  let denom = (nf *. !sxx) -. (!sx *. !sx) in
  if denom = 0. then invalid_arg "Stats.linear_fit: degenerate x values";
  let slope = ((nf *. !sxy) -. (!sx *. !sy)) /. denom in
  let intercept = (!sy -. (slope *. !sx)) /. nf in
  (intercept, slope)

let ratio_error ~predicted ~measured =
  if measured = 0. then if predicted = 0. then 0. else infinity
  else (predicted -. measured) /. measured
