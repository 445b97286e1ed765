type 'a t = {
  mutable keys : int array; (* [free] marks an empty slot *)
  mutable vals : 'a array;
  mutable shift : int; (* 63 - log2 capacity *)
  mutable size : int;
  absent : 'a;
}

let free = min_int

(* Fibonacci hashing: the top bits of the key times an odd constant
   near 2^63 / phi, so packed keys that differ only in low or only in
   high fields still spread over the whole table. *)
let golden = 0x1E3779B97F4A7C15

let create ~absent n =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  let cap = 1 lsl !bits in
  { keys = Array.make cap free; vals = Array.make cap absent; shift = 63 - !bits; size = 0; absent }

(* Linear probing from [i]. Top level, so a lookup allocates no
   closure over [keys], [mask] and [k]. *)
let rec probe keys mask k i =
  let k' = Array.unsafe_get keys i in
  if k' = k || k' = free then i else probe keys mask k ((i + 1) land mask)

(* The slot holding [k], or the free slot where it would go; the home
   slot is tried before the probe loop is called. *)
let slot t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = (k * golden) lsr t.shift in
  let k' = Array.unsafe_get keys i in
  if k' = k || k' = free then i else probe keys mask k ((i + 1) land mask)

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap free;
  t.vals <- Array.make cap t.absent;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun i k ->
      if k <> free then begin
        let s = slot t k in
        t.keys.(s) <- k;
        t.vals.(s) <- vals.(i)
      end)
    keys

(* Claim the free slot [s] for [k], growing past half full. *)
let insert t s k v =
  t.keys.(s) <- k;
  t.vals.(s) <- v;
  t.size <- t.size + 1;
  if 2 * t.size > Array.length t.keys then grow t

let find t k =
  let s = slot t k in
  if Array.unsafe_get t.keys s = k then Array.unsafe_get t.vals s else t.absent

let replace t k v =
  if k = free then invalid_arg "Int_table.replace: reserved key";
  let s = slot t k in
  if t.keys.(s) = k then t.vals.(s) <- v else insert t s k v

let find_or_add t k v =
  if k = free then invalid_arg "Int_table.find_or_add: reserved key";
  let s = slot t k in
  if t.keys.(s) = k then t.vals.(s)
  else begin
    insert t s k v;
    v
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) free;
  t.size <- 0

let length t = t.size

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    if keys.(i) <> free then f keys.(i) vals.(i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
