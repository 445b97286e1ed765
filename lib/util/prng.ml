(* The state lives in eight bytes rather than a mutable [int64] field,
   whose every update would box a fresh [int64]: a draw allocates
   nothing, and the inlined draws below keep their floats unboxed in
   the caller. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let copy = Bytes.copy

(* splitmix64 finalizer: the standard avalanche mix. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let state = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 state;
  mix state

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's 63-bit native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let[@inline] float t bound =
  assert (bound > 0.);
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* A uniform draw in (0, 1): a 0 is drawn again. *)
let[@inline] nonzero t =
  let u = ref (float t 1.0) in
  while not (!u > 0.) do
    u := float t 1.0
  done;
  !u

let[@inline] gaussian t ~mu ~sigma =
  let u1 = nonzero t in
  let u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let exponential t ~mean = -.mean *. log (nonzero t)

let split t = create (mix (next_int64 t))

let mix64 = mix

(* Stream derivation is stateless: it never draws from (or even
   constructs) the root generator, so adding a consumer of stream [i]
   cannot perturb the draws of any other stream of the same seed. *)
let stream seed i = mix (Int64.add seed (Int64.mul golden_gamma (Int64.of_int i)))

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
