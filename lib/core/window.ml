type extra = {
  mutable x_count : float;
  mutable x_bytes : float;
  mutable x_last : float;
}

type t = {
  w_half_life_us : float;
  w_pairs : (int * int) array;
  w_index : (int * int, int) Hashtbl.t;
  w_count : float array;
  w_bytes : float array;
  w_last : float array;
  w_extra : (int * int, extra) Hashtbl.t;
  mutable w_observed : int;
  mutable w_byte_observed : int;
}

let create ~half_life_us ~pairs =
  if not (half_life_us > 0.) then
    invalid_arg "Window.create: half_life_us must be positive";
  let n = Array.length pairs in
  let index = Hashtbl.create (2 * n) in
  Array.iteri
    (fun slot (a, b) ->
      let key = (min a b, max a b) in
      if Hashtbl.mem index key then
        invalid_arg "Window.create: duplicate pair"
      else Hashtbl.add index key slot)
    pairs;
  {
    w_half_life_us = half_life_us;
    w_pairs = Array.map (fun (a, b) -> (min a b, max a b)) pairs;
    w_index = index;
    w_count = Array.make n 0.;
    w_bytes = Array.make n 0.;
    w_last = Array.make n 0.;
    w_extra = Hashtbl.create 16;
    w_observed = 0;
    w_byte_observed = 0;
  }

let observed t = t.w_observed
let byte_observed t = t.w_byte_observed
let extra_pairs t = Hashtbl.length t.w_extra

(* Per-cell lazy decay: a cell's stored weight is exact as of its own
   last-update time; reading or bumping it first folds in the decay
   since then. 2^(-dt/h) keeps half-life arithmetic exact at powers of
   two, which the unit tests pin down. *)
let[@inline] decay_by ~half_life_us ~from_us ~to_us v =
  let dt = to_us -. from_us in
  if dt <= 0. then v else v *. Float.pow 2. (-.dt /. half_life_us)

let decay t ~from_us ~to_us v = decay_by ~half_life_us:t.w_half_life_us ~from_us ~to_us v

let observe t ~at_us ~caller ~callee ~bytes =
  t.w_observed <- t.w_observed + 1;
  if bytes > 0 then t.w_byte_observed <- t.w_byte_observed + 1;
  let key = (min caller callee, max caller callee) in
  match Hashtbl.find_opt t.w_index key with
  | Some s ->
      t.w_count.(s) <- decay t ~from_us:t.w_last.(s) ~to_us:at_us t.w_count.(s) +. 1.;
      t.w_bytes.(s) <-
        decay t ~from_us:t.w_last.(s) ~to_us:at_us t.w_bytes.(s) +. float_of_int bytes;
      t.w_last.(s) <- at_us
  | None -> (
      match Hashtbl.find_opt t.w_extra key with
      | Some x ->
          x.x_count <- decay t ~from_us:x.x_last ~to_us:at_us x.x_count +. 1.;
          x.x_bytes <- decay t ~from_us:x.x_last ~to_us:at_us x.x_bytes +. float_of_int bytes;
          x.x_last <- at_us
      | None ->
          Hashtbl.add t.w_extra key
            { x_count = 1.; x_bytes = float_of_int bytes; x_last = at_us })

let counts_at t ~now_us =
  Array.init (Array.length t.w_count) (fun s ->
      decay t ~from_us:t.w_last.(s) ~to_us:now_us t.w_count.(s))

let bytes_at t ~now_us =
  Array.init (Array.length t.w_bytes) (fun s ->
      decay t ~from_us:t.w_last.(s) ~to_us:now_us t.w_bytes.(s))

let extras_at t ~now_us =
  List.sort compare
    (Hashtbl.fold
       (fun key x acc -> (key, decay t ~from_us:x.x_last ~to_us:now_us x.x_count) :: acc)
       t.w_extra [])

let total_at t ~now_us =
  let total = ref 0. in
  Array.iteri
    (fun s _ -> total := !total +. decay t ~from_us:t.w_last.(s) ~to_us:now_us t.w_count.(s))
    t.w_count;
  Hashtbl.iter
    (fun _ x -> total := !total +. decay t ~from_us:x.x_last ~to_us:now_us x.x_count)
    t.w_extra;
  !total

let byte_total_at t ~now_us =
  let total = ref 0. in
  Array.iteri
    (fun s _ -> total := !total +. decay t ~from_us:t.w_last.(s) ~to_us:now_us t.w_bytes.(s))
    t.w_bytes;
  Hashtbl.iter
    (fun _ x -> total := !total +. decay t ~from_us:x.x_last ~to_us:now_us x.x_bytes)
    t.w_extra;
  !total

let signature_at t ~now_us =
  let slots =
    Array.to_list
      (Array.mapi
         (fun s key ->
           (key, decay t ~from_us:t.w_last.(s) ~to_us:now_us t.w_count.(s)))
         t.w_pairs)
  in
  Drift.of_weights (slots @ extras_at t ~now_us)

let byte_signature_at t ~now_us =
  let slots =
    Array.to_list
      (Array.mapi
         (fun s key ->
           (key, decay t ~from_us:t.w_last.(s) ~to_us:now_us t.w_bytes.(s)))
         t.w_pairs)
  in
  let extras =
    List.sort compare
      (Hashtbl.fold
         (fun key x acc -> (key, decay t ~from_us:x.x_last ~to_us:now_us x.x_bytes) :: acc)
         t.w_extra [])
  in
  Drift.of_weights (slots @ extras)
