type t = { hi : int64; lo : int64; gname : string }

(* FNV-1a folded to two 64-bit lanes; deterministic across runs. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash_lane salt s =
  let h = ref (Int64.logxor fnv_offset salt) in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let of_name gname = { hi = hash_lane 0L gname; lo = hash_lane 0x5bd1e995L gname; gname }

let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo

let compare a b =
  let c = Int64.compare a.hi b.hi in
  if c <> 0 then c else Int64.compare a.lo b.lo

let hash t = Int64.to_int t.hi

let name t = t.gname

let to_string t =
  Printf.sprintf "{%08Lx-%04Lx-%04Lx-%04Lx-%012Lx}"
    (Int64.shift_right_logical t.hi 32)
    (Int64.logand (Int64.shift_right_logical t.hi 16) 0xFFFFL)
    (Int64.logand t.hi 0xFFFFL)
    (Int64.shift_right_logical t.lo 48)
    (Int64.logand t.lo 0xFFFFFFFFFFFFL)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
