open Coign_util

(* One cell per unordered instance pair, keyed by the packed
   (min, max) pair; the cell keeps the pair for iteration. *)
type cell = { lo : int; hi : int; mutable count : int; mutable bytes : int }

type t = { cells : cell Int_table.t; mutable messages : int; mutable total : int }

let no_cell = { lo = 0; hi = 0; count = 0; bytes = 0 }

let create () = { cells = Int_table.create ~absent:no_cell 256; messages = 0; total = 0 }

(* [Int.min]/[Int.max], not the polymorphic ones: without flambda
   each of those is a C call. *)
let key a b =
  let lo = Int.min a b and hi = Int.max a b in
  if lo < 0 || hi >= 1 lsl 31 then invalid_arg "Inst_comm: instance id out of range";
  (lo lsl 31) lor hi

let cell_of t a b =
  let k = key a b in
  let c = Int_table.find t.cells k in
  if c != no_cell then c
  else begin
    let c = { lo = Int.min a b; hi = Int.max a b; count = 0; bytes = 0 } in
    Int_table.replace t.cells k c;
    c
  end

let add t ~src ~dst ~messages ~bytes =
  let c = cell_of t src dst in
  c.count <- c.count + messages;
  c.bytes <- c.bytes + bytes;
  t.messages <- t.messages + messages;
  t.total <- t.total + bytes

let record t ~src ~dst ~bytes =
  assert (bytes >= 0);
  add t ~src ~dst ~messages:1 ~bytes

let record_call t ~caller ~callee ~request ~reply =
  assert (request >= 0 && reply >= 0);
  add t ~src:caller ~dst:callee ~messages:2 ~bytes:(request + reply)

let pair_total t a b =
  let c = Int_table.find t.cells (key a b) in
  (c.count, c.bytes)

(* One pass over the cells indexes every instance's peers; a self-pair
   is a single entry. *)
let peers t =
  let index = Hashtbl.create 64 in
  let push inst peer =
    Hashtbl.replace index inst (peer :: Option.value ~default:[] (Hashtbl.find_opt index inst))
  in
  Int_table.iter
    (fun _ c ->
      push c.lo (c.hi, c.count, c.bytes);
      if c.hi <> c.lo then push c.hi (c.lo, c.count, c.bytes))
    t.cells;
  fun inst -> List.sort compare (Option.value ~default:[] (Hashtbl.find_opt index inst))

let instances t =
  let seen = Hashtbl.create 64 in
  Int_table.iter
    (fun _ c ->
      Hashtbl.replace seen c.lo ();
      Hashtbl.replace seen c.hi ())
    t.cells;
  Hashtbl.fold (fun i () acc -> i :: acc) seen [] |> List.sort compare

let message_count t = t.messages
let total_bytes t = t.total
