open Coign_util

(* Cells are keyed by one packed int: (src + 1, dst + 1, interface id)
   in 20 bits each. A cell keeps its own key fields, so iteration never
   unpacks. *)
type cell = {
  c_src : int;
  c_dst : int;
  c_iface : string;
  mutable remotable : bool;
  mutable buckets : Exp_bucket.t;
}

type iface = { if_id : int; if_name : string }

type t = {
  cells : cell Int_table.t;
  ifaces : (string, iface) Hashtbl.t;
  mutable calls : int;
}

type entry = {
  src : int;
  dst : int;
  iface : string;
  remotable : bool;
  messages : Exp_bucket.t;
}

let field_limit = 1 lsl 20

let no_cell =
  { c_src = 0; c_dst = 0; c_iface = ""; remotable = true; buckets = Exp_bucket.create () }

let create () =
  { cells = Int_table.create ~absent:no_cell 256; ifaces = Hashtbl.create 64; calls = 0 }

(* [Hashtbl.find], not [find_opt]: a known name costs no [Some]. *)
let intern t name =
  match Hashtbl.find t.ifaces name with
  | i -> i
  | exception Not_found ->
      let i = { if_id = Hashtbl.length t.ifaces; if_name = name } in
      if i.if_id >= field_limit then invalid_arg "Icc.intern: too many interfaces";
      Hashtbl.add t.ifaces name i;
      i

let in_range c = c >= -1 && c < field_limit - 1

let key ~src ~dst iface =
  if not (in_range src && in_range dst) then invalid_arg "Icc: classification id out of range";
  ((src + 1) lsl 40) lor ((dst + 1) lsl 20) lor iface.if_id

let cell_of t ~src ~dst iface =
  let k = key ~src ~dst iface in
  let c = Int_table.find t.cells k in
  if c != no_cell then c
  else begin
    let c =
      { c_src = src; c_dst = dst; c_iface = iface.if_name; remotable = true;
        buckets = Exp_bucket.create () }
    in
    Int_table.replace t.cells k c;
    c
  end

let record_interned t ~src ~dst iface ~remotable ~request ~reply =
  let c = cell_of t ~src ~dst iface in
  if not remotable then c.remotable <- false;
  Exp_bucket.add c.buckets ~bytes:request;
  Exp_bucket.add c.buckets ~bytes:reply;
  t.calls <- t.calls + 1

let record t ~src ~dst ~iface ~remotable ~request ~reply =
  record_interned t ~src ~dst (intern t iface) ~remotable ~request ~reply

let entries t =
  Int_table.fold
    (fun _ (c : cell) acc ->
      { src = c.c_src; dst = c.c_dst; iface = c.c_iface; remotable = c.remotable;
        messages = c.buckets }
      :: acc)
    t.cells []
  |> List.sort (fun a b -> compare (a.src, a.dst, a.iface) (b.src, b.dst, b.iface))

let pair_entries t =
  let pairs = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let key = (min e.src e.dst, max e.src e.dst) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt pairs key) in
      Hashtbl.replace pairs key (e :: cur))
    (entries t);
  Hashtbl.fold (fun k es acc -> (k, List.rev es) :: acc) pairs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fold_messages f t init =
  Int_table.fold
    (fun _ (c : cell) acc ->
      f ~src:c.c_src ~dst:c.c_dst ~count:(Exp_bucket.message_count c.buckets) acc)
    t.cells init

let call_count t = t.calls

let total_bytes t =
  Int_table.fold (fun _ c acc -> acc + Exp_bucket.total_bytes c.buckets) t.cells 0

(* Fold [src]'s cells into [r], relabelling classifications with [f];
   cells that land on one key merge. *)
let absorb r f src =
  Int_table.iter
    (fun _ (c : cell) ->
      let into = cell_of r ~src:(f c.c_src) ~dst:(f c.c_dst) (intern r c.c_iface) in
      if not c.remotable then into.remotable <- false;
      into.buckets <- Exp_bucket.merge into.buckets c.buckets)
    src.cells

let merge a b =
  let r = create () in
  absorb r Fun.id a;
  absorb r Fun.id b;
  r.calls <- a.calls + b.calls;
  r

let map_classifications f t =
  let r = create () in
  absorb r (fun x -> if x < 0 then x else f x) t;
  r.calls <- t.calls;
  r

(* Text encoding: one line per (entry, bucket). *)
let encode t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "calls %d\n" t.calls);
  List.iter
    (fun e ->
      ignore
        (Exp_bucket.fold
           (fun ~index ~count ~bytes () ->
             Buffer.add_string buf
               (Printf.sprintf "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" e.src e.dst e.iface
                  (if e.remotable then 1 else 0)
                  index count bytes))
           e.messages ()))
    (entries t);
  Buffer.contents buf

exception Decode_error of string

let max_bucket = Exp_bucket.bucket_index max_int

let decode s =
  let fail fmt =
    Printf.ksprintf (fun msg -> raise (Decode_error ("Icc.decode: " ^ msg))) fmt
  in
  let int_in ~what ~lo ~hi v =
    match int_of_string_opt v with
    | Some n when n >= lo && n <= hi -> n
    | _ -> fail "bad %s %S" what v
  in
  let natural ~what v = int_in ~what ~lo:0 ~hi:max_int v in
  let cls ~what v = int_in ~what ~lo:(-1) ~hi:(field_limit - 2) v in
  let t = create () in
  List.iter
    (fun line ->
      if not (String.equal line "") then
        if String.length line > 6 && String.sub line 0 6 = "calls " then
          t.calls <- natural ~what:"call count" (String.sub line 6 (String.length line - 6))
        else
          match String.split_on_char '\t' line with
          | [ src; dst; iface; remotable; index; n; bytes ] ->
              let src = cls ~what:"source" src and dst = cls ~what:"target" dst in
              let remotable =
                match remotable with
                | "1" -> true
                | "0" -> false
                | v -> fail "bad remotable flag %S" v
              in
              let index = int_in ~what:"bucket" ~lo:0 ~hi:max_bucket index in
              let count = natural ~what:"message count" n in
              let bytes = natural ~what:"byte total" bytes in
              let c = cell_of t ~src ~dst (intern t iface) in
              if not remotable then c.remotable <- false;
              (* Reconstruct the bucket contents: distribute total bytes
                 over count messages of the mean size, preserving count
                 and totals within the original bucket. *)
              if count > 0 then begin
                (* Distribute total bytes over count messages without
                   leaving the bucket: floor-mean messages plus enough
                   (mean+1)-byte messages to absorb the remainder. *)
                let mean = bytes / count in
                let lo, _hi = Exp_bucket.bucket_bounds index in
                let mean = max lo mean in
                let remainder = max 0 (bytes - (mean * count)) in
                Exp_bucket.add_many c.buckets ~bytes:mean ~count:(count - remainder);
                Exp_bucket.add_many c.buckets ~bytes:(mean + 1) ~count:remainder
              end
          | fields -> fail "malformed line (%d fields, want 7)" (List.length fields))
    (String.split_on_char '\n' s);
  t
