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

let no_iface = { if_id = -1; if_name = "" }

let in_range c = c >= -1 && c < field_limit - 1

let key ~src ~dst iface =
  if not (in_range src && in_range dst) then invalid_arg "Icc: classification id out of range";
  if iface.if_id < 0 then invalid_arg "Icc: no_iface recorded";
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

let columns t =
  let n = Int_table.length t.cells in
  let src = Array.make n 0 and dst = Array.make n 0 in
  let iface = Array.make n "" and remotable = Array.make n false in
  let i = ref 0 in
  Int_table.iter
    (fun _ (c : cell) ->
      src.(!i) <- c.c_src;
      dst.(!i) <- c.c_dst;
      iface.(!i) <- c.c_iface;
      remotable.(!i) <- c.remotable;
      incr i)
    t.cells;
  (src, dst, iface, remotable)

let entries t =
  Int_table.fold
    (fun _ (c : cell) acc ->
      { src = c.c_src; dst = c.c_dst; iface = c.c_iface; remotable = c.remotable;
        messages = c.buckets }
      :: acc)
    t.cells []
  |> List.sort (fun a b ->
         let c = Int.compare a.src b.src in
         if c <> 0 then c
         else
           let c = Int.compare a.dst b.dst in
           if c <> 0 then c else String.compare a.iface b.iface)

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
  let add_field n =
    Text_field.add_int buf n;
    Buffer.add_char buf '\t'
  in
  Buffer.add_string buf "calls ";
  Text_field.add_int buf t.calls;
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      ignore
        (Exp_bucket.fold
           (fun ~index ~count ~bytes () ->
             add_field e.src;
             add_field e.dst;
             Buffer.add_string buf e.iface;
             Buffer.add_char buf '\t';
             add_field (if e.remotable then 1 else 0);
             add_field index;
             add_field count;
             Text_field.add_int buf bytes;
             Buffer.add_char buf '\n')
           e.messages ()))
    (entries t);
  Buffer.contents buf

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Decode_error ("Icc.decode: " ^ msg))) fmt

let max_bucket = Exp_bucket.bucket_index max_int

let field_end = Text_field.field_end

let sub s a b = String.sub s a (b - a)

external get64 : string -> int -> int64 = "%caml_string_get64u"

(* [String.compare] on two substrings of [s], from offset [k]: eight
   bytes at a time while the two agree, then byte by byte. *)
let rec compare_sub s a alen b blen k =
  if k + 8 <= alen && k + 8 <= blen && get64 s (a + k) = get64 s (b + k) then
    compare_sub s a alen b blen (k + 8)
  else compare_bytes s a alen b blen k

and compare_bytes s a alen b blen k =
  if k = alen || k = blen then Int.compare alen blen
  else
    let c = Char.compare (String.unsafe_get s (a + k)) (String.unsafe_get s (b + k)) in
    if c <> 0 then c else compare_bytes s a alen b blen (k + 1)

(* [scan]'s one mutable cell: [num] leaves the value of the field it
   read here, so reading a field returns no pair. *)
type cursor = { mutable v : int }

(* Read the field at [i], ending at the first tab, newline or end of
   text, into [cur.v] as [Text_field.int] would, and return its end.
   Plain digits, 1 to 18 of them, are summed in the pass that finds the
   end; any other field (a sign, more digits, another spelling, none)
   is handed to [Text_field.int] whole. *)
let rec num s len cur i k acc =
  if k = len then num_end s cur i k acc
  else
    match String.unsafe_get s k with
    | '0' .. '9' as c -> num s len cur i (k + 1) ((acc * 10) + Char.code c - 48)
    | '\t' | '\n' -> num_end s cur i k acc
    | _ ->
        let e = field_end s k in
        cur.v <- Text_field.int s i e;
        e

and num_end s cur i k acc =
  cur.v <- (if k > i && k - i <= 18 then acc else Text_field.int s i k);
  k

let field s cur i = num s (String.length s) cur i i 0

(* Every range starts at -1 or above, so a field that is not an
   integer ([Text_field.bad]) is out of range too. *)
let bad_field s ~what a b = fail "bad %s %S" what (sub s a b)

let scan ?(classifications = field_limit - 1) s ~cell ~bucket =
  let len = String.length s in
  if not (len > 6 && String.starts_with ~prefix:"calls " s) then fail "missing calls line";
  let tab k = k < len && String.unsafe_get s k = '\t' in
  let cur = { v = 0 } in
  let e = field s cur 6 in
  if e = len || tab e then fail "malformed calls line";
  let calls = cur.v in
  if calls < 0 then bad_field s ~what:"call count" 6 e;
  (* The previous line's cell and bucket; [p_src = Text_field.bad]
     before the first entry line. *)
  let p_src = ref Text_field.bad and p_dst = ref 0 and p_at = ref 0 and p_len = ref 0 in
  let p_bucket = ref 0 and p_remotable = ref true in
  let pos = ref (e + 1) and line = ref 2 in
  while !pos < len do
    let i = !pos and ln = !line in
    (* Seven fields, the numeric ones read as their ends are found: a
       missing tab leaves the rest at the line end, and the values of a
       malformed line are never looked at. *)
    let f1 = field s cur i in
    let src = cur.v in
    let f2 = if tab f1 then field s cur (f1 + 1) else f1 in
    let dst = cur.v in
    let f3 = if tab f2 then field_end s (f2 + 1) else f2 in
    let f4 = if tab f3 then field_end s (f3 + 1) else f3 in
    let f5 = if tab f4 then field s cur (f4 + 1) else f4 in
    let index = cur.v in
    let f6 = if tab f5 then field s cur (f5 + 1) else f5 in
    let count = cur.v in
    let e = if tab f6 then field s cur (f6 + 1) else f6 in
    let bytes = cur.v in
    if (not (tab f6)) || tab e then
      fail "line %d: malformed (want 7 tab-separated fields)" ln;
    if e = len then fail "unterminated line at byte %d" i;
    if src < -1 || src > field_limit - 2 then bad_field s ~what:"source" i f1;
    if dst < -1 || dst > field_limit - 2 then bad_field s ~what:"target" (f1 + 1) f2;
    let at = f2 + 1 and ilen = f3 - f2 - 1 in
    if src >= classifications || dst >= classifications then
      fail "line %d: entry %d -> %d (%s) names classification %d, but the classifier has %d"
        ln src dst (sub s at f3) (max src dst) classifications;
    let remotable =
      match if f4 - f3 = 2 then s.[f3 + 1] else ' ' with
      | '1' -> true
      | '0' -> false
      | _ -> fail "bad remotable flag %S" (sub s (f3 + 1) f4)
    in
    if index < 0 || index > max_bucket then bad_field s ~what:"bucket" (f4 + 1) f5;
    if count < 0 then bad_field s ~what:"message count" (f5 + 1) f6;
    if bytes < 0 then bad_field s ~what:"byte total" (f6 + 1) e;
    let order =
      if !p_src = Text_field.bad then 1
      else
        let c = Int.compare src !p_src in
        if c <> 0 then c
        else
          let c = Int.compare dst !p_dst in
          if c <> 0 then c else compare_sub s at ilen !p_at !p_len 0
    in
    if order < 0 || (order = 0 && index <= !p_bucket) then fail "line %d out of order" ln;
    if order = 0 && remotable <> !p_remotable then
      fail "line %d: remotable flag differs within its cell" ln;
    if count = 0 then fail "line %d: empty bucket" ln;
    (* The bucket's messages must fit its range: lo <= bytes / count and
       bytes <= hi * count, the latter by division so the last bucket
       (hi = max_int) cannot overflow. *)
    let lo = Exp_bucket.bucket_lo index and hi = Exp_bucket.bucket_hi index in
    let mean = bytes / count in
    if mean < lo || mean > hi || (mean = hi && bytes mod count <> 0) then
      fail "line %d: mean of %d bytes over %d messages outside bucket %d" ln bytes count index;
    if order > 0 then cell ~src ~dst ~remotable at ilen;
    bucket ~index ~count ~bytes;
    p_src := src;
    p_dst := dst;
    p_at := at;
    p_len := ilen;
    p_bucket := index;
    p_remotable := remotable;
    pos := e + 1;
    line := ln + 1
  done;
  calls

let decode ?classifications s =
  let t = create () in
  let cur = ref no_cell in
  t.calls <-
    scan ?classifications s
      ~cell:(fun ~src ~dst ~remotable at len ->
        let c = cell_of t ~src ~dst (intern t (String.sub s at len)) in
        c.remotable <- remotable;
        cur := c)
      ~bucket:(fun ~index:_ ~count ~bytes ->
        (* Rebuild the bucket as floor-mean messages plus enough
           (mean+1)-byte ones to carry the remainder; [scan] proved both
           sizes lie in the bucket. *)
        let mean = bytes / count in
        let rem = bytes - (mean * count) in
        Exp_bucket.add_many !cur.buckets ~bytes:mean ~count:(count - rem);
        Exp_bucket.add_many !cur.buckets ~bytes:(mean + 1) ~count:rem);
  t
