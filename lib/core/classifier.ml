open Coign_util

type kind = Incremental | Pcb | St | Stcb | Ifcb | Epcb | Ib

let all_kinds = [ Incremental; Pcb; St; Stcb; Ifcb; Epcb; Ib ]

let kind_name = function
  | Incremental -> "incremental"
  | Pcb -> "pcb"
  | St -> "st"
  | Stcb -> "stcb"
  | Ifcb -> "ifcb"
  | Epcb -> "epcb"
  | Ib -> "ib"

let kind_of_name = function
  | "incremental" -> Some Incremental
  | "pcb" -> Some Pcb
  | "st" -> Some St
  | "stcb" -> Some Stcb
  | "ifcb" -> Some Ifcb
  | "epcb" -> Some Epcb
  | "ib" -> Some Ib
  | _ -> None

let kind_description = function
  | Incremental -> "Incremental"
  | Pcb -> "Procedure Called-By"
  | St -> "Static-Type"
  | Stcb -> "Static-Type Called-By"
  | Ifcb -> "Internal-Func. Called-By"
  | Epcb -> "Entry-Point Called-By"
  | Ib -> "Instantiated-By"

type t = {
  ckind : kind;
  depth : int option;
  table : (string, int) Hashtbl.t;        (* descriptor -> classification *)
  mutable descriptors : string array;     (* classification -> descriptor *)
  mutable classes : string array;         (* classification -> component class *)
  mutable counts : int array;             (* instances per classification *)
  mutable nclassifications : int;
  mutable order : int;                    (* instantiation ordinal *)
}

let create ?stack_depth ckind =
  (match stack_depth with
  | Some d when d < 1 -> invalid_arg "Classifier.create: depth must be >= 1"
  | _ -> ());
  {
    ckind;
    depth = stack_depth;
    table = Hashtbl.create 256;
    descriptors = Array.make 64 "";
    classes = Array.make 64 "";
    counts = Array.make 64 0;
    nclassifications = 0;
    order = 0;
  }

let kind t = t.ckind
let stack_depth t = t.depth

(* Collapse consecutive frames of the same instance, keeping the
   deepest frame of each run — the method by which control *entered*
   the instance. Input and output are most-recent-first. *)
let entry_points frames =
  (* Work oldest-first so "entered by" is the first frame of a run. *)
  let rec collapse = function
    | [] -> []
    | f :: rest ->
        let rec skip_run = function
          | g :: more when g.Frame.f_inst = f.Frame.f_inst -> skip_run more
          | tail -> tail
        in
        f :: collapse (skip_run rest)
  in
  List.rev (collapse (List.rev frames))

let limit_frames depth frames =
  match depth with
  | None -> frames
  | Some k ->
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | f :: rest -> f :: take (k - 1) rest
      in
      take k frames

let descriptor t ~cname ~stack =
  let frames = limit_frames t.depth stack in
  match t.ckind with
  | Incremental -> Printf.sprintf "[%d]" t.order
  | St -> Printf.sprintf "[%s]" cname
  | Pcb ->
      let chain = List.map (fun f -> f.Frame.f_class ^ "::" ^ f.Frame.f_meth) frames in
      Printf.sprintf "[%s]" (String.concat ", " (cname :: chain))
  | Stcb ->
      (* Classes of the *instances* in the back-trace: an instance that
         occupies several consecutive frames contributes its class once
         (paper Figure 3 lists instance a's class A a single time). *)
      let chain = List.map (fun f -> f.Frame.f_class) (entry_points frames) in
      Printf.sprintf "[%s]" (String.concat ", " (cname :: chain))
  | Ifcb ->
      let chain =
        List.map
          (fun f -> Printf.sprintf "[c%d,%s]" f.Frame.f_classification f.Frame.f_meth)
          frames
      in
      Printf.sprintf "[%s]" (String.concat ", " (cname :: chain))
  | Epcb ->
      let chain =
        List.map
          (fun f -> Printf.sprintf "[c%d,%s]" f.Frame.f_classification f.Frame.f_meth)
          (entry_points frames)
      in
      Printf.sprintf "[%s]" (String.concat ", " (cname :: chain))
  | Ib -> (
      match frames with
      | [] -> Printf.sprintf "[%s, root]" cname
      | f :: _ -> Printf.sprintf "[%s, c%d]" cname f.Frame.f_classification)

let grow t =
  if t.nclassifications = Array.length t.descriptors then begin
    let n = Array.length t.descriptors in
    let descriptors = Array.make (2 * n) "" in
    let classes = Array.make (2 * n) "" in
    let counts = Array.make (2 * n) 0 in
    Array.blit t.descriptors 0 descriptors 0 n;
    Array.blit t.classes 0 classes 0 n;
    Array.blit t.counts 0 counts 0 n;
    t.descriptors <- descriptors;
    t.classes <- classes;
    t.counts <- counts
  end

let classify t ~cname ~stack =
  let desc = descriptor t ~cname ~stack in
  t.order <- t.order + 1;
  let id =
    match Hashtbl.find_opt t.table desc with
    | Some id -> id
    | None ->
        grow t;
        let id = t.nclassifications in
        Hashtbl.add t.table desc id;
        t.descriptors.(id) <- desc;
        t.classes.(id) <- cname;
        t.nclassifications <- id + 1;
        id
  in
  t.counts.(id) <- t.counts.(id) + 1;
  id

let lookup t ~cname ~stack = Hashtbl.find_opt t.table (descriptor t ~cname ~stack)

let classification_count t = t.nclassifications

let instance_count t =
  let total = ref 0 in
  for i = 0 to t.nclassifications - 1 do
    total := !total + t.counts.(i)
  done;
  !total

let instances_of t id =
  if id < 0 || id >= t.nclassifications then invalid_arg "Classifier.instances_of";
  t.counts.(id)

let descriptor_of_classification t id =
  if id < 0 || id >= t.nclassifications then
    invalid_arg "Classifier.descriptor_of_classification";
  t.descriptors.(id)

let class_of_classification t id =
  if id < 0 || id >= t.nclassifications then invalid_arg "Classifier.class_of_classification";
  t.classes.(id)

let copy t =
  let c = create ?stack_depth:t.depth t.ckind in
  Hashtbl.iter (fun k v -> Hashtbl.add c.table k v) t.table;
  c.descriptors <- Array.copy t.descriptors;
  c.classes <- Array.copy t.classes;
  c.counts <- Array.copy t.counts;
  c.nclassifications <- t.nclassifications;
  c.order <- t.order;
  c

let merge a b =
  if a.ckind <> b.ckind || a.depth <> b.depth then
    invalid_arg "Classifier.merge: classifier configurations differ";
  let m = copy a in
  let remap = Array.make b.nclassifications 0 in
  for bid = 0 to b.nclassifications - 1 do
    let desc = b.descriptors.(bid) in
    let id =
      match Hashtbl.find_opt m.table desc with
      | Some id -> id
      | None ->
          grow m;
          let id = m.nclassifications in
          Hashtbl.add m.table desc id;
          m.descriptors.(id) <- desc;
          m.classes.(id) <- b.classes.(bid);
          m.nclassifications <- id + 1;
          id
    in
    m.counts.(id) <- m.counts.(id) + b.counts.(bid);
    remap.(bid) <- id
  done;
  m.order <- max a.order b.order;
  (m, remap)

let encode t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (kind_name t.ckind);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (match t.depth with None -> "full" | Some d -> string_of_int d);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int t.order);
  Buffer.add_char buf '\n';
  for id = 0 to t.nclassifications - 1 do
    (* Descriptors never contain newlines or tabs; classes neither. *)
    Buffer.add_string buf (string_of_int t.counts.(id));
    Buffer.add_char buf '\t';
    Buffer.add_string buf t.classes.(id);
    Buffer.add_char buf '\t';
    Buffer.add_string buf t.descriptors.(id);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

exception Decode_error of string

let rec line_end s i =
  if i = String.length s || String.unsafe_get s i = '\n' then i else line_end s (i + 1)

(* One pass over the text: fields are read in place, and only the kind
   line, each class and each descriptor are copied out. *)
let decode s =
  let fail fmt =
    Printf.ksprintf (fun msg -> raise (Decode_error ("Classifier.decode: " ^ msg))) fmt
  in
  let len = String.length s in
  let count ~what i j =
    let n = Text_field.int s i j in
    if n < 0 then fail "bad %s %S" what (String.sub s i (j - i));
    n
  in
  let kind_end = line_end s 0 in
  let depth_end = if kind_end = len then len else line_end s (kind_end + 1) in
  if depth_end = len then fail "truncated";
  let kind_line = String.sub s 0 kind_end in
  let ckind =
    match kind_of_name kind_line with Some k -> k | None -> fail "unknown kind %S" kind_line
  in
  let depth =
    if depth_end - kind_end = 5 && String.equal (String.sub s (kind_end + 1) 4) "full" then None
    else
      let d = Text_field.int s (kind_end + 1) depth_end in
      if d >= 1 then Some d
      else fail "bad depth %S" (String.sub s (kind_end + 1) (depth_end - kind_end - 1))
  in
  let t = create ?stack_depth:depth ckind in
  let order_end = line_end s (depth_end + 1) in
  t.order <- count ~what:"order" (depth_end + 1) order_end;
  let i = ref (order_end + 1) in
  while !i < len do
    let start = !i in
    if String.unsafe_get s start = '\n' then i := start + 1
    else begin
      (* Exactly three tab-separated fields: count, class, descriptor. *)
      let f1 = Text_field.field_end s start in
      let f2 = if Text_field.is_tab s f1 then Text_field.field_end s (f1 + 1) else f1 in
      let stop = if Text_field.is_tab s f2 then Text_field.field_end s (f2 + 1) else f2 in
      if (not (Text_field.is_tab s f2)) || Text_field.is_tab s stop then
        fail "malformed row %S" (String.sub s start (line_end s start - start));
      let n = count ~what:"count" start f1 in
      let desc = String.sub s (f2 + 1) (stop - f2 - 1) in
      grow t;
      let id = t.nclassifications in
      (* One hash per descriptor: a repeat replaces instead of adding. *)
      Hashtbl.replace t.table desc id;
      if Hashtbl.length t.table = id then fail "duplicate descriptor %S" desc;
      t.descriptors.(id) <- desc;
      t.classes.(id) <- String.sub s (f1 + 1) (f2 - f1 - 1);
      t.counts.(id) <- n;
      t.nclassifications <- id + 1;
      i := stop + 1
    end
  done;
  t

(* --- the interception memo ----------------------------------------

   Every descriptor reads only the class name and, per frame inside the
   depth limit, the frame's classification, its class and method, and
   whether the next older frame belongs to the same instance (the
   entry-point collapse). The context key packs exactly those fields as
   ints — the shadow stack already carries the call site (class,
   interface, method) as one id — so equal keys mean equal descriptors
   for every kind but Incremental, whose descriptor is the
   instantiation ordinal. The key is built in a scratch array and
   probed in place: a hit allocates nothing. *)

type entry = Nil | Entry of { key : int array; hash : int; id : int; next : entry }

type memo = {
  m_classifier : t;
  m_classes : (string, int) Hashtbl.t;
  m_sites : (string * string * string, int) Hashtbl.t;
  mutable m_site_names : (string * string * string) array;  (* site id -> its triple *)
  mutable m_buckets : entry array;
  mutable m_size : int;
  mutable m_key : int array; (* scratch: the key being probed *)
}

let memo t =
  {
    m_classifier = t;
    m_classes = Hashtbl.create 64;
    m_sites = Hashtbl.create 256;
    m_site_names = Array.make 256 ("", "", "");
    m_buckets = Array.make 256 Nil;
    m_size = 0;
    m_key = Array.make 32 0;
  }

let intern table k =
  match Hashtbl.find table k with
  | id -> id
  | exception Not_found ->
      let id = Hashtbl.length table in
      Hashtbl.add table k id;
      id

let site m ~cls ~iface ~meth =
  let k = (cls, iface, meth) in
  let id = intern m.m_sites k in
  let n = Array.length m.m_site_names in
  if id = n then begin
    let bigger = Array.make (2 * n) k in
    Array.blit m.m_site_names 0 bigger 0 n;
    m.m_site_names <- bigger
  end;
  m.m_site_names.(id) <- k;
  id

(* Frames of the stack the kind's descriptor can read. *)
let key_frames t stack =
  let n = Shadow_stack.depth stack in
  let n = match t.depth with None -> n | Some d -> Int.min d n in
  match t.ckind with St -> 0 | Ib -> Int.min 1 n | Incremental | Pcb | Stcb | Ifcb | Epcb -> n

(* Fill the scratch key; returns its length. *)
let context_key m ~cname stack =
  let n = key_frames m.m_classifier stack in
  let len = 1 + (2 * n) in
  if Array.length m.m_key < len then m.m_key <- Array.make (2 * len) 0;
  let key = m.m_key in
  key.(0) <- intern m.m_classes cname;
  for i = 0 to n - 1 do
    let same = i + 1 < n && Shadow_stack.inst stack (i + 1) = Shadow_stack.inst stack i in
    key.(1 + (2 * i)) <- Shadow_stack.classification stack i;
    key.(2 + (2 * i)) <- (Shadow_stack.site stack i lsl 1) lor Bool.to_int same
  done;
  len

(* The frames a descriptor reads, most recent first, spelled out from
   the stack's site ids: what [classify] takes. *)
let frames m stack =
  let n = Shadow_stack.depth stack in
  let n = match m.m_classifier.depth with None -> n | Some d -> Int.min d n in
  List.init n (fun i ->
      let cls, iface, meth = m.m_site_names.(Shadow_stack.site stack i) in
      Frame.make ~inst:(Shadow_stack.inst stack i) ~cls
        ~classification:(Shadow_stack.classification stack i) ~iface ~meth)

let hash_key key len =
  let h = ref len in
  for i = 0 to len - 1 do
    h := (!h lxor key.(i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let rec same_key stored key i len =
  i >= len || (stored.(i) = key.(i) && same_key stored key (i + 1) len)

let rec probe e key len h =
  match e with
  | Nil -> -1
  | Entry x ->
      if x.hash = h && Array.length x.key = len && same_key x.key key 0 len then x.id
      else probe x.next key len h

let remember m key len h id =
  if m.m_size >= 2 * Array.length m.m_buckets then begin
    let buckets = Array.make (2 * Array.length m.m_buckets) Nil in
    let mask = Array.length buckets - 1 in
    let rec move = function
      | Nil -> ()
      | Entry x ->
          let b = x.hash land mask in
          buckets.(b) <- Entry { key = x.key; hash = x.hash; id = x.id; next = buckets.(b) };
          move x.next
    in
    Array.iter move m.m_buckets;
    m.m_buckets <- buckets
  end;
  let b = h land (Array.length m.m_buckets - 1) in
  m.m_buckets.(b) <- Entry { key = Array.sub key 0 len; hash = h; id; next = m.m_buckets.(b) };
  m.m_size <- m.m_size + 1

let classify_memo m ~cname stack =
  let t = m.m_classifier in
  match t.ckind with
  | Incremental ->
      (* The descriptor is the ordinal: it reads no frame. *)
      classify t ~cname ~stack:[]
  | Pcb | St | Stcb | Ifcb | Epcb | Ib ->
      let len = context_key m ~cname stack in
      let h = hash_key m.m_key len in
      let id = probe m.m_buckets.(h land (Array.length m.m_buckets - 1)) m.m_key len h in
      if id >= 0 then begin
        t.order <- t.order + 1;
        t.counts.(id) <- t.counts.(id) + 1;
        id
      end
      else begin
        let id = classify t ~cname ~stack:(frames m stack) in
        remember m m.m_key len h id;
        id
      end
