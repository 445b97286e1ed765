open Coign_idl
open Coign_image

module SS = Set.Make (String)

let main_class = Coign_com.Runtime.main_class_name

(* Everything is computed over dense class ids. Ids follow the names'
   string order, so scanning an n×n matrix row-major lists class pairs
   in the order of a sorted set of string pairs. *)
type t = {
  names : string array;  (* id -> class name; MAIN is one of them *)
  main : int;
  refs : Bytes.t;  (* n×n: byte a*n+b set iff code in a can hold a handle on b *)
  pinned : bool array;  (* the class exports a non-remotable interface *)
  classes : int list;  (* ids of the metadata's classes, in its order *)
  non_remotable : SS.t;  (* interface names with a non-remotable method *)
}

let rec fold_ifaces f acc = function
  | Idl_type.Iface n -> f acc n
  | Idl_type.Void | Idl_type.Int32 | Idl_type.Int64 | Idl_type.Double
  | Idl_type.Bool | Idl_type.Str | Idl_type.Blob | Idl_type.Opaque _ ->
      acc
  | Idl_type.Array u | Idl_type.Ptr u -> fold_ifaces f acc u
  | Idl_type.Struct fields ->
      List.fold_left (fun acc (_, u) -> fold_ifaces f acc u) acc fields

let method_ifaces (m : Idl_type.method_sig) =
  let add acc n = SS.add n acc in
  List.fold_left
    (fun acc (p : Idl_type.param) -> fold_ifaces add acc p.Idl_type.pty)
    (fold_ifaces add SS.empty m.Idl_type.ret)
    m.Idl_type.params
  |> SS.elements

(* Interface ids a method can hand back to the caller (return value and
   [Out]/[In_out] parameters) and interface ids the caller can hand in
   ([In]/[In_out] parameters), added to [(ys, acs)]. Names no class
   provides have no id: they can never match a provider. *)
let method_flow ids (ys, acs) (m : Idl_type.method_sig) =
  let add acc n = match Hashtbl.find_opt ids n with Some k -> k :: acc | None -> acc in
  List.fold_left
    (fun (ys, acs) (p : Idl_type.param) ->
      let ty = p.Idl_type.pty in
      match p.Idl_type.pdir with
      | Idl_type.Out -> (fold_ifaces add ys ty, acs)
      | Idl_type.In -> (ys, fold_ifaces add acs ty)
      | Idl_type.In_out -> (fold_ifaces add ys ty, fold_ifaces add acs ty))
    (fold_ifaces add ys m.Idl_type.ret, acs)
    m.Idl_type.params

let iface_remotable (i : Image_meta.iface) =
  List.for_all Idl_type.method_remotable i.Image_meta.if_methods

let analyze (meta : Image_meta.t) =
  let classes = meta.Image_meta.classes in
  let names =
    List.fold_left
      (fun acc (c : Image_meta.cls) ->
        c.Image_meta.cl_name :: List.rev_append c.Image_meta.cl_creates acc)
      (main_class :: meta.Image_meta.roots)
      classes
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let n = Array.length names in
  let ids = Hashtbl.create (2 * n) in
  Array.iteri (fun i name -> Hashtbl.replace ids name i) names;
  let id = Hashtbl.find ids in
  let iface_ids = Hashtbl.create 64 in
  List.iter
    (fun (c : Image_meta.cls) ->
      List.iter
        (fun i ->
          if not (Hashtbl.mem iface_ids i) then Hashtbl.add iface_ids i (Hashtbl.length iface_ids))
        c.Image_meta.cl_provides)
    classes;
  let m = Hashtbl.length iface_ids in
  (* impl(b) per class (a later declaration of a name replaces an
     earlier one), and the classes implementing each interface. *)
  let impl = Array.make n [] in
  List.iter
    (fun (c : Image_meta.cls) ->
      impl.(id c.Image_meta.cl_name) <- List.map (Hashtbl.find iface_ids) c.Image_meta.cl_provides)
    classes;
  let implementers = Array.make m [] in
  Array.iteri (fun c ks -> List.iter (fun k -> implementers.(k) <- c :: implementers.(k)) ks) impl;
  let yields = Array.make m [] and accepts = Array.make m [] in
  List.iter
    (fun (i : Image_meta.iface) ->
      match Hashtbl.find_opt iface_ids i.Image_meta.if_name with
      | None -> ()
      | Some k ->
          let ys, acs = List.fold_left (method_flow iface_ids) ([], []) i.Image_meta.if_methods in
          yields.(k) <- ys;
          accepts.(k) <- acs)
    meta.Image_meta.ifaces;
  (* Match tables: byte b*n+c of [table flow] is set iff some interface
     flowing out of impl(b) is implemented by c, i.e. b can hand over
     (yields) or take in (accepts) a handle c can provide. *)
  let table flow =
    let t = Bytes.make (n * n) '\000' in
    Array.iteri
      (fun b ks ->
        List.iter
          (fun k ->
            List.iter
              (fun j -> List.iter (fun c -> Bytes.set t ((b * n) + c) '\001') implementers.(j))
              flow.(k))
          ks)
      impl;
    t
  in
  let ymatch = table yields and amatch = table accepts in
  let has t a b = Bytes.get t ((a * n) + b) <> '\000' in
  let refs = Bytes.make (n * n) '\000' in
  let pending = ref [] in
  let add a b =
    let e = (a * n) + b in
    if Bytes.get refs e = '\000' then begin
      Bytes.set refs e '\001';
      pending := e :: !pending
    end
  in
  (* Seed: instantiating a class grants a handle on it. The main
     program instantiates the image roots. *)
  let main = id main_class in
  List.iter (fun root -> add main (id root)) meta.Image_meta.roots;
  List.iter
    (fun (c : Image_meta.cls) ->
      let a = id c.Image_meta.cl_name in
      List.iter
        (fun child -> if child <> c.Image_meta.cl_name then add a (id child))
        c.Image_meta.cl_creates)
    classes;
  (* Least fixpoint. Holding any interface of b implies access to all
     of impl(b) — the runtime's query_interface honours every such
     request — so flow is computed per class pair, closed over QI:
       refs(a,b) ∧ j ∈ yields(impl b)  ⇒  refs(a, providers b j)
       refs(a,b) ∧ j ∈ accepts(impl b) ⇒  refs(b, providers a j)
     where providers x j is x itself if it implements j, plus anything
     x references that does. With the match tables these read
       refs(a,b) ∧ refs(b,c) ∧ ymatch(b,c) ∧ c ≠ a  ⇒  refs(a,c)
       refs(a,b) ∧ (c = a ∨ refs(a,c)) ∧ amatch(b,c) ∧ c ≠ b  ⇒  refs(b,c)
     (providers b j contributing b itself only re-derives refs(a,b)).
     Semi-naive: every edge is popped once and fires both rules, once
     as the premise refs(a,b) and once as the provider edge. The rules
     are monotone, so this reaches the same least fixpoint as
     re-applying them to the whole relation until nothing changes. *)
  let rec drain () =
    match !pending with
    | [] -> ()
    | e :: rest ->
        pending := rest;
        let x = e / n and y = e mod n in
        let yxy = has ymatch x y in
        for c = 0 to n - 1 do
          if c <> x && has ymatch y c && has refs y c then add x c;
          if c <> y && has amatch y c && (c = x || has refs x c) then add y c;
          if c <> y then begin
            if yxy && has refs c x then add c y;
            if has amatch c y && has refs x c then add c y
          end
        done;
        drain ()
  in
  drain ();
  let non_remotable =
    List.fold_left
      (fun acc (i : Image_meta.iface) ->
        if iface_remotable i then acc else SS.add i.Image_meta.if_name acc)
      SS.empty meta.Image_meta.ifaces
  in
  (* A class must stay beside whatever references it when it exports a
     non-remotable interface. Walking the classes backwards lets the
     first declaration of a name decide, as [Image_meta.cls] finds it. *)
  let pinned = Array.make n false in
  List.iter
    (fun (c : Image_meta.cls) ->
      pinned.(id c.Image_meta.cl_name) <-
        List.exists (fun i -> SS.mem i non_remotable) c.Image_meta.cl_provides)
    (List.rev classes);
  {
    names;
    main;
    refs;
    pinned;
    classes = List.map (fun (c : Image_meta.cls) -> id c.Image_meta.cl_name) classes;
    non_remotable;
  }

let size t = Array.length t.names
let holds t a b = Bytes.get t.refs ((a * size t) + b) <> '\000'

let references t =
  let n = size t in
  let acc = ref [] in
  for e = (n * n) - 1 downto 0 do
    if Bytes.get t.refs e <> '\000' then acc := (t.names.(e / n), t.names.(e mod n)) :: !acc
  done;
  !acc

let non_remotable_ifaces t = SS.elements t.non_remotable

(* a and b must share a machine when either can call a non-remotable
   method of the other, i.e. either references the other and the
   referenced side exports a non-remotable interface. Pairs come out
   normalized (lower id first) and in id order. *)
let non_remotable_pairs t =
  let exports a b = holds t a b && t.pinned.(b) in
  let acc = ref [] in
  for a = size t - 1 downto 0 do
    if a <> t.main then
      for b = size t - 1 downto a do
        if b <> t.main && (exports a b || exports b a) then
          acc := (t.names.(a), t.names.(b)) :: !acc
      done
  done;
  !acc

let client_pins t =
  let acc = ref [] in
  for b = size t - 1 downto 0 do
    if holds t t.main b && t.pinned.(b) then acc := t.names.(b) :: !acc
  done;
  !acc

let unreachable_classes t =
  let reached = Array.make (size t) false in
  let rec walk = function
    | [] -> ()
    | x :: rest ->
        let frontier = ref rest in
        for b = 0 to size t - 1 do
          if holds t x b && not reached.(b) then begin
            reached.(b) <- true;
            frontier := b :: !frontier
          end
        done;
        walk !frontier
  in
  reached.(t.main) <- true;
  walk [ t.main ];
  List.filter_map (fun i -> if reached.(i) then None else Some t.names.(i)) t.classes
