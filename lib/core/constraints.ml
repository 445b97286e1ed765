type location = Client | Server

let location_name = function Client -> "client" | Server -> "server"

module Smap = Map.Make (String)
module Imap = Map.Make (Int)

module Ipair_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type t = {
  by_class : location Smap.t;
  by_classification : location Imap.t;
  pairs : Ipair_set.t;  (* normalized (min, max) classification pairs *)
}

let empty = { by_class = Smap.empty; by_classification = Imap.empty; pairs = Ipair_set.empty }

let conflict what a b =
  if a <> b then invalid_arg ("Constraints: conflicting pins for " ^ what);
  a

let pin_class t ~cname loc =
  let loc =
    match Smap.find_opt cname t.by_class with
    | Some existing -> conflict cname existing loc
    | None -> loc
  in
  { t with by_class = Smap.add cname loc t.by_class }

let pin_classification t c loc =
  let loc =
    match Imap.find_opt c t.by_classification with
    | Some existing -> conflict (Printf.sprintf "classification %d" c) existing loc
    | None -> loc
  in
  { t with by_classification = Imap.add c loc t.by_classification }

let colocate t a b =
  if a = b then t
  else { t with pairs = Ipair_set.add (min a b, max a b) t.pairs }

let of_image img =
  List.fold_left
    (fun t (cname, verdict) ->
      match verdict with
      | Static_analysis.Pin_client -> pin_class t ~cname Client
      | Static_analysis.Pin_server -> pin_class t ~cname Server
      | Static_analysis.Free -> t)
    empty
    (Static_analysis.image_verdicts img)

let merge a b =
  let by_class =
    Smap.union (fun cname la lb -> Some (conflict cname la lb)) a.by_class b.by_class
  in
  let by_classification =
    Imap.union
      (fun c la lb -> Some (conflict (Printf.sprintf "classification %d" c) la lb))
      a.by_classification b.by_classification
  in
  { by_class; by_classification; pairs = Ipair_set.union a.pairs b.pairs }

let class_pin t ~cname = Smap.find_opt cname t.by_class
let pinned_classifications t = Imap.bindings t.by_classification
let colocated_pairs t = Ipair_set.elements t.pairs
let pinned_classes t = Smap.bindings t.by_class
