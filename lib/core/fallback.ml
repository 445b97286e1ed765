(* Precomputed fallback distributions for the adaptive resilience layer.

   At analysis time we already hold the network-independent abstract ICC
   graph inside an [Analysis.Session]; re-pricing it under per-failure-
   mode network profiles is cheap (PR 2's two-stage engine) and yields a
   ranked ladder of alternative distributions the RTE can fail over to
   when the link degrades at run time.  Every rung passes the same
   pre-cut validation as the primary cut, so failover never lands on a
   placement the lint would have rejected. *)

module Net_profiler = Coign_netsim.Net_profiler

type rung = { rg_name : string; rg_distribution : Analysis.distribution }

type t = {
  fb_rungs : rung array; (* rung 0 is the primary distribution *)
  fb_migration_safe : bool array; (* indexed by classification *)
}

exception Invalid of string

let rung_count t = Array.length t.fb_rungs
let rung t i = t.fb_rungs.(i)
let migration_safe t c = c >= 0 && c < Array.length t.fb_migration_safe && t.fb_migration_safe.(c)
let migration_safety_table t = Array.copy t.fb_migration_safe

let migration_safety = Analysis.Session.migration_safety

let default_modes net =
  [ ("lossy", Net_profiler.degrade net); ("partition", Net_profiler.link_down net) ]

let compute ?algorithm ?profiler ?metrics ?pool ?modes ?primary session ~net () =
  let primary =
    match primary with
    | Some d -> d
    | None -> Analysis.Session.solve ?algorithm ?profiler ?metrics session ~net
  in
  let modes = match modes with Some m -> m | None -> default_modes net in
  let classifier = Analysis.Session.classifier session in
  let constraints = Analysis.Session.constraints session in
  let checked name d =
    match Analysis.validate ~classifier ~constraints d with
    | [] -> { rg_name = name; rg_distribution = d }
    | v :: _ ->
        raise
          (Invalid
             (Format.asprintf "fallback rung %s: %a" name Analysis.pp_violation v))
  in
  let rungs = ref [ checked "primary" primary ] in
  let add name d =
    if
      not
        (List.exists
           (fun r -> r.rg_distribution.Analysis.placement = d.Analysis.placement)
           !rungs)
    then rungs := checked name d :: !rungs
  in
  (* Rung pricing can fan out across domains; the distributions come
     back in mode order, so the dedup fold below — and therefore the
     ladder — is identical to the sequential build. *)
  let mode_dists =
    Analysis.Session.solve_many ?algorithm ?profiler ?metrics ?pool session
      ~nets:(List.map snd modes)
  in
  List.iter2 (fun (name, _) d -> add name d) modes mode_dists;
  (* Terminal rung: everything on the client.  Location pins are
     deliberately waived here — a Server pin presumes a reachable
     server, and this rung exists precisely for when there is none.
     With no placement remote, remotability and co-location hold
     trivially, so the rung is valid by construction. *)
  let n = Analysis.Session.node_count session in
  let all_client =
    {
      Analysis.placement = Array.make n Constraints.Client;
      cut_ns = 0;
      predicted_comm_us = 0.;
      server_count = 0;
      node_count = n;
      algorithm = primary.Analysis.algorithm;
    }
  in
  if
    not
      (List.exists
         (fun r -> r.rg_distribution.Analysis.placement = all_client.Analysis.placement)
         !rungs)
  then rungs := { rg_name = "all-client"; rg_distribution = all_client } :: !rungs;
  {
    fb_rungs = Array.of_list (List.rev !rungs);
    fb_migration_safe = migration_safety session;
  }

let of_rungs ~migration_safe rungs =
  if rungs = [] then raise (Invalid "fallback ladder needs at least one rung");
  { fb_rungs = Array.of_list rungs; fb_migration_safe = migration_safe }

let encode t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d\n" (Array.length t.fb_rungs)
       (Array.length t.fb_migration_safe));
  Array.iter
    (fun safe -> Buffer.add_char buf (if safe then '1' else '0'))
    t.fb_migration_safe;
  Buffer.add_char buf '\n';
  Array.iter
    (fun r ->
      Buffer.add_string buf r.rg_name;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Analysis.encode r.rg_distribution);
      Buffer.add_char buf '\n')
    t.fb_rungs;
  Buffer.contents buf

type decode_error =
  | Truncated
  | Bad_header of string
  | Safety_mismatch of { expected : int; got : int }
  | Truncated_rung of int
  | Bad_rung of { rung : int; msg : string }
  | Rung_node_count of { rung : int; expected : int; got : int }
  | Duplicate_placement of { rung : int; first : int }

let decode_error_message = function
  | Truncated -> "truncated ladder"
  | Bad_header h -> Printf.sprintf "bad header %S" h
  | Safety_mismatch { expected; got } ->
      Printf.sprintf "safety table is %d entries, header said %d" got expected
  | Truncated_rung i -> Printf.sprintf "truncated rung %d" i
  | Bad_rung { rung; msg } -> Printf.sprintf "rung %d: %s" rung msg
  | Rung_node_count { rung; expected; got } ->
      Printf.sprintf
        "rung %d places %d classifications, safety table covers %d \
         (out-of-range classification ids)"
        rung got expected
  | Duplicate_placement { rung; first } ->
      Printf.sprintf "rung %d duplicates the placement of rung %d" rung first

exception Decode_error of decode_error

let () =
  Printexc.register_printer (function
    | Decode_error e -> Some ("Fallback.decode: " ^ decode_error_message e)
    | _ -> None)

let decode s =
  let fail e = raise (Decode_error e) in
  let lines = String.split_on_char '\n' s in
  match lines with
  | header :: safe_line :: rest -> (
      match String.split_on_char ' ' header with
      | [ k; n ] ->
          let int raw =
            match int_of_string_opt raw with
            | Some v -> v
            | None -> fail (Bad_header header)
          in
          let k = int k and n = int n in
          if k < 1 || n < 0 then fail (Bad_header header);
          if String.length safe_line <> n then
            fail (Safety_mismatch { expected = n; got = String.length safe_line });
          let migration_safe = Array.init n (fun i -> safe_line.[i] = '1') in
          let rec take acc i lines =
            if i = k then List.rev acc
            else
              match lines with
              | name :: dist_header :: placement :: tl ->
                  let d =
                    match Analysis.decode (dist_header ^ "\n" ^ placement) with
                    | d -> d
                    | exception Analysis.Decode_error msg ->
                        fail (Bad_rung { rung = i; msg })
                  in
                  if d.Analysis.node_count <> n then
                    fail
                      (Rung_node_count
                         { rung = i; expected = n; got = d.Analysis.node_count });
                  take ({ rg_name = name; rg_distribution = d } :: acc) (i + 1) tl
              | _ -> fail (Truncated_rung i)
          in
          let rungs = take [] 0 rest in
          List.iteri
            (fun i r ->
              List.iteri
                (fun j r' ->
                  if
                    j < i
                    && r'.rg_distribution.Analysis.placement
                       = r.rg_distribution.Analysis.placement
                  then fail (Duplicate_placement { rung = i; first = j }))
                rungs)
            rungs;
          { fb_rungs = Array.of_list rungs; fb_migration_safe = migration_safe }
      | _ -> fail (Bad_header header))
  | _ -> fail Truncated

(* --- pool-elastic ladder ------------------------------------------- *)

type pool_rung = {
  pr_name : string;
  pr_distribution : Analysis.distribution;
  pr_shape : Pool.shape;
  pr_shard_of : int array;
  pr_shard_count : int;
  pr_replicated : bool array;
  pr_predicted_us : float;
}

type pool_ladder = {
  pl_rungs : pool_rung array;
  pl_component : int array;
  pl_base : t;
}

(* Server-side classifications must shard at component granularity: a
   non-remotable edge or a co-location constraint between two
   classifications means separating them across pool hosts would fault
   (or violate the constraint) exactly as separating them across the
   client/server cut would.  Components are the connected parts of the
   union of non-remotable graph pairs, explicit classification
   co-location pairs, and class-level co-location pairs resolved
   through the classifier.  Union-by-minimum keeps every component's
   representative equal to its smallest member — a stable key for the
   shard map. *)
let components session =
  let graph = Analysis.Session.graph session in
  let n = Icc_graph.classification_count graph in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union a b =
    if a >= 0 && b >= 0 && a < n && b < n then begin
      let ra = find a and rb = find b in
      if ra <> rb then if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
    end
  in
  Icc_graph.iter_pairs graph (fun _ ~a ~b ~non_remotable ->
      if non_remotable then union a b);
  let constraints = Analysis.Session.constraints session in
  List.iter (fun (a, b) -> union a b) (Constraints.colocated_pairs constraints);
  let class_pairs = Constraints.colocated_class_pairs constraints in
  if class_pairs <> [] then begin
    let classifier = Analysis.Session.classifier session in
    let members name =
      let out = ref [] in
      for c = n - 1 downto 0 do
        if String.equal (Classifier.class_of_classification classifier c) name then
          out := c :: !out
      done;
      !out
    in
    List.iter
      (fun (x, y) ->
        match members x @ members y with
        | [] -> ()
        | first :: rest -> List.iter (union first) rest)
      class_pairs
  end;
  Array.init n find

let pool_rung ~name ~graph ~pricing ~component ~comp_safe ~shape dist =
  let n = Array.length component in
  let map = shape.Pool.sh_map in
  let shard_count = Pool.shard_count map in
  let shard_of = Array.make n (-1) in
  let replicated = Array.make shard_count true in
  Array.iteri
    (fun c loc ->
      if c < n && loc = Constraints.Server then begin
        let rep = component.(c) in
        (* Migration-unsafe components are pinned to shard 0: they can
           never be promoted or moved live, so they stay with the
           pool's anchor host and shard 0 runs unreplicated. *)
        let s = if comp_safe.(rep) then Pool.shard_of map rep else 0 in
        shard_of.(c) <- s;
        if not comp_safe.(rep) then replicated.(s) <- false
      end)
    dist.Analysis.placement;
  let assignment v =
    if v < 0 || v >= n then -1
    else if shard_of.(v) < 0 then -1
    else Pool.host_of shape shard_of.(v)
  in
  let predicted = Multiway_analysis.predicted_assignment_us graph pricing ~assignment in
  {
    pr_name = name;
    pr_distribution = dist;
    pr_shape = shape;
    pr_shard_of = shard_of;
    pr_shard_count = shard_count;
    pr_replicated = replicated;
    pr_predicted_us = predicted;
  }

let pool_ladder ?(replicas = 2) ?map ~hosts session ~net base =
  if hosts < 1 then raise (Invalid "pool ladder: hosts < 1");
  if replicas < 1 then raise (Invalid "pool ladder: replicas < 1");
  let graph = Analysis.Session.graph session in
  let n = Icc_graph.classification_count graph in
  let pricing = Icc_graph.price graph ~net in
  let component = components session in
  let comp_safe = Array.make n true in
  Array.iteri
    (fun c rep ->
      if not (migration_safe base c) then comp_safe.(rep) <- false)
    component;
  let map = match map with Some m -> (Pool.shape ~map:m hosts).Pool.sh_map | None -> Pool.Hash hosts in
  let rung_at ~name ~k dist =
    let shape = Pool.shape ~replicas:(min replicas k) ~map k in
    pool_rung ~name ~graph ~pricing ~component ~comp_safe ~shape dist
  in
  let primary = base.fb_rungs.(0).rg_distribution in
  let wide =
    List.init (max 0 (hosts - 1)) (fun i ->
        let k = hosts - i in
        rung_at ~name:(Printf.sprintf "pool-%d" k) ~k primary)
  in
  let narrow =
    Array.to_list
      (Array.map (fun r -> rung_at ~name:r.rg_name ~k:1 r.rg_distribution) base.fb_rungs)
  in
  { pl_rungs = Array.of_list (wide @ narrow); pl_component = component; pl_base = base }

let pool_rung_count pl = Array.length pl.pl_rungs
let pool_rung_at pl i = pl.pl_rungs.(i)
let pool_base pl = pl.pl_base
let pool_components pl = Array.copy pl.pl_component

(* A two-host ladder is a pool ladder of one host per rung: the same
   names, distributions and safety table, every server-side
   classification in shard 0, each classification its own component
   (components only matter for splitting, which needs two hosts). *)
let single_host base =
  let shape = Pool.shape 1 in
  let rung r =
    let d = r.rg_distribution in
    let replicated = ref true in
    let shard_of =
      Array.mapi
        (fun c loc ->
          if loc <> Constraints.Server then -1
          else begin
            if not (migration_safe base c) then replicated := false;
            0
          end)
        d.Analysis.placement
    in
    {
      pr_name = r.rg_name;
      pr_distribution = d;
      pr_shape = shape;
      pr_shard_of = shard_of;
      pr_shard_count = 1;
      pr_replicated = [| !replicated |];
      pr_predicted_us = d.Analysis.predicted_comm_us;
    }
  in
  let n =
    Array.fold_left (fun acc r -> max acc r.rg_distribution.Analysis.node_count) 0 base.fb_rungs
  in
  { pl_rungs = Array.map rung base.fb_rungs; pl_component = Array.init n Fun.id; pl_base = base }

let pp ppf t =
  Format.fprintf ppf "@[<v>ladder of %d rung(s):" (Array.length t.fb_rungs);
  Array.iteri
    (fun i r ->
      Format.fprintf ppf "@,  %d %-10s server=%d/%d predicted=%.1fus" i r.rg_name
        r.rg_distribution.Analysis.server_count r.rg_distribution.Analysis.node_count
        r.rg_distribution.Analysis.predicted_comm_us)
    t.fb_rungs;
  let unsafe =
    Array.fold_left (fun acc s -> if s then acc else acc + 1) 0 t.fb_migration_safe
  in
  Format.fprintf ppf "@,  %d/%d classifications migration-unsafe@]" unsafe
    (Array.length t.fb_migration_safe)
