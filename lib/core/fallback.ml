(* Precomputed fallback distributions for the adaptive resilience layer.

   At analysis time we already hold the network-independent abstract ICC
   graph inside an [Analysis.Session]; re-pricing it under per-failure-
   mode network profiles is cheap (PR 2's two-stage engine) and yields a
   ranked ladder of alternative distributions the RTE can fail over to
   when the link degrades at run time.  Every rung passes the same
   pre-cut validation as the primary cut, so failover never lands on a
   placement the lint would have rejected.  A rung places the server
   side on a pool of hosts; the two-host ladder is the one-host case. *)

module Net_profiler = Coign_netsim.Net_profiler

type rung = {
  pr_name : string;
  pr_distribution : Analysis.distribution;
  pr_shape : Pool.shape;
  pr_shard_of : int array;
  pr_shard_count : int;
  pr_replicated : bool array;
}

type t = {
  fb_rungs : rung array; (* rung 0 is the primary distribution *)
  fb_migration_safe : bool array; (* indexed by classification *)
  fb_component : int array; (* classification -> component representative *)
  fb_comp_safe : bool array; (* by representative: all members safe *)
}

exception Invalid of string

let rung_count t = Array.length t.fb_rungs
let pool_rung_count = rung_count
let rung t i = t.fb_rungs.(i)
let safe_in table c = c >= 0 && c < Array.length table && table.(c)
let migration_safe t c = safe_in t.fb_migration_safe c
let migration_safety_table t = Array.copy t.fb_migration_safe
let components t = Array.copy t.fb_component
let component_safety t = Array.copy t.fb_comp_safe

let migration_safety = Analysis.Session.migration_safety

(* One host per rung: every server-side classification in shard 0,
   replicated only when all of them are migration-safe, and each
   classification its own component (components only matter for
   splitting, which needs two hosts). *)
let of_rungs ~migration_safe rungs =
  if rungs = [] then raise (Invalid "fallback ladder needs at least one rung");
  let shape = Pool.shape 1 in
  let rung (name, d) =
    let replicated = ref true in
    let shard_of =
      Array.mapi
        (fun c loc ->
          if loc <> Constraints.Server then -1
          else begin
            if not (safe_in migration_safe c) then replicated := false;
            0
          end)
        d.Analysis.placement
    in
    {
      pr_name = name;
      pr_distribution = d;
      pr_shape = shape;
      pr_shard_of = shard_of;
      pr_shard_count = 1;
      pr_replicated = [| !replicated |];
    }
  in
  let rungs = Array.of_list (List.map rung rungs) in
  let n = Array.fold_left (fun acc r -> max acc r.pr_distribution.Analysis.node_count) 0 rungs in
  {
    fb_rungs = rungs;
    fb_migration_safe = migration_safe;
    fb_component = Array.init n Fun.id;
    fb_comp_safe = Array.init n (safe_in migration_safe);
  }

let compute ?profiler ?primary session ~net () =
  let primary =
    match primary with
    | Some d -> d
    | None -> Analysis.Session.solve ?profiler session ~net
  in
  let modes =
    [ ("lossy", Net_profiler.degrade net); ("partition", Net_profiler.link_down net) ]
  in
  let checked name d =
    match Analysis.Session.validate session d with
    | [] -> (name, d)
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
           (fun (_, r) -> r.Analysis.placement = d.Analysis.placement)
           !rungs)
    then rungs := checked name d :: !rungs
  in
  List.iter (fun (name, net) -> add name (Analysis.Session.solve ?profiler session ~net)) modes;
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
    }
  in
  if
    not
      (List.exists
         (fun (_, r) -> r.Analysis.placement = all_client.Analysis.placement)
         !rungs)
  then rungs := ("all-client", all_client) :: !rungs;
  of_rungs ~migration_safe:(migration_safety session) (List.rev !rungs)

(* --- widening onto a pool ------------------------------------------ *)

let pool_rung ~name ~component ~comp_safe ~shards ~shape dist =
  let n = Array.length component in
  let shard_of = Array.make n (-1) in
  let replicated = Array.make shards true in
  Array.iteri
    (fun c loc ->
      if c < n && loc = Constraints.Server then begin
        let rep = component.(c) in
        (* Migration-unsafe components are pinned to shard 0: they can
           never be promoted or moved live, so they stay with the
           pool's anchor host and shard 0 runs unreplicated. *)
        let s = if comp_safe.(rep) then Pool.shard_of ~shards rep else 0 in
        shard_of.(c) <- s;
        if not comp_safe.(rep) then replicated.(s) <- false
      end)
    dist.Analysis.placement;
  {
    pr_name = name;
    pr_distribution = dist;
    pr_shape = shape;
    pr_shard_of = shard_of;
    pr_shard_count = shards;
    pr_replicated = replicated;
  }

let pool_ladder ?(replicas = 2) ~hosts session ~net:_ base =
  if hosts < 1 then raise (Invalid "pool ladder: hosts < 1");
  if replicas < 1 then raise (Invalid "pool ladder: replicas < 1");
  let n = Analysis.Session.node_count session in
  (* Server-side classifications shard at component granularity:
     separating two members across pool hosts would fault (or break a
     co-location constraint) exactly as separating them across the
     client/server cut would.  The representative is the component's
     smallest member — a stable key for {!Pool.shard_of}. *)
  let component = Analysis.Session.components session in
  let comp_safe = Array.make n true in
  Array.iteri
    (fun c rep ->
      if not (migration_safe base c) then comp_safe.(rep) <- false)
    component;
  let rung_at ~name ~k dist =
    let shape = Pool.shape ~replicas:(min replicas k) k in
    pool_rung ~name ~component ~comp_safe ~shards:hosts ~shape dist
  in
  let primary = base.fb_rungs.(0).pr_distribution in
  let wide =
    List.init (max 0 (hosts - 1)) (fun i ->
        let k = hosts - i in
        rung_at ~name:(Printf.sprintf "pool-%d" k) ~k primary)
  in
  let narrow =
    Array.to_list
      (Array.map (fun r -> rung_at ~name:r.pr_name ~k:1 r.pr_distribution) base.fb_rungs)
  in
  {
    fb_rungs = Array.of_list (wide @ narrow);
    fb_migration_safe = base.fb_migration_safe;
    fb_component = component;
    fb_comp_safe = comp_safe;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>ladder of %d rung(s):" (Array.length t.fb_rungs);
  Array.iteri
    (fun i r ->
      Format.fprintf ppf "@,  %d %-10s server=%d/%d predicted=%.1fus" i r.pr_name
        r.pr_distribution.Analysis.server_count r.pr_distribution.Analysis.node_count
        r.pr_distribution.Analysis.predicted_comm_us)
    t.fb_rungs;
  let unsafe =
    Array.fold_left (fun acc s -> if s then acc else acc + 1) 0 t.fb_migration_safe
  in
  Format.fprintf ppf "@,  %d/%d classifications migration-unsafe@]" unsafe
    (Array.length t.fb_migration_safe)
