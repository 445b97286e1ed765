(* Explicit-state exploration of failover interleavings.

   States are (rung, canonical breaker snapshot, per-group locations);
   events are the model's alphabet below.  Breaker steps go through the
   real, pure [Health.transition] — the same function the RTE's mutable
   API delegates to — applied at canonical times so the float fields
   stay on a finite grid:

   - [sn_opened_at_us] is pinned to 0 and Observe is applied exactly at
     cooloff expiry.  Exact: the field is only read by Observe's expiry
     comparison, and the Cooloff event means "enough virtual time has
     passed".
   - [sn_consecutive_failures] is zeroed outside Closed.  Exact: the
     count is only read by the Closed trip check, and every path back
     into Closed (probe-quota success) zeroes it first.
   - [sn_probe_successes] is zeroed outside Half_open.  Exact: the count
     is only read by the close-quota check, and both trips and the
     Open -> Half_open transition zero it.
   - [sn_cooloff_us] ranges over the model's precomputed escalation
     chain; [Model.cooloff_index] maps it back by bit equality, which
     doubles as a cross-check that the shared transition function really
     produced a chain value.

   Partial-order reduction: all remotable traffic between separated
   groups drives one shared breaker, and the breaker's inputs carry no
   location information, so every separated pair collapses onto the two
   link events.  Likewise the safe (truth-safe, ladder-safe) groups
   can't violate any invariant in any order, so their pending moves
   collapse into one atomic Migrate_rest; only risky groups keep
   individual Migrate events. *)

open Coign_util
open Coign_core
module Health = Coign_netsim.Health

type event = Link_ok | Link_fail | Cooloff | Migrate of int | Migrate_rest | Promote of int

let event_id _m = function
  | Link_ok -> "link_ok"
  | Link_fail -> "link_fail"
  | Cooloff -> "cooloff"
  | Migrate g -> Printf.sprintf "migrate:%d" g
  | Migrate_rest -> "migrate_rest"
  | Promote g -> Printf.sprintf "promote:%d" g

let pp_event m ppf = function
  | Link_ok -> Format.pp_print_string ppf "link_ok"
  | Link_fail -> Format.pp_print_string ppf "link_fail"
  | Cooloff -> Format.pp_print_string ppf "cooloff"
  | Migrate g ->
      Format.fprintf ppf "migrate(%s)" m.Model.m_groups.(g).Model.g_subject
  | Migrate_rest -> Format.pp_print_string ppf "migrate_rest"
  | Promote g ->
      Format.fprintf ppf "promote(%s)" m.Model.m_groups.(g).Model.g_subject

let pp_trace m ppf trace =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
    (pp_event m) ppf trace

type state = {
  st_rung : int;
  st_snap : Health.snapshot;
  st_locs : Constraints.location array; (* per group *)
  st_hosts : int array; (* per group; pool host, 0 on the client side *)
}

type violation = {
  vl_code : string;
  vl_severity : Lint.severity;
  vl_subject : string;
  vl_message : string;
  vl_trace : event list;
}

type stats = {
  sr_states : int;
  sr_transitions : int;
  sr_dedup_hits : int;
  sr_depth : int;
  sr_complete : bool;
  sr_rungs_reached : bool array;
}

type result = { r_stats : stats; r_violations : violation list }

(* --- State mechanics -------------------------------------------------- *)

let canon (snap : Health.snapshot) =
  {
    snap with
    Health.sn_opened_at_us = 0.;
    sn_consecutive_failures =
      (match snap.Health.sn_state with
      | Health.Closed -> snap.Health.sn_consecutive_failures
      | _ -> 0);
    sn_probe_successes =
      (match snap.Health.sn_state with
      | Health.Half_open -> snap.Health.sn_probe_successes
      | _ -> 0);
  }

let init m =
  {
    st_rung = 0;
    st_snap = canon (Health.initial_snapshot m.Model.m_policy);
    st_locs = Array.map (fun g -> g.Model.g_targets.(0)) m.Model.m_groups;
    st_hosts = Array.map (fun g -> Model.target_host g 0) m.Model.m_groups;
  }

let key m st =
  let b = Buffer.create 32 in
  Buffer.add_string b (string_of_int st.st_rung);
  Buffer.add_char b '|';
  Buffer.add_string b (Health.state_name st.st_snap.Health.sn_state);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int st.st_snap.Health.sn_consecutive_failures);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int st.st_snap.Health.sn_probe_successes);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int (Model.cooloff_index m st.st_snap.Health.sn_cooloff_us));
  Buffer.add_char b '|';
  Array.iter
    (fun loc ->
      Buffer.add_char b (match loc with Constraints.Client -> 'c' | Constraints.Server -> 's'))
    st.st_locs;
  Buffer.add_char b '|';
  Array.iter (fun h -> Buffer.add_char b (Char.chr (Char.code '0' + h))) st.st_hosts;
  Buffer.contents b

(* Client/server separation drives the link breaker; for the I1
   crossing check a pair is also separated when both endpoints are
   server-side but on different pool hosts — an inter-host call
   marshals exactly like a client-server one. *)
let separated_loc st (e : Model.edge) = st.st_locs.(e.Model.e_a) <> st.st_locs.(e.Model.e_b)

let separated st (e : Model.edge) =
  separated_loc st e
  || st.st_locs.(e.Model.e_a) = Constraints.Server
     && st.st_hosts.(e.Model.e_a) <> st.st_hosts.(e.Model.e_b)

(* The breaker only sees outcomes of calls that actually cross the
   machine boundary on a marshalable interface: non-remotable calls
   fault before reaching the link (that fault IS the I1 violation,
   caught as a state invariant).  Host splits do not feed it — each
   pool host has its own breaker in the RTE, and modeling the one
   shared abstraction on client-server traffic keeps the breaker
   dynamics identical to the two-host model's. *)
let link_active m st =
  Array.exists (fun e -> e.Model.e_remotable && separated_loc st e) m.Model.m_edges

let off_target m st g =
  let grp = m.Model.m_groups.(g) in
  grp.Model.g_ladder_safe
  && (st.st_locs.(g) <> grp.Model.g_targets.(st.st_rung)
     || st.st_hosts.(g) <> Model.target_host grp st.st_rung)

let enabled m st =
  let migrations =
    let risky = ref [] and rest = ref false in
    Array.iter
      (fun grp ->
        if off_target m st grp.Model.g_id then
          if Model.risky grp then risky := Migrate grp.Model.g_id :: !risky
          else rest := true)
      m.Model.m_groups;
    List.rev !risky @ if !rest then [ Migrate_rest ] else []
  in
  (* Replica promotion: a host loss moves a shard to the next host of
     its replica ring, on rungs where the shard keeps one.  Only risky
     groups are interleaved — promoting a truth-safe group preserves
     every invariant (it has no non-remotable incidence, CG009 needs a
     truth-unsafe subject, and hosts feed neither the breaker nor any
     other group's enabledness), so those interleavings are collapsed
     away exactly like safe migrations. *)
  let promotions =
    Array.to_list m.Model.m_groups
    |> List.filter_map (fun grp ->
           if
             Model.risky grp
             && Array.length grp.Model.g_rings.(st.st_rung) > 1
             && st.st_locs.(grp.Model.g_id) = Constraints.Server
             && not (off_target m st grp.Model.g_id)
           then Some (Promote grp.Model.g_id)
           else None)
  in
  let breaker =
    match st.st_snap.Health.sn_state with
    | Health.Open -> [ Cooloff ]
    | Health.Closed | Health.Half_open ->
        if link_active m st then [ Link_ok; Link_fail ] else []
  in
  breaker @ migrations @ promotions

(* Mirror of the RTE routing engine's ladder moves on a one-host route. *)
let rung_after m rung = function
  | Some { Health.tr_to = Health.Open; _ } -> min (rung + 1) (Model.rung_count m - 1)
  | Some { Health.tr_to = Health.Closed; _ } -> 0
  | _ -> rung

(* Apply one event.  Returns the successor plus the I3/I4 violations the
   step itself manifests (I1 is a property of the arrival state, checked
   separately by [state_violations]). *)
let apply m st ev =
  match ev with
  | Link_ok | Link_fail ->
      let input = match ev with Link_ok -> Health.Success | _ -> Health.Failure in
      let snap, tr = Health.transition m.Model.m_policy st.st_snap ~at_us:0. input in
      ({ st with st_rung = rung_after m st.st_rung tr; st_snap = canon snap }, [])
  | Cooloff -> (
      let at_us = st.st_snap.Health.sn_opened_at_us +. st.st_snap.Health.sn_cooloff_us in
      let snap, tr = Health.transition m.Model.m_policy st.st_snap ~at_us Health.Observe in
      match tr with
      | Some { Health.tr_to = Health.Half_open; _ } -> ({ st with st_snap = canon snap }, [])
      | _ ->
          (* I3: an open breaker must admit a half-open probe at cooloff
             expiry.  Unreachable with the shared transition function —
             kept as the explicit deadlock check. *)
          ( st,
            [
              ( "CG010",
                Lint.Error,
                m.Model.m_rung_names.(st.st_rung),
                Printf.sprintf
                  "open breaker on rung %d (%s) admits no half-open probe at cooloff expiry"
                  st.st_rung m.Model.m_rung_names.(st.st_rung) );
            ] ))
  | Migrate g ->
      let grp = m.Model.m_groups.(g) in
      let locs = Array.copy st.st_locs and hosts = Array.copy st.st_hosts in
      locs.(g) <- grp.Model.g_targets.(st.st_rung);
      hosts.(g) <- Model.target_host grp st.st_rung;
      let viols =
        if grp.Model.g_truth_safe then []
        else
          [
            ( "CG009",
              Lint.Error,
              grp.Model.g_subject,
              Printf.sprintf
                "ladder table migrates %s live on rung %d (%s), but the static facts mark it unsafe"
                grp.Model.g_subject st.st_rung m.Model.m_rung_names.(st.st_rung) );
          ]
      in
      ({ st with st_locs = locs; st_hosts = hosts }, viols)
  | Migrate_rest ->
      let locs = Array.copy st.st_locs and hosts = Array.copy st.st_hosts in
      Array.iter
        (fun grp ->
          if (not (Model.risky grp)) && off_target m st grp.Model.g_id then begin
            locs.(grp.Model.g_id) <- grp.Model.g_targets.(st.st_rung);
            hosts.(grp.Model.g_id) <- Model.target_host grp st.st_rung
          end)
        m.Model.m_groups;
      ({ st with st_locs = locs; st_hosts = hosts }, [])
  | Promote g ->
      let grp = m.Model.m_groups.(g) in
      let hosts = Array.copy st.st_hosts in
      hosts.(g) <- Model.next_replica grp st.st_rung ~from:st.st_hosts.(g);
      (* Only risky groups are ever promoted (see [enabled]), so the
         step always manifests I4: the RTE would be moving a shard the
         static facts say must not move between hosts live. *)
      let viols =
        [
          ( "CG009",
            Lint.Error,
            grp.Model.g_subject,
            Printf.sprintf
              "ladder table promotes %s between pool hosts on rung %d (%s), but the static \
               facts mark it unsafe"
              grp.Model.g_subject st.st_rung m.Model.m_rung_names.(st.st_rung) );
        ]
      in
      ({ st with st_hosts = hosts }, viols)

(* I1: no reachable placement — transient mid-migration ones included —
   separates a non-remotable pair. *)
let state_violations m st =
  Array.to_list m.Model.m_edges
  |> List.filter_map (fun e ->
         if e.Model.e_non_remotable && separated st e then
           let a = m.Model.m_groups.(e.Model.e_a).Model.g_subject
           and b = m.Model.m_groups.(e.Model.e_b).Model.g_subject in
           let message =
             if separated_loc st e then
               Printf.sprintf
                 "reachable placement separates %s and %s across non-remotable %s (rung %d, %s)"
                 a b e.Model.e_iface st.st_rung m.Model.m_rung_names.(st.st_rung)
             else
               Printf.sprintf
                 "reachable placement splits %s and %s across pool hosts %d/%d on \
                  non-remotable %s (rung %d, %s)"
                 a b
                 st.st_hosts.(e.Model.e_a)
                 st.st_hosts.(e.Model.e_b)
                 e.Model.e_iface st.st_rung m.Model.m_rung_names.(st.st_rung)
           in
           Some ("CG008", Lint.Error, e.Model.e_iface, message)
         else None)

(* --- The explorer ----------------------------------------------------- *)

type subtree = {
  su_keys : string list;
  su_transitions : int;
  su_dedup_hits : int;
  su_depth : int;
  su_complete : bool;
  su_rungs : bool array;
  su_violations : (string * violation) list; (* keyed by code\x00subject *)
}

let viol_key code subject = code ^ "\x00" ^ subject

let record_violation tbl trace (code, severity, subject, message) =
  let k = viol_key code subject in
  if not (Hashtbl.mem tbl k) then
    Hashtbl.add tbl k
      {
        vl_code = code;
        vl_severity = severity;
        vl_subject = subject;
        vl_message = message;
        vl_trace = List.rev trace;
      }

(* Bounded BFS from one root; [visited] is pre-seeded with the initial
   state's key so subtrees never re-expand it (any state reachable only
   through init belongs to a sibling subtree).  Traces are kept reversed
   on the queue. *)
let explore_subtree m ~budget ~init_key (root_ev, root_st, root_viols) =
  let visited = Hashtbl.create 256 in
  Hashtbl.replace visited init_key ();
  let viols = Hashtbl.create 8 in
  let transitions = ref 1 and dedup = ref 0 and max_depth = ref 0 in
  let rungs = Array.make (Array.length m.Model.m_rung_names) false in
  let truncated = ref false in
  let q = Queue.create () in
  let admit st trace depth =
    let k = key m st in
    if Hashtbl.mem visited k then incr dedup
    else begin
      Hashtbl.replace visited k ();
      rungs.(st.st_rung) <- true;
      if depth > !max_depth then max_depth := depth;
      List.iter (record_violation viols trace) (state_violations m st);
      if depth < budget then Queue.add (st, trace, depth) q else truncated := true
    end
  in
  List.iter (record_violation viols [ root_ev ]) root_viols;
  admit root_st [ root_ev ] 1;
  while not (Queue.is_empty q) do
    let st, trace, depth = Queue.pop q in
    List.iter
      (fun ev ->
        incr transitions;
        let st', step_viols = apply m st ev in
        let trace' = ev :: trace in
        List.iter (record_violation viols trace') step_viols;
        admit st' trace' (depth + 1))
      (enabled m st)
  done;
  {
    su_keys = Hashtbl.fold (fun k () acc -> k :: acc) visited [];
    su_transitions = !transitions;
    su_dedup_hits = !dedup;
    su_depth = !max_depth;
    su_complete = not !truncated;
    su_rungs = rungs;
    su_violations = Hashtbl.fold (fun k v acc -> (k, v) :: acc) viols [];
  }

let trace_lt m a b =
  let la = List.length a and lb = List.length b in
  if la <> lb then la < lb
  else String.concat ";" (List.map (event_id m) a) < String.concat ";" (List.map (event_id m) b)

let default_depth = 40

let run ?(pool = Parallel.sequential) ?(depth = default_depth) m =
  if depth < 1 then invalid_arg "Verify.Explore.run: depth < 1";
  let st0 = init m in
  let init_key = key m st0 in
  (* Exploration always splits on the initial state's successors and
     merges deterministically, so the result is identical for any pool,
     the zero-worker default included ([Parallel.map] preserves input
     order). *)
  let roots =
    List.map
      (fun ev ->
        let st', viols = apply m st0 ev in
        (ev, st', viols))
      (enabled m st0)
  in
  let subtrees =
    Parallel.map_list pool ~f:(explore_subtree m ~budget:depth ~init_key) roots
  in
  let keys = Hashtbl.create 256 in
  Hashtbl.replace keys init_key ();
  List.iter (fun s -> List.iter (fun k -> Hashtbl.replace keys k ()) s.su_keys) subtrees;
  let rungs = Array.make (Model.rung_count m) false in
  rungs.(st0.st_rung) <- true;
  List.iter
    (fun s -> Array.iteri (fun i b -> if b then rungs.(i) <- true) s.su_rungs)
    subtrees;
  let viols = Hashtbl.create 8 in
  List.iter (record_violation viols []) (state_violations m st0);
  List.iter
    (fun s ->
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt viols k with
          | Some cur when not (trace_lt m v.vl_trace cur.vl_trace) -> ()
          | _ -> Hashtbl.replace viols k v)
        s.su_violations)
    subtrees;
  let violations =
    Hashtbl.fold (fun _ v acc -> v :: acc) viols []
    |> List.sort (fun a b -> compare (a.vl_code, a.vl_subject) (b.vl_code, b.vl_subject))
  in
  {
    r_stats =
      {
        sr_states = Hashtbl.length keys;
        sr_transitions = List.fold_left (fun a s -> a + s.su_transitions) 0 subtrees;
        sr_dedup_hits = List.fold_left (fun a s -> a + s.su_dedup_hits) 0 subtrees;
        sr_depth = List.fold_left (fun a s -> max a s.su_depth) 0 subtrees;
        sr_complete = List.for_all (fun s -> s.su_complete) subtrees;
        sr_rungs_reached = rungs;
      };
    r_violations = violations;
  }

(* --- Diagnostics ------------------------------------------------------ *)

let diagnostics m result =
  let of_violation v =
    let trace =
      match v.vl_trace with
      | [] -> "at the initial placement"
      | t -> Format.asprintf "via %a" (pp_trace m) t
    in
    Lint.diag v.vl_code v.vl_severity v.vl_subject (v.vl_message ^ " [" ^ trace ^ "]")
  in
  let unreached =
    let note =
      if result.r_stats.sr_complete then ""
      else " (exploration truncated at the depth bound)"
    in
    Array.to_list
      (Array.mapi
         (fun r reached ->
           if reached then None
           else
             Some
               (Lint.diag "CG010" Lint.Warning m.Model.m_rung_names.(r)
                  (Printf.sprintf "rung %d (%s) is never installed by any explored interleaving%s"
                     r m.Model.m_rung_names.(r) note)))
         result.r_stats.sr_rungs_reached)
    |> List.filter_map Fun.id
  in
  Lint.order (List.map of_violation result.r_violations @ unreached)
