(* Replay a counterexample trace through the real runtime machinery.

   The explorer works on canonicalized abstractions; replay drives the
   genuine articles — a mutable [Health.t] breaker advanced on a real
   virtual clock, and a [Factory] whose recorded instances stand in for
   the groups, moved under exactly the ladder-table gating
   the RTE's rung switch applies.  A trace is confirmed when the violations
   it was reported for manifest here too: a separated non-remotable
   pair read back from [Factory.machine_of] is precisely the condition
   under which the RTE's marshaling layer raises [E_cannot_marshal]. *)

open Coign_core
module Health = Coign_netsim.Health

type outcome = { ro_codes : string list; ro_invalid : string option }

(* One factory instance per group, numbered from 1 (0 is main). *)
let inst_of_group g = g + 1

let run m trace =
  let rung0 = Array.map (fun g -> g.Model.g_targets.(0)) m.Model.m_groups in
  let factory = Factory.create Factory.All_client in
  Array.iteri (fun g loc -> Factory.record_instance factory ~inst:(inst_of_group g) loc) rung0;
  let breaker = Health.create ~policy:m.Model.m_policy () in
  let rung = ref 0 and now = ref 0. and codes = ref [] and invalid = ref None in
  let bottom = Model.rung_count m - 1 in
  let note code = if not (List.mem code !codes) then codes := !codes @ [ code ] in
  let fail msg = if !invalid = None then invalid := Some msg in
  let check_crossings () =
    Array.iter
      (fun e ->
        if
          e.Model.e_non_remotable
          && Factory.machine_of factory (inst_of_group e.Model.e_a)
             <> Factory.machine_of factory (inst_of_group e.Model.e_b)
        then note "CG008")
      m.Model.m_edges
  in
  let on_transition = function
    | Some { Health.tr_to = Health.Open; _ } -> rung := min (!rung + 1) bottom
    | Some { Health.tr_to = Health.Closed; _ } -> rung := 0
    | _ -> ()
  in
  let migrate g =
    let grp = m.Model.m_groups.(g) in
    if not grp.Model.g_ladder_safe then
      fail (Printf.sprintf "trace migrates ladder-unsafe group %s" grp.Model.g_subject)
    else begin
      Factory.record_instance factory ~inst:(inst_of_group g) grp.Model.g_targets.(!rung);
      if not grp.Model.g_truth_safe then note "CG009"
    end
  in
  let step ev =
    (match ev with
    | Explore.Link_ok | Explore.Link_fail ->
        now := !now +. 1.;
        if not (Health.allows breaker ~now_us:!now) then
          fail "trace issues a call the open breaker rejects"
        else
          on_transition
            (if ev = Explore.Link_ok then Health.record_success breaker ~now_us:!now
             else Health.record_failure breaker ~now_us:!now)
    | Explore.Cooloff -> (
        now := Float.max !now (Health.cooloff_expires_at breaker);
        match Health.observe breaker ~now_us:!now with
        | Some { Health.tr_to = Health.Half_open; _ } -> ()
        | _ -> note "CG010")
    | Explore.Migrate g -> migrate g
    | Explore.Promote g ->
        (* The factory abstraction has one server machine, so a
           promotion cannot move the instance anywhere observable —
           replay confirms the gating instead: the ladder table must
           claim the group safe for the RTE to promote it at all, and
           a truth-unsafe subject is the I4 violation the trace was
           reported for. *)
        let grp = m.Model.m_groups.(g) in
        if not grp.Model.g_ladder_safe then
          fail (Printf.sprintf "trace promotes ladder-unsafe group %s" grp.Model.g_subject)
        else if not grp.Model.g_truth_safe then note "CG009"
    | Explore.Migrate_rest ->
        Array.iter
          (fun grp ->
            if
              (not (Model.risky grp))
              && grp.Model.g_ladder_safe
              && Factory.machine_of factory (inst_of_group grp.Model.g_id)
                 <> grp.Model.g_targets.(!rung)
            then migrate grp.Model.g_id)
          m.Model.m_groups);
    check_crossings ()
  in
  check_crossings ();
  List.iter (fun ev -> if !invalid = None then step ev) trace;
  { ro_codes = !codes; ro_invalid = !invalid }
