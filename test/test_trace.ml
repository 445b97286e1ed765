(* Trace inclusion: every routing trace the RTE leaves on a one-host
   route is a path of the verifier's model.

   The RTE's event log is mapped onto the model's alphabet and replayed
   through the reference explorer's [init]/[enabled]/[apply]
   ([Oracles.Verify_ref], which [test_verify] pins equal to
   [Explore.run]):
   - a breaker open or close becomes the fewest [link_fail]/[cooloff]/
     [link_ok] steps that take the model's breaker there.  Each step
     must be enabled (a link event needs the model's link active), and
     the model's rung afterwards must be the one the RTE's following
     [failover]/[failback] installed, or the RTE's rung when none
     follows;
   - an instance migration becomes [migrate g] for a risky group, else
     [migrate_rest], and needs no step when the model already holds the
     group where the rung places it (the rung's other migrations moved
     it, or the instance was created off its group's home);
   - failover and failback check the rung;
   - promotions, splits and resizes are outside a one-host model.

   It runs on every cell of the octarine resilience grids (the golden
   one and the CLI default), every pool-of-one cell of the default
   fleet grid on three apps, and 1,000 generated fault schedules on a
   two-component app. *)

open Coign_com
open Coign_netsim
open Coign_core
open Coign_apps
open Coign_sim
open Coign_verify
module V = Oracles.Verify_ref

(* --- The mapping ------------------------------------------------------ *)

(* The RTE's routing decisions: everything but the application's own
   events, retries and degraded creations, which move no rung. *)
let decision = function
  | Event.Breaker_opened _ | Event.Breaker_closed _ | Event.Failover _ | Event.Failback _
  | Event.Instance_migrated _ | Event.Replica_promoted _ | Event.Shard_split _
  | Event.Pool_resized _ ->
      true
  | _ -> false

let state st = st.V.st_snap.Health.sn_state

let step m st ev =
  if List.mem ev (V.enabled m st) then Ok (fst (V.apply m st ev))
  else Error (Explore.event_id m ev ^ " is not enabled")

(* The fewest breaker steps from [st] to a breaker that has just moved
   to [target]: an open breaker waits out its cooloff first, then link
   outcomes drive it, one at a time. *)
let drive m st target =
  let rec go st n =
    if n > 0 && state st = target then Ok st
    else if n > 64 then Error "no short breaker path"
    else
      let ev =
        match state st with
        | Health.Open -> Explore.Cooloff
        | Health.Closed | Health.Half_open ->
            if target = Health.Open then Explore.Link_fail else Explore.Link_ok
      in
      Result.bind (step m st ev) (fun st -> go st (n + 1))
  in
  if target = Health.Closed && state st = Health.Closed then Error "the model's breaker is closed"
  else go st 0

let group_of m c =
  Array.to_list m.Model.m_groups |> List.find_opt (fun g -> List.mem c g.Model.g_members)

type failure = { f_index : int; f_event : string; f_why : string }

(* The first decision event the model cannot follow, if any. *)
let check m events =
  let evs = Array.of_list (List.filter decision events) in
  let len = Array.length evs in
  let rec go i st rte_rung =
    if i >= len then Ok ()
    else
      let fail why = Error { f_index = i; f_event = Event.to_line evs.(i); f_why = why } in
      let rung_then =
        if i + 1 >= len then rte_rung
        else
          match evs.(i + 1) with
          | Event.Failover { to_rung; _ } | Event.Failback { to_rung; _ } -> to_rung
          | _ -> rte_rung
      in
      let breaker target =
        match drive m st target with
        | Error why -> fail why
        | Ok st when st.V.st_rung <> rung_then ->
            fail
              (Printf.sprintf "the model stands on rung %d, the RTE on %d" st.V.st_rung rung_then)
        | Ok st -> go (i + 1) st rte_rung
      in
      match evs.(i) with
      | Event.Breaker_opened _ -> breaker Health.Open
      | Event.Breaker_closed _ -> breaker Health.Closed
      | Event.Failover { to_rung; _ } | Event.Failback { to_rung; _ } ->
          if st.V.st_rung <> to_rung then
            fail (Printf.sprintf "the model stands on rung %d" st.V.st_rung)
          else go (i + 1) st to_rung
      | Event.Instance_migrated { classification; _ } -> (
          match group_of m classification with
          | None -> fail "classification outside the model"
          | Some g ->
              let ev =
                if Model.risky g then Explore.Migrate g.Model.g_id else Explore.Migrate_rest
              in
              if not (V.off_target m st g.Model.g_id) then go (i + 1) st rte_rung
              else match step m st ev with Error why -> fail why | Ok st -> go (i + 1) st rte_rung)
      | _ -> fail "outside a one-host model's alphabet"
  in
  go 0 (V.init m) 0

let expect_path what m events =
  match check m events with
  | Ok () -> ()
  | Error f ->
      Alcotest.failf "%s: decision %d (%s) leaves the model: %s" what f.f_index f.f_event f.f_why

(* --- The bundled grids ------------------------------------------------ *)

let logged run =
  let recorder, events = Coign_obs.Sink.collector () in
  ignore (run recorder);
  events ()

(* What [Fleetsim.run] builds for its re-cut views, plus the model the
   verifier checks for a ladder. *)
type staged = {
  st_app : App.t;
  st_scenario : Adps.scenario;
  st_image : Coign_image.Binary_image.t;  (* analyzed *)
  st_session : Analysis.Session.t;
  st_base : Fallback.t;
  st_model : Fallback.t -> Model.t;
}

let stage app sc_id network =
  let sc = App.scenario app sc_id in
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let classifier, icc = Option.get (Adps.load_profile image) in
  let net = Net_profiler.exact network in
  let session = Adps.analysis_session image in
  let analyzed, primary = Adps.analyze_with ~session ~image ~net () in
  let truth = Fallback.migration_safety session in
  {
    st_app = app;
    st_scenario = sc.App.sc_run;
    st_image = analyzed;
    st_session = session;
    st_base = Fallback.compute ~primary session ~net ();
    st_model = (fun ladder -> Model.build ~classifier ~icc ~ladder ~truth ());
  }

let partition ?(drop = 0.) window =
  {
    Fault.zero with
    Fault.fs_drop_rate = drop;
    fs_partitions_us = (match window with None -> [] | Some w -> [ w ]);
  }

(* Every ladder cell of a resilience grid (the retry-only cells route
   nothing), on [network] with windows opening at [start]. *)
let resilience_cells s ~network ~drops ~partitions_us ~start =
  let m = s.st_model s.st_base in
  List.iter
    (fun drop ->
      List.iter
        (fun p ->
          let faults = partition ~drop (if p > 0. then Some (start, start +. p) else None) in
          let events =
            logged (fun logger ->
                Adps.execute ~logger ~image:s.st_image ~registry:s.st_app.App.app_registry ~network
                  ~seed:0x5EEDL ~faults ~resilience:(Rte.resilience s.st_base) s.st_scenario)
          in
          expect_path (Printf.sprintf "drop %g, partition %g us" drop p) m events)
        partitions_us)
    drops

let test_resilience_grids () =
  (* [coign resilience]'s golden grid, and its default axes. *)
  resilience_cells
    (stage Octarine.app "o_oldwp0" Network.atm_155)
    ~network:Network.atm_155 ~drops:[ 0.; 0.1 ] ~partitions_us:[ 0.; 500_000. ] ~start:50_000.;
  resilience_cells
    (stage Octarine.app "o_oldwp0" Network.ethernet_10)
    ~network:Network.ethernet_10 ~drops:[ 0.; 0.05; 0.1 ] ~partitions_us:[ 0.; 200_000. ] ~start:0.

(* The default fleet grid's pool-of-one cells: clean, and the one
   global partition its crash and partition regimes both are. *)
let test_pool_of_one_cells () =
  List.iter
    (fun (app, sc_id) ->
      let s = stage app sc_id Network.ethernet_10 in
      let net = Net_profiler.exact Network.ethernet_10 in
      let pl = Fallback.pool_ladder ~hosts:1 s.st_session ~net s.st_base in
      let m = s.st_model pl in
      List.iter
        (fun faults ->
          let events =
            logged (fun logger ->
                Adps.execute_fleet ~logger ~image:s.st_image ~registry:app.App.app_registry
                  ~network:Network.ethernet_10 ~seed:0x5EEDL ?faults ~fleet:(Rte.fleet pl)
                  s.st_scenario)
          in
          expect_path (app.App.app_name ^ " pool-1") m events)
        [ None; Some (partition (Some Fleetsim.default_fault_window_us)) ])
    [ (Octarine.app, "o_oldwp0"); (Photodraw.app, "p_oldmsr"); (Benefits.app, "b_vueone") ]

(* --- Generated fault schedules on the two-component fleet app --------- *)

(* The Flt app profiled once: its classifier and ICC, and Back's
   classification. *)
let flt =
  lazy
    (let ctx = Runtime.create_ctx (Test_fleet.registry ()) in
     let classifier = Classifier.create Classifier.Ifcb in
     let rte = Rte.install_profiling ~classifier ctx in
     Test_fleet.run_scenario ctx 4;
     Rte.uninstall rte;
     let icc = Rte.icc rte in
     let n = Classifier.classification_count classifier in
     let back =
       List.find
         (fun c -> String.equal (Classifier.class_of_classification classifier c) "Flt.Back")
         (List.init n Fun.id)
     in
     (classifier, icc, n, back))

type schedule = {
  sd_rungs : bool list;  (* Back server-side on each middle rung *)
  sd_ladder_safe : bool;
  sd_threshold : int;
  sd_probes : int;
  sd_cooloff_us : float;
  sd_drop : float;
  sd_partitions : (float * float) list;
  sd_crashes : (float * float) list;
  sd_rounds : int;
  sd_seed : int;
}

let gen_schedule =
  QCheck.Gen.(
    let window = map2 (fun start len -> (start, start +. len)) (float_bound_inclusive 60_000.)
        (float_bound_inclusive 120_000.) in
    let* sd_rungs = list_size (int_bound 2) bool in
    let* sd_ladder_safe = frequency [ (3, return true); (1, return false) ] in
    let* sd_threshold = int_range 1 3 in
    let* sd_probes = int_range 1 2 in
    let* sd_cooloff_us = oneofl [ 2_000.; 10_000.; 50_000. ] in
    let* sd_drop = oneofl [ 0.; 0.05; 0.2; 0.5 ] in
    let* sd_partitions = list_size (int_bound 2) window in
    let* sd_crashes = list_size (int_bound 1) window in
    let* sd_rounds = int_range 5 80 in
    let* sd_seed = int_bound 1_000_000 in
    return
      { sd_rungs; sd_ladder_safe; sd_threshold; sd_probes; sd_cooloff_us; sd_drop; sd_partitions;
        sd_crashes; sd_rounds; sd_seed })

let print_schedule sd =
  let windows ws = String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%.0f-%.0f" a b) ws) in
  Printf.sprintf
    "rungs [%s] safe %b threshold %d probes %d cooloff %.0f drop %g partitions [%s] crashes [%s] \
     rounds %d seed %d"
    (String.concat ";" (List.map string_of_bool sd.sd_rungs))
    sd.sd_ladder_safe sd.sd_threshold sd.sd_probes sd.sd_cooloff_us sd.sd_drop
    (windows sd.sd_partitions) (windows sd.sd_crashes) sd.sd_rounds sd.sd_seed

(* Run one schedule on a one-host ladder — primary (Back on the
   server), the generated middle rungs, all-client: the model of that
   ladder and the run's decision events. *)
let schedule_trace sd =
  let classifier, icc, n, back = Lazy.force flt in
  let placement server =
    let p = Array.make n Constraints.Client in
    if server then p.(back) <- Constraints.Server;
    Test_fleet.dist p
  in
  let rungs =
    (("primary", placement true)
    :: List.mapi (fun i s -> (Printf.sprintf "mid-%d" i, placement s)) sd.sd_rungs)
    @ [ ("all-client", placement false) ]
  in
  let ladder = Fallback.of_rungs ~migration_safe:(Array.make n sd.sd_ladder_safe) rungs in
  let policy =
    {
      Health.default_policy with
      Health.hp_failure_threshold = sd.sd_threshold;
      hp_probe_successes = sd.sd_probes;
      hp_cooloff_us = sd.sd_cooloff_us;
      hp_cooloff_max_us = 4. *. sd.sd_cooloff_us;
    }
  in
  let session = Oracles.session ~classifier ~icc ~constraints:Constraints.empty in
  let m =
    Model.build ~policy ~classifier ~icc ~ladder ~truth:(Fallback.migration_safety session) ()
  in
  let faults =
    {
      Fault.zero with
      Fault.fs_drop_rate = sd.sd_drop;
      fs_partitions_us = sd.sd_partitions;
      fs_crashes_us = sd.sd_crashes;
    }
  in
  let events =
    logged (fun logger ->
        try
          ignore
            (Adps.execute_with_policy ~logger ~registry:(Test_fleet.registry ()) ~classifier
               ~policy:(Factory.By_classification (placement true)) ~network:Network.ethernet_10
               ~seed:(Int64.of_int sd.sd_seed) ~faults ~retry:Test_fleet.fixed_retry
               ~resilience:(Rte.resilience ~health:policy ladder)
               (fun ctx -> Test_fleet.run_scenario ctx sd.sd_rounds))
        with Hresult.Com_error _ -> ())
  in
  (m, List.filter decision events)

let run_schedule sd =
  let m, events = schedule_trace sd in
  check m events

let qcheck_schedules =
  QCheck.Test.make ~count:1_000 ~name:"generated fault schedules are model paths"
    (QCheck.make ~print:print_schedule gen_schedule)
    (fun sd ->
      match run_schedule sd with
      | Ok _ -> true
      | Error f ->
          QCheck.Test.fail_reportf "decision %d (%s) leaves the model: %s" f.f_index f.f_event
            f.f_why)

(* Two fixed schedules on a three-rung ladder whose middle rung keeps
   Back on the server, threshold 2, one probe, 10 ms cooloff, and
   partitions over [5, 20) and [40, 70) ms: the breaker opens (rung 1),
   a probe after the first window closes it (failback to 0), the second
   window opens it again (rung 1) and a failed probe re-opens it (rung
   2). Migration-safe, Back moves to the client there and no call
   crosses again; unsafe, it is stranded on the server, and a probe
   after the window closes the breaker from the bottom rung. *)
let test_fixed_schedules () =
  let sd safe =
    {
      sd_rungs = [ true ];
      sd_ladder_safe = safe;
      sd_threshold = 2;
      sd_probes = 1;
      sd_cooloff_us = 10_000.;
      sd_drop = 0.;
      sd_partitions = [ (5_000., 20_000.); (40_000., 70_000.) ];
      sd_crashes = [];
      sd_rounds = 80;
      sd_seed = 1;
    }
  in
  let kinds safe =
    let m, events = schedule_trace (sd safe) in
    expect_path (Printf.sprintf "safe %b" safe) m events;
    List.map
      (function
        | Event.Failover { to_rung; _ } -> Printf.sprintf "failover %d" to_rung
        | Event.Failback { to_rung; _ } -> Printf.sprintf "failback %d" to_rung
        | e -> Event.kind_name e)
      events
  in
  let opens_twice = [ "breaker_opened"; "failover 1"; "breaker_closed"; "failback 0";
                      "breaker_opened"; "failover 1"; "breaker_opened"; "failover 2" ] in
  Alcotest.(check (list string)) "safe: back to the client" (opens_twice @ [ "instance_migrated" ])
    (kinds true);
  Alcotest.(check (list string)) "unsafe: stranded, then back from the bottom"
    (opens_twice @ [ "breaker_closed"; "failback 0" ]) (kinds false)

let suite =
  [
    Alcotest.test_case "every resilience-grid cell is a model path" `Quick test_resilience_grids;
    Alcotest.test_case "every pool-of-one fleet cell is a model path" `Quick test_pool_of_one_cells;
    Alcotest.test_case "fail over, back and over again: model paths" `Quick test_fixed_schedules;
    QCheck_alcotest.to_alcotest ~long:false qcheck_schedules;
  ]
