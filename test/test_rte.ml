open Coign_idl
open Coign_com
open Coign_core

(* A miniature application: Main creates a Front (GUI-ish) component;
   Front creates a Back (storage-ish) component and pumps blobs at it;
   Back answers small acks. Front and Back also share a non-remotable
   interface. *)

let i_front =
  Itype.declare "IFront"
    [
      Idl_type.method_ "run" [ Idl_type.param "rounds" Idl_type.Int32 ];
      Idl_type.method_ ~ret:(Idl_type.Iface "IBack") "back" [];
    ]

let i_back =
  Itype.declare "IBack"
    [
      Idl_type.method_ ~ret:Idl_type.Int32 "store" [ Idl_type.param "data" Idl_type.Blob ];
    ]

let i_shm =
  Itype.declare "ISharedRegion" [ Idl_type.method_ "map" [ Idl_type.param "p" (Idl_type.Opaque "SHM") ] ]

let c_back =
  Runtime.define_class "Mini.Back" (fun _ctx _self ->
      let stored = ref 0 in
      [
        Combuild.iface i_back
          [
            ( "store",
              fun ctx args ->
                stored := !stored + Combuild.get_blob args 0;
                Runtime.charge ctx ~us:10.;
                Value.Int !stored );
          ];
        Combuild.iface i_shm [ ("map", fun _ctx _args -> Value.Unit) ];
      ])

let c_front =
  Runtime.define_class "Mini.Front" ~api_refs:[ "user32.GetDC" ] (fun ctx0 _self ->
      let back = Runtime.create_instance ctx0 c_back.Runtime.clsid ~iid:(Itype.iid i_back) in
      [
        Combuild.iface i_front
          [
            ( "run",
              fun ctx args ->
                let rounds = Combuild.get_int args 0 in
                for _ = 1 to rounds do
                  ignore (Oracles.call_named ctx back "store" [ Value.Blob 1_000 ])
                done;
                Value.Unit );
            ("back", fun _ctx _args -> Value.Iface_ref back);
          ];
      ])

let registry () = Runtime.registry [ c_front; c_back ]

let profile_mini rounds =
  let ctx = Runtime.create_ctx (registry ()) in
  let classifier = Classifier.create Classifier.Ifcb in
  let rte = Rte.install_profiling ~classifier ctx in
  let front = Runtime.create_instance ctx c_front.Runtime.clsid ~iid:(Itype.iid i_front) in
  ignore (Oracles.call_named ctx front "run" [ Value.Int rounds ]);
  (ctx, rte, front)

let test_profiling_intercepts_all_calls () =
  let _, rte, _ = profile_mini 5 in
  (* run + 5 stores *)
  Alcotest.(check int) "intercepted" 6 (Rte.intercepted_calls rte)

let test_instances_classified () =
  let _, rte, _ = profile_mini 1 in
  let pairs = Rte.instance_classifications rte in
  Alcotest.(check int) "two components" 2 (List.length pairs);
  List.iter
    (fun (_, c) -> Alcotest.(check bool) "classification assigned" true (c >= 0))
    pairs;
  Alcotest.(check int) "classifier knows both" 2
    (Classifier.classification_count (Rte.classifier rte))

let test_icc_collected () =
  let _, rte, _ = profile_mini 3 in
  let icc = Rte.icc rte in
  (* run + 3 stores + 2 instantiation requests (Front, Back). *)
  Alcotest.(check int) "calls summarized" 6 (Icc.call_count icc);
  Alcotest.(check bool) "bytes include blob payloads" true (Icc.total_bytes icc > 3_000)

let test_returned_handles_are_wrapped () =
  let ctx, _, front = profile_mini 1 in
  Alcotest.(check bool) "create returns wrapper" true (Runtime.handle_is_wrapper ctx front);
  let back_v = Oracles.call_named ctx front "back" [] in
  match back_v with
  | Value.Iface_ref h ->
      Alcotest.(check bool) "escaping handle wrapped" true (Runtime.handle_is_wrapper ctx h)
  | _ -> Alcotest.fail "expected interface"

let test_wrap_idempotent_identity () =
  let ctx, _, front = profile_mini 1 in
  let b1 = Oracles.call_named ctx front "back" [] in
  let b2 = Oracles.call_named ctx front "back" [] in
  Alcotest.(check bool) "same wrapper both times" true (b1 = b2)

let test_query_interface_through_rte () =
  let ctx, _, front = profile_mini 1 in
  let back_v = Oracles.call_named ctx front "back" [] in
  match back_v with
  | Value.Iface_ref back ->
      let shm = Runtime.query_interface ctx back ~iid:(Itype.iid i_shm) in
      Alcotest.(check bool) "QI result wrapped" true (Runtime.handle_is_wrapper ctx shm);
      (* calling through it still works *)
      ignore (Oracles.call_named ctx shm "map" [ Value.Opaque_handle "SHM" ])
  | _ -> Alcotest.fail "expected interface"

let test_uninstall_restores () =
  let ctx, rte, _ = profile_mini 1 in
  Rte.uninstall rte;
  let h = Runtime.create_instance ctx c_back.Runtime.clsid ~iid:(Itype.iid i_back) in
  Alcotest.(check bool) "no wrapper after uninstall" false (Runtime.handle_is_wrapper ctx h)

(* A wrapper outlives its install. After [uninstall] a call through it
   runs the raw method: nothing is intercepted or recorded. A later
   install on the same context adopts the wrappers it finds. *)
let test_wrapper_after_uninstall () =
  let ctx, rte, front = profile_mini 1 in
  Rte.uninstall rte;
  let calls = Rte.intercepted_calls rte and icc = Icc.encode (Rte.icc rte) in
  ignore (Oracles.call_named ctx front "run" [ Value.Int 2 ]);
  Alcotest.(check bool) "still a wrapper" true (Runtime.handle_is_wrapper ctx front);
  Alcotest.(check int) "not intercepted" calls (Rte.intercepted_calls rte);
  Alcotest.(check string) "not recorded" icc (Icc.encode (Rte.icc rte));
  let again = Rte.install_profiling ~classifier:(Classifier.create Classifier.Ifcb) ctx in
  ignore (Oracles.call_named ctx front "run" [ Value.Int 2 ]);
  Rte.uninstall again;
  (* run + 2 stores, through the first install's wrappers *)
  Alcotest.(check int) "adopted by the next install" 3 (Rte.intercepted_calls again);
  Alcotest.(check int) "first install untouched" calls (Rte.intercepted_calls rte)

let test_event_logger_sees_lifecycle () =
  let ctx = Runtime.create_ctx (registry ()) in
  let classifier = Classifier.create Classifier.Ifcb in
  let recorder, events = Coign_obs.Sink.collector () in
  let rte = Rte.install_profiling ~logger:recorder ~classifier ctx in
  let front = Runtime.create_instance ctx c_front.Runtime.clsid ~iid:(Itype.iid i_front) in
  ignore (Oracles.call_named ctx front "run" [ Value.Int 1 ]);
  Rte.uninstall rte;
  let evs = events () in
  let count p = List.length (List.filter p evs) in
  Alcotest.(check int) "two instantiations"
    2
    (count (function Event.Component_instantiated _ -> true | _ -> false));
  Alcotest.(check bool) "interface instantiations seen" true
    (count (function Event.Interface_instantiated _ -> true | _ -> false) >= 2);
  (* run + 1 store, plus one instantiation-request record per created
     component (Front and Back). *)
  Alcotest.(check int) "calls logged"
    4
    (count (function Event.Interface_call _ -> true | _ -> false))

(* --- Distributed execution ------------------------------------------ *)

let distributed_config policy =
  {
    Rte.dc_factory_policy = policy;
    dc_network = Coign_netsim.Network.ethernet_10;
    dc_jitter = 0.;
    dc_seed = 1L;
    dc_faults = None;
    dc_retry = Coign_netsim.Fault.default_retry;
    dc_resilience = None;
    dc_fleet = None;
    dc_watch = None;
  }

let run_distributed policy rounds =
  let ctx = Runtime.create_ctx (registry ()) in
  let classifier = Classifier.create Classifier.Ifcb in
  let rte = Rte.install_distributed ~classifier ~config:(distributed_config policy) ctx in
  let front = Runtime.create_instance ctx c_front.Runtime.clsid ~iid:(Itype.iid i_front) in
  ignore (Oracles.call_named ctx front "run" [ Value.Int rounds ]);
  (ctx, rte)

let by_class_placement cname =
  if String.equal cname "Mini.Back" then Constraints.Server else Constraints.Client

let test_all_client_no_comm () =
  let _, rte = run_distributed Factory.All_client 5 in
  Alcotest.(check (float 0.)) "no communication" 0. (Rte.comm_us rte);
  Alcotest.(check int) "no remote calls" 0 (Rte.stats rte).Rte.st_remote_calls

let test_split_placement_accounts_comm () =
  let _, rte = run_distributed (Factory.By_class by_class_placement) 5 in
  (* 5 remote stores plus the forwarded instantiation round trip. *)
  Alcotest.(check int) "remote exchanges" 6 (Rte.stats rte).Rte.st_remote_calls;
  Alcotest.(check bool) "time charged" true (Rte.comm_us rte > 0.);
  Alcotest.(check bool) "bytes counted" true ((Rte.stats rte).Rte.st_remote_bytes > 5_000);
  let factory = Option.get (Rte.factory rte) in
  Alcotest.(check int) "one forwarded instantiation" 1 (Factory.forwarded_requests factory)

let test_distributed_deterministic_without_jitter () =
  let _, r1 = run_distributed (Factory.By_class by_class_placement) 4 in
  let _, r2 = run_distributed (Factory.By_class by_class_placement) 4 in
  Alcotest.(check (float 0.)) "deterministic" (Rte.comm_us r1) (Rte.comm_us r2)

let test_jitter_perturbs () =
  let run jitter seed =
    let ctx = Runtime.create_ctx (registry ()) in
    let rte =
      Rte.install_distributed ~classifier:(Classifier.create Classifier.Ifcb)
        ~config:
          {
            Rte.dc_factory_policy = Factory.By_class by_class_placement;
            dc_network = Coign_netsim.Network.ethernet_10;
            dc_jitter = jitter;
            dc_seed = seed;
            dc_faults = None;
            dc_retry = Coign_netsim.Fault.default_retry;
            dc_resilience = None;
            dc_fleet = None;
            dc_watch = None;
          }
        ctx
    in
    let front = Runtime.create_instance ctx c_front.Runtime.clsid ~iid:(Itype.iid i_front) in
    ignore (Oracles.call_named ctx front "run" [ Value.Int 5 ]);
    Rte.comm_us rte
  in
  let base = run 0. 1L in
  let j = run 0.05 2L in
  Alcotest.(check bool) "jitter changes time" true (Float.abs (j -. base) > 1e-9);
  Alcotest.(check bool) "but stays close" true (Float.abs (j -. base) /. base < 0.5)

let test_non_remotable_cross_machine_fails () =
  let ctx, _ = run_distributed (Factory.By_class by_class_placement) 1 in
  (* Fetch the back interface and call its opaque method from the
     client side: a cross-machine call on a non-remotable interface. *)
  let front_h =
    (* main's handle to front: recreate one (front is on the client) *)
    Runtime.create_instance ctx c_front.Runtime.clsid ~iid:(Itype.iid i_front)
  in
  let back_v = Oracles.call_named ctx front_h "back" [] in
  match back_v with
  | Value.Iface_ref back ->
      let shm = Runtime.query_interface ctx back ~iid:(Itype.iid i_shm) in
      Alcotest.(check bool) "E_cannot_marshal" true
        (try
           ignore (Oracles.call_named ctx shm "map" [ Value.Opaque_handle "SHM" ]);
           false
         with Hresult.Com_error (Hresult.E_cannot_marshal _) -> true)
  | _ -> Alcotest.fail "expected interface"

let test_factory_machine_tracking () =
  let _, rte = run_distributed (Factory.By_class by_class_placement) 1 in
  let factory = Option.get (Rte.factory rte) in
  let servers = Factory.instances_on factory Constraints.Server in
  Alcotest.(check int) "one component on server" 1 (List.length servers);
  Alcotest.(check bool) "main on client" true
    (Factory.machine_of factory Runtime.main_instance = Constraints.Client)

(* --- The direct profiling recorder ------------------------------------ *)

let octarine_wp0 = Coign_apps.App.scenario Coign_apps.Octarine.app "o_oldwp0"
let octarine_registry = Coign_apps.Octarine.app.Coign_apps.App.app_registry

let profile_wp0 ?logger () =
  let ctx = Runtime.create_ctx octarine_registry in
  let rte =
    Rte.install_profiling ?logger ~classifier:(Classifier.create Classifier.Ifcb) ctx
  in
  octarine_wp0.Coign_apps.App.sc_run ctx;
  Rte.uninstall rte;
  rte

(* Profiling records straight into the ICC and instance summaries and
   builds events only for an attached logger. Attaching one must change
   nothing recorded, and it must see the events the RTE always logged:
   the counts are pinned from the event-driven recorder, and replaying
   the events through [Oracles.profiling_logger] rebuilds the same summaries. *)
let test_direct_recorder () =
  let recorder, events = Coign_obs.Sink.collector () in
  let bare = profile_wp0 () and logged = profile_wp0 ~logger:recorder () in
  let totals rte =
    let ic = Rte.inst_comm rte in
    (Inst_comm.message_count ic, Inst_comm.total_bytes ic)
  in
  Alcotest.(check string) "icc" (Icc.encode (Rte.icc bare)) (Icc.encode (Rte.icc logged));
  Alcotest.(check (pair int int)) "instance comm" (totals bare) (totals logged);
  let evs = events () in
  let count p = List.length (List.filter p evs) in
  Alcotest.(check int) "interface calls" 3430
    (count (function Event.Interface_call _ -> true | _ -> false));
  Alcotest.(check int) "component instantiations" 547
    (count (function Event.Component_instantiated _ -> true | _ -> false));
  Alcotest.(check int) "interface instantiations" 1073
    (count (function Event.Interface_instantiated _ -> true | _ -> false));
  let icc = Icc.create () and inst_comm = Inst_comm.create () in
  List.iter (Oracles.profiling_logger ~icc ~inst_comm) evs;
  Alcotest.(check string) "events rebuild the icc" (Icc.encode (Rte.icc bare)) (Icc.encode icc);
  Alcotest.(check (pair int int))
    "events rebuild instance comm" (totals bare)
    (Inst_comm.message_count inst_comm, Inst_comm.total_bytes inst_comm)

(* --- Allocation gate ----------------------------------------------------- *)

(* Minor words the RTE adds per intercepted call over the bare
   application on o_oldwp0, creates and wrapper mints amortized in:
   measured 8.20 (all-client distributed) and 10.72 (profiling) with
   OCaml 5.1 in the default (dev) build. A call allocates nothing; what
   is left is what outlives it: per mint the wrapper record, and in
   profiling each new summary cell with its histogram. The count is
   exact and deterministic, and the bounds leave 1.5 words of
   headroom, so one new per-call allocation (an option, a ref, a cons
   cell, a tuple) fails the gate. *)
let words run =
  ignore (run ());
  let before = Gc.minor_words () in
  let result = run () in
  (Gc.minor_words () -. before, result)

let bare_wp0 () =
  words (fun () ->
      octarine_wp0.Coign_apps.App.sc_run (Runtime.create_ctx octarine_registry);
      0)

let test_interception_allocation () =
  let bare, _ = bare_wp0 () in
  let all_client, ac_calls =
    words (fun () ->
        let ctx = Runtime.create_ctx octarine_registry in
        let rte =
          Rte.install_distributed ~classifier:(Classifier.create Classifier.Ifcb)
            ~config:
              { (distributed_config Factory.All_client) with
                Rte.dc_network = Coign_netsim.Network.loopback }
            ctx
        in
        octarine_wp0.Coign_apps.App.sc_run ctx;
        Rte.intercepted_calls rte)
  in
  let profiling, prof_calls = words (fun () -> Rte.intercepted_calls (profile_wp0 ())) in
  let per words calls = (words -. bare) /. float_of_int calls in
  let check name words calls bound =
    let w = per words calls in
    Alcotest.(check bool) (Printf.sprintf "%s: %.1f words/call over bare (bound %.1f)" name w bound)
      true (w <= bound)
  in
  check "all-client" all_client ac_calls 9.7;
  check "profiling" profiling prof_calls 12.2

(* Minor words the bare application allocates per call on o_oldwp0,
   with no RTE: measured 31.18 with OCaml 5.1 in the default (dev)
   build. A call through a handle allocates nothing in the runtime (no
   reply tuple, no boxed compute charge, no handle record per mint), so
   what is left is the argument lists callers build and the
   components' own state. The bound leaves 1.5 words of headroom. *)
let test_bare_allocation () =
  let bare, _ = bare_wp0 () in
  let calls = Rte.intercepted_calls (profile_wp0 ()) in
  let w = bare /. float_of_int calls in
  let bound = 32.7 in
  Alcotest.(check bool)
    (Printf.sprintf "bare application: %.2f words/call (bound %.1f)" w bound)
    true (w <= bound)

(* Minor words a quiet watch (threshold 0: it checks every 256
   observations but never acts) adds per intercepted call over the same
   deployed run without it, o_oldwp0 under its own cut on 10BaseT.
   Measured 1.63 with OCaml 5.1 in the default (dev) build, of which
   1.13 is the watch's set-up at install (3,267 words: the window's
   per-pair arrays and the profile's baselines, built once per run)
   and 0.50 the calls themselves: the window and the tap's draw
   allocate nothing per call, a check's reads nothing that grows with
   the window, and the virtual clock reaches the window in a one-cell
   float array, unboxed; what is left is the 1 in 16 sampled calls'
   boxed times and each check's timeline entry. Both bounds leave
   about 1.5 words of headroom. *)
let test_quiet_watch_allocation () =
  let app = Coign_apps.Octarine.app in
  let image = Adps.instrument app.Coign_apps.App.app_image in
  let profiled, _ =
    Adps.profile ~image ~registry:octarine_registry octarine_wp0.Coign_apps.App.sc_run
  in
  let session = Adps.analysis_session profiled in
  let net = Coign_netsim.Net_profiler.exact Coign_netsim.Network.ethernet_10 in
  let dist_image, _ = Adps.analyze_with ~session ~image:profiled ~net () in
  let classifier, dist = Option.get (Adps.load_distribution dist_image) in
  (* The deployed run, or with [~scenario:false] the install alone. *)
  let run ?(scenario = true) watch () =
    let ctx = Runtime.create_ctx octarine_registry in
    let rte =
      Rte.install_distributed ~classifier
        ~config:
          { (distributed_config (Factory.By_classification dist)) with Rte.dc_watch = watch }
        ctx
    in
    if scenario then octarine_wp0.Coign_apps.App.sc_run ctx;
    Rte.uninstall rte;
    Rte.intercepted_calls rte
  in
  let watch = Some (Rte.watch ~threshold:0. ~net session) in
  let bare, calls = words (run None) in
  let quiet, quiet_calls = words (run watch) in
  let setup = fst (words (run ~scenario:false watch)) -. fst (words (run ~scenario:false None)) in
  Alcotest.(check int) "same calls" calls quiet_calls;
  let per_call = (quiet -. bare) /. float_of_int calls in
  let after_setup = (quiet -. bare -. setup) /. float_of_int calls in
  let check what w bound =
    Alcotest.(check bool)
      (Printf.sprintf "quiet watch: %.2f words/call %s (bound %.1f)" w what bound)
      true (w <= bound)
  in
  check "over the unwatched run" per_call 3.1;
  check "over the unwatched run, past its set-up" after_setup 2.0

(* Minor words per remote call: o_oldtb3 under Octarine's default
   placement, which sends 1,837 calls across the network, against the
   same run with every instance on the client. Measured 16.0 with
   OCaml 5.1 in the default (dev) build, 6.0 in a release build, whose
   cross-module inlining keeps the jitter draws and message times
   unboxed; what is left is the send times boxed for the breaker. The
   bound leaves the same 1.5 words of headroom. *)
let test_remote_call_allocation () =
  let app = Coign_apps.Octarine.app in
  let sc = Coign_apps.App.scenario app "o_oldtb3" in
  let run policy () =
    let ctx = Runtime.create_ctx app.Coign_apps.App.app_registry in
    let rte =
      Rte.install_distributed ~classifier:(Classifier.create Classifier.Ifcb)
        ~config:{ (distributed_config policy) with Rte.dc_jitter = 0.015 }
        ctx
    in
    sc.Coign_apps.App.sc_run ctx;
    (Rte.stats rte).Rte.st_remote_calls
  in
  let default, remote = words (run (Factory.By_class app.Coign_apps.App.app_default_placement)) in
  let all_client, none = words (run Factory.All_client) in
  Alcotest.(check int) "all-client run stays local" 0 none;
  Alcotest.(check int) "remote calls" 1837 remote;
  let w = (default -. all_client) /. float_of_int remote in
  let bound = 17.5 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per remote call (bound %.1f)" w bound)
    true (w <= bound)

let suite =
  [
    Alcotest.test_case "profiling intercepts all calls" `Quick test_profiling_intercepts_all_calls;
    Alcotest.test_case "instances classified" `Quick test_instances_classified;
    Alcotest.test_case "icc collected" `Quick test_icc_collected;
    Alcotest.test_case "returned handles wrapped" `Quick test_returned_handles_are_wrapped;
    Alcotest.test_case "wrap idempotent identity" `Quick test_wrap_idempotent_identity;
    Alcotest.test_case "query interface through rte" `Quick test_query_interface_through_rte;
    Alcotest.test_case "uninstall restores" `Quick test_uninstall_restores;
    Alcotest.test_case "wrapper after uninstall" `Quick test_wrapper_after_uninstall;
    Alcotest.test_case "event logger lifecycle" `Quick test_event_logger_sees_lifecycle;
    Alcotest.test_case "all client no comm" `Quick test_all_client_no_comm;
    Alcotest.test_case "split placement accounts comm" `Quick test_split_placement_accounts_comm;
    Alcotest.test_case "deterministic without jitter" `Quick
      test_distributed_deterministic_without_jitter;
    Alcotest.test_case "jitter perturbs" `Quick test_jitter_perturbs;
    Alcotest.test_case "non-remotable cross-machine fails" `Quick
      test_non_remotable_cross_machine_fails;
    Alcotest.test_case "factory machine tracking" `Quick test_factory_machine_tracking;
    Alcotest.test_case "direct profiling recorder" `Quick test_direct_recorder;
    Alcotest.test_case "interception allocation gate" `Quick test_interception_allocation;
    Alcotest.test_case "bare application allocation gate" `Quick test_bare_allocation;
    Alcotest.test_case "quiet watch allocation gate" `Quick test_quiet_watch_allocation;
    Alcotest.test_case "remote call allocation gate" `Quick test_remote_call_allocation;
  ]
