(* The two-stage engine's contract: a pricing/cut session re-used
   across networks must produce exactly — bit for bit, not merely
   within epsilon — the distribution a fresh Analysis.choose computes
   from the same profile. *)

open Coign_netsim
open Coign_core

let classifier_with classes =
  let t = Classifier.create Classifier.St in
  List.iter (fun cname -> ignore (Classifier.classify t ~cname ~stack:[])) classes;
  t

let icc_of records =
  let icc = Icc.create () in
  List.iter
    (fun (src, dst, iface, remotable, request, reply) ->
      Icc.record icc ~src ~dst ~iface ~remotable ~request ~reply)
    records;
  icc

let exact_net = Net_profiler.exact Network.ethernet_10

(* Strict equality of distributions: integer fields, every placement,
   and the predicted communication time compared on its bits. *)
let check_same msg (a : Analysis.distribution) (b : Analysis.distribution) =
  Alcotest.(check int) (msg ^ ": node_count") a.Analysis.node_count b.Analysis.node_count;
  Alcotest.(check int) (msg ^ ": cut_ns") a.Analysis.cut_ns b.Analysis.cut_ns;
  Alcotest.(check int) (msg ^ ": server_count") a.Analysis.server_count b.Analysis.server_count;
  Array.iteri
    (fun c la ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: placement %d" msg c)
        true
        (la = b.Analysis.placement.(c)))
    a.Analysis.placement;
  Alcotest.(check int64)
    (msg ^ ": predicted_comm_us bits")
    (Int64.bits_of_float a.Analysis.predicted_comm_us)
    (Int64.bits_of_float b.Analysis.predicted_comm_us)

let sample_profile () =
  let classes = [ "Gui"; "Store"; "Cache"; "Logic"; "Free" ] in
  let records =
    [
      (-1, 0, "IMain", true, 2_000, 200);
      (0, 2, "IPaint", false, 1_000, 1_000);
      (2, 3, "IQ", true, 80_000, 9_000);
      (3, 1, "IStore", true, 400_000, 50_000);
      (0, 4, "IFree", true, 300, 300);
      (4, 1, "IStore", true, 120_000, 12_000);
    ]
  in
  let constraints =
    Constraints.colocate
      (Constraints.pin_class
         (Constraints.pin_class Constraints.empty ~cname:"Gui" Constraints.Client)
         ~cname:"Store" Constraints.Server)
      3 4
  in
  (classifier_with classes, icc_of records, constraints)

let preset_nets seed =
  Net_profiler.exact Network.ethernet_10
  :: List.map
       (fun network -> Net_profiler.profile (Coign_util.Prng.create seed) network)
       Network.presets

(* PhotoDraw's p_oldmsr profile with its image and static constraints,
   and 24 networks geometrically spaced from ISDN to a 1 Gb/s SAN: the
   sweep an adaptive runtime re-cuts across. *)
let photodraw_sweep () =
  let open Coign_apps in
  let app = Photodraw.app in
  let sc = App.scenario app "p_oldmsr" in
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let classifier, icc = Option.get (Adps.load_profile image) in
  let constraints =
    Constraints.merge (Constraints.of_image image) (Adps.static_constraints image)
  in
  let nets =
    List.map
      (fun net -> Net_profiler.profile (Coign_util.Prng.create 11L) net)
      (Network.geometric_sweep ~points:24 ~from_net:Network.isdn_128 ~to_net:Network.san_1g ())
  in
  ((classifier, icc, constraints), nets)

let test_session_matches_choose () =
  List.iter
    (fun ((classifier, icc, constraints), nets) ->
      let session = Analysis.Session.create ~classifier ~icc ~constraints () in
      List.iter
        (fun net ->
          let fresh = Analysis.choose ~classifier ~icc ~constraints ~net () in
          let solved = Analysis.Session.solve session ~net in
          check_same net.Net_profiler.profiled_name fresh solved)
        nets)
    [ (sample_profile (), preset_nets 3L); photodraw_sweep () ]

let test_session_reuse_interleaved () =
  (* Re-solving an earlier network after pricing a very different one
     must fully reset every repriced capacity. *)
  let classifier, icc, constraints = sample_profile () in
  let session = Analysis.Session.create ~classifier ~icc ~constraints () in
  let isdn = Net_profiler.profile (Coign_util.Prng.create 9L) Network.isdn_128 in
  let san = Net_profiler.profile (Coign_util.Prng.create 9L) Network.san_1g in
  let first = Analysis.Session.solve session ~net:isdn in
  let _ = Analysis.Session.solve session ~net:san in
  let again = Analysis.Session.solve session ~net:isdn in
  check_same "isdn resolved after san" first again;
  check_same "isdn vs fresh"
    (Analysis.choose ~classifier ~icc ~constraints ~net:isdn ())
    again

let test_session_algorithms () =
  let classifier, icc, constraints = sample_profile () in
  let session = Analysis.Session.create ~classifier ~icc ~constraints () in
  List.iter
    (fun algorithm ->
      let fresh = Analysis.choose ~algorithm ~classifier ~icc ~constraints ~net:exact_net () in
      let solved = Analysis.Session.solve ~algorithm session ~net:exact_net in
      check_same (Coign_flowgraph.Mincut.algorithm_name algorithm) fresh solved)
    Coign_flowgraph.Mincut.all_algorithms

let test_session_copy_independent () =
  let classifier, icc, constraints = sample_profile () in
  let session = Analysis.Session.create ~classifier ~icc ~constraints () in
  let copy = Analysis.Session.copy session in
  let isdn = Net_profiler.profile (Coign_util.Prng.create 5L) Network.isdn_128 in
  let san = Net_profiler.profile (Coign_util.Prng.create 5L) Network.san_1g in
  (* Price the two sessions differently, then check neither disturbed
     the other. *)
  let original_isdn = Analysis.Session.solve session ~net:isdn in
  let copy_san = Analysis.Session.solve copy ~net:san in
  check_same "original unaffected by copy" original_isdn
    (Analysis.Session.solve session ~net:isdn);
  check_same "copy unaffected by original" copy_san (Analysis.Session.solve copy ~net:san);
  check_same "copy matches fresh"
    (Analysis.choose ~classifier ~icc ~constraints ~net:san ())
    copy_san

let test_session_empty_profile () =
  let classifier = classifier_with [ "A"; "B" ] in
  let session =
    Analysis.Session.create ~classifier ~icc:(Icc.create ()) ~constraints:Constraints.empty ()
  in
  let d = Analysis.Session.solve session ~net:exact_net in
  Alcotest.(check int) "all client" 0 d.Analysis.server_count;
  check_same "empty matches fresh"
    (Analysis.choose ~classifier ~icc:(Icc.create ()) ~constraints:Constraints.empty
       ~net:exact_net ())
    d

let test_solve_many_matches_sequential () =
  let classifier, icc, constraints = sample_profile () in
  let session = Analysis.Session.create ~classifier ~icc ~constraints () in
  let nets = preset_nets 7L in
  let sequential = List.map (fun net -> Analysis.Session.solve session ~net) nets in
  let batched = Analysis.Session.solve_many session ~nets in
  List.iter2 (fun a b -> check_same "solve_many sequential" a b) sequential batched

let test_solve_many_pool_matches_sequential () =
  let classifier, icc, constraints = sample_profile () in
  let session = Analysis.Session.create ~classifier ~icc ~constraints () in
  let nets = preset_nets 13L in
  let sequential = Analysis.Session.solve_many session ~nets in
  let pool = Coign_util.Parallel.create ~domains:3 () in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Coign_util.Parallel.shutdown pool)
      (fun () -> Analysis.Session.solve_many ~pool session ~nets)
  in
  List.iter2 (fun a b -> check_same "solve_many pool" a b) sequential parallel;
  (* The batch must not have disturbed the session's own buffers. *)
  let net = List.hd nets in
  check_same "session intact after pooled batch"
    (Analysis.choose ~classifier ~icc ~constraints ~net ())
    (Analysis.Session.solve session ~net)

let test_fallback_pool_identical () =
  let classifier, icc, constraints = sample_profile () in
  let session = Analysis.Session.create ~classifier ~icc ~constraints () in
  let net = Net_profiler.profile (Coign_util.Prng.create 21L) Network.isdn_128 in
  let sequential = Fallback.compute session ~net () in
  let pool = Coign_util.Parallel.create ~domains:2 () in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Coign_util.Parallel.shutdown pool)
      (fun () -> Fallback.compute ~pool session ~net ())
  in
  Alcotest.(check string)
    "ladder identical with and without pool" (Fallback.encode sequential)
    (Fallback.encode parallel)

(* --- Randomized equivalence ----------------------------------------- *)

let gen_instance =
  QCheck.Gen.(
    int_range 2 6 >>= fun n ->
    list_size (int_range 0 14)
      (quad
         (int_range (-1) (n - 1))
         (int_range 0 (n - 1))
         (int_range 0 120_000)
         bool)
    >>= fun records ->
    option (int_range 0 (n - 1)) >>= fun pin_client ->
    option (int_range 0 (n - 1)) >>= fun pin_server ->
    list_size (int_range 0 2) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >>= fun colocations ->
    int_range 1 1000 >>= fun seed -> return (n, records, pin_client, pin_server, colocations, seed))

let arb_instance =
  QCheck.make
    ~print:(fun (n, records, pc, ps, coloc, seed) ->
      Printf.sprintf "n=%d pinC=%s pinS=%s coloc=%s seed=%d records=%s" n
        (match pc with Some c -> string_of_int c | None -> "-")
        (match ps with Some c -> string_of_int c | None -> "-")
        (String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d~%d" a b) coloc))
        seed
        (String.concat ";"
           (List.map
              (fun (a, b, s, r) -> Printf.sprintf "%d->%d:%d%s" a b s (if r then "" else "!"))
              records)))
    gen_instance

let prop_session_equals_choose =
  QCheck.Test.make
    ~name:"session reprice+cut equals fresh choose on random profiles" ~count:120
    arb_instance
    (fun (n, records, pin_client, pin_server, colocations, seed) ->
      let classes = List.init n (fun i -> Printf.sprintf "K%d" i) in
      let classifier = classifier_with classes in
      let icc = Icc.create () in
      List.iteri
        (fun i (src, dst, size, remotable) ->
          if src <> dst then
            Icc.record icc ~src ~dst
              ~iface:(Printf.sprintf "I%d" (i mod 4))
              ~remotable ~request:size ~reply:(size / 5))
        records;
      (* A pin conflict on the same classification is rejected eagerly
         by the constraint builder itself, not the engine. *)
      QCheck.assume (pin_client = None || pin_server = None || pin_client <> pin_server);
      let constraints = Constraints.empty in
      let constraints =
        match pin_client with
        | Some c -> Constraints.pin_classification constraints c Constraints.Client
        | None -> constraints
      in
      let constraints =
        match pin_server with
        | Some c -> Constraints.pin_classification constraints c Constraints.Server
        | None -> constraints
      in
      let constraints =
        List.fold_left
          (fun acc (a, b) -> if a <> b then Constraints.colocate acc a b else acc)
          constraints colocations
      in
      let nets =
        [
          Net_profiler.exact Network.ethernet_10;
          Net_profiler.profile (Coign_util.Prng.create (Int64.of_int seed)) Network.isdn_128;
          Net_profiler.profile (Coign_util.Prng.create (Int64.of_int seed)) Network.san_1g;
        ]
      in
      let session = Analysis.Session.create ~classifier ~icc ~constraints () in
      (* Two passes, the second in reverse, so every solve after the
         first exercises repricing of a dirty network. *)
      List.for_all
        (fun net ->
          let fresh = Analysis.choose ~classifier ~icc ~constraints ~net () in
          let solved = Analysis.Session.solve session ~net in
          fresh.Analysis.cut_ns = solved.Analysis.cut_ns
          && fresh.Analysis.placement = solved.Analysis.placement
          && fresh.Analysis.server_count = solved.Analysis.server_count
          && Int64.bits_of_float fresh.Analysis.predicted_comm_us
             = Int64.bits_of_float solved.Analysis.predicted_comm_us)
        (nets @ List.rev nets))

let suite =
  [
    Alcotest.test_case "session matches choose on presets" `Quick test_session_matches_choose;
    Alcotest.test_case "session reuse interleaved" `Quick test_session_reuse_interleaved;
    Alcotest.test_case "session matches choose per algorithm" `Quick test_session_algorithms;
    Alcotest.test_case "session copies are independent" `Quick test_session_copy_independent;
    Alcotest.test_case "session on empty profile" `Quick test_session_empty_profile;
    Alcotest.test_case "solve_many matches sequential" `Quick test_solve_many_matches_sequential;
    Alcotest.test_case "solve_many with pool matches sequential" `Quick
      test_solve_many_pool_matches_sequential;
    Alcotest.test_case "fallback ladder identical with pool" `Quick test_fallback_pool_identical;
    QCheck_alcotest.to_alcotest prop_session_equals_choose;
  ]
