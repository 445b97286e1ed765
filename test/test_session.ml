(* The two-stage engine's contract: a pricing/cut session re-used
   across networks must produce exactly — bit for bit, not merely
   within epsilon — the distribution a fresh Analysis.choose computes
   from the same profile. *)

open Coign_netsim
open Coign_core

let classifier_with classes =
  let t = Classifier.create Classifier.St in
  List.iter (fun cname -> ignore (Oracles.classify t ~cname ~stack:[])) classes;
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

(* PhotoDraw's p_oldmsr profile with its image's class pins,
   and 24 networks geometrically spaced from ISDN to a 1 Gb/s SAN: the
   sweep an adaptive runtime re-cuts across. *)
let photodraw_sweep () =
  let open Coign_apps in
  let app = Photodraw.app in
  let sc = App.scenario app "p_oldmsr" in
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let classifier, icc = Option.get (Adps.load_profile image) in
  let constraints = Constraints.of_image image in
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

(* Components are the session's own reading of its infinite edges:
   non-remotable pairs and classification co-location join, pins and
   remotable traffic do not. *)
let test_session_components () =
  let classifier = Classifier.create Classifier.Incremental in
  List.iter
    (fun cname -> ignore (Oracles.classify classifier ~cname ~stack:[]))
    [ "A"; "B"; "C"; "D"; "E"; "E"; "F"; "G" ];
  let icc =
    icc_of
      [
        (0, 1, "INR", false, 100, 10);
        (2, 3, "IQ", true, 5_000, 500);
        (-1, 6, "IMain", false, 100, 10);
        (4, 7, "IQ", true, 5_000, 500);
      ]
  in
  let constraints =
    let c = Constraints.pin_class Constraints.empty ~cname:"A" Constraints.Server in
    Constraints.colocate c 1 2
  in
  let session = Analysis.Session.create ~classifier ~icc ~constraints () in
  Alcotest.(check (array int))
    "components" [| 0; 0; 0; 3; 4; 5; 6; 7 |]
    (Analysis.Session.components session);
  Alcotest.(check (array bool))
    "migration safety by component"
    [| false; false; false; true; true; true; false; true |]
    (Analysis.Session.migration_safety session);
  let ladder = Fallback.compute session ~net:exact_net () in
  Alcotest.(check (array int))
    "pool ladder shards by the session's components"
    (Analysis.Session.components session)
    (Fallback.components (Fallback.pool_ladder ~hosts:2 session ~net:exact_net ladder))

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

(* --- Differential check against the uncontracted graph ------------- *)

(* The session cuts a quotient of the flow graph: every component of
   the infinite edges, terminals included, is one arena node. The
   reference here owns no quotient: it compiles all n+2 nodes with
   [Flow_network.of_edges] — a non-remotable pair, a pin or a
   co-location is an infinite edge in both directions, every other
   pair its priced capacity — cuts it with the augmenting-path
   reference [Mincut.augmenting_path_min_cut], not the session's
   push-relabel, and trims the sink side to what stays connected to the
   server. Only the pricing is shared. *)
let ns_of_us us = int_of_float (Float.round (us *. 1000.))

let reference_solve ~classifier ~constraints graph pricing =
  let module G = Coign_flowgraph.Flow_network in
  let n = Icc_graph.classification_count graph in
  let client = n and server = n + 1 in
  let edges = ref [] in
  let undirected a b cap = edges := (a, b, cap) :: (b, a, cap) :: !edges in
  Icc_graph.iter_pairs graph (fun p ~a ~b ~non_remotable ->
      undirected a b
        (if non_remotable then G.infinity_cap
         else min G.infinity_cap (ns_of_us pricing.Icc_graph.pair_us.(p))));
  for c = 0 to n - 1 do
    let pin = function
      | Some Constraints.Client -> undirected c client G.infinity_cap
      | Some Constraints.Server -> undirected c server G.infinity_cap
      | None -> ()
    in
    pin (Constraints.classification_pin constraints c);
    pin
      (Constraints.class_pin constraints ~cname:(Classifier.class_of_classification classifier c))
  done;
  List.iter
    (fun (a, b) -> if a >= 0 && a < n && b >= 0 && b < n then undirected a b G.infinity_cap)
    (Constraints.colocated_pairs constraints);
  let g, _ = Harness.of_edges ~n:(n + 2) (Array.of_list !edges) in
  let cut = Coign_flowgraph.Mincut.augmenting_path_min_cut g ~s:client ~t:server in
  let server_side = Array.make (n + 2) false in
  let rec walk v =
    if not server_side.(v) then begin
      server_side.(v) <- true;
      for a = G.arc_start g v to G.arc_stop g v - 1 do
        let u = G.arc_dst g a in
        if G.arc_cap g a > 0 && not cut.Coign_flowgraph.Mincut.source_side.(u) then walk u
      done
    end
  in
  walk server;
  let placement =
    Array.init n (fun c -> if server_side.(c) then Constraints.Server else Constraints.Client)
  in
  let host =
    Array.init (n + 1) (fun v -> if v < n && placement.(v) = Constraints.Server then 1 else 0)
  in
  {
    Analysis.placement;
    cut_ns = cut.Coign_flowgraph.Mincut.value;
    predicted_comm_us = Icc_graph.predicted_us graph pricing ~host;
    server_count = Array.fold_left (fun k l -> if l = Constraints.Server then k + 1 else k) 0 placement;
    node_count = n;
  }

(* Each min-cut algorithm the project carries — the push-relabel
   solver behind both [Analysis.choose] and the session, and the
   augmenting-path reference cutting the uncontracted graph — gives the
   same distribution on the sample profile. *)
let test_session_algorithms () =
  let classifier, icc, constraints = sample_profile () in
  let session = Analysis.Session.create ~classifier ~icc ~constraints () in
  let fresh = Analysis.choose ~classifier ~icc ~constraints ~net:exact_net () in
  let solved = Analysis.Session.solve session ~net:exact_net in
  check_same "push-relabel" fresh solved;
  let graph = Analysis.Session.graph session in
  let pricing = Icc_graph.make_pricing graph in
  Icc_graph.price_into graph ~cost:(Icc_graph.cost_table graph exact_net) pricing;
  check_same "augmenting-path"
    (reference_solve ~classifier ~constraints graph pricing)
    solved

(* [gen_instance] plus non-remotable chains (start, length; start -1
   runs from the main program), so pins regularly fall into one
   component with each other or with main: both the contracted arena
   and the unsatisfiable identity arena get exercised. *)
let gen_contracted =
  QCheck.Gen.(
    gen_instance >>= fun instance ->
    let n, _, _, _, _, _ = instance in
    list_size (int_range 0 3) (pair (int_range (-1) (n - 2)) (int_range 1 4)) >>= fun chains ->
    return (instance, chains))

let arb_contracted =
  QCheck.make
    ~print:(fun (instance, chains) ->
      Printf.sprintf "%s chains=%s"
        (Option.get arb_instance.QCheck.print instance)
        (String.concat "," (List.map (fun (c, l) -> Printf.sprintf "%d+%d" c l) chains)))
    gen_contracted

let prop_session_equals_uncontracted =
  QCheck.Test.make ~name:"session solve equals a min cut of the uncontracted graph" ~count:200
    arb_contracted
    (fun ((n, records, pin_client, pin_server, colocations, seed), chains) ->
      let classifier = classifier_with (List.init n (Printf.sprintf "K%d")) in
      let icc = Icc.create () in
      List.iteri
        (fun i (src, dst, size, remotable) ->
          if src <> dst then
            Icc.record icc ~src ~dst
              ~iface:(Printf.sprintf "I%d" (i mod 4))
              ~remotable ~request:size ~reply:(size / 5))
        records;
      List.iter
        (fun (start, len) ->
          for c = start to min (n - 2) (start + len - 1) do
            Icc.record icc ~src:c ~dst:(c + 1) ~iface:"IChain" ~remotable:false
              ~request:(1_000 * (c + 2)) ~reply:64
          done)
        chains;
      let constraints =
        match pin_client with
        | Some c -> Constraints.pin_classification Constraints.empty c Constraints.Client
        | None -> Constraints.empty
      in
      let constraints =
        match pin_server with
        | Some c when pin_client <> Some c ->
            Constraints.pin_classification constraints c Constraints.Server
        | _ -> constraints
      in
      let constraints =
        List.fold_left
          (fun acc (a, b) -> if a <> b then Constraints.colocate acc a b else acc)
          constraints colocations
      in
      let session = Analysis.Session.create ~classifier ~icc ~constraints () in
      let graph = Analysis.Session.graph session in
      let rng = Coign_util.Prng.create (Int64.of_int seed) in
      let scale () =
        let draw () =
          Array.init (Icc_graph.pair_count graph) (fun _ -> 0.25 +. Coign_util.Prng.float rng 2.)
        in
        let m = draw () in
        { Icc_graph.sc_messages = m; sc_bytes = (if Coign_util.Prng.int rng 2 = 0 then m else draw ()) }
      in
      let nets =
        [
          exact_net;
          Net_profiler.profile (Coign_util.Prng.create (Int64.of_int seed)) Network.isdn_128;
          Net_profiler.profile (Coign_util.Prng.create (Int64.of_int seed)) Network.san_1g;
        ]
      in
      let same (a : Analysis.distribution) (b : Analysis.distribution) =
        a.Analysis.cut_ns = b.Analysis.cut_ns
        && a.Analysis.placement = b.Analysis.placement
        && a.Analysis.server_count = b.Analysis.server_count
        && Int64.bits_of_float a.Analysis.predicted_comm_us
           = Int64.bits_of_float b.Analysis.predicted_comm_us
      in
      (* Solve on the session and on a copy, unscaled then scaled, both
         passes over the networks, the second reversed so every solve
         after the first reprices a dirty arena. *)
      let copy = Analysis.Session.copy session in
      List.for_all
        (fun net ->
          let cost = Icc_graph.cost_table graph net in
          let zero_us = Net_profiler.predict_us net ~bytes:0 in
          let scale = scale () in
          let unscaled = Icc_graph.make_pricing graph and scaled = Icc_graph.make_pricing graph in
          Icc_graph.price_into graph ~cost unscaled;
          Icc_graph.price_scaled_into graph ~cost ~zero_us ~scale scaled;
          let reference = reference_solve ~classifier ~constraints graph in
          same (reference unscaled) (Analysis.Session.solve session ~net)
          && same (reference scaled) (Analysis.Session.solve ~scale copy ~net))
        (nets @ List.rev nets))

(* The stored-text decoder: on any summary's encoding it builds the
   graph [Icc_graph.build] builds over [Icc.decode], and sessions over
   the two solve alike. Sizes span many buckets, up to 2^40 bytes. *)
let gen_summary =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    list_size (int_range 0 24)
      (quad
         (pair (int_range (-1) (n - 1)) (int_range (-1) (n - 1)))
         (int_range 0 5)
         bool
         (pair
            (oneof [ int_range 0 300; int_range 0 200_000; int_range 0 (1 lsl 40) ])
            (int_range 0 5_000)))
    >>= fun records -> int_range 1 1000 >>= fun seed -> return (n, records, seed))

let arb_summary =
  QCheck.make
    ~print:(fun (n, records, seed) ->
      Printf.sprintf "n=%d seed=%d records=%s" n seed
        (String.concat ";"
           (List.map
              (fun ((a, b), i, r, (req, rep)) ->
                Printf.sprintf "%d->%d:I%d%s:%d/%d" a b i (if r then "" else "!") req rep)
              records)))
    gen_summary

let prop_text_decoder_equals_build =
  QCheck.Test.make ~name:"graph decoded from stored text equals build over Icc.decode"
    ~count:200 arb_summary (fun (n, records, seed) ->
      let classifier = classifier_with (List.init n (Printf.sprintf "K%d")) in
      let icc = Icc.create () in
      List.iter
        (fun ((src, dst), i, remotable, (request, reply)) ->
          Icc.record icc ~src ~dst ~iface:(Printf.sprintf "I%d" i) ~remotable ~request ~reply)
        records;
      let text = Icc.encode icc in
      let decoded = Icc.decode text in
      let direct = Icc_graph.decode ~classifier text in
      let nets =
        [
          exact_net;
          Net_profiler.profile (Coign_util.Prng.create (Int64.of_int seed)) Network.isdn_128;
          Net_profiler.profile (Coign_util.Prng.create (Int64.of_int seed)) Network.san_1g;
        ]
      in
      let from_text =
        Analysis.Session.of_graph ~classifier ~graph:direct ~constraints:Constraints.empty ()
      in
      let from_summary =
        Analysis.Session.create ~classifier ~icc:decoded ~constraints:Constraints.empty ()
      in
      String.equal (Icc.encode decoded) text
      && direct = Icc_graph.build ~classifier ~icc:decoded
      && List.for_all
           (fun net ->
             String.equal
               (Analysis.encode (Analysis.Session.solve from_text ~net))
               (Analysis.encode (Analysis.Session.solve from_summary ~net)))
           nets)

(* Building a session from a stored profile allocates what the session
   keeps and little else: the decoders read the text in place and the
   arena is compiled from int arrays. One [Adps.analysis_session] on the
   profiled o_oldwp0 image took 4,280 minor words (OCaml 5.1, dev and
   release builds alike); the decoders and arena build before the
   one-pass reader took 10,205. The bound leaves 25% headroom. *)
let test_analysis_session_allocation () =
  let open Coign_apps in
  let app = Octarine.app in
  let sc = App.scenario app "o_oldwp0" in
  let image, _ =
    Adps.profile ~image:(Adps.instrument app.App.app_image) ~registry:app.App.app_registry
      sc.App.sc_run
  in
  let words = Harness.words_per_run 20 (fun () -> ignore (Adps.analysis_session image)) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per session" words)
    true
    (words <= 1.25 *. 4_280.)

(* A solve allocates only its result: the placement (n + 1 words) and
   the distribution record with its boxed predicted time (8 words).
   Repricing, the cut, the placement walk and the predicted-comm kernel
   run on the session's preallocated buffers, and without a profiler no
   closure is built. On the profiled o_oldwp0 session (n = 40) a solve
   took 89 minor words while it wrapped its phases in closures and
   priced predicted comm through one (48 beyond the placement; 113
   words at n = 64 on octarine's all-scenario session); it now takes
   49 (OCaml 5.1, dev and release builds alike). *)
let test_solve_allocation () =
  let open Coign_apps in
  let app = Octarine.app in
  let sc = App.scenario app "o_oldwp0" in
  let image, _ =
    Adps.profile ~image:(Adps.instrument app.App.app_image) ~registry:app.App.app_registry
      sc.App.sc_run
  in
  let session = Adps.analysis_session image in
  let n = Analysis.Session.node_count session in
  let words =
    Harness.words_per_run 20 (fun () -> ignore (Analysis.Session.solve session ~net:exact_net))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per solve at n = %d" words n)
    true
    (words <= float_of_int (n + 16))

let suite =
  [
    Alcotest.test_case "session matches choose on presets" `Quick test_session_matches_choose;
    Alcotest.test_case "session reuse interleaved" `Quick test_session_reuse_interleaved;
    Alcotest.test_case "session matches choose per algorithm" `Quick test_session_algorithms;
    Alcotest.test_case "session copies are independent" `Quick test_session_copy_independent;
    Alcotest.test_case "session on empty profile" `Quick test_session_empty_profile;
    Alcotest.test_case "session components" `Quick test_session_components;
    Alcotest.test_case "analysis session allocation" `Quick test_analysis_session_allocation;
    Alcotest.test_case "a solve allocates only its result" `Quick test_solve_allocation;
    QCheck_alcotest.to_alcotest prop_session_equals_choose;
    QCheck_alcotest.to_alcotest prop_session_equals_uncontracted;
    QCheck_alcotest.to_alcotest prop_text_decoder_equals_build;
  ]
