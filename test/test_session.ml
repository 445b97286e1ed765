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
      let session = Oracles.session ~classifier ~icc ~constraints in
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
  let session = Oracles.session ~classifier ~icc ~constraints in
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
  let session = Oracles.session ~classifier ~icc ~constraints in
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
    Oracles.session ~classifier ~icc:(Icc.create ()) ~constraints:Constraints.empty
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
  let session = Oracles.session ~classifier ~icc ~constraints in
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
      let session = Oracles.session ~classifier ~icc ~constraints in
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
  for p = 0 to Icc_graph.pair_count graph - 1 do
    undirected (Icc_graph.pair_a graph p) (Icc_graph.pair_b graph p)
      (if Icc_graph.non_remotable graph p then G.infinity_cap
       else min G.infinity_cap (ns_of_us pricing.Icc_graph.pair_us.(p)))
  done;
  for c = 0 to n - 1 do
    let pin = function
      | Some Constraints.Client -> undirected c client G.infinity_cap
      | Some Constraints.Server -> undirected c server G.infinity_cap
      | None -> ()
    in
    pin (List.assoc_opt c (Constraints.pinned_classifications constraints));
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
  let session = Oracles.session ~classifier ~icc ~constraints in
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

(* One [arb_contracted] draw as a profile and its constraints. *)
let contracted_profile ((n, records, pin_client, pin_server, colocations, _), chains) =
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
  (classifier, icc, constraints)

let contracted_nets seed =
  [
    exact_net;
    Net_profiler.profile (Coign_util.Prng.create (Int64.of_int seed)) Network.isdn_128;
    Net_profiler.profile (Coign_util.Prng.create (Int64.of_int seed)) Network.san_1g;
  ]

let prop_session_equals_uncontracted =
  QCheck.Test.make ~name:"session solve equals a min cut of the uncontracted graph" ~count:200
    arb_contracted
    (fun (((_, _, _, _, _, seed), _) as instance) ->
      let classifier, icc, constraints = contracted_profile instance in
      let session = Oracles.session ~classifier ~icc ~constraints in
      let graph = Analysis.Session.graph session in
      let rng = Coign_util.Prng.create (Int64.of_int seed) in
      let scale () =
        let draw () =
          Array.init (Icc_graph.pair_count graph) (fun _ -> 0.25 +. Coign_util.Prng.float rng 2.)
        in
        let m = draw () in
        { Icc_graph.sc_messages = m; sc_bytes = (if Coign_util.Prng.int rng 2 = 0 then m else draw ()) }
      in
      let nets = contracted_nets seed in
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

(* The session validator reads the arena's own infinite edges, so a
   solve breaks a hard constraint exactly when its cut crosses one:
   when pins and non-remotable chains join both terminals, the
   identity-quotient cut is infinite and the validator names what it
   crosses; otherwise the cut is finite and the validator is silent. *)
let prop_validate_iff_finite_cut =
  QCheck.Test.make ~name:"a session solve validates exactly when its cut is finite" ~count:300
    arb_contracted
    (fun (((_, _, _, _, _, seed), _) as instance) ->
      let classifier, icc, constraints = contracted_profile instance in
      let session = Oracles.session ~classifier ~icc ~constraints in
      List.for_all
        (fun net ->
          let d = Analysis.Session.solve session ~net in
          Analysis.Session.validate session d = []
          = (d.Analysis.cut_ns < Coign_flowgraph.Flow_network.infinity_cap))
        (contracted_nets seed))

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
        Oracles.session ~classifier ~icc:decoded ~constraints:Constraints.empty
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
   profiled o_oldwp0 image takes 4,492 minor words (OCaml 5.1, dev
   build); the decoders and arena build before the one-pass reader took
   10,205. The bound stays 25% above the 4,280 it was first set on. *)
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

(* A co-location with one end outside the session (main, -1, or an id
   past the graph) reads that end on the client, in the arena as in
   [check]: the session joins the other end to the client terminal.
   In the sample profile Logic (3) rides its heavy Store traffic to the
   server; co-located with main or with an id past the graph, it moves
   to the client, with Free (4), its co-located partner, and the cut is
   finite and validates. On the profiled o_oldwp0 image, classification
   28 (Storage.FileServer) is statically pinned to the server, so 28 ~
   main cannot hold: the solve's cut crosses an infinite edge, and
   [Adps.analyze] rejects it. *)
let test_colocation_outside_the_session () =
  let classifier, icc, constraints = sample_profile () in
  let n = Classifier.classification_count classifier in
  let solve constraints =
    let session = Oracles.session ~classifier ~icc ~constraints in
    let d = Analysis.Session.solve session ~net:exact_net in
    (d, Analysis.Session.validate session d)
  in
  let plain, _ = solve constraints in
  Alcotest.(check bool) "the plain cut serves Logic" true
    (Analysis.location_of plain 3 = Constraints.Server);
  List.iter
    (fun other ->
      let what = Printf.sprintf "3 ~ %d" other in
      let d, violations = solve (Constraints.colocate constraints 3 other) in
      Alcotest.(check bool) (what ^ ": Logic on the client") true
        (Analysis.location_of d 3 = Constraints.Client);
      Alcotest.(check bool) (what ^ ": Free with it") true
        (Analysis.location_of d 4 = Constraints.Client);
      Alcotest.(check bool) (what ^ ": a finite cut") true
        (d.Analysis.cut_ns < Coign_flowgraph.Flow_network.infinity_cap);
      Alcotest.(check int) (what ^ ": it validates") 0 (List.length violations))
    [ -1; n; n + 7 ];
  let open Coign_apps in
  let app = Octarine.app in
  let sc = App.scenario app "o_oldwp0" in
  let image, _ =
    Adps.profile ~image:(Adps.instrument app.App.app_image) ~registry:app.App.app_registry
      sc.App.sc_run
  in
  let extra_constraints = Constraints.colocate Constraints.empty 28 (-1) in
  let d =
    Analysis.Session.solve (Adps.analysis_session ~extra_constraints image) ~net:exact_net
  in
  Alcotest.(check bool) "28 ~ main against FileServer's pin: an infinite cut" true
    (d.Analysis.cut_ns >= Coign_flowgraph.Flow_network.infinity_cap);
  match Adps.analyze ~extra_constraints ~image ~net:exact_net () with
  | _ -> Alcotest.fail "28 ~ main: expected Lint.Rejected"
  | exception Lint.Rejected _ -> ()

(* The session caches one cost table per network profile in two
   generations of at most 64, dropping the older generation whole.
   Evicting allocates nothing: a solve against a fresh profile past the
   64th allocates no more than one below it, the table it prices, its
   cache entry and its result. On the profiled o_oldwp0 session a fresh
   solve takes 135 words either side of the 64th; the list this cache
   replaced, trimmed by [List.filteri] once full, took 324 past it
   (OCaml 5.1, dev build). *)
let test_cost_cache_eviction_allocation () =
  let open Coign_apps in
  let app = Octarine.app in
  let sc = App.scenario app "o_oldwp0" in
  let image, _ =
    Adps.profile ~image:(Adps.instrument app.App.app_image) ~registry:app.App.app_registry
      sc.App.sc_run
  in
  let session = Adps.analysis_session image in
  let nets = Array.init 200 (fun _ -> Net_profiler.exact Network.ethernet_10) in
  let words =
    Array.map
      (fun net ->
        let before = Gc.minor_words () in
        ignore (Analysis.Session.solve session ~net);
        Gc.minor_words () -. before)
      nets
  in
  let below = Array.fold_left Float.min infinity (Array.sub words 0 64) in
  let past = Array.fold_left Float.max 0. (Array.sub words 64 136) in
  Alcotest.(check bool)
    (Printf.sprintf "fresh-profile solve: %.0f words past the 64th, %.0f below" past below)
    true (past <= below)

(* The profile's non-remotable pairs, by a walk of its entries
   independent of [Icc_graph]: an entry between two different nodes
   (main as node [n]) names the pair (lower node first), pairs keep the
   order they first appear in, and a pair is non-remotable when any of
   its entries is. *)
let non_remotable_pairs icc ~n =
  let node c = if c < 0 then n else c in
  let flagged = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (e : Icc.entry) ->
      let a = node e.Icc.src and b = node e.Icc.dst in
      if a <> b then begin
        let key = (min a b, max a b) in
        if not (Hashtbl.mem flagged key) then begin
          Hashtbl.add flagged key false;
          order := key :: !order
        end;
        if not e.Icc.remotable then Hashtbl.replace flagged key true
      end)
    (Icc.entries icc);
  List.filter (Hashtbl.find flagged) (List.rev !order)

(* Those of them a placement separates, main on the client. *)
let non_remotable_splits icc ~n d =
  let loc v = if v = n then Constraints.Client else Analysis.location_of d v in
  List.filter_map
    (fun (a, b) ->
      if loc a <> loc b then Some (Analysis.Split_non_remotable (a, if b = n then -1 else b))
      else None)
    (non_remotable_pairs icc ~n)

(* Both validators equal the by-name one they replaced
   ([Oracles.Validate_ref]), the session's followed by the profiled
   non-remotable pairs the placement splits: on the four apps, with
   the image's pins alone and with forced classification pins and
   co-location pairs on top, all three agree for the solved placement,
   all-server and all-client placements, placements that break every
   class pin, split every co-located pair or split every non-remotable
   pair, and a placement shorter than the classifier. A classifier that
   grows past the session (a new classification of a pinned class,
   placed on the wrong side after the build) is checked by name too,
   then by the session's pairs. *)
let test_session_validate_is_validate () =
  let open Coign_apps in
  List.iter
    (fun ((app : App.t), sc_id) ->
      let sc = App.scenario app sc_id in
      let image, _ =
        Adps.profile ~image:(Adps.instrument app.App.app_image) ~registry:app.App.app_registry
          sc.App.sc_run
      in
      let _, icc = Option.get (Adps.load_profile image) in
      let n =
        Classifier.classification_count
          (Analysis.Session.classifier (Adps.analysis_session image))
      in
      let all_agree what session d =
        let classifier = Analysis.Session.classifier session in
        let constraints = Analysis.Session.constraints session in
        let by_name = Oracles.Validate_ref.validate ~classifier ~constraints d in
        let expected = by_name @ non_remotable_splits icc ~n d in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: %d violations" app.App.app_name what (List.length expected))
          true
          (Analysis.validate ~classifier ~constraints d = by_name
          && Analysis.Session.validate session d = expected);
        expected
      in
      let forced =
        Constraints.(
          pin_classification
            (pin_classification (colocate (colocate empty 0 (n - 1)) 1 2) 3 Server)
            4 Client)
      in
      List.iter
        (fun (what, extra_constraints) ->
          let session = Adps.analysis_session ~extra_constraints image in
          let classifier = Analysis.Session.classifier session in
          let constraints = Analysis.Session.constraints session in
          let d = Analysis.Session.solve session ~net:exact_net in
          let with_placement placement = { d with Analysis.placement } in
          let flip = function Constraints.Client -> Constraints.Server | _ -> Constraints.Client in
          let pinned_broken =
            let p = Array.copy d.Analysis.placement in
            List.iter
              (fun (cname, loc) ->
                Array.iteri
                  (fun c _ ->
                    if String.equal (Classifier.class_of_classification classifier c) cname then
                      p.(c) <- flip loc)
                  p)
              (Constraints.pinned_classes constraints);
            List.iter (fun (c, loc) -> if c < n then p.(c) <- flip loc)
              (Constraints.pinned_classifications constraints);
            p
          in
          let split =
            let p = Array.copy d.Analysis.placement in
            List.iter (fun (a, b) -> p.(a) <- flip p.(b)) (Constraints.colocated_pairs constraints);
            p
          in
          let non_remotable_split =
            let p = Array.copy d.Analysis.placement in
            List.iter
              (fun (a, b) ->
                p.(a) <- flip (if b = n then Constraints.Client else p.(b)))
              (non_remotable_pairs icc ~n);
            p
          in
          List.iter
            (fun (case, d) -> ignore (all_agree (what ^ " " ^ case) session d))
            [
              ("solved", d);
              ("all-server", with_placement (Array.make n Constraints.Server));
              ("all-client", with_placement (Array.make n Constraints.Client));
              ("pins broken", with_placement pinned_broken);
              ("co-location split", with_placement split);
              ("non-remotable split", with_placement non_remotable_split);
              ("short", with_placement (Array.sub pinned_broken 0 (n / 2)));
            ];
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: breaking the pins is caught" app.App.app_name what)
            true
            (Analysis.Session.validate session (with_placement pinned_broken) <> []);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: splitting the non-remotable pairs is caught"
               app.App.app_name what)
            true
            (non_remotable_pairs icc ~n = []
            || List.exists
                 (function Analysis.Split_non_remotable _ -> true | _ -> false)
                 (Analysis.Session.validate session (with_placement non_remotable_split))))
        [ ("image pins", Constraints.empty); ("forced", forced) ];
      let session =
        Adps.analysis_session
          ~extra_constraints:(Constraints.pin_class Constraints.empty ~cname:"Grown" Server)
          image
      in
      let d = Analysis.Session.solve session ~net:exact_net in
      let grown = Oracles.classify (Analysis.Session.classifier session) ~cname:"Grown" ~stack:[] in
      Alcotest.(check int) (app.App.app_name ^ ": the classifier grew") n grown;
      let placement = Array.append d.Analysis.placement [| Constraints.Client |] in
      Alcotest.(check bool)
        (app.App.app_name ^ ": the grown classification's pin is caught")
        true
        (all_agree "grown" session { d with Analysis.placement }
        = [ Analysis.Pin_violated ("Grown", Constraints.Server) ]))
    [
      (Octarine.app, "o_oldwp0");
      (Photodraw.app, "p_oldmsr");
      (Benefits.app, "b_bigone");
      (Ingest.app, "i_strm1");
    ]

(* A clean check allocates nothing from the session's resolved pins,
   and little from the classifier and constraints: the by-name
   check's [Hashtbl] of classifications per class name took 607 words
   on octarine's all-scenario session (n = 64); resolving the pins per
   call takes 172 (OCaml 5.1, dev build). The bound leaves 25%
   headroom. *)
let test_validate_allocation () =
  let open Coign_apps in
  let app = Octarine.app in
  let image =
    List.fold_left
      (fun image (sc : App.scenario) ->
        fst (Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run))
      (Adps.instrument app.App.app_image) app.App.app_scenarios
  in
  let session = Adps.analysis_session image in
  let classifier = Analysis.Session.classifier session in
  let constraints = Analysis.Session.constraints session in
  let d = Analysis.Session.solve session ~net:exact_net in
  let session_words =
    Harness.words_per_run 20 (fun () -> ignore (Analysis.Session.validate session d))
  in
  let words =
    Harness.words_per_run 20 (fun () -> ignore (Analysis.validate ~classifier ~constraints d))
  in
  Alcotest.(check (float 0.)) "minor words per clean Session.validate" 0. session_words;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per clean Analysis.validate" words)
    true
    (words <= 1.25 *. 172.)

let suite =
  [
    Alcotest.test_case "session matches choose on presets" `Quick test_session_matches_choose;
    Alcotest.test_case "session reuse interleaved" `Quick test_session_reuse_interleaved;
    Alcotest.test_case "session matches choose per algorithm" `Quick test_session_algorithms;
    Alcotest.test_case "session copies are independent" `Quick test_session_copy_independent;
    Alcotest.test_case "session on empty profile" `Quick test_session_empty_profile;
    Alcotest.test_case "session components" `Quick test_session_components;
    Alcotest.test_case "analysis session allocation" `Quick test_analysis_session_allocation;
    Alcotest.test_case "the session's validator is Analysis.validate" `Quick
      test_session_validate_is_validate;
    Alcotest.test_case "a clean validate allocates little or nothing" `Quick
      test_validate_allocation;
    Alcotest.test_case "a solve allocates only its result" `Quick test_solve_allocation;
    Alcotest.test_case "cost cache evicts without allocating" `Quick
      test_cost_cache_eviction_allocation;
    QCheck_alcotest.to_alcotest prop_session_equals_choose;
    QCheck_alcotest.to_alcotest prop_session_equals_uncontracted;
    QCheck_alcotest.to_alcotest prop_validate_iff_finite_cut;
    QCheck_alcotest.to_alcotest prop_text_decoder_equals_build;
    Alcotest.test_case "a co-location outside the session joins the client" `Quick
      test_colocation_outside_the_session;
  ]
