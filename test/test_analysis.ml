open Coign_netsim
open Coign_core

(* Build a classifier with n synthetic classifications, one per class
   name given. *)
let classifier_with classes =
  let t = Classifier.create Classifier.St in
  List.iter (fun cname -> ignore (Classifier.classify t ~cname ~stack:[])) classes;
  t

let exact_net = Net_profiler.exact Network.ethernet_10

let choose ?extra ~classes ~records () =
  let classifier = classifier_with classes in
  let icc = Icc.create () in
  List.iter
    (fun (src, dst, iface, remotable, request, reply) ->
      Icc.record icc ~src ~dst ~iface ~remotable ~request ~reply)
    records;
  let constraints = Option.value ~default:Constraints.empty extra in
  (Analysis.choose ~classifier ~icc ~constraints ~net:exact_net (), icc)

let test_pinned_classes_respected () =
  (* 0=Gui (client pin), 1=Store (server pin), 2=Free chats with both. *)
  let constraints =
    Constraints.pin_class
      (Constraints.pin_class Constraints.empty ~cname:"Gui" Constraints.Client)
      ~cname:"Store" Constraints.Server
  in
  let d, _ =
    choose ~extra:constraints ~classes:[ "Gui"; "Store"; "Free" ]
      ~records:
        [
          (0, 2, "I", true, 1_000, 1_000);
          (2, 1, "I", true, 500_000, 500_000);
        ]
      ()
  in
  Alcotest.(check bool) "gui on client" true (Analysis.location_of d 0 = Constraints.Client);
  Alcotest.(check bool) "store on server" true (Analysis.location_of d 1 = Constraints.Server);
  (* Free talks much more to the store: it must follow it. *)
  Alcotest.(check bool) "free follows traffic" true
    (Analysis.location_of d 2 = Constraints.Server)

let test_non_remotable_colocated () =
  let constraints =
    Constraints.pin_class
      (Constraints.pin_class Constraints.empty ~cname:"Gui" Constraints.Client)
      ~cname:"Store" Constraints.Server
  in
  (* Free is glued to Gui by a non-remotable interface even though its
     remotable traffic pulls it to the server. *)
  let d, _ =
    choose ~extra:constraints ~classes:[ "Gui"; "Store"; "Free" ]
      ~records:
        [
          (0, 2, "IPaint", false, 0, 0);
          (2, 1, "I", true, 900_000, 900_000);
        ]
      ()
  in
  Alcotest.(check bool) "free stays with gui" true
    (Analysis.location_of d 2 = Constraints.Client)

let test_pairwise_constraint () =
  let constraints =
    Constraints.colocate
      (Constraints.pin_class
         (Constraints.pin_class Constraints.empty ~cname:"Gui" Constraints.Client)
         ~cname:"Store" Constraints.Server)
      1 2
  in
  let d, _ =
    choose ~extra:constraints ~classes:[ "Gui"; "Store"; "Free" ]
      ~records:[ (0, 2, "I", true, 100, 100) ]
      ()
  in
  (* Classification 2 would drift to the client (its only traffic is
     with Gui) but the pair-wise constraint ties it to Store. *)
  Alcotest.(check bool) "pairwise honored" true
    (Analysis.location_of d 2 = Analysis.location_of d 1)

let test_absolute_classification_pin () =
  let constraints =
    Constraints.pin_classification
      (Constraints.pin_class Constraints.empty ~cname:"Gui" Constraints.Client)
      1 Constraints.Server
  in
  let d, _ =
    choose ~extra:constraints ~classes:[ "Gui"; "Free" ]
      ~records:[ (0, 1, "I", true, 100, 100) ]
      ()
  in
  Alcotest.(check bool) "explicit pin wins over traffic" true
    (Analysis.location_of d 1 = Constraints.Server)

let test_idle_classifications_default_client () =
  let d, _ = choose ~classes:[ "A"; "B" ] ~records:[] () in
  Alcotest.(check int) "nothing on server" 0 d.Analysis.server_count;
  Alcotest.(check bool) "out of range is client" true
    (Analysis.location_of d 99 = Constraints.Client);
  Alcotest.(check bool) "main is client" true (Analysis.location_of d (-1) = Constraints.Client)

let test_predicted_comm_consistency () =
  let constraints =
    Constraints.pin_class Constraints.empty ~cname:"Store" Constraints.Server
  in
  let d, icc =
    choose ~extra:constraints ~classes:[ "Store"; "Mid"; "Leaf" ]
      ~records:
        [
          (0, 1, "I", true, 10_000, 10_000);
          (1, 2, "I", true, 200_000, 200_000);
          (-1, 2, "I", true, 5_000, 5_000);
        ]
      ()
  in
  let placement c = Analysis.location_of d c in
  Alcotest.(check (float 1.)) "predicted equals recomputed" d.Analysis.predicted_comm_us
    (Analysis.comm_time_under ~icc ~net:exact_net ~placement)

let test_cut_is_minimal_vs_alternatives () =
  let constraints =
    Constraints.pin_class
      (Constraints.pin_class Constraints.empty ~cname:"Gui" Constraints.Client)
      ~cname:"Store" Constraints.Server
  in
  let d, icc =
    choose ~extra:constraints ~classes:[ "Gui"; "Store"; "M1"; "M2" ]
      ~records:
        [
          (0, 2, "I", true, 40_000, 0);
          (2, 3, "I", true, 80_000, 0);
          (3, 1, "I", true, 20_000, 0);
        ]
      ()
  in
  (* Exhaustively check no other placement of M1/M2 is cheaper. *)
  let best = ref infinity in
  List.iter
    (fun (m1, m2) ->
      let placement c =
        match c with
        | 0 -> Constraints.Client
        | 1 -> Constraints.Server
        | 2 -> m1
        | 3 -> m2
        | _ -> Constraints.Client
      in
      let cost = Analysis.comm_time_under ~icc ~net:exact_net ~placement in
      if cost < !best then best := cost)
    [
      (Constraints.Client, Constraints.Client);
      (Constraints.Client, Constraints.Server);
      (Constraints.Server, Constraints.Client);
      (Constraints.Server, Constraints.Server);
    ];
  Alcotest.(check (float 1.)) "min cut optimal" !best d.Analysis.predicted_comm_us

(* The engine's cut (push-relabel on the session's quotient arena)
   against the augmenting-path reference on the same graph built by
   hand: one node per classification plus client (4) and server (5),
   each pair priced as the engine prices it, pins as infinite edges. *)
let test_algorithms_agree_on_placement_cost () =
  let module G = Coign_flowgraph.Flow_network in
  let records =
    [
      (0, 1, "I", true, 12_000, 3_000);
      (1, 2, "I", true, 7_000, 7_000);
      (2, 3, "I", true, 50_000, 1_000);
      (0, 3, "I", true, 2_000, 2_000);
    ]
  in
  let constraints =
    Constraints.pin_class
      (Constraints.pin_class Constraints.empty ~cname:"C0" Constraints.Client)
      ~cname:"C3" Constraints.Server
  in
  let d, icc = choose ~extra:constraints ~classes:[ "C0"; "C1"; "C2"; "C3" ] ~records () in
  let edges =
    [ (0, 4, G.infinity_cap); (4, 0, G.infinity_cap); (3, 5, G.infinity_cap); (5, 3, G.infinity_cap) ]
    @ List.concat_map
        (fun (e : Icc.entry) ->
          let ns = int_of_float (Float.round (Analysis.price_entry exact_net e *. 1000.)) in
          [ (e.Icc.src, e.Icc.dst, ns); (e.Icc.dst, e.Icc.src, ns) ])
        (Icc.entries icc)
  in
  let g, _ = Harness.of_edges ~n:6 (Array.of_list edges) in
  Alcotest.(check int) "same cut value"
    (Coign_flowgraph.Mincut.augmenting_path_min_cut g ~s:4 ~t:5).Coign_flowgraph.Mincut.value
    d.Analysis.cut_ns

let test_distribution_codec () =
  let d, _ =
    choose
      ~extra:(Constraints.pin_class Constraints.empty ~cname:"S" Constraints.Server)
      ~classes:[ "S"; "A"; "B" ]
      ~records:[ (1, 0, "I", true, 100_000, 100_000) ]
      ()
  in
  let d' = Analysis.decode (Analysis.encode d) in
  Alcotest.(check int) "nodes" d.Analysis.node_count d'.Analysis.node_count;
  Alcotest.(check int) "server count" d.Analysis.server_count d'.Analysis.server_count;
  for c = 0 to d.Analysis.node_count - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "placement %d" c)
      true
      (Analysis.location_of d c = Analysis.location_of d' c)
  done

(* One solver writes one tag: a stored distribution naming any other
   solver, the retired "ek" and "dinic" included, is malformed. *)
let test_decode_rejects_other_tags () =
  let d, _ = choose ~classes:[ "A"; "B" ] ~records:[ (0, 1, "I", true, 1_000, 1_000) ] () in
  let s = Analysis.encode d in
  let nl = String.index s '\n' in
  let header = String.sub s 0 nl and body = String.sub s nl (String.length s - nl) in
  Alcotest.(check string) "encode writes rtf" "rtf"
    (List.nth (String.split_on_char ' ' header) 3);
  List.iter
    (fun tag ->
      let retagged = String.sub header 0 (String.rindex header ' ' + 1) ^ tag ^ body in
      Alcotest.check_raises tag
        (Analysis.Decode_error ("Analysis.decode: unknown algorithm " ^ tag))
        (fun () -> ignore (Analysis.decode retagged)))
    [ "ek"; "dinic"; "RTF"; "rtf0"; "" ]

let test_price_entry_uses_bucket_means () =
  let icc = Icc.create () in
  Icc.record icc ~src:0 ~dst:1 ~iface:"I" ~remotable:true ~request:1_000 ~reply:1_000;
  let e = List.hd (Icc.entries icc) in
  let expected = 2. *. Net_profiler.predict_us exact_net ~bytes:1_000 in
  Alcotest.(check (float 0.5)) "two messages priced" expected (Analysis.price_entry exact_net e)

let suite =
  [
    Alcotest.test_case "pinned classes respected" `Quick test_pinned_classes_respected;
    Alcotest.test_case "non-remotable colocated" `Quick test_non_remotable_colocated;
    Alcotest.test_case "pairwise constraint" `Quick test_pairwise_constraint;
    Alcotest.test_case "absolute classification pin" `Quick test_absolute_classification_pin;
    Alcotest.test_case "idle classifications default client" `Quick
      test_idle_classifications_default_client;
    Alcotest.test_case "predicted comm consistency" `Quick test_predicted_comm_consistency;
    Alcotest.test_case "cut minimal vs alternatives" `Quick test_cut_is_minimal_vs_alternatives;
    Alcotest.test_case "algorithms agree" `Quick test_algorithms_agree_on_placement_cost;
    Alcotest.test_case "distribution codec" `Quick test_distribution_codec;
    Alcotest.test_case "decode accepts only the rtf tag" `Quick test_decode_rejects_other_tags;
    Alcotest.test_case "price entry uses bucket means" `Quick test_price_entry_uses_bucket_means;
  ]

(* --- Randomized optimality ------------------------------------------ *)

(* For small random ICC graphs, the engine's cut must be optimal among
   every placement that satisfies the constraints. *)
let gen_instance =
  QCheck.Gen.(
    int_range 3 7 >>= fun n ->
    list_size (int_range 1 12)
      (triple (int_range (-1) (n - 1)) (int_range 0 (n - 1)) (int_range 0 60_000))
    >>= fun records ->
    (* Pin up to two classifications each way. *)
    int_range 0 (n - 1) >>= fun pin_client ->
    int_range 0 (n - 1) >>= fun pin_server ->
    (* Mark some records non-remotable. *)
    list_size (int_range 0 2) (int_range 0 (max 0 (List.length records - 1)))
    >>= fun nonremote_idx -> return (n, records, pin_client, pin_server, nonremote_idx))

let arb_instance =
  QCheck.make
    ~print:(fun (n, records, pc, ps, nr) ->
      Printf.sprintf "n=%d pinC=%d pinS=%d nonremote=%s records=%s" n pc ps
        (String.concat "," (List.map string_of_int nr))
        (String.concat ";"
           (List.map (fun (a, b, s) -> Printf.sprintf "%d->%d:%d" a b s) records)))
    gen_instance

let prop_cut_optimal =
  QCheck.Test.make ~name:"engine cut optimal among all legal placements" ~count:150
    arb_instance
    (fun (n, records, pin_client, pin_server, nonremote_idx) ->
      QCheck.assume (pin_client <> pin_server);
      (* Skip unsatisfiable instances: a chain of non-remotable edges
         connecting the two opposite pins leaves no legal placement at
         all (the application simply cannot be distributed). *)
      let parent = Array.init (n + 1) Fun.id in
      (* Node n stands for the main program, implicitly on the client. *)
      let rec find x = if parent.(x) = x then x else find parent.(x) in
      List.iteri
        (fun i (src, dst, _) ->
          if List.mem i nonremote_idx && src <> dst then
            parent.(find (if src < 0 then n else src)) <- find dst)
        records;
      QCheck.assume (find pin_client <> find pin_server);
      QCheck.assume (find n <> find pin_server);
      let classes = List.init n (fun i -> Printf.sprintf "K%d" i) in
      let classifier = classifier_with classes in
      let icc = Icc.create () in
      List.iteri
        (fun i (src, dst, size) ->
          if src <> dst then
            Icc.record icc ~src ~dst ~iface:(Printf.sprintf "I%d" (i mod 3))
              ~remotable:(not (List.mem i nonremote_idx))
              ~request:size ~reply:(size / 3))
        records;
      let constraints =
        Constraints.pin_classification
          (Constraints.pin_classification Constraints.empty pin_client Constraints.Client)
          pin_server Constraints.Server
      in
      let d = Analysis.choose ~classifier ~icc ~constraints ~net:exact_net () in
      (* The engine must satisfy the constraints outright. *)
      let ok_constraints =
        Analysis.location_of d pin_client = Constraints.Client
        && Analysis.location_of d pin_server = Constraints.Server
      in
      (* Enumerate every placement honoring pins and non-remotable
         co-location; the engine's cost must be <= all of them. *)
      let entries = Icc.entries icc in
      let side mask c = if c < 0 then 0 else (mask lsr c) land 1 in
      let legal mask =
        side mask pin_client = 0
        && side mask pin_server = 1
        && List.for_all
             (fun (e : Icc.entry) ->
               e.Icc.remotable || side mask e.Icc.src = side mask e.Icc.dst)
             entries
      in
      let cost mask =
        let placement c =
          if c < 0 then Constraints.Client
          else if (mask lsr c) land 1 = 1 then Constraints.Server
          else Constraints.Client
        in
        Analysis.comm_time_under ~icc ~net:exact_net ~placement
      in
      let best = ref infinity in
      for mask = 0 to (1 lsl n) - 1 do
        if legal mask then best := Float.min !best (cost mask)
      done;
      ok_constraints && d.Analysis.predicted_comm_us <= !best +. 1e-6)

(* --- Decoding never escapes its error contract ------------------------ *)

(* A stored distribution is read back from an image the user hands the
   CLI, so every corruption must end in a decoded value or a typed
   Decode_error, never Invalid_argument or Failure. *)
let arb_distribution =
  QCheck.make
    ~print:(fun d -> String.escaped (Analysis.encode d))
    QCheck.Gen.(
      array_size (int_range 0 24) bool >>= fun sides ->
      int_range 0 10_000_000 >>= fun cut_ns ->
      float_range 0. 1e7 >>= fun comm ->
      let placement =
        Array.map (fun s -> if s then Constraints.Server else Constraints.Client) sides
      in
      return
        {
          Analysis.placement;
          cut_ns;
          predicted_comm_us = comm;
          server_count = Array.fold_left (fun n s -> if s then n + 1 else n) 0 sides;
          node_count = Array.length sides;
        })

let prop_distribution_bit_flips =
  QCheck.Test.make ~name:"every bit flip of a distribution decodes or raises Decode_error"
    ~count:100 arb_distribution (fun d ->
      let s = Analysis.encode d in
      for i = 0 to (String.length s * 8) - 1 do
        let b = Bytes.of_string s in
        Bytes.set b (i / 8) (Char.chr (Char.code s.[i / 8] lxor (1 lsl (i mod 8))));
        match Analysis.decode (Bytes.to_string b) with
        | _ | (exception Analysis.Decode_error _) -> ()
        | exception e -> QCheck.Test.fail_reportf "bit %d: %s" i (Printexc.to_string e)
      done;
      true)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_cut_optimal;
      QCheck_alcotest.to_alcotest prop_distribution_bit_flips;
    ]
