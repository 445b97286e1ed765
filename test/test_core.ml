open Coign_util
open Coign_idl
open Coign_com
open Coign_core

let qtest = QCheck_alcotest.to_alcotest

(* --- Shadow stack --------------------------------------------------- *)

let push s i = Shadow_stack.push s ~inst:i ~classification:(10 + i) ~site:(20 + i)

(* Frames from the top down, at most [limit] of them. *)
let walk ?limit s =
  let n = Shadow_stack.depth s in
  List.init (match limit with None -> n | Some k -> min k n) (fun i ->
      (Shadow_stack.inst s i, Shadow_stack.classification s i, Shadow_stack.site s i))

let test_shadow_stack_order () =
  let s = Shadow_stack.create () in
  push s 1;
  push s 2;
  Alcotest.(check int) "depth" 2 (Shadow_stack.depth s);
  Alcotest.(check int) "top" 2 (Shadow_stack.inst s 0);
  Alcotest.(check int) "nth" 1 (Shadow_stack.inst s 1);
  Alcotest.(check (list (triple int int int))) "walk order" [ (2, 12, 22); (1, 11, 21) ] (walk s);
  Alcotest.(check (list (triple int int int))) "limited walk" [ (2, 12, 22) ] (walk ~limit:1 s);
  Alcotest.check_raises "past the bottom" (Invalid_argument "Shadow_stack.site")
    (fun () -> ignore (Shadow_stack.site s 2));
  (* Growth past the initial capacity keeps every column. *)
  for i = 3 to 100 do
    push s i
  done;
  Alcotest.(check (list (triple int int int))) "grown" [ (100, 110, 120); (99, 109, 119) ]
    (walk ~limit:2 s);
  Alcotest.(check (triple int int int)) "bottom after growth" (1, 11, 21)
    (List.nth (walk s) 99);
  for _ = 3 to 100 do
    Shadow_stack.pop s
  done;
  Shadow_stack.pop s;
  Shadow_stack.pop s;
  Alcotest.(check int) "empty" 0 (Shadow_stack.depth s);
  Alcotest.check_raises "empty top" (Invalid_argument "Shadow_stack.inst")
    (fun () -> ignore (Shadow_stack.inst s 0));
  Alcotest.check_raises "underflow" (Invalid_argument "Shadow_stack.pop: empty stack")
    (fun () -> Shadow_stack.pop s)

(* --- Icc ------------------------------------------------------------ *)

let test_icc_record_and_entries () =
  let icc = Icc.create () in
  Icc.record icc ~src:1 ~dst:2 ~iface:"IQuery" ~remotable:true ~request:100 ~reply:50;
  Icc.record icc ~src:1 ~dst:2 ~iface:"IQuery" ~remotable:true ~request:100 ~reply:50;
  Icc.record icc ~src:2 ~dst:1 ~iface:"INotify" ~remotable:false ~request:10 ~reply:10;
  Alcotest.(check int) "calls" 3 (Icc.call_count icc);
  Alcotest.(check int) "bytes" 320 (Icc.total_bytes icc);
  let entries = Icc.entries icc in
  Alcotest.(check int) "two keys" 2 (List.length entries);
  let e = List.find (fun e -> e.Icc.iface = "IQuery") entries in
  Alcotest.(check int) "messages" 4 (Exp_bucket.message_count e.Icc.messages);
  Alcotest.(check bool) "remotable" true e.Icc.remotable;
  let e2 = List.find (fun e -> e.Icc.iface = "INotify") entries in
  Alcotest.(check bool) "non-remotable sticky" false e2.Icc.remotable

let test_icc_merge () =
  let a = Icc.create () and b = Icc.create () in
  Icc.record a ~src:1 ~dst:2 ~iface:"I" ~remotable:true ~request:10 ~reply:10;
  Icc.record b ~src:1 ~dst:2 ~iface:"I" ~remotable:false ~request:20 ~reply:20;
  let m = Icc.merge a b in
  Alcotest.(check int) "calls" 2 (Icc.call_count m);
  Alcotest.(check int) "bytes" 60 (Icc.total_bytes m);
  let e = List.hd (Icc.entries m) in
  Alcotest.(check bool) "non-remotable wins" false e.Icc.remotable

let test_icc_codec_preserves_totals () =
  let icc = Icc.create () in
  Icc.record icc ~src:0 ~dst:3 ~iface:"IQ" ~remotable:true ~request:123 ~reply:17;
  Icc.record icc ~src:0 ~dst:3 ~iface:"IQ" ~remotable:true ~request:124 ~reply:18;
  Icc.record icc ~src:(-1) ~dst:3 ~iface:"IR" ~remotable:false ~request:99_999 ~reply:0;
  let decoded = Icc.decode (Icc.encode icc) in
  Alcotest.(check int) "calls" (Icc.call_count icc) (Icc.call_count decoded);
  Alcotest.(check int) "bytes" (Icc.total_bytes icc) (Icc.total_bytes decoded);
  Alcotest.(check string) "encode fixpoint" (Icc.encode decoded)
    (Icc.encode (Icc.decode (Icc.encode decoded)))

let prop_icc_codec_fixpoint =
  QCheck.Test.make ~name:"icc encode/decode preserves counts and totals" ~count:100
    QCheck.(small_list (triple (int_bound 5) (int_bound 5) (int_bound 100_000)))
    (fun recs ->
      let icc = Icc.create () in
      List.iter
        (fun (src, dst, bytes) ->
          Icc.record icc ~src ~dst ~iface:"I" ~remotable:true ~request:bytes ~reply:(bytes / 2))
        recs;
      let d = Icc.decode (Icc.encode icc) in
      Icc.call_count d = Icc.call_count icc && Icc.total_bytes d = Icc.total_bytes icc)

(* The canonical form: both decoders of the stored text accept what
   [Icc.encode] writes and raise [Icc.Decode_error] on anything else. *)
let canonical_classifier =
  let t = Classifier.create Classifier.St in
  List.iter (fun cname -> ignore (Oracles.classify t ~cname ~stack:[])) [ "A"; "B"; "C" ];
  t

let decoders_agree what text =
  let classifier = canonical_classifier in
  match Icc.decode text with
  | icc ->
      Alcotest.(check bool)
        (what ^ ": graph decoder = build over Icc.decode")
        true
        (Icc_graph.decode ~classifier text = Icc_graph.build ~classifier ~icc);
      icc
  | exception Icc.Decode_error m -> Alcotest.failf "%s: rejected (%s)" what m

let decoders_reject what text =
  let rejects name f =
    match f () with
    | () -> Alcotest.failf "%s: %s accepted non-canonical text" what name
    | exception Icc.Decode_error m ->
        Alcotest.(check bool) (what ^ ": message prefix") true
          (String.starts_with ~prefix:"Icc.decode: " m)
  in
  rejects "Icc.decode" (fun () -> ignore (Icc.decode text));
  rejects "Icc_graph.decode" (fun () ->
      ignore (Icc_graph.decode ~classifier:canonical_classifier text))

let test_icc_canonical_form () =
  let icc = Icc.create () in
  Icc.record icc ~src:0 ~dst:1 ~iface:"IB" ~remotable:true ~request:40 ~reply:10;
  Icc.record icc ~src:0 ~dst:1 ~iface:"IA" ~remotable:false ~request:100 ~reply:3;
  Icc.record icc ~src:(-1) ~dst:2 ~iface:"IA" ~remotable:true ~request:7 ~reply:7;
  let text = Icc.encode icc in
  Alcotest.(check string) "encoded text"
    "calls 3\n\
     -1\t2\tIA\t1\t0\t2\t14\n\
     0\t1\tIA\t0\t0\t1\t3\n\
     0\t1\tIA\t0\t2\t1\t100\n\
     0\t1\tIB\t1\t0\t1\t10\n\
     0\t1\tIB\t1\t1\t1\t40\n"
    text;
  ignore (decoders_agree "encode output" text);
  let lines = String.split_on_char '\n' text in
  let edit f = String.concat "\n" (f (Array.of_list lines) |> Array.to_list) in
  let swap i j a =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x;
    a
  in
  decoders_reject "cells out of order" (edit (swap 1 2));
  decoders_reject "interfaces out of order" (edit (swap 3 4));
  decoders_reject "buckets out of order" (edit (swap 4 5));
  decoders_reject "duplicate (cell, bucket)"
    (edit (fun a ->
         a.(3) <- a.(2);
         a));
  decoders_reject "count 0" "calls 1\n0\t1\tI\t1\t0\t0\t0\n";
  decoders_reject "mean below its bucket" "calls 1\n0\t1\tI\t1\t1\t2\t63\n";
  decoders_reject "mean above its bucket" "calls 1\n0\t1\tI\t1\t0\t2\t63\n";
  decoders_reject "remotable flag changes within a cell"
    (edit (fun a ->
         a.(3) <- "0\t1\tIA\t1\t2\t1\t100";
         a));
  decoders_reject "no calls line" (String.concat "\n" (List.tl lines));
  decoders_reject "blank line" ("calls 3\n\n" ^ String.concat "\n" (List.tl lines));
  decoders_reject "unterminated last line" (String.sub text 0 (String.length text - 1));
  (* The last bucket's upper bound is max_int: its check must not
     overflow. *)
  let lo, _ = Coign_util.Exp_bucket.bucket_bounds 57 in
  ignore
    (decoders_agree "last bucket at max_int"
       (Printf.sprintf "calls 1\n0\t1\tI\t1\t57\t1\t%d\n" max_int));
  ignore
    (decoders_agree "last bucket at its floor"
       (Printf.sprintf "calls 1\n0\t1\tI\t1\t57\t1\t%d\n" lo));
  decoders_reject "last bucket mean below its floor"
    (Printf.sprintf "calls 1\n0\t1\tI\t1\t57\t2\t%d\n" max_int);
  (* A field that is not plain [-]digits reads as int_of_string does. *)
  let hex = decoders_agree "hex byte total" "calls 0x1\n0\t1\tI\t1\t1\t1\t0x20\n" in
  Alcotest.(check string) "hex re-encodes canonically" "calls 1\n0\t1\tI\t1\t1\t1\t32\n"
    (Icc.encode hex);
  ignore (decoders_agree "19 digits" "calls 1000000000000000000\n");
  decoders_reject "19-digit overflow" "calls 9999999999999999999\n"

(* --- Inst_comm ------------------------------------------------------ *)

let test_inst_comm () =
  let m = Inst_comm.create () in
  Inst_comm.record m ~src:1 ~dst:2 ~bytes:100;
  Inst_comm.record m ~src:2 ~dst:1 ~bytes:50;
  Inst_comm.record m ~src:1 ~dst:3 ~bytes:10;
  Alcotest.(check (pair int int)) "pair total" (2, 150) (Inst_comm.pair_total m 1 2);
  Alcotest.(check (pair int int)) "reversed" (2, 150) (Inst_comm.pair_total m 2 1);
  Alcotest.(check int) "messages" 3 (Inst_comm.message_count m);
  Alcotest.(check (list int)) "instances" [ 1; 2; 3 ] (Inst_comm.instances m);
  Alcotest.(check int) "peers of 1" 2 (List.length (Inst_comm.peers m 1))

(* The profiling RTE records every intercepted call into an ICC cell
   and an instance-pair cell; once the cells exist, recording allocates
   nothing. *)
let test_recording_allocation_free () =
  let check what f =
    let w = Harness.words_per_run 1_000 f in
    Alcotest.(check bool) (Printf.sprintf "%s: %.2f words per call" what w) true (w < 1.)
  in
  let icc = Icc.create () in
  let iface = Icc.intern icc "IBack" in
  check "Icc.record_interned" (fun () ->
      Icc.record_interned icc ~src:1 ~dst:2 iface ~remotable:true ~request:64 ~reply:8);
  let m = Inst_comm.create () in
  check "Inst_comm.record_call" (fun () ->
      Inst_comm.record_call m ~caller:3 ~callee:4 ~request:64 ~reply:8)

(* One pass indexes every instance's peers: a self-pair is a single
   entry, each list ascends by peer. *)
let test_inst_comm_peers_index () =
  let m = Inst_comm.create () in
  Inst_comm.record m ~src:4 ~dst:4 ~bytes:7;
  Inst_comm.record_call m ~caller:4 ~callee:2 ~request:10 ~reply:5;
  Inst_comm.record m ~src:9 ~dst:2 ~bytes:1;
  let peers = Inst_comm.peers m in
  let check what expected inst =
    Alcotest.(check (list (triple int int int))) what expected (peers inst)
  in
  check "self-pair once" [ (2, 2, 15); (4, 1, 7) ] 4;
  check "both directions" [ (4, 2, 15); (9, 1, 1) ] 2;
  check "one message" [ (2, 1, 1) ] 9;
  check "silent instance" [] 5

(* --- Comm_vector ---------------------------------------------------- *)

let price ~count ~bytes = float_of_int count +. (float_of_int bytes /. 100.)

let mk_run pairs classify =
  let comm = Inst_comm.create () in
  List.iter (fun (src, dst, bytes) -> Inst_comm.record comm ~src ~dst ~bytes) pairs;
  {
    Comm_vector.classification_of = classify;
    comm;
    run_instances = Inst_comm.instances comm;
  }

let test_comm_vector_shape () =
  (* instance 1 talks to instance 2 (classification 0). *)
  let run = mk_run [ (1, 2, 200) ] (fun i -> if i = 2 then 0 else 1) in
  (* Instance 1 is its classification's only instance, so that
     classification's profile is its vector. *)
  let v = Hashtbl.find (Comm_vector.classification_profiles ~runs:[ run ] ~dims:2 ~price) 1 in
  Alcotest.(check int) "dims+1" 3 (Array.length v);
  Alcotest.(check (float 1e-9)) "slot 0" (price ~count:1 ~bytes:200) v.(0);
  Alcotest.(check (float 1e-9)) "slot 1 empty" 0. v.(1)

let test_comm_vector_correlation_perfect () =
  let classify i = i mod 3 in
  let run1 = mk_run [ (1, 2, 100); (1, 3, 50) ] classify in
  let profiles = Comm_vector.classification_profiles ~runs:[ run1 ] ~dims:3 ~price in
  let corr = Comm_vector.average_correlation ~profiles ~test:run1 ~dims:3 ~price in
  Alcotest.(check (float 1e-9)) "self correlation" 1. corr

let test_comm_vector_unseen_classification () =
  let run1 = mk_run [ (1, 2, 100) ] (fun _ -> 0) in
  let profiles = Comm_vector.classification_profiles ~runs:[ run1 ] ~dims:1 ~price in
  (* test run maps instances to classification 5, which has no profile *)
  let test = mk_run [ (1, 2, 100) ] (fun _ -> 5) in
  Alcotest.(check (float 1e-9)) "zero for unseen" 0.
    (Comm_vector.average_correlation ~profiles ~test ~dims:1 ~price)

(* --- Logger --------------------------------------------------------- *)

let call_event ?(remotable = true) ~caller ~callee ~req ~rep () =
  Event.Interface_call
    {
      caller;
      caller_classification = caller * 10;
      callee;
      callee_classification = callee * 10;
      iface = "I";
      meth = "m";
      remotable;
      request_bytes = req;
      reply_bytes = rep;
    }

let test_profiling_logger () =
  let icc = Icc.create () and inst_comm = Inst_comm.create () in
  let logger = Oracles.profiling_logger ~icc ~inst_comm in
  logger (call_event ~caller:1 ~callee:2 ~req:100 ~rep:20 ());
  logger (Event.Component_instantiated { inst = 3; cname = "X"; classification = 1; creator = 0 });
  Alcotest.(check int) "icc calls" 1 (Icc.call_count icc);
  Alcotest.(check (pair int int)) "inst comm both directions" (2, 120)
    (Inst_comm.pair_total inst_comm 1 2)

let test_event_recorder () =
  let logger, events = Coign_obs.Sink.collector () in
  logger (Event.Component_instantiated { inst = 5; cname = "X"; classification = 0; creator = 0 });
  logger (call_event ~caller:1 ~callee:2 ~req:1 ~rep:1 ());
  Alcotest.(check int) "recorded" 2 (List.length (events ()));
  match events () with
  | Event.Component_instantiated { inst; _ } :: _ -> Alcotest.(check int) "order" 5 inst
  | _ -> Alcotest.fail "wrong order"

(* --- Informer ------------------------------------------------------- *)

let i_mixed =
  Itype.declare "IMixed"
    [
      Idl_type.method_ ~ret:(Idl_type.Iface "IOut") "m"
        [
          Idl_type.param "inp" Idl_type.Blob;
          Idl_type.param ~dir:Idl_type.Out "outp" Idl_type.Str;
          Idl_type.param ~dir:Idl_type.In_out "io" (Idl_type.Iface "IPeer");
        ];
    ]

let i_opaque =
  Itype.declare "IOpaqueTest" [ Idl_type.method_ "m" [ Idl_type.param "p" (Idl_type.Opaque "SHM") ] ]

let test_informer_measures () =
  let ins = [ Value.Blob 100; Value.Str ""; Value.Iface_ref 7 ] in
  let outs = [ Value.Blob 100; Value.Str "result"; Value.Iface_ref 8 ] in
  let sizes = Informer.measure_call i_mixed ~meth:0 ~ins ~outs ~ret:(Value.Iface_ref 9) in
  Alcotest.(check bool) "remotable" true (Informer.remotable sizes);
  Alcotest.(check int) "request"
    (Coign_idl.Marshal_size.scalar_overhead + 104 + Coign_idl.Marshal_size.objref_size)
    (Informer.request_bytes sizes);
  Alcotest.(check int) "reply"
    (Coign_idl.Marshal_size.scalar_overhead + 10 + (2 * Coign_idl.Marshal_size.objref_size))
    (Informer.reply_bytes sizes)

let test_informer_non_remotable () =
  let sizes =
    Informer.measure_call i_opaque ~meth:0 ~ins:[ Value.Opaque_handle "SHM" ]
      ~outs:[ Value.Opaque_handle "SHM" ] ~ret:Value.Unit
  in
  Alcotest.(check bool) "flagged" false (Informer.remotable sizes);
  Alcotest.(check int) "zero request" 0 (Informer.request_bytes sizes)

let test_informer_handles () =
  let ins = [ Value.Blob 1; Value.Str ""; Value.Iface_ref 7 ] in
  let outs = [ Value.Blob 1; Value.Str "x"; Value.Iface_ref 8 ] in
  (* The handles the walk visits, ascending. *)
  let handles slots ret =
    let seen = ref [] in
    ignore
      (Informer.map_handles i_mixed ~meth:0
         (fun seen h ->
           seen := h :: !seen;
           h)
         seen ~outs:slots ret);
    List.sort compare !seen
  in
  Alcotest.(check (list int)) "incoming" [ 7 ] (handles ins Value.Unit);
  Alcotest.(check (list int)) "outgoing" [ 8; 9 ] (handles outs (Value.Iface_ref 9));
  let ret = Value.Iface_ref 9 in
  Alcotest.(check bool) "identity returns the return value itself" true
    (Informer.map_handles i_mixed ~meth:0 (fun () h -> h) () ~outs ret == ret);
  Alcotest.(check bool) "mapped return value" true
    (Informer.map_handles i_mixed ~meth:0 (fun () h -> h + 100) () ~outs ret
    = Value.Iface_ref 109)

(* --- Constraints / static analysis ---------------------------------- *)

let test_static_analysis () =
  Alcotest.(check bool) "gui" true (Static_analysis.classify_api "user32.CreateWindowExW" = Static_analysis.Gui);
  Alcotest.(check bool) "storage exact" true
    (Static_analysis.classify_api "kernel32.ReadFile" = Static_analysis.Storage);
  Alcotest.(check bool) "odbc prefix" true
    (Static_analysis.classify_api "odbc32.SQLExecDirect" = Static_analysis.Storage);
  Alcotest.(check bool) "neutral" true
    (Static_analysis.classify_api "kernel32.VirtualAlloc" = Static_analysis.Neutral);
  Alcotest.(check bool) "gui wins" true
    (Static_analysis.class_verdict [ "kernel32.ReadFile"; "gdi32.BitBlt" ]
    = Static_analysis.Pin_client);
  Alcotest.(check bool) "storage only" true
    (Static_analysis.class_verdict [ "kernel32.ReadFile" ] = Static_analysis.Pin_server);
  Alcotest.(check bool) "free" true (Static_analysis.class_verdict [] = Static_analysis.Free)

let test_constraints_merge_conflict () =
  let a = Constraints.pin_class Constraints.empty ~cname:"X" Constraints.Client in
  let b = Constraints.pin_class Constraints.empty ~cname:"X" Constraints.Server in
  Alcotest.(check bool) "conflict raises" true
    (try
       ignore (Constraints.merge a b);
       false
     with Invalid_argument _ -> true);
  let ok = Constraints.merge a (Constraints.pin_class Constraints.empty ~cname:"Y" Constraints.Server) in
  Alcotest.(check (option bool)) "x client" (Some true)
    (Option.map (fun l -> l = Constraints.Client) (Constraints.class_pin ok ~cname:"X"))

let test_constraints_colocate_dedup () =
  let c = Constraints.colocate (Constraints.colocate Constraints.empty 3 1) 1 3 in
  Alcotest.(check (list (pair int int))) "normalized dedup" [ (1, 3) ]
    (Constraints.colocated_pairs c);
  Alcotest.(check (list (pair int int))) "self ignored" [ (1, 3) ]
    (Constraints.colocated_pairs (Constraints.colocate c 2 2))

let test_constraints_of_image () =
  let img =
    Coign_image.Binary_image.create ~name:"x"
      ~api_refs:
        [ ("Gui.Thing", [ "user32.GetDC" ]); ("Store.Thing", [ "kernel32.CreateFile" ]);
          ("Free.Thing", []) ]
      ()
  in
  let c = Constraints.of_image img in
  Alcotest.(check (option bool)) "gui pinned client" (Some true)
    (Option.map (fun l -> l = Constraints.Client) (Constraints.class_pin c ~cname:"Gui.Thing"));
  Alcotest.(check (option bool)) "storage pinned server" (Some true)
    (Option.map (fun l -> l = Constraints.Server) (Constraints.class_pin c ~cname:"Store.Thing"));
  Alcotest.(check (option bool)) "free unpinned" None
    (Option.map (fun l -> l = Constraints.Client) (Constraints.class_pin c ~cname:"Free.Thing"))

(* --- Drift signatures ----------------------------------------------- *)

let test_drift_similarity_hand_computed () =
  (* cos(a, b) = a·b / (|a||b|), computed by hand for small vectors. *)
  let sig_of l = Drift.of_counts l in
  let a = sig_of [ ((0, 1), 3); ((1, 2), 4) ] in
  Alcotest.(check (float 1e-12)) "identical" 1. (Drift.similarity a a);
  let scaled = sig_of [ ((0, 1), 30); ((1, 2), 40) ] in
  Alcotest.(check (float 1e-12)) "scale invariant" 1. (Drift.similarity a scaled);
  let orthogonal = sig_of [ ((2, 3), 7) ] in
  Alcotest.(check (float 1e-12)) "disjoint pairs" 0. (Drift.similarity a orthogonal);
  (* (3,4)·(4,3) / 25 = 24/25 *)
  let b = sig_of [ ((0, 1), 4); ((1, 2), 3) ] in
  Alcotest.(check (float 1e-12)) "24/25" 0.96 (Drift.similarity a b);
  (* (1,0)·(1,1) / (1·sqrt 2) = 1/sqrt 2 *)
  let unit = sig_of [ ((0, 1), 1) ] in
  let diag = sig_of [ ((0, 1), 1); ((1, 2), 1) ] in
  Alcotest.(check (float 1e-12)) "1/sqrt2" (1. /. sqrt 2.) (Drift.similarity unit diag);
  Alcotest.(check (float 1e-12)) "both empty" 1. (Drift.similarity (sig_of []) (sig_of []));
  Alcotest.(check (float 1e-12)) "empty vs non-empty" 0. (Drift.similarity (sig_of []) a);
  Alcotest.(check bool) "drifted below threshold" true
    (Drift.drifted ~threshold:0.97 ~profile:a b);
  Alcotest.(check bool) "not drifted above threshold" false
    (Drift.drifted ~threshold:0.95 ~profile:a b)

let gen_signature =
  QCheck.Gen.(
    list_size (int_bound 12)
      (pair (pair (int_bound 6) (int_bound 6)) (int_range 1 1000))
    >|= Drift.of_counts)

let arb_signature =
  QCheck.make
    ~print:(fun s ->
      String.concat ";"
        (List.map
           (fun ((a, b), w) -> Printf.sprintf "(%d,%d)=%g" a b w)
           (Drift.entries s)))
    gen_signature

let qcheck_drift_symmetric =
  QCheck.Test.make ~name:"drift similarity is symmetric" ~count:300
    (QCheck.pair arb_signature arb_signature)
    (fun (a, b) -> Float.abs (Drift.similarity a b -. Drift.similarity b a) < 1e-12)

let qcheck_drift_unit_interval =
  QCheck.Test.make ~name:"drift similarity lies in [0,1], self = 1" ~count:300
    (QCheck.pair arb_signature arb_signature)
    (fun (a, b) ->
      let s = Drift.similarity a b in
      s >= 0. && s <= 1. +. 1e-12
      && (Drift.pair_count a = 0 || Float.abs (Drift.similarity a a -. 1.) < 1e-12))

let suite =
  [
    Alcotest.test_case "shadow stack order" `Quick test_shadow_stack_order;
    Alcotest.test_case "icc record/entries" `Quick test_icc_record_and_entries;
    Alcotest.test_case "icc merge" `Quick test_icc_merge;
    Alcotest.test_case "icc codec preserves totals" `Quick test_icc_codec_preserves_totals;
    Alcotest.test_case "icc canonical form" `Quick test_icc_canonical_form;
    qtest prop_icc_codec_fixpoint;
    Alcotest.test_case "inst comm" `Quick test_inst_comm;
    Alcotest.test_case "recording allocation-free" `Quick test_recording_allocation_free;
    Alcotest.test_case "comm vector shape" `Quick test_comm_vector_shape;
    Alcotest.test_case "comm vector self correlation" `Quick test_comm_vector_correlation_perfect;
    Alcotest.test_case "comm vector unseen classification" `Quick
      test_comm_vector_unseen_classification;
    Alcotest.test_case "profiling logger" `Quick test_profiling_logger;
    Alcotest.test_case "event recorder" `Quick test_event_recorder;
    Alcotest.test_case "informer measures" `Quick test_informer_measures;
    Alcotest.test_case "informer non-remotable" `Quick test_informer_non_remotable;
    Alcotest.test_case "informer handles" `Quick test_informer_handles;
    Alcotest.test_case "static analysis" `Quick test_static_analysis;
    Alcotest.test_case "constraints merge conflict" `Quick test_constraints_merge_conflict;
    Alcotest.test_case "constraints colocate dedup" `Quick test_constraints_colocate_dedup;
    Alcotest.test_case "constraints of image" `Quick test_constraints_of_image;
    Alcotest.test_case "drift similarity hand computed" `Quick
      test_drift_similarity_hand_computed;
    qtest qcheck_drift_symmetric;
    qtest qcheck_drift_unit_interval;
    Alcotest.test_case "inst comm peers index" `Quick test_inst_comm_peers_index;
  ]
