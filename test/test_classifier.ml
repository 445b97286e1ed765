open Coign_core

let qtest = QCheck_alcotest.to_alcotest

(* The program of paper Figure 3:
     A::V() { a->W() }    A::W() { b1->X() }   B::X() { b2->Y() }
     B::Y() { c->Z() }    C::Z() { CoCreateInstance(D) }
   Stack at the instantiation of D, most recent first. *)
let figure3_stack ~ca ~cb1 ~cb2 ~cc =
  [
    Frame.make ~inst:4 ~cls:"C" ~classification:cc ~iface:"IC" ~meth:"Z";
    Frame.make ~inst:3 ~cls:"B" ~classification:cb2 ~iface:"IB" ~meth:"Y";
    Frame.make ~inst:2 ~cls:"B" ~classification:cb1 ~iface:"IB" ~meth:"X";
    Frame.make ~inst:1 ~cls:"A" ~classification:ca ~iface:"IA" ~meth:"W";
    Frame.make ~inst:1 ~cls:"A" ~classification:ca ~iface:"IA" ~meth:"V";
  ]

let stack = figure3_stack ~ca:10 ~cb1:11 ~cb2:12 ~cc:13

let desc kind = Classifier.descriptor (Classifier.create kind) ~cname:"D" ~stack

let test_figure3_descriptors () =
  Alcotest.(check string) "incremental" "[0]" (desc Classifier.Incremental);
  Alcotest.(check string) "st" "[D]" (desc Classifier.St);
  Alcotest.(check string) "pcb" "[D, C::Z, B::Y, B::X, A::W, A::V]" (desc Classifier.Pcb);
  Alcotest.(check string) "stcb" "[D, C, B, B, A]" (desc Classifier.Stcb);
  Alcotest.(check string) "ifcb" "[D, [c13,Z], [c12,Y], [c11,X], [c10,W], [c10,V]]"
    (desc Classifier.Ifcb);
  (* EPCB keeps only the frame through which control entered instance a
     (method V), dropping A::W. *)
  Alcotest.(check string) "epcb" "[D, [c13,Z], [c12,Y], [c11,X], [c10,V]]"
    (desc Classifier.Epcb);
  Alcotest.(check string) "ib" "[D, c13]" (desc Classifier.Ib)

let test_incremental_orders () =
  let t = Classifier.create Classifier.Incremental in
  let c1 = Classifier.classify t ~cname:"D" ~stack in
  let c2 = Classifier.classify t ~cname:"D" ~stack in
  Alcotest.(check bool) "distinct" true (c1 <> c2)

let test_ifcb_groups_equal_contexts () =
  let t = Classifier.create Classifier.Ifcb in
  let c1 = Classifier.classify t ~cname:"D" ~stack in
  let c2 = Classifier.classify t ~cname:"D" ~stack in
  Alcotest.(check int) "same classification" c1 c2;
  Alcotest.(check int) "two instances counted" 2 (Classifier.instances_of t c1);
  let c3 = Classifier.classify t ~cname:"E" ~stack in
  Alcotest.(check bool) "different class differs" true (c3 <> c1)

let test_stack_depth_limits () =
  let shallow = Classifier.create ~stack_depth:1 Classifier.Ifcb in
  Alcotest.(check string) "depth 1" "[D, [c13,Z]]"
    (Classifier.descriptor shallow ~cname:"D" ~stack);
  let mid = Classifier.create ~stack_depth:3 Classifier.Ifcb in
  Alcotest.(check string) "depth 3" "[D, [c13,Z], [c12,Y], [c11,X]]"
    (Classifier.descriptor mid ~cname:"D" ~stack)

let test_depth_merges_contexts () =
  (* Two stacks differing only in the 2nd frame merge at depth 1. *)
  let s1 = stack in
  let s2 = figure3_stack ~ca:10 ~cb1:11 ~cb2:99 ~cc:13 in
  let t1 = Classifier.create ~stack_depth:1 Classifier.Ifcb in
  Alcotest.(check int) "merged at depth 1"
    (Classifier.classify t1 ~cname:"D" ~stack:s1)
    (Classifier.classify t1 ~cname:"D" ~stack:s2);
  let t2 = Classifier.create ~stack_depth:2 Classifier.Ifcb in
  Alcotest.(check bool) "separated at depth 2" true
    (Classifier.classify t2 ~cname:"D" ~stack:s1
    <> Classifier.classify t2 ~cname:"D" ~stack:s2)

let test_epcb_merges_internal_paths () =
  (* Entered via V, created from W vs created from V directly: IFCB
     distinguishes, EPCB does not. *)
  let via_w =
    [
      Frame.make ~inst:1 ~cls:"A" ~classification:10 ~iface:"IA" ~meth:"W";
      Frame.make ~inst:1 ~cls:"A" ~classification:10 ~iface:"IA" ~meth:"V";
    ]
  in
  let direct = [ Frame.make ~inst:1 ~cls:"A" ~classification:10 ~iface:"IA" ~meth:"V" ] in
  let ifcb = Classifier.create Classifier.Ifcb in
  Alcotest.(check bool) "ifcb distinguishes" true
    (Classifier.classify ifcb ~cname:"D" ~stack:via_w
    <> Classifier.classify ifcb ~cname:"D" ~stack:direct);
  let epcb = Classifier.create Classifier.Epcb in
  Alcotest.(check int) "epcb merges"
    (Classifier.classify epcb ~cname:"D" ~stack:via_w)
    (Classifier.classify epcb ~cname:"D" ~stack:direct)

let test_pcb_ignores_instances () =
  (* Same class::method chain through different instances. *)
  let s1 = figure3_stack ~ca:10 ~cb1:11 ~cb2:12 ~cc:13 in
  let s2 = figure3_stack ~ca:20 ~cb1:21 ~cb2:22 ~cc:23 in
  let pcb = Classifier.create Classifier.Pcb in
  Alcotest.(check int) "pcb merges"
    (Classifier.classify pcb ~cname:"D" ~stack:s1)
    (Classifier.classify pcb ~cname:"D" ~stack:s2);
  let ifcb = Classifier.create Classifier.Ifcb in
  Alcotest.(check bool) "ifcb separates" true
    (Classifier.classify ifcb ~cname:"D" ~stack:s1
    <> Classifier.classify ifcb ~cname:"D" ~stack:s2)

let test_lookup_no_mutation () =
  let t = Classifier.create Classifier.Ifcb in
  Alcotest.(check (option int)) "unknown" None (Classifier.lookup t ~cname:"D" ~stack);
  let c = Classifier.classify t ~cname:"D" ~stack in
  Alcotest.(check (option int)) "found" (Some c) (Classifier.lookup t ~cname:"D" ~stack);
  Alcotest.(check int) "count unchanged by lookup" 1 (Classifier.instances_of t c)

let test_freeze_counts () =
  let t = Classifier.create Classifier.Ifcb in
  ignore (Classifier.classify t ~cname:"D" ~stack);
  Classifier.freeze_counts t;
  ignore (Classifier.classify t ~cname:"D" ~stack);
  Alcotest.(check int) "frozen" 1 (Classifier.instance_count t);
  (* new descriptors still allocate *)
  ignore (Classifier.classify t ~cname:"E" ~stack);
  Alcotest.(check int) "new classification allocated" 2 (Classifier.classification_count t)

let test_metadata_accessors () =
  let t = Classifier.create Classifier.Stcb in
  let c = Classifier.classify t ~cname:"D" ~stack in
  Alcotest.(check string) "class" "D" (Classifier.class_of_classification t c);
  Alcotest.(check string) "descriptor" "[D, C, B, B, A]"
    (Classifier.descriptor_of_classification t c)

let test_encode_decode_roundtrip () =
  let t = Classifier.create ~stack_depth:4 Classifier.Ifcb in
  ignore (Classifier.classify t ~cname:"D" ~stack);
  ignore (Classifier.classify t ~cname:"D" ~stack);
  ignore (Classifier.classify t ~cname:"E" ~stack);
  let t' = Classifier.decode (Classifier.encode t) in
  Alcotest.(check int) "classifications" (Classifier.classification_count t)
    (Classifier.classification_count t');
  Alcotest.(check int) "instances" (Classifier.instance_count t) (Classifier.instance_count t');
  Alcotest.(check (option int)) "depth" (Some 4) (Classifier.stack_depth t');
  (* decoded state continues to classify consistently *)
  Alcotest.(check (option int)) "known context"
    (Classifier.lookup t ~cname:"D" ~stack)
    (Classifier.lookup t' ~cname:"D" ~stack)

let test_kind_names_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check (option bool)) (Classifier.kind_name k) (Some true)
        (Option.map (fun k' -> k' = k) (Classifier.kind_of_name (Classifier.kind_name k))))
    Classifier.all_kinds

let arb_frames =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 6)
        (map
           (fun (inst, meth) ->
             Frame.make ~inst ~cls:(Printf.sprintf "K%d" (inst mod 3)) ~classification:inst
               ~iface:"I" ~meth:(Printf.sprintf "m%d" meth))
           (pair (int_range 0 5) (int_range 0 3))))
  in
  QCheck.make gen

let prop_classify_deterministic =
  QCheck.Test.make ~name:"equal contexts get equal classifications" ~count:300
    (QCheck.pair arb_frames (QCheck.oneofl [ Classifier.Pcb; Classifier.Stcb; Classifier.Ifcb; Classifier.Epcb; Classifier.Ib; Classifier.St ]))
    (fun (frames, kind) ->
      let t = Classifier.create kind in
      Classifier.classify t ~cname:"D" ~stack:frames
      = Classifier.classify t ~cname:"D" ~stack:frames)

let prop_encode_decode_stable =
  QCheck.Test.make ~name:"classifier state survives encode/decode" ~count:100 arb_frames
    (fun frames ->
      let t = Classifier.create Classifier.Ifcb in
      ignore (Classifier.classify t ~cname:"D" ~stack:frames);
      let t' = Classifier.decode (Classifier.encode t) in
      Classifier.lookup t' ~cname:"D" ~stack:frames = Classifier.lookup t ~cname:"D" ~stack:frames)

(* The interception memo against the descriptor path. A context is a
   class name and a stack; stacks draw instances from a small pool (so
   instances recur), a frame may repeat the instance below it (a
   same-instance run), and classifications include -1. Every context
   also has a twin whose runs are broken by a different instance of
   the same class — equal in every field but instance identity, which
   only the entry-point collapse reads. Instantiations pick from the
   contexts, so most are memo hits; counting freezes partway. *)
let arb_instantiations =
  let frame =
    QCheck.Gen.(
      map
        (fun ((inst, same), (classification, iface), meth) ->
          (inst, same, classification, iface, meth))
        (triple
           (pair (int_range 1 4) (frequency [ (2, return true); (3, return false) ]))
           (pair (int_range (-1) 2) (int_range 0 1))
           (int_range 0 2)))
  in
  let context = QCheck.Gen.(pair (int_range 0 2) (list_size (int_range 0 6) frame)) in
  QCheck.make
    QCheck.Gen.(
      triple
        (list_size (int_range 1 4) context)
        (list_size (int_range 1 40) (int_range 0 7))
        (int_range 0 40))

(* Frames most-recent-first. A [same] frame repeats the next older
   frame's instance — or, in the twin, enters another instance of its
   class. *)
let frames_of ~twin specs =
  let rec build = function
    | [] -> []
    | (inst, same, classification, iface, meth) :: older ->
        let older = build older in
        let inst =
          match older with
          | f :: _ when same -> if twin then f.Frame.f_inst + 3 else f.Frame.f_inst
          | _ -> inst
        in
        let cls = Printf.sprintf "K%d" (inst mod 3) in
        let iface = Printf.sprintf "I%d" iface and meth = Printf.sprintf "m%d" meth in
        Frame.make ~inst ~cls ~classification ~iface ~meth :: older
  in
  build specs

(* Load [frames] onto [stack] as the RTE would: three ints a frame, the
   call site interned by the memo. *)
let load_stack memo stack frames =
  Shadow_stack.clear stack;
  List.iter
    (fun (f : Frame.t) ->
      Shadow_stack.push stack ~inst:f.f_inst ~classification:f.f_classification
        ~site:(Classifier.site memo ~cls:f.f_class ~iface:f.f_iface ~meth:f.f_meth))
    (List.rev frames)

let prop_memo_agrees =
  QCheck.Test.make ~name:"memoised classification equals the descriptor path" ~count:200
    arb_instantiations (fun (contexts, picks, freeze_at) ->
      let contexts =
        Array.of_list
          (List.map (fun c -> (false, c)) contexts @ List.map (fun c -> (true, c)) contexts)
      in
      List.for_all
        (fun (kind, stack_depth) ->
          let plain = Classifier.create ?stack_depth kind in
          let memoed = Classifier.create ?stack_depth kind in
          let memo = Classifier.memo memoed in
          let stack = Shadow_stack.create () in
          let ok =
            List.for_all
              (fun (n, pick) ->
                if n = freeze_at then begin
                  Classifier.freeze_counts plain;
                  Classifier.freeze_counts memoed
                end;
                let twin, (c, specs) = contexts.(pick mod Array.length contexts) in
                let cname = Printf.sprintf "D%d" c in
                let frames = frames_of ~twin specs in
                load_stack memo stack frames;
                let want = Classifier.classify plain ~cname ~stack:frames in
                want = Classifier.classify_memo memo ~cname stack)
              (List.mapi (fun n pick -> (n, pick)) picks)
          in
          ok && String.equal (Classifier.encode plain) (Classifier.encode memoed))
        (List.concat_map
           (fun kind -> List.map (fun d -> (kind, d)) [ None; Some 1; Some 2; Some 4 ])
           Classifier.all_kinds))

let suite =
  [
    Alcotest.test_case "figure 3 descriptors" `Quick test_figure3_descriptors;
    Alcotest.test_case "incremental orders" `Quick test_incremental_orders;
    Alcotest.test_case "ifcb groups equal contexts" `Quick test_ifcb_groups_equal_contexts;
    Alcotest.test_case "stack depth limits" `Quick test_stack_depth_limits;
    Alcotest.test_case "depth merges contexts" `Quick test_depth_merges_contexts;
    Alcotest.test_case "epcb merges internal paths" `Quick test_epcb_merges_internal_paths;
    Alcotest.test_case "pcb ignores instances" `Quick test_pcb_ignores_instances;
    Alcotest.test_case "lookup no mutation" `Quick test_lookup_no_mutation;
    Alcotest.test_case "freeze counts" `Quick test_freeze_counts;
    Alcotest.test_case "metadata accessors" `Quick test_metadata_accessors;
    Alcotest.test_case "encode/decode roundtrip" `Quick test_encode_decode_roundtrip;
    Alcotest.test_case "kind names roundtrip" `Quick test_kind_names_roundtrip;
    qtest prop_classify_deterministic;
    qtest prop_encode_decode_stable;
    qtest prop_memo_agrees;
  ]
