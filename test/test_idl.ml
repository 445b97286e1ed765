open Coign_idl

let qtest = QCheck_alcotest.to_alcotest

(* Random IDL types with conforming values, for the size-walk and
   interface-walk properties. *)
let rec gen_type depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneofl
      [ Idl_type.Int32; Idl_type.Int64; Idl_type.Double; Idl_type.Bool; Idl_type.Str;
        Idl_type.Blob; Idl_type.Iface "IAny" ]
  else
    frequency
      [
        (3, oneofl [ Idl_type.Int32; Idl_type.Str; Idl_type.Blob; Idl_type.Iface "IAny" ]);
        (1, map (fun t -> Idl_type.Array t) (gen_type (depth - 1)));
        (1, map (fun t -> Idl_type.Ptr t) (gen_type (depth - 1)));
        ( 1,
          map
            (fun ts -> Idl_type.Struct (List.mapi (fun i t -> (Printf.sprintf "f%d" i, t)) ts))
            (list_size (int_range 1 3) (gen_type (depth - 1))) );
      ]

let rec gen_value ty =
  let open QCheck.Gen in
  match ty with
  | Idl_type.Void -> return Value.Unit
  | Idl_type.Int32 | Idl_type.Int64 -> map (fun i -> Value.Int i) small_int
  | Idl_type.Double -> map (fun f -> Value.Float f) (float_bound_inclusive 1e6)
  | Idl_type.Bool -> map (fun b -> Value.Bool b) bool
  | Idl_type.Str -> map (fun s -> Value.Str s) (string_size (int_range 0 20))
  | Idl_type.Blob -> map (fun n -> Value.Blob n) (int_range 0 10_000)
  | Idl_type.Array elt -> map (fun vs -> Value.Arr vs) (list_size (int_range 0 4) (gen_value elt))
  | Idl_type.Struct fields ->
      let rec go = function
        | [] -> return []
        | (name, t) :: rest ->
            gen_value t >>= fun v ->
            go rest >>= fun vs -> return ((name, v) :: vs)
      in
      map (fun fvs -> Value.Struct fvs) (go fields)
  | Idl_type.Ptr pointee ->
      frequency [ (1, return Value.Null); (3, map (fun v -> Value.Ref v) (gen_value pointee)) ]
  | Idl_type.Iface _ -> map (fun h -> Value.Iface_ref h) (int_range 0 100)
  | Idl_type.Opaque tag -> return (Value.Opaque_handle tag)

let gen_typed_value =
  QCheck.Gen.(gen_type 3 >>= fun ty -> gen_value ty >>= fun v -> return (ty, v))

let arb_typed_value =
  QCheck.make
    ~print:(fun (ty, v) -> Format.asprintf "%a / %a" Idl_type.pp ty Value.pp v)
    gen_typed_value

(* --- Idl_type ------------------------------------------------------ *)

let test_remotable () =
  Alcotest.(check bool) "scalar" true (Idl_type.remotable Idl_type.Int32);
  Alcotest.(check bool) "opaque" false (Idl_type.remotable (Idl_type.Opaque "HDC"));
  Alcotest.(check bool) "nested opaque" false
    (Idl_type.remotable (Idl_type.Struct [ ("a", Idl_type.Int32); ("b", Idl_type.Opaque "X") ]));
  Alcotest.(check bool) "iface ok" true (Idl_type.remotable (Idl_type.Iface "IFoo"));
  Alcotest.(check bool) "array of ptr" true
    (Idl_type.remotable (Idl_type.Array (Idl_type.Ptr Idl_type.Str)))

let test_method_remotable () =
  let m = Idl_type.method_ "f" [ Idl_type.param "x" (Idl_type.Opaque "SHM") ] in
  Alcotest.(check bool) "opaque param" false (Idl_type.method_remotable m);
  let m2 = Idl_type.method_ ~ret:Idl_type.Blob "g" [ Idl_type.param "x" Idl_type.Int32 ] in
  Alcotest.(check bool) "clean" true (Idl_type.method_remotable m2)

(* --- Value --------------------------------------------------------- *)

let test_conforms () =
  Alcotest.(check bool) "int32" true (Oracles.conforms Idl_type.Int32 (Value.Int 5));
  Alcotest.(check bool) "null ptr" true (Oracles.conforms (Idl_type.Ptr Idl_type.Str) Value.Null);
  Alcotest.(check bool) "null iface" true (Oracles.conforms (Idl_type.Iface "I") Value.Null);
  Alcotest.(check bool) "mismatch" false (Oracles.conforms Idl_type.Str (Value.Int 1));
  Alcotest.(check bool) "struct field order" false
    (Oracles.conforms
       (Idl_type.Struct [ ("a", Idl_type.Int32); ("b", Idl_type.Str) ])
       (Value.Struct [ ("b", Value.Str "x"); ("a", Value.Int 1) ]))

let prop_generated_values_conform =
  QCheck.Test.make ~name:"generated values conform to their types" ~count:500 arb_typed_value
    (fun (ty, v) -> Oracles.conforms ty v)

let test_iface_handles () =
  let v =
    Value.Struct
      [ ("a", Value.Iface_ref 3); ("b", Value.Arr [ Value.Iface_ref 7; Value.Int 1 ]);
        ("c", Value.Ref (Value.Iface_ref 9)) ]
  in
  Alcotest.(check (list int)) "handles in order" [ 3; 7; 9 ] (Oracles.iface_handles v)

let test_map_iface_handles () =
  let ty =
    Idl_type.Struct
      [ ("a", Idl_type.Iface "I"); ("s", Idl_type.Str); ("p", Idl_type.Ptr (Idl_type.Iface "I")) ]
  in
  let v =
    Value.Struct
      [ ("a", Value.Iface_ref 1); ("s", Value.Str "s"); ("p", Value.Ref (Value.Iface_ref 2)) ]
  in
  let walk = Oracles.compile_iface_walk ty in
  let v' = Midl.map_handles_with walk (fun k h -> h * k) 10 v in
  Alcotest.(check (list int)) "mapped" [ 10; 20 ] (Oracles.iface_handles v');
  Alcotest.(check bool) "identity returns the value itself" true
    (Midl.map_handles_with walk (fun () h -> h) () v == v);
  match (v, v') with
  | Value.Struct [ _; s; _ ], Value.Struct [ _; s'; _ ] ->
      Alcotest.(check bool) "unchanged field shared" true (s == s')
  | _ -> Alcotest.fail "mapped value changed shape"

(* --- Marshal_size -------------------------------------------------- *)

let size_exn ty v =
  match Oracles.value_size ty v with
  | Ok n -> n
  | Error _ -> Alcotest.fail "unexpected sizing error"

let test_scalar_sizes () =
  Alcotest.(check int) "int32" 4 (size_exn Idl_type.Int32 (Value.Int 1));
  Alcotest.(check int) "int64" 8 (size_exn Idl_type.Int64 (Value.Int 1));
  Alcotest.(check int) "double" 8 (size_exn Idl_type.Double (Value.Float 1.));
  Alcotest.(check int) "bool" 4 (size_exn Idl_type.Bool (Value.Bool true));
  Alcotest.(check int) "str" (4 + 5) (size_exn Idl_type.Str (Value.Str "hello"));
  Alcotest.(check int) "blob" (4 + 100) (size_exn Idl_type.Blob (Value.Blob 100));
  Alcotest.(check int) "null" 4 (size_exn (Idl_type.Ptr Idl_type.Str) Value.Null);
  Alcotest.(check int) "objref" Marshal_size.objref_size
    (size_exn (Idl_type.Iface "I") (Value.Iface_ref 1))

let test_deep_copy_compositional () =
  let ty = Idl_type.Struct [ ("a", Idl_type.Str); ("b", Idl_type.Array Idl_type.Int32) ] in
  let v = Value.Struct [ ("a", Value.Str "xy"); ("b", Value.Arr [ Value.Int 1; Value.Int 2 ]) ] in
  (* str: 4+2; array: 4 + 2*4 *)
  Alcotest.(check int) "struct" (6 + 12) (size_exn ty v)

let test_opaque_not_remotable () =
  match Oracles.value_size (Idl_type.Opaque "HDC") (Value.Opaque_handle "HDC") with
  | Error (Marshal_size.Not_remotable "HDC") -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Not_remotable"

(* Call-level sizing is the profiling informer's: one interface
   declaring the method, measured as a call. *)
let measure msig ~ins ~outs ~ret =
  Coign_core.Informer.measure_call (Coign_com.Itype.declare "ITest" [ msig ]) ~meth:0 ~ins
    ~outs ~ret

let test_call_sizes_directions () =
  let msig =
    Idl_type.method_ ~ret:Idl_type.Blob "m"
      [
        Idl_type.param "inp" Idl_type.Blob;
        Idl_type.param ~dir:Idl_type.Out "outp" Idl_type.Blob;
        Idl_type.param ~dir:Idl_type.In_out "both" Idl_type.Blob;
      ]
  in
  let args = [ Value.Blob 100; Value.Blob 200; Value.Blob 300 ] in
  let s = measure msig ~ins:args ~outs:args ~ret:(Value.Blob 50) in
  Alcotest.(check bool) "remotable" true (Coign_core.Informer.remotable s);
  Alcotest.(check int) "request"
    (Marshal_size.scalar_overhead + 104 + 304)
    (Coign_core.Informer.request_bytes s);
  Alcotest.(check int) "reply"
    (Marshal_size.scalar_overhead + 204 + 304 + 54)
    (Coign_core.Informer.reply_bytes s)

let test_call_request_only () =
  let msig =
    Idl_type.method_ "m"
      [ Idl_type.param "a" Idl_type.Blob; Idl_type.param ~dir:Idl_type.Out "b" Idl_type.Blob ]
  in
  (* The request carries the [In] slot alone: the [Out] slot's 999
     bytes travel only in the reply. *)
  let args = [ Value.Blob 10; Value.Blob 999 ] in
  let s = measure msig ~ins:args ~outs:args ~ret:Value.Unit in
  Alcotest.(check int) "request only" (Marshal_size.scalar_overhead + 14)
    (Coign_core.Informer.request_bytes s);
  Alcotest.(check int) "reply" (Marshal_size.scalar_overhead + 1003)
    (Coign_core.Informer.reply_bytes s)

let test_call_arity_mismatch () =
  let msig = Idl_type.method_ "m" [ Idl_type.param "a" Idl_type.Int32 ] in
  match measure msig ~ins:[] ~outs:[] ~ret:Value.Unit with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity mismatch"

let test_mistyped_scalar_rejected () =
  (* A scalar of the wrong kind fails the walk, at any depth. *)
  List.iter
    (fun (ty, v) ->
      Alcotest.(check bool)
        (Format.asprintf "%a / %a rejected" Idl_type.pp ty Value.pp v)
        true
        (Result.is_error (Oracles.value_size ty v)))
    [
      (Idl_type.Bool, Value.Float 1.);
      (Idl_type.Ptr Idl_type.Bool, Value.Ref (Value.Float 1.));
      (Idl_type.Double, Value.Int 1);
      ( Idl_type.Array (Idl_type.Struct [ ("f0", Idl_type.Int64) ]),
        Value.Arr [ Value.Struct [ ("f0", Value.Bool true) ] ] );
    ]

(* Random method signatures with a value per slot in each direction.
   A slot is now and then opaque (a non-remotable method) or holds a
   value drawn for another type (a walk that raises). *)
let gen_call =
  let open QCheck.Gen in
  let slot_type = frequency [ (9, gen_type 2); (1, return (Idl_type.Opaque "HDC")) ] in
  let slot_value ty = frequency [ (19, gen_value ty); (1, gen_type 2 >>= gen_value) ] in
  list_size (int_range 0 4) (pair (oneofl [ Idl_type.In; Idl_type.Out; Idl_type.In_out ]) slot_type)
  >>= fun slots ->
  frequency [ (1, return Idl_type.Void); (3, slot_type) ] >>= fun ret_ty ->
  let params =
    List.mapi (fun i (dir, ty) -> Idl_type.param ~dir (Printf.sprintf "p%d" i) ty) slots
  in
  flatten_l (List.map (fun p -> pair (slot_value p.Idl_type.pty) (slot_value p.pty)) params)
  >>= fun slot_values ->
  slot_value ret_ty >>= fun ret ->
  let ins, outs = List.split slot_values in
  return (Idl_type.method_ ~ret:ret_ty "m" params, ins, outs, ret)

let arb_call =
  QCheck.make
    ~print:(fun (msig, ins, outs, ret) ->
      let list pp = Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp in
      let param ppf p =
        Format.fprintf ppf "%s %a"
          (match p.Idl_type.pdir with
          | Idl_type.In -> "in"
          | Idl_type.Out -> "out"
          | Idl_type.In_out -> "inout")
          Idl_type.pp p.pty
      in
      Format.asprintf "(%a) -> %a / ins [%a] outs [%a] ret %a" (list param) msig.Idl_type.params
        Idl_type.pp msig.ret (list Value.pp) ins (list Value.pp) outs Value.pp ret)
    gen_call

let prop_measure_call_sums_value_sizes =
  QCheck.Test.make ~name:"measure_call sums value sizes by direction" ~count:500 arb_call
    (fun (msig, ins, outs, ret) ->
      let sum carries vs =
        List.fold_left2
          (fun acc p v ->
            if carries p.Idl_type.pdir then
              Result.bind acc (fun n -> Result.map (( + ) n) (Oracles.value_size p.pty v))
            else acc)
          (Ok 0) msig.Idl_type.params vs
      in
      let expected =
        match
          ( sum (fun d -> d <> Idl_type.Out) ins,
            sum (fun d -> d <> Idl_type.In) outs,
            Oracles.value_size msig.ret ret )
        with
        | Ok req, Ok rep, Ok r when Idl_type.method_remotable msig ->
            Some (Marshal_size.scalar_overhead + req, Marshal_size.scalar_overhead + rep + r)
        | _ -> None
      in
      let s = measure msig ~ins ~outs ~ret in
      let got =
        if Coign_core.Informer.remotable s then
          Some (Coign_core.Informer.request_bytes s, Coign_core.Informer.reply_bytes s)
        else None
      in
      got = expected
      && (Coign_core.Informer.remotable s
         || (Coign_core.Informer.request_bytes s = 0 && Coign_core.Informer.reply_bytes s = 0)))

(* --- Midl ---------------------------------------------------------- *)

let prop_iface_walk_equals_handles =
  QCheck.Test.make ~name:"compiled iface walk finds the same handles" ~count:500 arb_typed_value
    (fun (ty, v) ->
      let proc = Oracles.compile_iface_walk ty in
      let handles = Oracles.handles_with proc v in
      handles = Oracles.iface_handles v
      && Midl.map_handles_with proc (fun () h -> h) () v == v
      && Oracles.handles_with proc (Midl.map_handles_with proc (fun () h -> h + 1) () v)
         = List.map succ handles)

let test_iface_walk_trivial () =
  (* A reply needs a walk only when an out parameter's walk is not
     trivial. *)
  let trivial ty =
    not
      (Midl.compile_method (Idl_type.method_ "m" [ Idl_type.param ~dir:Idl_type.Out "x" ty ]))
        .Midl.may_output_ifaces
  in
  Alcotest.(check bool) "blob trivial" true (trivial Idl_type.Blob);
  Alcotest.(check bool) "iface not trivial" false (trivial (Idl_type.Iface "I"))

let test_method_procs_remotable_flag () =
  let dirty = Idl_type.method_ "m" [ Idl_type.param "x" (Idl_type.Opaque "SHM") ] in
  Alcotest.(check bool) "non-remotable" false (Midl.compile_method dirty).Midl.remotable

(* --- Zero-allocation size walks ------------------------------------ *)

let prop_exn_walks_agree =
  (* Pair the type of one generated value with the value of another, so
     the walk hits both the success path and every mismatch arm. *)
  QCheck.Test.make ~name:"exn size walks agree with result walks" ~count:500
    (QCheck.pair arb_typed_value arb_typed_value)
    (fun ((ty, _), (_, v)) ->
      let direct =
        match Marshal_size.value_size_exn ty v with
        | n -> Ok n
        | exception Marshal_size.Err e -> Error e
      in
      direct = Oracles.value_size ty v)

let test_size_walk_zero_alloc () =
  let ty =
    Idl_type.Array
      (Idl_type.Struct
         [ ("x", Idl_type.Str); ("y", Idl_type.Int32);
           ("p", Idl_type.Ptr Idl_type.Blob); ("i", Idl_type.Iface "IPeer") ])
  in
  let v =
    Value.Arr
      (List.init 8 (fun i ->
           Value.Struct
             [ ("x", Value.Str (String.make 16 'x')); ("y", Value.Int i);
               ("p", Value.Ref (Value.Blob 128)); ("i", Value.Iface_ref i) ]))
  in
  let expected =
    match Oracles.value_size ty v with Ok n -> n | Error _ -> -1 in
  (* Warm up, then measure: 10k walks of a nested value must not grow
     the minor heap beyond the noise of reading the GC counters. *)
  ignore (Marshal_size.value_size_exn ty v);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    assert (Marshal_size.value_size_exn ty v = expected)
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10k size walks allocated %.0f minor words" delta)
    true (delta < 64.)

let suite =
  [
    Alcotest.test_case "remotable" `Quick test_remotable;
    Alcotest.test_case "method remotable" `Quick test_method_remotable;
    Alcotest.test_case "conforms" `Quick test_conforms;
    qtest prop_generated_values_conform;
    Alcotest.test_case "iface handles" `Quick test_iface_handles;
    Alcotest.test_case "map iface handles" `Quick test_map_iface_handles;
    Alcotest.test_case "scalar sizes" `Quick test_scalar_sizes;
    Alcotest.test_case "deep copy compositional" `Quick test_deep_copy_compositional;
    Alcotest.test_case "opaque not remotable" `Quick test_opaque_not_remotable;
    Alcotest.test_case "call size directions" `Quick test_call_sizes_directions;
    Alcotest.test_case "call request only" `Quick test_call_request_only;
    Alcotest.test_case "call arity mismatch" `Quick test_call_arity_mismatch;
    Alcotest.test_case "mistyped scalar rejected" `Quick test_mistyped_scalar_rejected;
    qtest prop_measure_call_sums_value_sizes;
    qtest prop_iface_walk_equals_handles;
    Alcotest.test_case "iface walk trivial" `Quick test_iface_walk_trivial;
    Alcotest.test_case "method procs remotable flag" `Quick test_method_procs_remotable_flag;
    qtest prop_exn_walks_agree;
    Alcotest.test_case "size walks allocation-free" `Quick test_size_walk_zero_alloc;
  ]
