open Coign_idl
open Coign_com

(* --- Guid ----------------------------------------------------------- *)

let test_guid_deterministic () =
  Alcotest.(check bool) "equal for same name" true
    (Guid.equal (Guid.of_name "IID_IFoo") (Guid.of_name "IID_IFoo"));
  Alcotest.(check bool) "distinct for different names" false
    (Guid.equal (Guid.of_name "IID_IFoo") (Guid.of_name "IID_IBar"))

let test_guid_rendering () =
  let g = Guid.of_name "X" in
  let s = Guid.to_string g in
  Alcotest.(check bool) "braced" true (s.[0] = '{' && s.[String.length s - 1] = '}');
  Alcotest.(check string) "name kept" "X" (Guid.name g)

let test_guid_map () =
  let m = Guid.Map.singleton (Guid.of_name "a") 1 in
  Alcotest.(check (option int)) "found" (Some 1) (Guid.Map.find_opt (Guid.of_name "a") m)

(* --- Itype ---------------------------------------------------------- *)

let i_calc =
  Itype.declare "ICalc"
    [
      Idl_type.method_ ~ret:Idl_type.Int32 "add"
        [ Idl_type.param "a" Idl_type.Int32; Idl_type.param "b" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Int32 "total" [];
    ]

let i_raw =
  Itype.declare "IRawPixels" [ Idl_type.method_ "blit" [ Idl_type.param "p" (Idl_type.Opaque "SHM") ] ]

let test_itype_lookup () =
  Alcotest.(check int) "count" 2 (Itype.method_count i_calc);
  Alcotest.(check int) "index" 1 (Itype.method_index i_calc "total");
  Alcotest.(check string) "sig" "add" (Itype.method_sig i_calc 0).Idl_type.mname;
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Itype.method_index i_calc "nope"))

let test_itype_remotable () =
  Alcotest.(check bool) "calc" true (Itype.remotable i_calc);
  Alcotest.(check bool) "raw" false (Itype.remotable i_raw)

(* --- Runtime: a tiny calculator component --------------------------- *)

let c_calc =
  Runtime.define_class "Test.Calc" ~api_refs:[ "kernel32.VirtualAlloc" ] (fun _ctx _self ->
      let total = ref 0 in
      [
        Combuild.iface i_calc
          [
            ( "add",
              fun ctx args ->
                let a = Combuild.get_int args 0 and b = Combuild.get_int args 1 in
                total := !total + a + b;
                Runtime.charge ctx ~us:1.;
                Value.Int (a + b) );
            ("total", fun _ctx _args -> Value.Int !total);
          ];
      ])

(* A component that creates a Calc internally and exposes a pass-through. *)
let i_chain =
  Itype.declare "IChain"
    [ Idl_type.method_ ~ret:Idl_type.Int32 "push" [ Idl_type.param "v" Idl_type.Int32 ] ]

let c_chain =
  Runtime.define_class "Test.Chain" (fun ctx0 _self ->
      let calc = Runtime.create_instance ctx0 c_calc.Runtime.clsid ~iid:(Itype.iid i_calc) in
      [
        Combuild.iface i_chain
          [
            ( "push",
              fun ctx args ->
                let v = Combuild.get_int args 0 in
                Oracles.call_named ctx calc "add" [ Value.Int v; Value.Int 1 ] );
          ];
      ])

let make_ctx () = Runtime.create_ctx (Runtime.registry [ c_calc; c_chain ])

let test_registry_duplicate () =
  Alcotest.check_raises "duplicate class"
    (Invalid_argument "Runtime.registry: duplicate class Test.Calc") (fun () ->
      ignore (Runtime.registry [ c_calc; c_calc ]))

let test_create_and_call () =
  let ctx = make_ctx () in
  let h = Runtime.create_instance ctx c_calc.Runtime.clsid ~iid:(Itype.iid i_calc) in
  let r = Oracles.call_named ctx h "add" [ Value.Int 2; Value.Int 3 ] in
  Alcotest.(check bool) "sum" true (r = Value.Int 5);
  let t = Oracles.call_named ctx h "total" [] in
  Alcotest.(check bool) "total" true (t = Value.Int 5)

let test_create_unknown_class () =
  let ctx = make_ctx () in
  Alcotest.(check bool) "raises E_noclass" true
    (try
       ignore (Runtime.create_instance ctx (Guid.of_name "CLSID_Nope") ~iid:(Itype.iid i_calc));
       false
     with Hresult.Com_error (Hresult.E_noclass _) -> true)

let test_query_interface_identity () =
  let ctx = make_ctx () in
  let h = Runtime.create_instance ctx c_calc.Runtime.clsid ~iid:(Itype.iid i_calc) in
  let h2 = Runtime.query_interface ctx h ~iid:(Itype.iid i_calc) in
  Alcotest.(check int) "canonical handle reused" h h2

let test_query_interface_missing () =
  let ctx = make_ctx () in
  let h = Runtime.create_instance ctx c_calc.Runtime.clsid ~iid:(Itype.iid i_calc) in
  Alcotest.(check bool) "raises E_nointerface" true
    (try
       ignore (Runtime.query_interface ctx h ~iid:(Itype.iid i_chain));
       false
     with Hresult.Com_error (Hresult.E_nointerface _) -> true)

let test_nested_instantiation () =
  let ctx = make_ctx () in
  let h = Runtime.create_instance ctx c_chain.Runtime.clsid ~iid:(Itype.iid i_chain) in
  let r = Oracles.call_named ctx h "push" [ Value.Int 9 ] in
  Alcotest.(check bool) "chained" true (r = Value.Int 10);
  (* main + chain + inner calc *)
  Alcotest.(check int) "instances" 3 (Runtime.instance_count ctx)

let test_create_hook_interception () =
  let ctx = make_ctx () in
  let seen = ref [] in
  Runtime.set_create_hook ctx
    (Some
       (fun cls ~iid ->
         seen := cls.Runtime.cname :: !seen;
         Runtime.raw_create_instance ctx cls ~iid));
  ignore (Runtime.create_instance ctx c_chain.Runtime.clsid ~iid:(Itype.iid i_chain));
  (* The chain's constructor creates a Calc: both go through the hook. *)
  Alcotest.(check (list string)) "both intercepted" [ "Test.Chain"; "Test.Calc" ]
    (List.rev !seen);
  Runtime.set_create_hook ctx None;
  ignore (Runtime.create_instance ctx c_calc.Runtime.clsid ~iid:(Itype.iid i_calc));
  Alcotest.(check int) "hook removed" 2 (List.length !seen)

let test_foreign_handle_wrapping () =
  let ctx = make_ctx () in
  let h = Runtime.create_instance ctx c_calc.Runtime.clsid ~iid:(Itype.iid i_calc) in
  let calls = ref 0 in
  let wrapper = Runtime.alloc_wrapper ctx h in
  Runtime.set_wrapper_hook ctx
    (Some
       (fun w ~meth args ->
         incr calls;
         Runtime.call ctx (Runtime.wrapped_handle ctx w) ~meth args));
  Alcotest.(check bool) "wrapper flagged" true (Runtime.handle_is_wrapper ctx wrapper);
  Alcotest.(check bool) "original not" false (Runtime.handle_is_wrapper ctx h);
  let r = Oracles.call_named ctx wrapper "add" [ Value.Int 1; Value.Int 1 ] in
  Alcotest.(check bool) "forwarded" true (r = Value.Int 2);
  Alcotest.(check int) "intercepted" 1 !calls;
  (* Unhooked, the wrapper runs its target's method directly. *)
  Runtime.set_wrapper_hook ctx None;
  let r = Oracles.call_named ctx wrapper "add" [ Value.Int 2; Value.Int 3 ] in
  Alcotest.(check bool) "unhooked call runs the target" true (r = Value.Int 5);
  Alcotest.(check int) "unhooked call not intercepted" 1 !calls;
  Alcotest.(check int) "wrapper names its target" h (Runtime.wrapped_handle ctx wrapper);
  Alcotest.(check int) "a plain handle is its own" h (Runtime.wrapped_handle ctx h);
  Alcotest.(check int) "same owner" (Runtime.handle_owner ctx h)
    (Runtime.handle_owner ctx wrapper)

let test_compute_accounting () =
  let ctx = make_ctx () in
  let h = Runtime.create_instance ctx c_calc.Runtime.clsid ~iid:(Itype.iid i_calc) in
  ignore (Oracles.call_named ctx h "add" [ Value.Int 1; Value.Int 2 ]);
  ignore (Oracles.call_named ctx h "add" [ Value.Int 1; Value.Int 2 ]);
  Alcotest.(check (float 1e-9)) "charged" 2. (Runtime.compute_us ctx)

let test_data_slots () =
  let ctx = make_ctx () in
  let key : string Runtime.key = Runtime.new_key () in
  Alcotest.(check (option string)) "empty" None (Runtime.get_data ctx key);
  Runtime.set_data ctx key "hello";
  Alcotest.(check (option string)) "stored" (Some "hello") (Runtime.get_data ctx key)

let nop = Combuild.ret Value.Unit

(* An instance with two interfaces, so each has two canonical handles. *)
let c_twin =
  Runtime.define_class "Test.Twin" (fun _ctx _self ->
      [
        Combuild.iface i_calc
          [ ("add", Combuild.ret (Value.Int 0)); ("total", Combuild.ret (Value.Int 7)) ];
        Combuild.iface i_raw [ ("blit", nop) ];
      ])

let com_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: no error" what
  | exception Hresult.Com_error e -> e

(* The handle table past its initial 256 slots: every handle, raw or
   wrapper, keeps its owner, interface and target after growth, and a
   bad handle, a bad slot and a slot of another interface still fail
   as typed COM errors. *)
let test_handle_table_growth () =
  let ctx = Runtime.create_ctx (Runtime.registry [ c_twin ]) in
  let calc_iid = Itype.iid i_calc and raw_iid = Itype.iid i_raw in
  (* Per instance, in mint order: its ICalc handle, a wrapper of it,
     its IRawPixels handle and a wrapper of the wrapper, each as
     (handle, owner, itype, wrapped handle). *)
  let minted =
    List.concat_map
      (fun i ->
        let owner = i + 1 in
        let calc = Runtime.create_instance ctx c_twin.Runtime.clsid ~iid:calc_iid in
        let w = Runtime.alloc_wrapper ctx calc in
        let raw = Runtime.query_interface ctx w ~iid:raw_iid in
        let ww = Runtime.alloc_wrapper ctx w in
        [
          (calc, owner, i_calc, calc);
          (w, owner, i_calc, calc);
          (raw, owner, i_raw, raw);
          (ww, owner, i_calc, w);
        ])
      (List.init 100 Fun.id)
  in
  List.iteri
    (fun i (h, owner, itype, target) ->
      let name = Printf.sprintf "handle %d" i in
      Alcotest.(check int) (name ^ " minted in order") i h;
      Alcotest.(check int) (name ^ " owner") owner (Runtime.handle_owner ctx h);
      Alcotest.(check bool) (name ^ " itype") true (Itype.equal itype (Runtime.handle_itype ctx h));
      Alcotest.(check int) (name ^ " target") target (Runtime.wrapped_handle ctx h);
      Alcotest.(check bool) (name ^ " wrapper") (target <> h) (Runtime.handle_is_wrapper ctx h))
    minted;
  Alcotest.(check int) "canonical handles reused" 2
    (Runtime.query_interface ctx 1 ~iid:raw_iid);
  Alcotest.(check int) "canonical handles reused, last instance" 396
    (Runtime.query_interface ctx 399 ~iid:calc_iid);
  Alcotest.(check bool) "calls before and after growth" true
    (Runtime.call ctx 1 ~meth:1 [] = Value.Int 7 && Runtime.call ctx 399 ~meth:1 [] = Value.Int 7);
  let pointer what f =
    match com_error what f with
    | Hresult.E_pointer _ -> ()
    | _ -> Alcotest.failf "%s: not E_pointer" what
  and invalidarg what f =
    match com_error what f with
    | Hresult.E_invalidarg _ -> ()
    | _ -> Alcotest.failf "%s: not E_invalidarg" what
  in
  pointer "unknown handle" (fun () -> Runtime.call ctx 400 ~meth:0 []);
  pointer "negative handle" (fun () -> Runtime.call ctx (-1) ~meth:0 []);
  pointer "unknown handle's owner" (fun () -> Runtime.handle_owner ctx 400);
  pointer "unknown handle wrapped" (fun () -> Runtime.alloc_wrapper ctx 400);
  invalidarg "slot past the interface" (fun () -> Runtime.call ctx 399 ~meth:2 []);
  invalidarg "negative slot" (fun () -> Runtime.call ctx 0 ~meth:(-1) []);
  invalidarg "unknown method name" (fun () -> Oracles.call_named ctx 0 "nope" []);
  let total = Itype.slot i_calc "total" in
  Alcotest.(check bool) "slot call through a wrapper" true
    (Runtime.call_slot ctx 397 total [] = Value.Int 7);
  invalidarg "slot of another interface" (fun () -> Runtime.call_slot ctx 398 total [])

(* --- Combuild ------------------------------------------------------- *)

let test_combuild_validation () =
  Alcotest.(check bool) "missing handler rejected" true
    (try
       ignore (Combuild.iface i_calc [ ("add", nop) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown handler rejected" true
    (try
       ignore
         (Combuild.iface i_calc
            [ ("add", nop); ("total", nop); ("bogus", nop) ]);
       false
     with Invalid_argument _ -> true)

let test_combuild_getters () =
  let args = [ Value.Int 4; Value.Str "s"; Value.Blob 10; Value.Iface_ref 2; Value.Bool true ] in
  Alcotest.(check int) "int" 4 (Combuild.get_int args 0);
  Alcotest.(check string) "str" "s" (Combuild.get_str args 1);
  Alcotest.(check int) "blob" 10 (Combuild.get_blob args 2);
  Alcotest.(check int) "iface" 2 (Combuild.get_iface args 3);
  Alcotest.(check bool) "bool" true (Combuild.get_bool args 4);
  Alcotest.(check bool) "wrong shape raises" true
    (try
       ignore (Combuild.get_int args 1);
       false
     with Hresult.Com_error (Hresult.E_invalidarg _) -> true)

let suite =
  [
    Alcotest.test_case "guid deterministic" `Quick test_guid_deterministic;
    Alcotest.test_case "guid rendering" `Quick test_guid_rendering;
    Alcotest.test_case "guid map" `Quick test_guid_map;
    Alcotest.test_case "itype lookup" `Quick test_itype_lookup;
    Alcotest.test_case "itype remotable" `Quick test_itype_remotable;
    Alcotest.test_case "registry duplicate" `Quick test_registry_duplicate;
    Alcotest.test_case "create and call" `Quick test_create_and_call;
    Alcotest.test_case "create unknown class" `Quick test_create_unknown_class;
    Alcotest.test_case "query interface identity" `Quick test_query_interface_identity;
    Alcotest.test_case "query interface missing" `Quick test_query_interface_missing;
    Alcotest.test_case "nested instantiation" `Quick test_nested_instantiation;
    Alcotest.test_case "create hook interception" `Quick test_create_hook_interception;
    Alcotest.test_case "foreign handle wrapping" `Quick test_foreign_handle_wrapping;
    Alcotest.test_case "compute accounting" `Quick test_compute_accounting;
    Alcotest.test_case "data slots" `Quick test_data_slots;
    Alcotest.test_case "handle table growth" `Quick test_handle_table_growth;
    Alcotest.test_case "combuild validation" `Quick test_combuild_validation;
    Alcotest.test_case "combuild getters" `Quick test_combuild_getters;
  ]
