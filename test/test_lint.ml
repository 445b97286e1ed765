open Coign_idl
open Coign_netsim
open Coign_image
open Coign_core
open Coign_apps

(* --- Idl_type.finite ----------------------------------------------- *)

let test_finite_basic () =
  Alcotest.(check bool) "int" true (Idl_type.finite Idl_type.Int32);
  Alcotest.(check bool) "array of str" true (Idl_type.finite (Idl_type.Array Idl_type.Str));
  Alcotest.(check bool) "nested struct" true
    (Idl_type.finite
       (Idl_type.Struct
          [ ("a", Idl_type.Ptr (Idl_type.Struct [ ("b", Idl_type.Blob) ])) ]))

let test_finite_cycle () =
  (* The OCaml analog of an unbounded recursive struct: a linked list
     node whose [next] points back at itself. *)
  let rec node = Idl_type.Struct [ ("v", Idl_type.Int32); ("next", Idl_type.Ptr node) ] in
  Alcotest.(check bool) "cyclic struct" false (Idl_type.finite node);
  Alcotest.(check bool) "cyclic array" false
    (let rec a = Idl_type.Array a in
     Idl_type.finite a)

let test_finite_shared_subterm () =
  (* Sharing without a cycle (a DAG) must stay finite: the same payload
     struct appears under two fields. *)
  let payload = Idl_type.Struct [ ("data", Idl_type.Blob) ] in
  let dag = Idl_type.Struct [ ("l", Idl_type.Ptr payload); ("r", Idl_type.Ptr payload) ] in
  Alcotest.(check bool) "dag" true (Idl_type.finite dag)

(* --- Image_meta ----------------------------------------------------- *)

let test_meta_sanitizes_recursive () =
  let rec node = Idl_type.Struct [ ("next", Idl_type.Ptr node) ] in
  let meta =
    Image_meta.create
      ~ifaces:
        [
          {
            Image_meta.if_name = "IList";
            if_methods = [ Idl_type.method_ "walk" [ Idl_type.param "head" node ] ];
          };
        ]
      ~classes:[ { Image_meta.cl_name = "A"; cl_provides = [ "IList" ]; cl_creates = [] } ]
      ~roots:[ "A" ]
  in
  let i = Option.get (Image_meta.iface meta "IList") in
  let m = List.hd i.Image_meta.if_methods in
  let p = List.hd m.Idl_type.params in
  Alcotest.(check bool) "replaced by opaque marker" true
    (p.Idl_type.pty = Idl_type.Opaque Image_meta.recursive_marker);
  (* ... which the linter reports as an unbounded recursive structure. *)
  let diags = Lint.lint_meta meta in
  Alcotest.(check bool) "CG005 emitted" true
    (List.exists (fun d -> d.Lint.code = "CG005") diags)

let sample_meta () =
  Image_meta.create
    ~ifaces:
      [
        {
          Image_meta.if_name = "IRemote";
          if_methods = [ Idl_type.method_ ~ret:(Idl_type.Iface "IShared") "get" [] ];
        };
        {
          Image_meta.if_name = "IShared";
          if_methods =
            [ Idl_type.method_ "poke" [ Idl_type.param "h" (Idl_type.Opaque "HND") ] ];
        };
      ]
    ~classes:
      [
        { Image_meta.cl_name = "A"; cl_provides = [ "IRemote" ]; cl_creates = [ "B" ] };
        { Image_meta.cl_name = "B"; cl_provides = [ "IShared" ]; cl_creates = [] };
        { Image_meta.cl_name = "C"; cl_provides = [ "IRemote" ]; cl_creates = [] };
      ]
    ~roots:[ "A" ]

let test_meta_roundtrip () =
  let meta = sample_meta () in
  let meta' = Image_meta.decode (Image_meta.encode meta) in
  Alcotest.(check bool) "meta roundtrip" true (Image_meta.equal meta meta')

let test_image_meta_roundtrip () =
  let meta = sample_meta () in
  let with_meta =
    Binary_image.create ~name:"synthetic" ~meta
      ~api_refs:[ ("A", []); ("B", []); ("C", []) ]
      ()
  in
  let with_meta' = Binary_image.decode (Binary_image.encode with_meta) in
  Alcotest.(check bool) "image with meta roundtrips" true
    (Binary_image.equal with_meta with_meta');
  Alcotest.(check bool) "meta preserved" true
    (match with_meta'.Binary_image.meta with
    | Some m -> Image_meta.equal m meta
    | None -> false);
  (* Images from before the metadata section still decode. *)
  let without = Binary_image.create ~name:"legacy" ~api_refs:[ ("A", []) ] () in
  let without' = Binary_image.decode (Binary_image.encode without) in
  Alcotest.(check bool) "meta-less image roundtrips" true
    (Binary_image.equal without without');
  Alcotest.(check bool) "no meta" true (without'.Binary_image.meta = None)

(* --- Interface_flow on a synthetic program -------------------------- *)

(* MAIN creates A; A creates B and hands out B's IShared through
   IRemote.get; IShared carries a raw handle, so A and B must be
   co-located and B (reachable by MAIN) pins to the client. C is
   registered but nothing ever creates it. *)

let test_flow_pairs () =
  let flow = Interface_flow.analyze (sample_meta ()) in
  Alcotest.(check (list (pair string string)))
    "non-remotable pairs"
    [ ("A", "B") ]
    (Interface_flow.non_remotable_pairs flow);
  Alcotest.(check (list string)) "client pins" [ "B" ] (Interface_flow.client_pins flow);
  Alcotest.(check (list string)) "unreachable" [ "C" ]
    (Interface_flow.unreachable_classes flow);
  Alcotest.(check (list string)) "non-remotable ifaces" [ "IShared" ]
    (Interface_flow.non_remotable_ifaces flow);
  let refs = Interface_flow.references flow in
  Alcotest.(check bool) "MAIN reaches B transitively" true
    (List.mem (Coign_com.Runtime.main_class_name, "B") refs)

(* The derived pairs and pins reach the user as CG006 findings, one per
   non-remotable pair and one per client pin; the cut never sees them. *)
let test_flow_constraints () =
  let flow = Interface_flow.analyze (sample_meta ()) in
  Alcotest.(check (list (pair string string)))
    "co-location pair" [ ("A", "B") ]
    (Interface_flow.non_remotable_pairs flow);
  Alcotest.(check (list string)) "client pin" [ "B" ] (Interface_flow.client_pins flow);
  Alcotest.(check (list string))
    "CG006 subjects" [ "A <-> B"; Coign_com.Runtime.main_class_name ^ " <-> B" ]
    (List.filter_map
       (fun d -> if d.Lint.code = "CG006" then Some d.Lint.subject else None)
       (Lint.lint_meta (sample_meta ())))

let test_flow_accepts_direction () =
  (* Flow through an [In] interface parameter: A passes B's IShared
     into S's remotable sink, so S can also reach B. *)
  let meta =
    Image_meta.create
      ~ifaces:
        [
          {
            Image_meta.if_name = "ISink";
            if_methods =
              [ Idl_type.method_ "put" [ Idl_type.param "x" (Idl_type.Iface "IShared") ] ];
          };
          {
            Image_meta.if_name = "IShared";
            if_methods =
              [ Idl_type.method_ "poke" [ Idl_type.param "h" (Idl_type.Opaque "HND") ] ];
          };
        ]
      ~classes:
        [
          { Image_meta.cl_name = "A"; cl_provides = []; cl_creates = [ "B"; "S" ] };
          { Image_meta.cl_name = "B"; cl_provides = [ "IShared" ]; cl_creates = [] };
          { Image_meta.cl_name = "S"; cl_provides = [ "ISink" ]; cl_creates = [] };
        ]
      ~roots:[ "A" ]
  in
  let flow = Interface_flow.analyze meta in
  let pairs = Interface_flow.non_remotable_pairs flow in
  Alcotest.(check bool) "A-B pair" true (List.mem ("A", "B") pairs);
  Alcotest.(check bool) "B-S pair via In param" true (List.mem ("B", "S") pairs)

(* --- Differential oracle: the string-set fixpoint ------------------- *)

(* The naive analysis Interface_flow used to run: apply the rules to the
   whole relation of string pairs until it stops growing, recomputing
   providers by scanning every pair. Slow but obviously the rules; the
   dense worklist must agree with it on every query, order included. *)
module Reference = struct
  module SS = Set.Make (String)

  module SP = Set.Make (struct
    type t = string * string

    let compare = compare
  end)

  let main_class = Coign_com.Runtime.main_class_name

  type t = { meta : Image_meta.t; refs : SP.t; non_remotable : SS.t }

  let norm a b = if a <= b then (a, b) else (b, a)

  let rec iface_names acc = function
    | Idl_type.Iface n -> SS.add n acc
    | Idl_type.Void | Idl_type.Int32 | Idl_type.Int64 | Idl_type.Double | Idl_type.Bool
    | Idl_type.Str | Idl_type.Blob | Idl_type.Opaque _ ->
        acc
    | Idl_type.Array u | Idl_type.Ptr u -> iface_names acc u
    | Idl_type.Struct fields -> List.fold_left (fun acc (_, u) -> iface_names acc u) acc fields

  let method_yields (m : Idl_type.method_sig) =
    List.fold_left
      (fun acc (p : Idl_type.param) ->
        match p.Idl_type.pdir with
        | Idl_type.Out | Idl_type.In_out -> iface_names acc p.Idl_type.pty
        | Idl_type.In -> acc)
      (iface_names SS.empty m.Idl_type.ret)
      m.Idl_type.params

  let method_accepts (m : Idl_type.method_sig) =
    List.fold_left
      (fun acc (p : Idl_type.param) ->
        match p.Idl_type.pdir with
        | Idl_type.In | Idl_type.In_out -> iface_names acc p.Idl_type.pty
        | Idl_type.Out -> acc)
      SS.empty m.Idl_type.params

  let analyze (meta : Image_meta.t) =
    let impl =
      List.fold_left
        (fun m (c : Image_meta.cls) ->
          (c.Image_meta.cl_name, SS.of_list c.Image_meta.cl_provides) :: m)
        [] meta.Image_meta.classes
    in
    let impl_of name = Option.value ~default:SS.empty (List.assoc_opt name impl) in
    let yields_of, accepts_of =
      let tbl f =
        let h = Hashtbl.create 32 in
        List.iter
          (fun (i : Image_meta.iface) ->
            Hashtbl.replace h i.Image_meta.if_name
              (List.fold_left (fun acc m -> SS.union acc (f m)) SS.empty i.Image_meta.if_methods))
          meta.Image_meta.ifaces;
        fun name -> Option.value ~default:SS.empty (Hashtbl.find_opt h name)
      in
      (tbl method_yields, tbl method_accepts)
    in
    let seed =
      List.fold_left
        (fun refs (c : Image_meta.cls) ->
          List.fold_left
            (fun refs child ->
              if child = c.Image_meta.cl_name then refs else SP.add (c.Image_meta.cl_name, child) refs)
            refs c.Image_meta.cl_creates)
        (List.fold_left (fun refs root -> SP.add (main_class, root) refs) SP.empty
           meta.Image_meta.roots)
        meta.Image_meta.classes
    in
    let providers refs x j =
      let own = if SS.mem j (impl_of x) then SS.singleton x else SS.empty in
      SP.fold (fun (a, b) acc -> if a = x && SS.mem j (impl_of b) then SS.add b acc else acc) refs own
    in
    let step refs =
      SP.fold
        (fun (a, b) acc ->
          SS.fold
            (fun i acc ->
              let acc =
                SS.fold
                  (fun j acc ->
                    SS.fold
                      (fun c acc -> if c = a then acc else SP.add (a, c) acc)
                      (providers refs b j) acc)
                  (yields_of i) acc
              in
              SS.fold
                (fun j acc ->
                  SS.fold
                    (fun c acc -> if c = b then acc else SP.add (b, c) acc)
                    (providers refs a j) acc)
                (accepts_of i) acc)
            (impl_of b) acc)
        refs refs
    in
    let rec fix refs =
      let refs' = step refs in
      if SP.equal refs refs' then refs else fix refs'
    in
    let non_remotable =
      List.fold_left
        (fun acc (i : Image_meta.iface) ->
          if List.for_all Idl_type.method_remotable i.Image_meta.if_methods then acc
          else SS.add i.Image_meta.if_name acc)
        SS.empty meta.Image_meta.ifaces
    in
    { meta; refs = fix seed; non_remotable }

  let references t = SP.elements t.refs
  let non_remotable_ifaces t = SS.elements t.non_remotable

  let class_non_remotable t name =
    not
      (SS.is_empty
         (SS.inter
            (SS.of_list
               (match Image_meta.cls t.meta name with
               | Some c -> c.Image_meta.cl_provides
               | None -> []))
            t.non_remotable))

  let non_remotable_pairs t =
    SP.fold
      (fun (a, b) acc ->
        if a = main_class || b = main_class then acc
        else if class_non_remotable t b then SP.add (norm a b) acc
        else acc)
      t.refs SP.empty
    |> SP.elements

  let client_pins t =
    SP.fold
      (fun (a, b) acc -> if a = main_class && class_non_remotable t b then SS.add b acc else acc)
      t.refs SS.empty
    |> SS.elements

  let unreachable_classes t =
    let succs x = SP.fold (fun (a, b) acc -> if a = x then SS.add b acc else acc) t.refs SS.empty in
    let rec walk seen frontier =
      if SS.is_empty frontier then seen
      else
        let next = SS.fold (fun x acc -> SS.union acc (succs x)) frontier SS.empty in
        let fresh = SS.diff next seen in
        walk (SS.union seen fresh) fresh
    in
    let reached = walk (SS.singleton main_class) (SS.singleton main_class) in
    List.filter_map
      (fun (c : Image_meta.cls) ->
        if SS.mem c.Image_meta.cl_name reached then None else Some c.Image_meta.cl_name)
      t.meta.Image_meta.classes
end

(* Random metadata, built as a raw record so that names repeat,
   creates and roots name undeclared classes (and MAIN), classes create
   themselves, and signatures nest interfaces inside arrays, pointers
   and structs next to opaque (non-remotable) parameters. *)
let gen_meta =
  let open QCheck.Gen in
  let* nclasses = int_range 1 40 and* nifaces = int_range 1 20 in
  (* Names past the declared counts are never declared; "C10" sorts
     before "C2", so id order is not declaration order. *)
  let class_name =
    frequency
      [ (30, map (Printf.sprintf "C%d") (int_bound (nclasses + 3)));
        (1, return Coign_com.Runtime.main_class_name) ]
  in
  let iface_name = map (Printf.sprintf "I%d") (int_bound (nifaces + 2)) in
  let ty =
    fix
      (fun self depth ->
        let leaf =
          frequency
            [ (4, map (fun n -> Idl_type.Iface n) iface_name);
              (1, return (Idl_type.Opaque "HND"));
              (3, oneofl Idl_type.[ Void; Int32; Int64; Double; Bool; Str; Blob ]) ]
        in
        if depth = 0 then leaf
        else
          frequency
            [ (4, leaf);
              (1, map (fun u -> Idl_type.Array u) (self (depth - 1)));
              (1, map (fun u -> Idl_type.Ptr u) (self (depth - 1)));
              (1,
                map
                  (fun us -> Idl_type.Struct (List.mapi (fun i u -> (Printf.sprintf "f%d" i, u)) us))
                  (list_size (int_range 1 3) (self (depth - 1)))) ])
      2
  in
  let param =
    let* dir = oneofl Idl_type.[ In; Out; In_out ] and* pty = ty in
    return (Idl_type.param ~dir "p" pty)
  in
  let meth =
    let* ret = ty and* params = list_size (int_range 0 3) param in
    return (Idl_type.method_ ~ret "m" params)
  in
  let iface =
    let* if_name = iface_name and* if_methods = list_size (int_range 0 3) meth in
    return { Image_meta.if_name; if_methods }
  in
  let cls =
    let* cl_name = class_name
    and* cl_provides = list_size (int_range 0 3) iface_name
    and* cl_creates = list_size (int_range 0 3) class_name in
    return { Image_meta.cl_name; cl_provides; cl_creates }
  in
  let* ifaces = list_repeat nifaces iface
  and* classes = list_repeat nclasses cls
  and* roots = list_size (int_range 0 3) class_name in
  return { Image_meta.ifaces; classes; roots }

let prop_flow_matches_reference =
  QCheck.Test.make ~name:"interface flow == string-set reference fixpoint" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Image_meta.pp) gen_meta)
    (fun meta ->
      let got = Interface_flow.analyze meta and want = Reference.analyze meta in
      let same what eq f g = eq (f got) (g want) || QCheck.Test.fail_reportf "%s differs" what in
      let strings = List.equal String.equal and pairs = ( = ) in
      same "references" pairs Interface_flow.references Reference.references
      && same "non_remotable_pairs" pairs Interface_flow.non_remotable_pairs
           Reference.non_remotable_pairs
      && same "client_pins" strings Interface_flow.client_pins Reference.client_pins
      && same "unreachable_classes" strings Interface_flow.unreachable_classes
           Reference.unreachable_classes
      && same "non_remotable_ifaces" strings Interface_flow.non_remotable_ifaces
           Reference.non_remotable_ifaces)

(* The bundled applications, through the same oracle. *)
let test_flow_matches_reference_on_apps () =
  List.iter
    (fun (app : App.t) ->
      let meta = Option.get app.App.app_image.Binary_image.meta in
      let got = Interface_flow.analyze meta and want = Reference.analyze meta in
      let check what f g =
        Alcotest.(check (list (pair string string))) (app.App.app_name ^ " " ^ what) (g want) (f got)
      in
      let check_names what f g =
        Alcotest.(check (list string)) (app.App.app_name ^ " " ^ what) (g want) (f got)
      in
      check "references" Interface_flow.references Reference.references;
      check "non-remotable pairs" Interface_flow.non_remotable_pairs Reference.non_remotable_pairs;
      check_names "client pins" Interface_flow.client_pins Reference.client_pins;
      check_names "unreachable" Interface_flow.unreachable_classes Reference.unreachable_classes)
    Suite.all

(* --- Golden lint output for the four applications ------------------- *)

(* Rendered as `coign lint` prints it, so the CI step can diff the CLI's
   output against the same files. *)
let check_golden app_name golden_path () =
  let app = Suite.find_app app_name in
  let diags = Lint.lint_image app.App.app_image in
  let got =
    if diags = [] then "no diagnostics\n" else Format.asprintf "%a" Lint.pp_text diags
  in
  Alcotest.(check string) (app_name ^ " lint output") (Harness.read_file golden_path) got

(* --- Acceptance: static analysis vs. the dynamic profiler ----------- *)

let net () = Net_profiler.profile (Coign_util.Prng.create 42L) Network.ethernet_10

let photodraw_profiled =
  lazy
    (let app = Photodraw.app in
     let image = Adps.instrument app.App.app_image in
     let sc = App.bigone app in
     let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
     image)

(* Every non-remotable class pair the dynamic profiler discovers (the
   paper's figure-5 "black web") must already be known statically:
   either as a non-remotable co-location pair or — when one endpoint is
   the main program — as a client pin. Checked on every application,
   each profiled on all its scenarios. *)
let uncovered_dynamic_pairs app =
  let image =
    List.fold_left
      (fun image sc ->
        fst (Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run))
      (Adps.instrument app.App.app_image) app.App.app_scenarios
  in
  let classifier, icc = Option.get (Adps.load_profile image) in
  let meta = Option.get image.Binary_image.meta in
  let flow = Interface_flow.analyze meta in
  let static_pairs = Interface_flow.non_remotable_pairs flow in
  let pins = Interface_flow.client_pins flow in
  let main = Coign_com.Runtime.main_class_name in
  let name c = if c < 0 then main else Classifier.class_of_classification classifier c in
  let dynamic =
    Icc.entries icc
    |> List.filter (fun e -> not e.Icc.remotable)
    |> List.map (fun e ->
           let a = name e.Icc.src and b = name e.Icc.dst in
           (min a b, max a b))
    |> List.sort_uniq compare
    |> List.filter (fun (a, b) -> a <> b)
  in
  let covered (a, b) =
    if a = main then List.mem b pins
    else if b = main then List.mem a pins
    else List.mem (a, b) static_pairs
  in
  (dynamic, List.filter (fun pair -> not (covered pair)) dynamic)

let test_static_covers_dynamic () =
  let results =
    List.map (fun app -> (app.App.app_name, uncovered_dynamic_pairs app)) Suite.all
  in
  Alcotest.(check bool) "profiler saw non-remotable traffic" true
    (List.exists (fun (_, (dynamic, _)) -> dynamic <> []) results);
  let uncovered =
    List.concat_map
      (fun (app_name, (_, uncovered)) ->
        List.map (fun (a, b) -> Printf.sprintf "%s: %s <-> %s" app_name a b) uncovered)
      results
  in
  Alcotest.(check (list string)) "dynamic pairs the static analysis misses" [] uncovered

let test_analyze_accepts_own_cut () =
  let image = Lazy.force photodraw_profiled in
  let _, dist = Adps.analyze ~image ~net:(net ()) () in
  Alcotest.(check bool) "some classifications on the server" true
    (dist.Analysis.server_count > 0);
  Alcotest.(check bool) "not everything on the server" true
    (dist.Analysis.server_count < dist.Analysis.node_count)

(* Hand-force a distribution that splits a statically detected
   non-remotable pair: the validator must reject it at analyze time with
   CG007 errors, before replay could ever hit a runtime violation. *)
let test_forced_split_rejected () =
  let image = Lazy.force photodraw_profiled in
  let extra =
    Constraints.pin_class
      (Constraints.pin_class Constraints.empty ~cname:"PhotoDraw.Layer" Constraints.Client)
      ~cname:"PhotoDraw.SpriteCache" Constraints.Server
  in
  match Adps.analyze ~extra_constraints:extra ~image ~net:(net ()) () with
  | _ -> Alcotest.fail "expected Lint.Rejected"
  | exception Lint.Rejected diags ->
      (* The pins split the profiled non-remotable Layer/SpriteCache
         chain, so no cut honours both: the solve keeps the chain on the
         client with Layer and reports the server pin as violated. *)
      Alcotest.(check string) "exact diagnostics"
        "error CG007 photodraw: PhotoDraw.SpriteCache is pinned to the server but placed \
         elsewhere\n"
        (Format.asprintf "%a" Lint.pp_text diags)

(* [coign lint --json] is the text report as JSON: one object per
   line of [coign lint], in the same order, with the same fields. *)
let test_cli_lint_json () =
  Harness.in_tmp (fun dir ->
      let img = Filename.concat dir "oct.img" in
      Harness.check_ok "instrument" (Harness.run [ "instrument"; "--app"; "octarine"; "-o"; img ]);
      let text = Filename.concat dir "lint.txt" and json = Filename.concat dir "lint.json" in
      let rc = Harness.run_to text [ "lint"; img ] in
      Alcotest.(check int) "same exit code" rc (Harness.run_to json [ "lint"; img; "--json" ]);
      let module J = Coign_util.Jsonu in
      match J.parse (Harness.read_file json) with
      | Ok (J.Arr items) ->
          let field k o =
            match J.member k o with Some (J.Str s) -> s | _ -> Alcotest.failf "no string %s" k
          in
          let line o =
            Printf.sprintf "%s %s %s: %s\n" (field "severity" o) (field "code" o)
              (field "subject" o) (field "message" o)
          in
          Alcotest.(check bool) "some diagnostics" true (items <> []);
          Alcotest.(check string) "json matches the text report" (Harness.read_file text)
            (String.concat "" (List.map line items))
      | Ok _ -> Alcotest.fail "lint --json is not an array"
      | Error e -> Alcotest.failf "lint --json does not parse: %s" e)

let suite =
  [
    Alcotest.test_case "finite: basics" `Quick test_finite_basic;
    Alcotest.test_case "finite: cycles" `Quick test_finite_cycle;
    Alcotest.test_case "finite: shared subterm" `Quick test_finite_shared_subterm;
    Alcotest.test_case "meta sanitizes recursive types" `Quick test_meta_sanitizes_recursive;
    Alcotest.test_case "meta codec roundtrip" `Quick test_meta_roundtrip;
    Alcotest.test_case "image meta roundtrip" `Quick test_image_meta_roundtrip;
    Alcotest.test_case "flow: pairs, pins, unreachable" `Quick test_flow_pairs;
    Alcotest.test_case "flow: derived constraints" `Quick test_flow_constraints;
    Alcotest.test_case "flow: in-parameter direction" `Quick test_flow_accepts_direction;
    QCheck_alcotest.to_alcotest prop_flow_matches_reference;
    Alcotest.test_case "flow: apps match the reference" `Quick
      test_flow_matches_reference_on_apps;
    Alcotest.test_case "golden: photodraw" `Quick
      (check_golden "photodraw" "golden/lint_photodraw.txt");
    Alcotest.test_case "golden: octarine" `Quick
      (check_golden "octarine" "golden/lint_octarine.txt");
    Alcotest.test_case "golden: benefits" `Quick
      (check_golden "benefits" "golden/lint_benefits.txt");
    Alcotest.test_case "golden: ingest" `Quick (check_golden "ingest" "golden/lint_ingest.txt");
    Alcotest.test_case "static covers dynamic web" `Slow test_static_covers_dynamic;
    Alcotest.test_case "analyze accepts its own cut" `Slow test_analyze_accepts_own_cut;
    Alcotest.test_case "forced split rejected" `Slow test_forced_split_rejected;
    Alcotest.test_case "cli lint json matches the text report" `Slow test_cli_lint_json;
  ]
