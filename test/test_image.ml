open Coign_image

let qtest = QCheck_alcotest.to_alcotest

(* --- Codec ---------------------------------------------------------- *)

let test_codec_roundtrip_scalars () =
  let w = Codec.writer () in
  Codec.w_u8 w 200;
  Codec.w_u32 w 123456;
  Codec.w_str w "héllo\n\ttab";
  Codec.w_list w (Codec.w_u32 w) [ 1; 2; 3 ];
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check int) "u8" 200 (Codec.r_u8 r);
  Alcotest.(check int) "u32" 123456 (Codec.r_u32 r);
  Alcotest.(check string) "str" "héllo\n\ttab" (Codec.r_str r);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.r_list r Codec.r_u32);
  Codec.expect_end r

let test_codec_truncation () =
  let w = Codec.writer () in
  Codec.w_u32 w 5;
  let r = Codec.reader (String.sub (Codec.contents w) 0 2) in
  Alcotest.check_raises "truncated" (Codec.Malformed "truncated input") (fun () ->
      ignore (Codec.r_u32 r))

let test_codec_trailing () =
  let r = Codec.reader "xx" in
  Alcotest.check_raises "trailing" (Codec.Malformed "trailing bytes") (fun () ->
      Codec.expect_end r)

(* --- Config_record --------------------------------------------------- *)

let gen_config =
  QCheck.Gen.(
    let mode = oneofl [ Config_record.Off; Config_record.Profiling; Config_record.Distributed ] in
    let entry = pair (string_size (int_range 1 10)) (string_size (int_range 0 60)) in
    mode >>= fun m ->
    oneofl [ "ifcb"; "st"; "pcb" ] >>= fun cls ->
    opt (int_range 1 16) >>= fun depth ->
    list_size (int_range 0 5) entry >>= fun entries ->
    return
      (List.fold_left
         (fun c (k, v) -> Config_record.set_entry c k v)
         (Config_record.with_stack_depth
            (Config_record.with_classifier (Config_record.create m) cls)
            depth)
         entries))

let arb_config =
  QCheck.make ~print:(Format.asprintf "%a" Config_record.pp) gen_config

let prop_config_roundtrip =
  QCheck.Test.make ~name:"config record encode/decode roundtrip" ~count:300 arb_config
    (fun c -> Config_record.equal c (Config_record.decode (Config_record.encode c)))

let test_config_entries () =
  let c = Config_record.create Config_record.Profiling in
  let c = Config_record.set_entry c "icc" "data1" in
  let c = Config_record.set_entry c "icc" "data2" in
  Alcotest.(check (option string)) "replaced" (Some "data2") (Config_record.entry c "icc");
  let c = Config_record.remove_entry c "icc" in
  Alcotest.(check (option string)) "removed" None (Config_record.entry c "icc")

let test_config_bad_magic () =
  Alcotest.(check bool) "malformed rejected" true
    (try
       ignore (Config_record.decode "garbage");
       false
     with Codec.Malformed _ -> true)

(* --- Binary_image ---------------------------------------------------- *)

let sample_image () =
  Binary_image.create ~name:"app.exe"
    ~api_refs:
      [ ("App.Main", [ "user32.CreateWindowExW" ]); ("App.Store", [ "kernel32.ReadFile" ]) ]
    ()

let test_image_roundtrip () =
  let img = sample_image () in
  Alcotest.(check bool) "roundtrip" true
    (Binary_image.equal img (Binary_image.decode (Binary_image.encode img)))

let test_image_roundtrip_with_config () =
  let img = Rewriter.instrument (sample_image ()) in
  Alcotest.(check bool) "roundtrip" true
    (Binary_image.equal img (Binary_image.decode (Binary_image.encode img)))

let test_image_file_io () =
  let img = sample_image () in
  let path = Filename.temp_file "coign" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Binary_image.save img path;
      Alcotest.(check bool) "load equals save" true (Binary_image.equal img (Binary_image.load path)))

let test_image_api_refs () =
  let img = sample_image () in
  Alcotest.(check (list string)) "refs" [ "kernel32.ReadFile" ]
    (Binary_image.class_api_refs img "App.Store");
  Alcotest.(check (list string)) "unknown class" [] (Binary_image.class_api_refs img "Nope")

(* --- Rewriter --------------------------------------------------------- *)

let test_instrument_first_import () =
  let img = Rewriter.instrument (sample_image ()) in
  Alcotest.(check bool) "instrumented" true (Rewriter.is_instrumented img);
  (match img.Binary_image.imports with
  | first :: _ -> Alcotest.(check string) "first slot" "coignrte.dll" first
  | [] -> Alcotest.fail "no imports");
  (* idempotent: runtime dll appears once *)
  let again = Rewriter.instrument img in
  Alcotest.(check int) "single runtime import" 1
    (List.length
       (List.filter (String.equal "coignrte.dll") again.Binary_image.imports))

let test_instrument_preserves_profile_entries () =
  let img = Rewriter.instrument (sample_image ()) in
  let config = Option.get img.Binary_image.config in
  let img =
    { img with Binary_image.config = Some (Config_record.set_entry config "coign.icc" "DATA") }
  in
  let img = Rewriter.instrument img in
  Alcotest.(check (option string)) "accumulated entry kept" (Some "DATA")
    (Config_record.entry (Option.get img.Binary_image.config) "coign.icc")

let test_write_distribution () =
  let img = Rewriter.instrument (sample_image ()) in
  let config = Option.get img.Binary_image.config in
  let img =
    { img with Binary_image.config = Some (Config_record.set_entry config "coign.icc" "RAW") }
  in
  let img = Rewriter.write_distribution img ~entries:[ ("coign.distribution", "PLAN") ] in
  let config = Option.get img.Binary_image.config in
  Alcotest.(check bool) "distributed mode" true
    (Config_record.mode config = Config_record.Distributed);
  Alcotest.(check (option string)) "profiling entries dropped" None
    (Config_record.entry config "coign.icc");
  Alcotest.(check (option string)) "distribution stored" (Some "PLAN")
    (Config_record.entry config "coign.distribution")

let test_strip () =
  let original = sample_image () in
  let stripped = Rewriter.strip (Rewriter.instrument original) in
  Alcotest.(check bool) "equals original" true (Binary_image.equal original stripped)

let suite =
  [
    Alcotest.test_case "codec roundtrip scalars" `Quick test_codec_roundtrip_scalars;
    Alcotest.test_case "codec truncation" `Quick test_codec_truncation;
    Alcotest.test_case "codec trailing" `Quick test_codec_trailing;
    qtest prop_config_roundtrip;
    Alcotest.test_case "config entries" `Quick test_config_entries;
    Alcotest.test_case "config bad magic" `Quick test_config_bad_magic;
    Alcotest.test_case "image roundtrip" `Quick test_image_roundtrip;
    Alcotest.test_case "image roundtrip with config" `Quick test_image_roundtrip_with_config;
    Alcotest.test_case "image file io" `Quick test_image_file_io;
    Alcotest.test_case "image api refs" `Quick test_image_api_refs;
    Alcotest.test_case "instrument first import" `Quick test_instrument_first_import;
    Alcotest.test_case "instrument preserves entries" `Quick
      test_instrument_preserves_profile_entries;
    Alcotest.test_case "write distribution" `Quick test_write_distribution;
    Alcotest.test_case "strip" `Quick test_strip;
  ]
