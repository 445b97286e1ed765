(* Integration test of the command-line toolchain: the stages of paper
   Figure 1 run as separate processes over image files, exactly as a
   user would drive them. *)

let exe = "../bin/coign.exe"

let run_cmd args =
  let cmd = Filename.quote_command exe args in
  Sys.command (cmd ^ " > /dev/null 2>&1")

let with_tmp f =
  let dir = Filename.temp_file "coign_cli" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let check_ok what rc = Alcotest.(check int) what 0 rc

let test_full_pipeline () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        check_ok "profile wp0" (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
        check_ok "profile tb0" (run_cmd [ "profile"; img; "--scenario"; "o_oldtb0"; "-o"; img ]);
        check_ok "analyze" (run_cmd [ "analyze"; img; "--network"; "ethernet10"; "-o"; img ]);
        check_ok "show" (run_cmd [ "show"; img ]);
        check_ok "run" (run_cmd [ "run"; img; "--scenario"; "o_oldtb0"; "--compare-default" ]);
        (* The distributed image is a valid, decodable binary image. *)
        let image = Coign_image.Binary_image.load img in
        Alcotest.(check bool) "distribution stored" true
          (Coign_core.Adps.load_distribution image <> None))

let test_log_combine_flow () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        let scratch = Filename.concat dir "scratch.img" in
        let log1 = Filename.concat dir "wp0.cpl" in
        let log2 = Filename.concat dir "tb0.cpl" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        check_ok "profile+log 1"
          (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "--log"; log1; "-o"; scratch ]);
        check_ok "profile+log 2"
          (run_cmd [ "profile"; img; "--scenario"; "o_oldtb0"; "--log"; log2; "-o"; scratch ]);
        check_ok "combine" (run_cmd [ "combine"; img; log1; log2; "-o"; img ]);
        check_ok "analyze combined" (run_cmd [ "analyze"; img; "-o"; img ]);
        let image = Coign_image.Binary_image.load img in
        let classifier, _ = Option.get (Coign_core.Adps.load_distribution image) in
        Alcotest.(check bool) "classifications from both runs" true
          (Coign_core.Classifier.classification_count classifier > 30))

let test_error_reporting () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "x.img" in
        Alcotest.(check bool) "unknown app rejected" true
          (run_cmd [ "instrument"; "--app"; "nonesuch"; "-o"; img ] <> 0);
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "benefits"; "-o"; img ]);
        Alcotest.(check bool) "unknown scenario rejected" true
          (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ] <> 0);
        Alcotest.(check bool) "analyze without profile rejected" true
          (run_cmd [ "analyze"; img; "-o"; img ] <> 0))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A stored profile that fails to decode is bad input: every command
   that loads it prints "error: <decoder>: ..." and exits 1, never an
   uncaught exception (exit 125). *)
let test_tampered_profile () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let open Coign_image in
        let img = Filename.concat dir "oct.img" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        check_ok "profile" (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
        let tamper name key edit =
          let path = Filename.concat dir (name ^ ".img") in
          let image = Binary_image.load img in
          let config = Option.get image.Binary_image.config in
          let payload = Option.get (Config_record.entry config key) in
          let config = Config_record.set_entry config key (edit payload) in
          Binary_image.save { image with Binary_image.config = Some config } path;
          path
        in
        (* Rewrite field [i] of line [n] (tab-separated) of a payload. *)
        let edit_line n f payload =
          String.split_on_char '\n' payload
          |> List.mapi (fun j line -> if j = n then f (String.split_on_char '\t' line) else line)
          |> String.concat "\n"
        in
        let set i v fields =
          String.concat "\t" (List.mapi (fun j x -> if j = i then v else x) fields)
        in
        let cases =
          [
            ( "icc-count", Coign_core.Config_keys.icc, edit_line 1 (set 5 "many"), "Icc.decode" );
            ( "icc-fields", Coign_core.Config_keys.icc,
              edit_line 1 (fun fields -> String.concat "\t" (List.tl fields)), "Icc.decode" );
            ( "icc-negative", Coign_core.Config_keys.icc, edit_line 1 (set 5 "-3"), "Icc.decode" );
            ( "classifier-order", Coign_core.Config_keys.classifier,
              edit_line 2 (fun _ -> "seven"), "Classifier.decode" );
          ]
        in
        let err = Filename.concat dir "stderr.txt" in
        List.iter
          (fun (name, key, edit, decoder) ->
            let path = tamper name key edit in
            List.iter
              (fun args ->
                let command = List.hd args in
                let rc =
                  Sys.command
                    (Filename.quote_command exe args ^ " > /dev/null 2> " ^ Filename.quote err)
                in
                Alcotest.(check int) (Printf.sprintf "%s %s exit" command name) 1 rc;
                let msg = read_file err in
                let prefix = "error: " ^ decoder ^ ": " in
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s names %s: %S" command name decoder msg)
                  true
                  (String.length msg >= String.length prefix
                  && String.sub msg 0 (String.length prefix) = prefix))
              [ [ "analyze"; path; "-o"; path ]; [ "show"; path ] ])
          cases)

(* A file that is not an image at all is bad input too: exit 1 with
   "error: <codec message>" from every command that loads an image,
   and no output file written. *)
let test_not_an_image () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let junk = Filename.concat dir "junk.img" in
        let out = Filename.concat dir "out.img" in
        let err = Filename.concat dir "stderr.txt" in
        Out_channel.with_open_bin junk (fun oc -> output_string oc "hello\n");
        List.iter
          (fun args ->
            let command = List.hd args in
            let rc =
              Sys.command (Filename.quote_command exe args ^ " > /dev/null 2> " ^ Filename.quote err)
            in
            Alcotest.(check int) (command ^ " exit") 1 rc;
            let msg = read_file err in
            Alcotest.(check bool)
              (Printf.sprintf "%s reports an error: %S" command msg)
              true
              (String.length msg > 7 && String.sub msg 0 7 = "error: ");
            Alcotest.(check bool) (command ^ " wrote nothing") false (Sys.file_exists out))
          [
            [ "show"; junk ];
            [ "lint"; junk ];
            [ "profile"; junk; "--scenario"; "o_oldwp0"; "-o"; out ];
            [ "analyze"; junk; "-o"; out ];
          ])

let test_trace_golden () =
  (* `coign trace --format spans` output is timed on the deterministic
     sim clock, so the whole trace of a fixed scenario is golden. *)
  let golden = "golden/trace_benefits_addone.txt" in
  if not (Sys.file_exists exe && Sys.file_exists golden) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "ben.img" in
        let out = Filename.concat dir "spans.txt" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "benefits"; "-o"; img ]);
        check_ok "trace"
          (run_cmd
             [ "trace"; img; "--scenario"; "b_addone"; "--format"; "spans"; "-o"; out ]);
        Alcotest.(check string) "span trace golden" (read_file golden) (read_file out))

let test_trace_chrome_and_metrics_parse () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "ben.img" in
        let chrome = Filename.concat dir "trace.json" in
        let prom = Filename.concat dir "metrics.json" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "benefits"; "-o"; img ]);
        check_ok "trace chrome"
          (run_cmd
             [ "trace"; img; "--scenario"; "b_addone"; "--format"; "chrome"; "-o"; chrome ]);
        let j = Coign_util.Jsonu.parse_exn (read_file chrome) in
        (match Coign_util.Jsonu.member "traceEvents" j with
        | Some (Coign_util.Jsonu.Arr evs) ->
            Alcotest.(check bool) "trace events present" true (List.length evs > 100)
        | _ -> Alcotest.fail "chrome trace lacks traceEvents");
        let cmd =
          Filename.quote_command exe
            [ "metrics"; img; "--scenario"; "b_addone"; "--json" ]
        in
        check_ok "metrics --json" (Sys.command (cmd ^ " > " ^ Filename.quote prom ^ " 2>/dev/null"));
        let m = Coign_util.Jsonu.parse_exn (read_file prom) in
        Alcotest.(check bool) "rte counters exported" true
          (Coign_util.Jsonu.member "coign_rte_intercepted_calls_total" m <> None))

let run_cmd_to out args =
  let cmd = Filename.quote_command exe args in
  Sys.command (cmd ^ " > " ^ Filename.quote out ^ " 2>/dev/null")

let test_load_golden_octarine () =
  let golden = "golden/load_octarine.txt" in
  if not (Sys.file_exists exe && Sys.file_exists golden) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        let out = Filename.concat dir "load.txt" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        check_ok "profile wp0" (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
        check_ok "profile tb0" (run_cmd [ "profile"; img; "--scenario"; "o_oldtb0"; "-o"; img ]);
        check_ok "analyze" (run_cmd [ "analyze"; img; "-o"; img ]);
        check_ok "load"
          (run_cmd_to out
             [
               "load"; img; "--sessions"; "200"; "--arrival"; "poisson:1"; "--seed"; "11";
               "--scenarios"; "o_oldwp0,o_oldtb0";
             ]);
        Alcotest.(check string) "load text golden" (read_file golden) (read_file out))

let test_watch_golden_octarine () =
  let golden = "golden/watch_octarine.txt" in
  if not (Sys.file_exists exe && Sys.file_exists golden) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        let out1 = Filename.concat dir "watch1.txt" in
        let out4 = Filename.concat dir "watch4.txt" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        let watch_args jobs out =
          run_cmd_to out
            [
              "watch"; img; "--profile"; "o_oldwp0"; "--phases";
              "o_oldwp0;o_oldwp7,o_oldwp7,o_oldwp7;o_oldwp7,o_oldwp7,o_oldwp7";
              "--jobs"; jobs;
            ]
        in
        check_ok "watch" (watch_args "1" out1);
        Alcotest.(check string) "watch text golden" (read_file golden) (read_file out1);
        (* The three regimes evaluate on separate domains without
           changing a byte of the report. *)
        check_ok "watch --jobs 4" (watch_args "4" out4);
        Alcotest.(check string) "jobs byte-identical" (read_file out1) (read_file out4))

let test_load_golden_ingest () =
  let golden = "golden/load_ingest.txt" in
  if not (Sys.file_exists exe && Sys.file_exists golden) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "ing.img" in
        let out1 = Filename.concat dir "load1.txt" in
        let out4 = Filename.concat dir "load4.txt" in
        let js = Filename.concat dir "load.json" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "ingest"; "-o"; img ]);
        check_ok "profile strm1" (run_cmd [ "profile"; img; "--scenario"; "i_strm1"; "-o"; img ]);
        check_ok "profile replay" (run_cmd [ "profile"; img; "--scenario"; "i_replay"; "-o"; img ]);
        check_ok "analyze" (run_cmd [ "analyze"; img; "-o"; img ]);
        let args jobs =
          [
            "load"; img; "--sessions"; "200"; "--arrival"; "bursty:30,250,500"; "--seed"; "11";
            "--scenarios"; "i_strm1,i_replay"; "--jobs"; jobs;
          ]
        in
        check_ok "load --jobs 1" (run_cmd_to out1 (args "1"));
        check_ok "load --jobs 4" (run_cmd_to out4 (args "4"));
        Alcotest.(check string) "load text golden" (read_file golden) (read_file out1);
        Alcotest.(check string) "jobs 1 == jobs 4, byte-identical" (read_file out1)
          (read_file out4);
        (* The JSON form parses with the in-repo parser and carries the
           percentile fields. *)
        check_ok "load --json" (run_cmd_to js (args "1" @ [ "--json" ]));
        let j = Coign_util.Jsonu.parse_exn (read_file js) in
        List.iter
          (fun field ->
            Alcotest.(check bool) (field ^ " present") true
              (Coign_util.Jsonu.member field j <> None))
          [ "p50_us"; "p95_us"; "p99_us"; "throughput_per_s"; "availability" ])

(* A non-finite arrival field is a bad command line (exit 124, like
   poisson:0), never a run that reports NaN percentiles; a NaN
   deadline is rejected by the run itself (exit 1). *)
let test_load_rejects_non_finite () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "ben.img" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "benefits"; "-o"; img ]);
        check_ok "profile" (run_cmd [ "profile"; img; "--scenario"; "b_addone"; "-o"; img ]);
        check_ok "analyze" (run_cmd [ "analyze"; img; "-o"; img ]);
        let load args = run_cmd ([ "load"; img; "--sessions"; "50" ] @ args) in
        check_ok "finite spec runs" (load [ "--arrival"; "poisson:10" ]);
        List.iter
          (fun spec ->
            Alcotest.(check int) (spec ^ " exit") 124 (load [ "--arrival"; spec; "--json" ]))
          [
            "poisson:0"; "poisson:nan"; "poisson:inf"; "bursty:nan,5,5"; "bursty:10,inf,5";
            "bursty:10,5,-inf"; "diurnal:10,nan"; "diurnal:infinity,5";
          ];
        Alcotest.(check int) "nan deadline exit" 1
          (load [ "--arrival"; "poisson:10"; "--deadline-ms"; "nan" ]))

let suite =
  [
    Alcotest.test_case "cli full pipeline" `Slow test_full_pipeline;
    Alcotest.test_case "cli log/combine flow" `Slow test_log_combine_flow;
    Alcotest.test_case "cli error reporting" `Quick test_error_reporting;
    Alcotest.test_case "cli tampered profile" `Quick test_tampered_profile;
    Alcotest.test_case "cli rejects a non-image file" `Quick test_not_an_image;
    Alcotest.test_case "cli trace golden" `Slow test_trace_golden;
    Alcotest.test_case "cli trace/metrics json" `Slow test_trace_chrome_and_metrics_parse;
    Alcotest.test_case "cli load golden octarine" `Slow test_load_golden_octarine;
    Alcotest.test_case "cli load golden ingest" `Slow test_load_golden_ingest;
    Alcotest.test_case "cli load rejects non-finite input" `Quick test_load_rejects_non_finite;
    Alcotest.test_case "cli watch golden octarine" `Slow test_watch_golden_octarine;
  ]
