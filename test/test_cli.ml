(* Integration test of the command-line toolchain: the stages of paper
   Figure 1 run as separate processes over image files, exactly as a
   user would drive them. *)

open Harness

let test_full_pipeline () =
  in_tmp (fun dir ->
      let img = Filename.concat dir "oct.img" in
      check_ok "instrument" (run [ "instrument"; "--app"; "octarine"; "-o"; img ]);
      check_ok "profile wp0" (run [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
      check_ok "profile tb0" (run [ "profile"; img; "--scenario"; "o_oldtb0"; "-o"; img ]);
      check_ok "analyze" (run [ "analyze"; img; "--network"; "ethernet10"; "-o"; img ]);
      check_ok "show" (run [ "show"; img ]);
      check_ok "run" (run [ "run"; img; "--scenario"; "o_oldtb0"; "--compare-default" ]);
      (* The distributed image is a valid, decodable binary image. *)
      let image = Coign_image.Binary_image.load img in
      Alcotest.(check bool) "distribution stored" true
        (Coign_core.Adps.load_distribution image <> None))

let test_log_combine_flow () =
  in_tmp (fun dir ->
      let img = Filename.concat dir "oct.img" in
      let scratch = Filename.concat dir "scratch.img" in
      let log1 = Filename.concat dir "wp0.cpl" in
      let log2 = Filename.concat dir "tb0.cpl" in
      check_ok "instrument" (run [ "instrument"; "--app"; "octarine"; "-o"; img ]);
      check_ok "profile+log 1"
        (run [ "profile"; img; "--scenario"; "o_oldwp0"; "--log"; log1; "-o"; scratch ]);
      check_ok "profile+log 2"
        (run [ "profile"; img; "--scenario"; "o_oldtb0"; "--log"; log2; "-o"; scratch ]);
      check_ok "combine" (run [ "combine"; img; log1; log2; "-o"; img ]);
      check_ok "analyze combined" (run [ "analyze"; img; "-o"; img ]);
      let image = Coign_image.Binary_image.load img in
      let classifier, _ = Option.get (Coign_core.Adps.load_distribution image) in
      Alcotest.(check bool) "classifications from both runs" true
        (Coign_core.Classifier.classification_count classifier > 30))

let test_error_reporting () =
  in_tmp (fun dir ->
      let img = Filename.concat dir "x.img" in
      Alcotest.(check bool) "unknown app rejected" true
        (run [ "instrument"; "--app"; "nonesuch"; "-o"; img ] <> 0);
      check_ok "instrument" (run [ "instrument"; "--app"; "benefits"; "-o"; img ]);
      Alcotest.(check bool) "unknown scenario rejected" true
        (run [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ] <> 0);
      Alcotest.(check int) "analyze without profile rejected" 1 (run [ "analyze"; img; "-o"; img ]);
      Alcotest.(check int) "run without distribution rejected" 1
        (run [ "run"; img; "--scenario"; "b_vueone" ]))

(* Run [args]; the command must exit 1 with stderr starting
   "error: <decoder>: ", or just "error: " without a decoder, and
   ending in [says] when given. *)
let check_input_error ~dir ?decoder ?(says = "") what args =
  let err = Filename.concat dir "stderr.txt" in
  let rc =
    Sys.command (Filename.quote_command exe args ^ " > /dev/null 2> " ^ Filename.quote err)
  in
  Alcotest.(check int) (what ^ " exit") 1 rc;
  let msg = read_file err in
  let prefix = match decoder with Some d -> "error: " ^ d ^ ": " | None -> "error: " in
  Alcotest.(check bool)
    (Printf.sprintf "%s reports %S ... %S: %S" what prefix says msg)
    true
    (String.starts_with ~prefix msg && String.ends_with ~suffix:(says ^ "\n") msg)

(* [dir]/[name].img: image [src] with configuration entry [key]
   rewritten by [edit]. *)
let tamper ~dir src name key edit =
  let open Coign_image in
  let path = Filename.concat dir (name ^ ".img") in
  let image = Binary_image.load src in
  let config = Option.get image.Binary_image.config in
  let payload = Option.get (Config_record.entry config key) in
  let config = Config_record.set_entry config key (edit payload) in
  Binary_image.save { image with Binary_image.config = Some config } path;
  path

(* A stored profile that fails to decode, or whose entries each decode
   but disagree (an ICC row naming a classification past the
   classifier's, a classifier cut short under its ICC), is bad input:
   every command that loads it prints "error: <decoder>: ..." and exits
   1, never an uncaught exception (exit 125). *)
let test_tampered_profile () =
  in_tmp (fun dir ->
      let img = profiled_octarine dir in
      let lines f payload = String.concat "\n" (f (String.split_on_char '\n' payload)) in
      (* Rewrite field [i] of line [n] (tab-separated) of a payload. *)
      let edit_line n f =
        lines (List.mapi (fun j line -> if j = n then f (String.split_on_char '\t' line) else line))
      in
      let set i v fields =
        String.concat "\t" (List.mapi (fun j x -> if j = i then v else x) fields)
      in
      let retarget line =
        if String.starts_with ~prefix:"35\t39\t" line then
          "35\t89" ^ String.sub line 5 (String.length line - 5)
        else line
      in
      List.iter
        (fun (name, key, edit, decoder, says) ->
          let path = tamper ~dir img name key edit in
          List.iter
            (fun args -> check_input_error ~dir ~decoder ~says (List.hd args ^ " " ^ name) args)
            [ [ "analyze"; path; "-o"; path ]; [ "verify"; path ]; [ "show"; path ] ])
        [
          ("icc-count", Coign_core.Config_keys.icc, edit_line 1 (set 5 "many"), "Icc.decode", "");
          ( "icc-fields", Coign_core.Config_keys.icc,
            edit_line 1 (fun fields -> String.concat "\t" (List.tl fields)), "Icc.decode", "" );
          ("icc-negative", Coign_core.Config_keys.icc, edit_line 1 (set 5 "-3"), "Icc.decode", "");
          ( "classifier-order", Coign_core.Config_keys.classifier,
            edit_line 2 (fun _ -> "seven"), "Classifier.decode", "" );
          ( "icc-past-classifier", Coign_core.Config_keys.icc, lines (List.map retarget),
            "Icc.decode",
            "entry 35 -> 89 (ICoCreateInstance) names classification 89, "
            ^ "but the classifier has 40" );
          ( "classifier-truncated", Coign_core.Config_keys.classifier,
            lines (List.filteri (fun i line -> i < 23 || line = "")),
            "Icc.decode", "but the classifier has 20" );
        ])

(* The analyzer and the verifier read one set of hard constraints.
   With the ICC cell 0 -> 28 IFileRead (Octarine.App, pinned to the
   client, calling Storage.FileServer, pinned to the server) marked
   non-remotable by a same-length edit, no finite cut exists: analyze
   exits 1 with a CG007 error naming the split pair and writes no
   image, and verify exits 1 because the ladder's primary rung splits
   the same pair. *)
let test_non_remotable_split_rejected () =
  in_tmp (fun dir ->
      let img = profiled_octarine dir in
      let cell = "0\t28\tIFileRead\t" in
      let flip line =
        if String.starts_with ~prefix:(cell ^ "1\t") line then
          let k = String.length cell + 1 in
          cell ^ "0" ^ String.sub line k (String.length line - k)
        else line
      in
      let path =
        tamper ~dir img "non-remotable" Coign_core.Config_keys.icc (fun payload ->
            String.concat "\n" (List.map flip (String.split_on_char '\n' payload)))
      in
      let err = Filename.concat dir "stderr.txt" and out = Filename.concat dir "analyzed.img" in
      let stderr_of args =
        let rc =
          Sys.command (Filename.quote_command exe args ^ " > /dev/null 2> " ^ Filename.quote err)
        in
        (rc, read_file err)
      in
      let split = "classifications 0 and 28 share a non-remotable interface but are split" in
      let rc, msg = stderr_of [ "analyze"; path; "-o"; out ] in
      Alcotest.(check int) "analyze exit" 1 rc;
      Alcotest.(check bool)
        ("analyze reports CG007: " ^ msg)
        true
        (List.mem ("error CG007 octarine: " ^ split ^ " across the cut")
           (String.split_on_char '\n' msg));
      Alcotest.(check bool) "analyze writes no image" false (Sys.file_exists out);
      let rc, msg = stderr_of [ "verify"; path ] in
      Alcotest.(check int) "verify exit" 1 rc;
      Alcotest.(check string) "verify rejects the primary rung"
        ("error: fallback rung primary: " ^ split ^ " across the cut\n")
        msg)

(* A corrupt profile log or stored distribution is bad input as well:
   combine, show and run report the decoder's error and exit 1. *)
let test_malformed_log_and_distribution () =
  in_tmp (fun dir ->
      let img = Filename.concat dir "oct.img" in
      let analyzed = Filename.concat dir "an.img" in
      let log = Filename.concat dir "wp0.cpl" in
      let out = Filename.concat dir "out.img" in
      check_ok "instrument" (run [ "instrument"; "--app"; "octarine"; "-o"; img ]);
      check_ok "profile"
        (run [ "profile"; img; "--scenario"; "o_oldwp0"; "--log"; log; "-o"; analyzed ]);
      check_ok "analyze" (run [ "analyze"; analyzed; "--network"; "ethernet10"; "-o"; analyzed ]);
      let whole = read_file log in
      List.iter
        (fun (name, contents) ->
          let path = Filename.concat dir name in
          Out_channel.with_open_bin path (fun oc -> output_string oc contents);
          check_input_error ~dir ~decoder:"Profile_log.decode" ("combine " ^ name)
            [ "combine"; img; path; "-o"; out ])
        [ ("junk.cpl", "hello\n"); ("half.cpl", String.sub whole 0 (String.length whole / 2)) ];
      Alcotest.(check bool) "combine wrote nothing" false (Sys.file_exists out);
      let flip_first_byte bit s =
        String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor bit) else c) s
      in
      List.iter
        (fun (name, edit) ->
          let path = tamper ~dir analyzed name Coign_core.Config_keys.distribution edit in
          List.iter
            (fun args ->
              check_input_error ~dir ~decoder:"Analysis.decode" (List.hd args ^ " " ^ name) args)
            [ [ "show"; path ]; [ "run"; path; "--scenario"; "o_oldwp0" ] ])
        [
          ("count-digit", flip_first_byte 0x01);
          ("count-letter", flip_first_byte 0x40);
          ("no-header", String.map (fun c -> if c = '\n' then ' ' else c));
          ("short-placement", fun s -> String.sub s 0 (String.length s - 1));
          (* Well-formed, but one classification short of its classifier. *)
          ( "placement-short-of-classifier",
            fun s ->
              Scanf.sscanf s "%d %s@\n%s" (fun n header placement ->
                  Printf.sprintf "%d %s\n%s" (n - 1) header (String.sub placement 0 (n - 1))) );
        ])

(* A file that is not an image at all is bad input too: exit 1 with
   "error: <codec message>" from every command that loads an image,
   and no output file written. *)
let test_not_an_image () =
  in_tmp (fun dir ->
      let junk = Filename.concat dir "junk.img" in
      let out = Filename.concat dir "out.img" in
      Out_channel.with_open_bin junk (fun oc -> output_string oc "hello\n");
      List.iter
        (fun args ->
          let command = List.hd args in
          check_input_error ~dir command args;
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
  in_tmp ~needs:[ golden ] (fun dir ->
      let img = Filename.concat dir "ben.img" in
      let out = Filename.concat dir "spans.txt" in
      check_ok "instrument" (run [ "instrument"; "--app"; "benefits"; "-o"; img ]);
      check_ok "trace"
        (run
           [ "trace"; img; "--scenario"; "b_addone"; "--format"; "spans"; "-o"; out ]);
      Alcotest.(check string) "span trace golden" (read_file golden) (read_file out))

let test_trace_chrome_and_metrics_parse () =
  in_tmp (fun dir ->
      let img = Filename.concat dir "ben.img" in
      let chrome = Filename.concat dir "trace.json" in
      let prom = Filename.concat dir "metrics.json" in
      check_ok "instrument" (run [ "instrument"; "--app"; "benefits"; "-o"; img ]);
      check_ok "trace chrome"
        (run
           [ "trace"; img; "--scenario"; "b_addone"; "--format"; "chrome"; "-o"; chrome ]);
      let j = Harness.parse_json (read_file chrome) in
      (match Coign_util.Jsonu.member "traceEvents" j with
      | Some (Coign_util.Jsonu.Arr evs) ->
          Alcotest.(check bool) "trace events present" true (List.length evs > 100)
      | _ -> Alcotest.fail "chrome trace lacks traceEvents");
      let cmd =
        Filename.quote_command exe
          [ "metrics"; img; "--scenario"; "b_addone"; "--json" ]
      in
      check_ok "metrics --json" (Sys.command (cmd ^ " > " ^ Filename.quote prom ^ " 2>/dev/null"));
      let m = Harness.parse_json (read_file prom) in
      Alcotest.(check bool) "rte counters exported" true
        (Coign_util.Jsonu.member "coign_rte_intercepted_calls_total" m <> None))

(* `coign metrics` on benefits b_addone under both RTE modes: the
   exposition is a function of the deterministic scenario, so the whole
   text is golden — the profiling run pins the per-message size
   histograms, the distributed run the rte and factory counters. *)
let test_metrics_golden_benefits () =
  let golden = "golden/metrics_benefits_addone.txt" in
  let golden_profiling = "golden/metrics_benefits_addone_profiling.txt" in
  in_tmp ~needs:[ golden; golden_profiling ] (fun dir ->
      let img = Filename.concat dir "ben.img" in
      let metrics = [ "metrics"; img; "--scenario"; "b_addone" ] in
      check_ok "instrument" (run [ "instrument"; "--app"; "benefits"; "-o"; img ]);
      check_golden ~dir ~golden:golden_profiling "metrics_profiling" metrics;
      check_ok "profile" (run [ "profile"; img; "--scenario"; "b_addone"; "-o"; img ]);
      check_ok "analyze" (run [ "analyze"; img; "-o"; img ]);
      check_golden ~dir ~golden "metrics_distributed" metrics)

let test_load_golden_octarine () =
  let golden = "golden/load_octarine.txt" in
  in_tmp ~needs:[ golden ] (fun dir ->
      let img = Filename.concat dir "oct.img" in
      let out = Filename.concat dir "load.txt" in
      check_ok "instrument" (run [ "instrument"; "--app"; "octarine"; "-o"; img ]);
      check_ok "profile wp0" (run [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
      check_ok "profile tb0" (run [ "profile"; img; "--scenario"; "o_oldtb0"; "-o"; img ]);
      check_ok "analyze" (run [ "analyze"; img; "-o"; img ]);
      check_ok "load"
        (run_to out
           [
             "load"; img; "--sessions"; "200"; "--arrival"; "poisson:1"; "--seed"; "11";
             "--scenarios"; "o_oldwp0,o_oldtb0";
           ]);
      Alcotest.(check string) "load text golden" (read_file golden) (read_file out))

let test_watch_golden_octarine () =
  let golden = "golden/watch_octarine.txt" in
  in_tmp ~needs:[ golden ] (fun dir ->
      let img = Filename.concat dir "oct.img" in
      let out1 = Filename.concat dir "watch1.txt" in
      let out4 = Filename.concat dir "watch4.txt" in
      check_ok "instrument" (run [ "instrument"; "--app"; "octarine"; "-o"; img ]);
      let watch_args jobs out =
        run_to out
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

(* The watch golden's run with the registry attached: the drift gauges
   print at full precision beside the rte and factory counters. *)
let test_watch_metrics_golden_octarine () =
  let golden = "golden/watch_octarine_metrics.txt" in
  in_tmp ~needs:[ golden ] (fun dir ->
      let img = Filename.concat dir "oct.img" in
      check_ok "instrument" (run [ "instrument"; "--app"; "octarine"; "-o"; img ]);
      check_golden ~dir ~golden "watch_metrics"
        [
          "watch"; img; "--profile"; "o_oldwp0"; "--phases";
          "o_oldwp0;o_oldwp7,o_oldwp7,o_oldwp7;o_oldwp7,o_oldwp7,o_oldwp7"; "--jobs"; "1";
          "--metrics";
        ])

(* The events format of the profiling trace, and the span trace of the
   distributed run (the analyzed image's intercept path). *)
let test_trace_events_and_distributed_golden () =
  let events_golden = "golden/trace_events_benefits_addone.txt" in
  let spans_golden = "golden/trace_benefits_addone_distributed.txt" in
  in_tmp ~needs:[ events_golden; spans_golden ] (fun dir ->
      let img = Filename.concat dir "ben.img" in
      let trace format = [ "trace"; img; "--scenario"; "b_addone"; "--format"; format ] in
      check_ok "instrument" (run [ "instrument"; "--app"; "benefits"; "-o"; img ]);
      check_golden ~dir ~golden:events_golden "trace_events" (trace "events");
      check_ok "profile" (run [ "profile"; img; "--scenario"; "b_addone"; "-o"; img ]);
      check_ok "analyze" (run [ "analyze"; img; "-o"; img ]);
      check_golden ~dir ~golden:spans_golden "trace_spans" (trace "spans"))

let test_load_golden_ingest () =
  let golden = "golden/load_ingest.txt" in
  in_tmp ~needs:[ golden ] (fun dir ->
      let img = Filename.concat dir "ing.img" in
      let out1 = Filename.concat dir "load1.txt" in
      let out4 = Filename.concat dir "load4.txt" in
      let js = Filename.concat dir "load.json" in
      check_ok "instrument" (run [ "instrument"; "--app"; "ingest"; "-o"; img ]);
      check_ok "profile strm1" (run [ "profile"; img; "--scenario"; "i_strm1"; "-o"; img ]);
      check_ok "profile replay" (run [ "profile"; img; "--scenario"; "i_replay"; "-o"; img ]);
      check_ok "analyze" (run [ "analyze"; img; "-o"; img ]);
      let args jobs =
        [
          "load"; img; "--sessions"; "200"; "--arrival"; "bursty:30,250,500"; "--seed"; "11";
          "--scenarios"; "i_strm1,i_replay"; "--jobs"; jobs;
        ]
      in
      check_ok "load --jobs 1" (run_to out1 (args "1"));
      check_ok "load --jobs 4" (run_to out4 (args "4"));
      Alcotest.(check string) "load text golden" (read_file golden) (read_file out1);
      Alcotest.(check string) "jobs 1 == jobs 4, byte-identical" (read_file out1)
        (read_file out4);
      (* The JSON form parses with the in-repo parser and carries the
         percentile fields. *)
      check_ok "load --json" (run_to js (args "1" @ [ "--json" ]));
      let j = Harness.parse_json (read_file js) in
      List.iter
        (fun field ->
          Alcotest.(check bool) (field ^ " present") true
            (Coign_util.Jsonu.member field j <> None))
        [ "p50_us"; "p95_us"; "p99_us"; "throughput_per_s"; "availability" ])

(* A non-finite arrival field is a bad command line (exit 124, like
   poisson:0), never a run that reports NaN percentiles; a NaN
   deadline is rejected by the run itself (exit 1). *)
let test_load_rejects_non_finite () =
  in_tmp (fun dir ->
      let img = Filename.concat dir "ben.img" in
      check_ok "instrument" (run [ "instrument"; "--app"; "benefits"; "-o"; img ]);
      check_ok "profile" (run [ "profile"; img; "--scenario"; "b_addone"; "-o"; img ]);
      check_ok "analyze" (run [ "analyze"; img; "-o"; img ]);
      let load args = run ([ "load"; img; "--sessions"; "50" ] @ args) in
      check_ok "finite spec runs" (load [ "--arrival"; "poisson:10" ]);
      List.iter
        (fun spec ->
          Alcotest.(check int) (spec ^ " exit") 124 (load [ "--arrival"; spec; "--json" ]))
        [
          "poisson:0"; "poisson:nan"; "poisson:inf"; "bursty:nan,5,5"; "bursty:10,inf,5";
          "bursty:10,5,-inf"; "diurnal:10,nan"; "diurnal:infinity,5";
        ];
      Alcotest.(check int) "nan deadline exit" 1
        (load [ "--arrival"; "poisson:10"; "--deadline-ms"; "nan" ]);
      Alcotest.(check int) "inf deadline exit" 1
        (load [ "--arrival"; "poisson:10"; "--deadline-ms"; "inf" ]))

(* Every float option of run and the three grid views is a finite
   number (--jitter also >= 0): nan, inf or a negative jitter is a bad
   command line (exit 124), never a run printing nan rows or
   silently ignoring an infinite fault window. The existing range
   checks keep exit 1. *)
let test_grid_rejects_non_finite () =
  in_tmp (fun dir ->
      let img = Filename.concat dir "ben.img" in
      let dist = Filename.concat dir "ben-dist.img" in
      check_ok "instrument" (run [ "instrument"; "--app"; "benefits"; "-o"; img ]);
      check_ok "profile" (run [ "profile"; img; "--scenario"; "b_addone"; "-o"; img ]);
      check_ok "analyze" (run [ "analyze"; img; "-o"; dist ]);
      let cmd (name, image) args = name :: image :: "--scenario" :: "b_addone" :: args in
      let faultsim = ("faultsim", dist) and resilience = ("resilience", img) in
      let fleet = ("fleet", img) and run_ = ("run", dist) in
      check_ok "finite grid runs"
        (run (cmd faultsim [ "--drops"; "0"; "--partitions-ms"; "0"; "--jitter"; "0.01" ]));
      List.iter
        (fun (c, args) ->
          Alcotest.(check int) (String.concat " " (fst c :: args) ^ " exit") 124 (run (cmd c args)))
        [
          (resilience, [ "--partitions-ms"; "nan" ]);
          (faultsim, [ "--partitions-ms"; "inf" ]);
          (fleet, [ "--fault-start-ms"; "inf" ]);
          (fleet, [ "--fault-ms"; "inf" ]);
          (faultsim, [ "--jitter"; "nan" ]);
          (fleet, [ "--jitter"; "nan" ]);
          (run_, [ "--jitter"; "nan" ]);
          (run_, [ "--jitter=-0.1" ]);
          (faultsim, [ "--drops"; "0,nan" ]);
          (resilience, [ "--partition-start-ms"; "nan" ]);
          (resilience, [ "--cooloff-ms"; "inf" ]);
        ];
      List.iter
        (fun (c, args) ->
          Alcotest.(check int) (String.concat " " (fst c :: args) ^ " exit") 1 (run (cmd c args)))
        [
          (faultsim, [ "--drops"; "1.5" ]);
          (resilience, [ "--partitions-ms=-1" ]);
          (fleet, [ "--fault-ms"; "0" ]);
          (fleet, [ "--cooloff-ms"; "0" ]);
        ])

(* Every image-taking subcommand, run on an instrumented, a profiled
   and an analyzed image and on a file that is not an image, succeeds,
   reports bad input (exit 1) or rejects its command line (exit 124) —
   never an uncaught exception (exit 125). *)
let test_exit_codes () =
  in_tmp (fun dir ->
      let path name = Filename.concat dir name in
      let ins = path "ins.img" and prof = path "prof.img" and an = path "an.img" in
      let junk = path "junk.img" and log = path "wp0.cpl" in
      check_ok "instrument" (run [ "instrument"; "--app"; "octarine"; "-o"; ins ]);
      check_ok "profile"
        (run [ "profile"; ins; "--scenario"; "o_oldwp0"; "--log"; log; "-o"; prof ]);
      check_ok "analyze" (run [ "analyze"; prof; "-o"; an ]);
      Out_channel.with_open_bin junk (fun oc -> output_string oc "hello\n");
      let sc = [ "--scenario"; "o_oldwp0" ] in
      (* The analyzed image with a hand-written distribution that splits
         a profiled non-remotable pair: a run under it faults with
         E_CANNOTMARSHAL, which is bad input (exit 1), not a crash. *)
      let split = path "split.img" in
      let open Coign_core in
      let _, icc = Option.get (Adps.load_profile (Coign_image.Binary_image.load prof)) in
      let e =
        List.find
          (fun (e : Icc.entry) -> (not e.Icc.remotable) && e.Icc.src >= 0 && e.Icc.dst >= 0)
          (Icc.entries icc)
      in
      let image = Coign_image.Binary_image.load an in
      let _, d = Option.get (Adps.load_distribution image) in
      let placement = Array.copy d.Analysis.placement in
      placement.(e.Icc.src) <-
        (match placement.(e.Icc.dst) with
        | Constraints.Client -> Constraints.Server
        | Constraints.Server -> Constraints.Client);
      let config =
        Coign_image.Config_record.set_entry
          (Option.get image.Coign_image.Binary_image.config)
          Config_keys.distribution
          (Analysis.encode { d with Analysis.placement })
      in
      Coign_image.Binary_image.save
        { image with Coign_image.Binary_image.config = Some config }
        split;
      List.iter
        (fun args ->
          let err = path "err.txt" in
          let cmd = Filename.quote_command exe args in
          Alcotest.(check int) (List.hd args ^ " on a faulting distribution exits 1") 1
            (Sys.command (cmd ^ " > /dev/null 2> " ^ Filename.quote err));
          let prefix = "error: E_CANNOTMARSHAL: " and msg = read_file err in
          Alcotest.(check string) (List.hd args ^ " names the fault") prefix
            (String.sub msg 0 (min (String.length msg) (String.length prefix))))
        [
          "run" :: split :: sc;
          ("trace" :: split :: sc) @ [ "-o"; path "out.json" ];
          "metrics" :: split :: sc;
        ];
      let commands img =
        [
          [ "analyze"; img; "-o"; path "out.img" ];
          [ "combine"; img; log; "-o"; path "out.img" ];
          "faultsim" :: img :: sc;
          "fleet" :: img :: sc;
          [ "lint"; img ];
          [ "load"; img; "--sessions"; "50" ];
          "metrics" :: img :: sc;
          ("profile" :: img :: sc) @ [ "-o"; path "out.img" ];
          "resilience" :: img :: sc;
          "run" :: img :: sc;
          [ "show"; img ];
          [ "sweep"; img; "--points"; "3" ];
          ("trace" :: img :: sc) @ [ "-o"; path "out.json" ];
          [ "verify"; img ];
          [ "watch"; img; "--profile"; "o_oldwp0"; "--phases"; "o_oldwp0" ];
        ]
      in
      List.iter
        (fun img ->
          List.iter
            (fun args ->
              let rc = run args in
              Alcotest.(check bool)
                (Printf.sprintf "%s exits %d"
                   (String.concat " " (List.map Filename.basename args))
                   rc)
                true
                (List.mem rc [ 0; 1; 124 ]))
            (commands img))
        [ ins; prof; an; junk ])

(* The watch's float options are finite numbers (the dwell and the
   window mass also >= 0): nan, inf or a negative value is a bad
   command line (exit 124), never a run that silently turns the watch
   off. *)
let test_watch_rejects_non_finite () =
  in_tmp (fun dir ->
      let img = Filename.concat dir "oct.img" in
      check_ok "instrument" (run [ "instrument"; "--app"; "octarine"; "-o"; img ]);
      let watch args =
        run ([ "watch"; img; "--profile"; "o_oldwp0"; "--phases"; "o_oldwp0;o_oldwp7" ] @ args)
      in
      check_ok "finite options run" (watch [ "--min-dwell-ms"; "0"; "--min-window"; "0" ]);
      List.iter
        (fun args -> Alcotest.(check int) (String.concat " " args ^ " exit") 124 (watch args))
        [
          [ "--min-dwell-ms"; "nan" ];
          [ "--min-window"; "nan" ];
          [ "--min-dwell-ms=-5" ];
          [ "--min-window=-1" ];
          [ "--half-life-ms"; "inf" ];
          [ "--half-life-ms"; "nan" ];
          [ "--threshold"; "nan" ];
        ])

(* sweep --json carries each point's network exactly: a scraper can
   rebuild the model behind cut_ns bit for bit. *)
let test_sweep_json_exact () =
  in_tmp (fun dir ->
      let img = Harness.profiled_octarine dir in
      let out = Filename.concat dir "sweep.json" in
      check_ok "sweep --json" (run_to out [ "sweep"; img; "--points"; "7"; "--json" ]);
      let networks =
        Coign_netsim.Network.geometric_sweep ~points:7 ~from_net:Coign_netsim.Network.isdn_128
          ~to_net:Coign_netsim.Network.san_1g ()
      in
      let float field p =
        match Coign_util.Jsonu.member field p with
        | Some (Coign_util.Jsonu.Float f) -> f
        | Some (Coign_util.Jsonu.Int i) -> float_of_int i
        | _ -> Alcotest.fail ("point lacks " ^ field)
      in
      match Harness.parse_json (read_file out) with
      | Coign_util.Jsonu.Arr points ->
          Alcotest.(check int) "points" 7 (List.length points);
          List.iter2
            (fun (n : Coign_netsim.Network.t) p ->
              let name = n.Coign_netsim.Network.net_name in
              check_bits (name ^ " latency_us") n.Coign_netsim.Network.latency_us
                (float "latency_us" p);
              check_bits (name ^ " bandwidth_mbps") n.Coign_netsim.Network.bandwidth_mbps
                (float "bandwidth_mbps" p);
              check_bits (name ^ " proc_us") n.Coign_netsim.Network.proc_us (float "proc_us" p))
            networks points
      | _ -> Alcotest.fail "sweep JSON is not an array")

let suite =
  [
    Alcotest.test_case "cli full pipeline" `Slow test_full_pipeline;
    Alcotest.test_case "cli log/combine flow" `Slow test_log_combine_flow;
    Alcotest.test_case "cli error reporting" `Quick test_error_reporting;
    Alcotest.test_case "cli tampered profile" `Quick test_tampered_profile;
    Alcotest.test_case "cli rejects a non-image file" `Quick test_not_an_image;
    Alcotest.test_case "cli rejects a malformed log or distribution" `Slow
      test_malformed_log_and_distribution;
    Alcotest.test_case "cli trace golden" `Slow test_trace_golden;
    Alcotest.test_case "cli trace/metrics json" `Slow test_trace_chrome_and_metrics_parse;
    Alcotest.test_case "cli load golden octarine" `Slow test_load_golden_octarine;
    Alcotest.test_case "cli load golden ingest" `Slow test_load_golden_ingest;
    Alcotest.test_case "cli load rejects non-finite input" `Quick test_load_rejects_non_finite;
    Alcotest.test_case "cli watch golden octarine" `Slow test_watch_golden_octarine;
    Alcotest.test_case "cli grid rejects non-finite input" `Quick test_grid_rejects_non_finite;
    Alcotest.test_case "cli sweep json is exact" `Quick test_sweep_json_exact;
    Alcotest.test_case "cli exit codes stay 0, 1 or 124" `Slow test_exit_codes;
    Alcotest.test_case "cli watch rejects non-finite input" `Quick test_watch_rejects_non_finite;
    Alcotest.test_case "cli metrics golden benefits" `Slow test_metrics_golden_benefits;
    Alcotest.test_case "cli watch metrics golden octarine" `Slow
      test_watch_metrics_golden_octarine;
    Alcotest.test_case "cli trace events and distributed spans golden" `Slow
      test_trace_events_and_distributed_golden;
    Alcotest.test_case "cli analyze rejects a cut across a non-remotable pair" `Quick
      test_non_remotable_split_rejected;
  ]
