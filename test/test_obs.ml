(* The observability subsystem: JSON kernel, event serialization, the
   stable log line format, span tracing, the metrics registry, pipeline
   self-profiling — and the zero-cost guarantee that none of it changes
   a run that does not opt in. *)

open Coign_util
open Coign_core
open Coign_apps
open Coign_obs

let qtest = QCheck_alcotest.to_alcotest

(* --- Jsonu ---------------------------------------------------------- *)

let roundtrip j = Harness.parse_json (Jsonu.to_string j)

let test_jsonu_print_parse () =
  let j =
    Jsonu.Obj
      [
        ("null", Jsonu.Null);
        ("flag", Jsonu.Bool true);
        ("n", Jsonu.Int (-42));
        ("x", Jsonu.Float 1.5);
        ("s", Jsonu.Str "tab\there \"quoted\" back\\slash\nnewline");
        ("a", Jsonu.Arr [ Jsonu.Int 1; Jsonu.Str ""; Jsonu.Obj [] ]);
      ]
  in
  Alcotest.(check bool) "round-trips" true (Jsonu.equal j (roundtrip j))

let test_jsonu_float_never_reparses_as_int () =
  Alcotest.(check bool) "2.0 stays float" true
    (match roundtrip (Jsonu.Float 2.) with Jsonu.Float _ -> true | _ -> false);
  Alcotest.(check bool) "int stays int" true
    (match roundtrip (Jsonu.Int 2) with Jsonu.Int 2 -> true | _ -> false);
  Alcotest.(check string) "nan renders null" "null" (Jsonu.to_string (Jsonu.Float Float.nan))

let test_jsonu_unicode_escapes () =
  (* \u00e9 = é in UTF-8; a surrogate pair decodes to a 4-byte scalar. *)
  Alcotest.(check bool) "BMP escape" true
    (Harness.parse_json {|"caf\u00e9"|} = Jsonu.Str "caf\xc3\xa9");
  Alcotest.(check bool) "surrogate pair" true
    (Harness.parse_json {|"\ud83d\ude00"|} = Jsonu.Str "\xf0\x9f\x98\x80")

let test_jsonu_rejects_garbage () =
  let bad s = match Jsonu.parse s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "trailing garbage" true (bad "1 2");
  Alcotest.(check bool) "unterminated string" true (bad "\"abc");
  Alcotest.(check bool) "bare word" true (bad "flase")

let qcheck_jsonu_string_roundtrip =
  QCheck.Test.make ~name:"any string survives escape/parse" ~count:300 QCheck.string
    (fun s -> roundtrip (Jsonu.Str s) = Jsonu.Str s)

(* --- Event serialization -------------------------------------------- *)

let all_event_shapes =
  [
    Event.Component_instantiated
      { inst = 3; cname = "Mini.Back\twith\ttabs"; classification = 1; creator = 0 };
    Event.Interface_instantiated { owner = 2; iface = "IBack"; handle = 7 };
    Event.Interface_call
      {
        caller = 1;
        caller_classification = 0;
        callee = 2;
        callee_classification = 1;
        iface = "IBack";
        meth = "store";
        remotable = true;
        request_bytes = 1024;
        reply_bytes = 8;
      };
    Event.Call_retried { iface = "IBack"; meth = "store"; retries = 2 };
    Event.Instantiation_degraded { cname = "Mini.Back"; classification = 1 };
    Event.Breaker_opened { at_us = 9_000; failures = 2; drops = 6; spikes = 0 };
    Event.Breaker_closed { at_us = 28_500; probes = 1 };
    Event.Failover
      { at_us = 9_000; rung = "all-client"; from_rung = 0; to_rung = 1; migrated = 3; stranded = 1 };
    Event.Failback { at_us = 28_500; rung = "primary"; from_rung = 1; to_rung = 0; migrated = 0 };
    Event.Instance_migrated
      { at_us = 9_000; inst = 3; classification = 1; from_loc = "server0"; to_loc = "client" };
    Event.Drift_detected { at_us = 848_137; similarity = 0.714; threshold = 0.9; window_pairs = 78 };
    Event.Repartitioned
      {
        at_us = 848_137;
        similarity = 0.714;
        from_servers = 2;
        to_servers = 3;
        migrated = 2;
        left = 0;
      };
    Event.Replica_promoted { at_us = 61_000; shard = 2; from_host = 1; to_host = 2 };
    Event.Shard_split { at_us = 120_500; shard = 0; new_shard = 3; moved = 4; to_host = 1 };
    Event.Pool_resized { at_us = 61_000; from_hosts = 3; to_hosts = 2; shards = 4; migrated = 5 };
  ]

(* --- Logger line format (golden), kind tally ------------------------ *)

let test_to_channel_golden () =
  (* The exact bytes an event log holds, one Event.to_line per line —
     a compatibility surface; update this test only with a deliberate
     format change. *)
  let expected =
    "component_instantiated\tinst=1\tcname=\"Mini.Front\"\tclassification=0\tcreator=0\n\
     interface_call\tcaller=1\tcaller_classification=0\tcallee=2\tcallee_classification=1\t\
     iface=\"IBack\"\tmeth=\"store\"\tremotable=true\trequest_bytes=1024\treply_bytes=8\n\
     call_retried\tiface=\"IBack\"\tmeth=\"store\"\tretries=2\n\
     instantiation_degraded\tcname=\"A \\\"odd\\\"\\tname\"\tclassification=1\n"
  in
  let events =
    [
      Event.Component_instantiated
        { inst = 1; cname = "Mini.Front"; classification = 0; creator = 0 };
      Event.Interface_call
        {
          caller = 1;
          caller_classification = 0;
          callee = 2;
          callee_classification = 1;
          iface = "IBack";
          meth = "store";
          remotable = true;
          request_bytes = 1024;
          reply_bytes = 8;
        };
      Event.Call_retried { iface = "IBack"; meth = "store"; retries = 2 };
      Event.Instantiation_degraded { cname = "A \"odd\"\tname"; classification = 1 };
    ]
  in
  let got = String.concat "" (List.map (fun e -> Event.to_line e ^ "\n") events) in
  Alcotest.(check string) "stable line format" expected got

let test_tally_key_stability () =
  (* A log tallied by Event.kind_name — one stable key per
     constructor. *)
  let tally =
    List.fold_left
      (fun acc e ->
        let k = Event.kind_name e in
        (k, 1 + Option.value ~default:0 (List.assoc_opt k acc)) :: List.remove_assoc k acc)
      [] all_event_shapes
  in
  Alcotest.(check (list (pair string int)))
    "one key per constructor, sorted"
    [
      ("breaker_closed", 1);
      ("breaker_opened", 1);
      ("call_retried", 1);
      ("component_instantiated", 1);
      ("drift_detected", 1);
      ("failback", 1);
      ("failover", 1);
      ("instance_migrated", 1);
      ("instantiation_degraded", 1);
      ("interface_call", 1);
      ("interface_instantiated", 1);
      ("pool_resized", 1);
      ("repartitioned", 1);
      ("replica_promoted", 1);
      ("shard_split", 1);
    ]
    (List.sort compare tally)

(* --- Metrics registry ----------------------------------------------- *)

let test_metrics_counters_and_gauges () =
  let reg = Metrics.registry () in
  let c = Metrics.counter reg "requests_total" in
  Metrics.inc c;
  Metrics.inc ~by:2.5 c;
  Metrics.inc_int c 2;
  Alcotest.(check (float 1e-9)) "counter accumulates" 5.5 (Metrics.counter_value c);
  Alcotest.(check bool) "negative increment rejected" true
    (try
       Metrics.inc ~by:(-1.) c;
       false
     with Invalid_argument _ -> true);
  let g = Metrics.gauge reg "depth" in
  Metrics.set g 3.;
  Metrics.set g 1.5;
  Alcotest.(check (float 1e-9)) "gauge takes last value" 1.5 (Metrics.gauge_value g)

let test_metrics_identity_and_mismatch () =
  let reg = Metrics.registry () in
  let c1 = Metrics.counter reg ~labels:[ ("kind", "local") ] "req" in
  let c2 = Metrics.counter reg ~labels:[ ("kind", "local") ] "req" in
  let c3 = Metrics.counter reg ~labels:[ ("kind", "forwarded") ] "req" in
  Metrics.inc c1;
  Metrics.inc c2;
  Metrics.inc c3;
  Alcotest.(check (float 1e-9)) "same identity accumulates" 2. (Metrics.counter_value c1);
  Alcotest.(check (float 1e-9)) "different labels are distinct" 1. (Metrics.counter_value c3);
  Alcotest.(check bool) "kind mismatch rejected" true
    (try
       ignore (Metrics.gauge reg "req");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "invalid name rejected" true
    (try
       ignore (Metrics.counter reg "1bad name");
       false
     with Invalid_argument _ -> true)

let test_metrics_histogram () =
  let reg = Metrics.registry () in
  let h = Metrics.histogram reg "bytes" in
  Metrics.observe h 100;
  Metrics.observe h 5;
  Metrics.observe h (-7);
  Alcotest.(check int) "count" 3 (Metrics.histogram_count h);
  Alcotest.(check int) "sum (negative clamped)" 105 (Metrics.histogram_sum h)

(* The text format spells non-finite values NaN, +Inf and -Inf, and a
   NaN increment is refused instead of poisoning the counter. *)
let test_metrics_non_finite () =
  let reg = Metrics.registry () in
  let c = Metrics.counter reg "coign_c_total" in
  Alcotest.(check bool) "NaN increment rejected" true
    (try
       Metrics.inc ~by:Float.nan c;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (float 0.)) "counter not poisoned" 0. (Metrics.counter_value c);
  let gauge v = Metrics.gauge reg ~labels:[ ("v", v) ] "coign_g" in
  Metrics.set (gauge "pos") Float.infinity;
  Metrics.set (gauge "nan") Float.nan;
  Metrics.set (gauge "neg") Float.neg_infinity;
  Metrics.inc ~by:Float.infinity (Metrics.counter reg "coign_inf_total");
  Alcotest.(check string) "exposition"
    "# TYPE coign_c_total counter\n\
     coign_c_total 0\n\
     # TYPE coign_g gauge\n\
     coign_g{v=\"nan\"} NaN\n\
     coign_g{v=\"neg\"} -Inf\n\
     coign_g{v=\"pos\"} +Inf\n\
     # TYPE coign_inf_total counter\n\
     coign_inf_total +Inf\n"
    (Metrics.prometheus reg)

let sample_registry () =
  let reg = Metrics.registry () in
  let c = Metrics.counter reg ~help:"calls seen" "coign_calls_total" in
  Metrics.inc_int c 7;
  Metrics.set (Metrics.gauge reg "coign_depth") 2.;
  let h = Metrics.histogram reg ~labels:[ ("dir", "request") ] "coign_bytes" in
  Metrics.observe h 100;
  Metrics.observe h 90_000;
  reg

let test_metrics_exposition_deterministic () =
  let a = Metrics.prometheus (sample_registry ()) in
  let b = Metrics.prometheus (sample_registry ()) in
  Alcotest.(check string) "byte-identical exposition" a b;
  let contains sub =
    let n = String.length sub and m = String.length a in
    let rec go i = i + n <= m && (String.equal (String.sub a i n) sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "help line" true (contains "# HELP coign_calls_total calls seen");
  Alcotest.(check bool) "type line" true (contains "# TYPE coign_bytes histogram");
  Alcotest.(check bool) "cumulative +Inf bucket" true
    (contains "coign_bytes_bucket{dir=\"request\",le=\"+Inf\"} 2");
  Alcotest.(check bool) "histogram sum" true (contains "coign_bytes_sum{dir=\"request\"} 90100")

let test_prometheus_escaping () =
  (* One counter whose help text and label value are given, against
     the exposition it must have with both written as [help'] and
     [label']. *)
  let check what ?(help = "h") ?(help' = "h") label label' =
    let reg = Metrics.registry () in
    Metrics.inc (Metrics.counter reg ~help ~labels:[ ("l", label) ] "c_total");
    Alcotest.(check string) what
      (Printf.sprintf "# HELP c_total %s\n# TYPE c_total counter\nc_total{l=\"%s\"} 1\n" help'
         label')
      (Metrics.prometheus reg)
  in
  (* The exposition format escapes exactly three characters in quoted
     label values — not JSON's repertoire. Per character: *)
  check "backslash" {|a\b|} {|a\\b|};
  check "double quote" {|a"b|} {|a\"b|};
  check "line feed" "a\nb" {|a\nb|};
  check "tab passes raw" "a\tb" "a\tb";
  check "carriage return passes raw" "a\rb" "a\rb";
  check "high byte passes raw" "caf\xc3\xa9" "caf\xc3\xa9";
  check "empty" "" "";
  (* HELP text is unquoted: backslash and line feed only. *)
  check "help backslash" ~help:{|a\b|} ~help':{|a\\b|} "" "";
  check "help line feed" ~help:"a\nb" ~help':{|a\nb|} "" "";
  check "help quote stays raw" ~help:{|a"b|} ~help':{|a"b|} "" ""

let test_prometheus_escaping_end_to_end () =
  (* The tricky characters, pushed through the full exposition. *)
  let reg = Metrics.registry () in
  let c =
    Metrics.counter reg ~help:"line1\nline2 back\\slash \"quoted\""
      ~labels:[ ("path", "C:\\tmp\n\"x\"\ttail") ]
      "coign_esc_total"
  in
  Metrics.inc c;
  let text = Metrics.prometheus reg in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.equal (String.sub text i n) sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "label value escaped" true
    (contains "path=\"C:\\\\tmp\\n\\\"x\\\"\ttail\"");
  Alcotest.(check bool) "help escaped, quotes raw" true
    (contains "# HELP coign_esc_total line1\\nline2 back\\\\slash \"quoted\"");
  (* The multi-line help and label value must not smuggle raw line
     feeds into the exposition: every line still starts as a comment or
     a series sample. *)
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check bool) "line starts with # or the family name" true
          (String.length line >= 1
          && (line.[0] = '#' || String.length line >= 9 && String.sub line 0 9 = "coign_esc")))
    (String.split_on_char '\n' text)

let test_metrics_json_parses () =
  let j = Harness.parse_json (Metrics.to_json_string (sample_registry ())) in
  Alcotest.(check bool) "counter present" true
    (Jsonu.member "coign_calls_total" j <> None);
  Alcotest.(check bool) "stable" true
    (String.equal
       (Metrics.to_json_string (sample_registry ()))
       (Metrics.to_json_string (sample_registry ())))

(* --- Trace ----------------------------------------------------------- *)

let test_trace_nesting_and_emission_order () =
  let sink, spans = Sink.collector () in
  let tr = Trace.create ~trace_id:9 sink in
  let a = Trace.open_span tr ~name:"a" ~cat:"call" ~at_us:0. in
  let b = Trace.open_span tr ~name:"b" ~cat:"call" ~at_us:1. in
  Trace.close_span tr b ~at_us:3.;
  let c = Trace.open_span tr ~name:"c" ~cat:"create" ~at_us:3. in
  Trace.close_span tr c ~at_us:3.;
  Trace.close_span tr a ~args:[ ("k", Jsonu.Int 1) ] ~at_us:10.;
  Alcotest.(check int) "all closed" 0 (Trace.depth tr);
  Alcotest.(check int) "three spans" 3 (Trace.span_count tr);
  match spans () with
  | [ sb; sc; sa ] ->
      Alcotest.(check string) "close order: b first" "b" sb.Span.sp_name;
      Alcotest.(check string) "then c" "c" sc.Span.sp_name;
      Alcotest.(check string) "parent last" "a" sa.Span.sp_name;
      Alcotest.(check bool) "b child of a" true (sb.Span.sp_parent = Some a);
      Alcotest.(check bool) "c child of a (b closed)" true (sc.Span.sp_parent = Some a);
      Alcotest.(check bool) "a is root" true (sa.Span.sp_parent = None);
      Alcotest.(check (float 1e-9)) "duration" 2. sb.Span.sp_dur_us;
      Alcotest.(check int) "trace id" 9 sa.Span.sp_trace
  | l -> Alcotest.fail (Printf.sprintf "expected 3 spans, got %d" (List.length l))

let test_trace_lifo_enforced () =
  let tr = Trace.create Sink.null in
  let a = Trace.open_span tr ~name:"a" ~cat:"call" ~at_us:0. in
  let _b = Trace.open_span tr ~name:"b" ~cat:"call" ~at_us:0. in
  Alcotest.(check bool) "closing the outer span first is rejected" true
    (try
       Trace.close_span tr a ~at_us:1.;
       false
     with Invalid_argument _ -> true)

let test_trace_with_span_error () =
  let sink, spans = Sink.collector () in
  let tr = Trace.create sink in
  let clock = Fun.const 0. in
  Alcotest.(check bool) "exception propagates" true
    (try
       Trace.with_span tr ~name:"boom" ~cat:"call" ~clock (fun () -> raise Exit)
     with Exit -> true);
  match spans () with
  | [ s ] ->
      Alcotest.(check bool) "span closed with error attribute" true
        (List.mem_assoc "error" s.Span.sp_args);
      Alcotest.(check int) "stack unwound" 0 (Trace.depth tr)
  | _ -> Alcotest.fail "expected exactly one span"

let test_chrome_json_shape () =
  let sink, spans = Sink.collector () in
  let tr = Trace.create sink in
  Trace.close_span tr (Trace.open_span tr ~name:"IBack.store" ~cat:"call" ~at_us:1.) ~at_us:2.5;
  let j = Harness.parse_json (Trace.chrome_json (spans ())) in
  match Jsonu.member "traceEvents" j with
  | Some (Jsonu.Arr [ ev ]) ->
      Alcotest.(check bool) "complete event" true (Jsonu.member "ph" ev = Some (Jsonu.Str "X"));
      Alcotest.(check bool) "name carried" true
        (Jsonu.member "name" ev = Some (Jsonu.Str "IBack.store"));
      Alcotest.(check bool) "microsecond timestamps" true
        (Jsonu.member "ts" ev <> None && Jsonu.member "dur" ev <> None)
  | _ -> Alcotest.fail "traceEvents missing or wrong arity"

(* --- Profiler -------------------------------------------------------- *)

let fake_clock () =
  let now = ref 0. in
  (now, Profiler.create ~clock:(fun () -> !now) ())

let test_profiler_phases () =
  let now, p = fake_clock () in
  Profiler.time p "cut" (fun () -> now := !now +. 2.);
  Profiler.time p "cut" (fun () -> now := !now +. 5.);
  Profiler.time p "pricing" (fun () -> now := !now +. 1.);
  (match Profiler.phases p with
  | [ cut; pricing ] ->
      Alcotest.(check string) "first-use order" "cut" cut.Profiler.ph_name;
      Alcotest.(check int) "count" 2 cut.Profiler.ph_count;
      Alcotest.(check (float 1e-9)) "total" 7. cut.Profiler.ph_total_s;
      Alcotest.(check (float 1e-9)) "max" 5. cut.Profiler.ph_max_s;
      Alcotest.(check string) "second phase" "pricing" pricing.Profiler.ph_name
  | _ -> Alcotest.fail "expected two phases");
  Alcotest.(check (float 1e-9)) "grand total" 8. (Profiler.total_s p)

let test_profiler_records_on_exception () =
  let now, p = fake_clock () in
  (try
     Profiler.time p "boom" (fun () ->
         now := !now +. 3.;
         raise Exit)
   with Exit -> ());
  match Profiler.phases p with
  | [ ph ] ->
      Alcotest.(check int) "count" 1 ph.Profiler.ph_count;
      Alcotest.(check (float 1e-9)) "time still recorded" 3. ph.Profiler.ph_total_s
  | _ -> Alcotest.fail "expected one phase"

let test_profiler_absorb_and_reset () =
  let na, a = fake_clock () in
  let nb, b = fake_clock () in
  Profiler.time a "cut" (fun () -> na := !na +. 2.);
  Profiler.time b "cut" (fun () -> nb := !nb +. 5.);
  Profiler.time b "validation" (fun () -> nb := !nb +. 1.);
  Profiler.absorb a b;
  (match Profiler.phases a with
  | [ cut; v ] ->
      Alcotest.(check int) "counts add" 2 cut.Profiler.ph_count;
      Alcotest.(check (float 1e-9)) "totals add" 7. cut.Profiler.ph_total_s;
      Alcotest.(check (float 1e-9)) "max is max" 5. cut.Profiler.ph_max_s;
      Alcotest.(check string) "new phase arrives" "validation" v.Profiler.ph_name
  | _ -> Alcotest.fail "expected two phases after absorb");
  Alcotest.(check int) "absorb leaves the source alone" 2 (List.length (Profiler.phases b));
  Profiler.reset a;
  Alcotest.(check int) "reset empties" 0 (List.length (Profiler.phases a))

(* --- Pipeline integration (real application runs) -------------------- *)

let network = Coign_netsim.Network.ethernet_10

let profile_with obs =
  let app = Benefits.app in
  let sc = App.scenario app "b_addone" in
  let image = Adps.instrument app.App.app_image in
  match obs with
  | None -> (snd (Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run), None)
  | Some () ->
      let sink, spans = Sink.collector () in
      let tracer = Trace.create sink in
      let metrics = Metrics.registry () in
      let stats =
        snd (Adps.profile ~tracer ~metrics ~image ~registry:app.App.app_registry sc.App.sc_run)
      in
      ((stats : Adps.profile_stats), Some (spans (), metrics))

let test_rte_spans_mirror_shadow_stack () =
  let _, obs = profile_with (Some ()) in
  let spans, metrics = Option.get obs in
  Alcotest.(check bool) "spans recorded" true (List.length spans > 100);
  let by_id = Hashtbl.create 512 in
  List.iter (fun s -> Hashtbl.replace by_id s.Span.sp_id s) spans;
  List.iter
    (fun s ->
      Alcotest.(check bool) "non-negative duration" true (s.Span.sp_dur_us >= 0.);
      Alcotest.(check bool) "category" true
        (s.Span.sp_cat = "call" || s.Span.sp_cat = "create");
      match s.Span.sp_parent with
      | None -> ()
      | Some p ->
          let parent = Hashtbl.find by_id p in
          (* A child opens after and closes before its parent. *)
          Alcotest.(check bool) "parent opened first" true (p < s.Span.sp_id);
          Alcotest.(check bool) "child inside parent" true
            (parent.Span.sp_start_us <= s.Span.sp_start_us
            && s.Span.sp_start_us +. s.Span.sp_dur_us
               <= parent.Span.sp_start_us +. parent.Span.sp_dur_us +. 1e-6))
    spans;
  (* Every intercepted operation got exactly one span, and the metric
     agrees with the trace. *)
  let count cat = List.length (List.filter (fun s -> s.Span.sp_cat = cat) spans) in
  let json = Harness.parse_json (Metrics.to_json_string metrics) in
  Alcotest.(check bool) "metrics exported" true
    (Jsonu.member "coign_rte_intercepted_calls_total" json <> None);
  let counter name =
    int_of_float (Metrics.counter_value (Metrics.counter metrics ("coign_rte_" ^ name ^ "_total")))
  in
  Alcotest.(check int) "call spans" 322 (count "call");
  Alcotest.(check int) "a call span per intercepted call" (counter "intercepted_calls")
    (count "call");
  Alcotest.(check int) "create spans" 135 (count "create");
  Alcotest.(check int) "a create span per instantiation" (counter "instantiations")
    (count "create")

let test_traces_deterministic () =
  let _, a = profile_with (Some ()) in
  let _, b = profile_with (Some ()) in
  let spans_a, _ = Option.get a and spans_b, _ = Option.get b in
  Alcotest.(check bool) "two identical runs trace identically" true (spans_a = spans_b)

let test_observability_zero_cost_profiling () =
  let bare, _ = profile_with None in
  let observed, _ = profile_with (Some ()) in
  Alcotest.(check bool) "profile stats bit-identical" true (bare = observed)

let distributed_image () =
  let app = Benefits.app in
  let sc = App.scenario app "b_addone" in
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let net = Coign_netsim.Net_profiler.profile (Prng.create 5L) network in
  let image, _ = Adps.analyze ~image ~net () in
  (app, sc, image)

let test_observability_zero_cost_distributed () =
  let app, sc, image = distributed_image () in
  let run obs =
    match obs with
    | false -> Adps.execute ~image ~registry:app.App.app_registry ~network sc.App.sc_run
    | true ->
        let tracer = Trace.create Sink.null in
        let metrics = Metrics.registry () in
        Adps.execute ~tracer ~metrics ~image ~registry:app.App.app_registry ~network
          sc.App.sc_run
  in
  Alcotest.(check bool) "exec stats bit-identical" true (run false = run true)

(* One registry across two installs accumulates: every integer
   coign_rte_* counter holds the sum of the two runs' exec stats. The
   second run is lossy and spiky, so the fault counters are not all
   zero. *)
let test_metrics_accumulate_across_runs () =
  let app, sc, image = distributed_image () in
  let metrics = Metrics.registry () in
  let run ?faults seed =
    Adps.execute ~metrics ~image ~registry:app.App.app_registry ~network ~seed ?faults
      sc.App.sc_run
  in
  let a = run 1L in
  let b =
    run 2L
      ~faults:
        {
          Coign_netsim.Fault.zero with
          Coign_netsim.Fault.fs_drop_rate = 0.2;
          fs_spike_rate = 0.2;
          fs_spike_mean_us = 500.;
        }
  in
  Alcotest.(check bool) "the lossy run dropped and spiked" true
    (b.Adps.es_drops > 0 && b.Adps.es_spikes > 0 && b.Adps.es_retries > 0);
  let counter name =
    Metrics.counter_value (Metrics.counter metrics ("coign_rte_" ^ name ^ "_total"))
  in
  List.iter
    (fun (name, field) ->
      Alcotest.(check (float 0.)) name (float_of_int (field a + field b)) (counter name))
    [
      ("intercepted_calls", fun s -> s.Adps.es_intercepted);
      ("instantiations", fun s -> s.Adps.es_instances);
      ("remote_calls", fun s -> s.Adps.es_remote_calls);
      ("remote_bytes", fun s -> s.Adps.es_remote_bytes);
      ("retries", fun s -> s.Adps.es_retries);
      ("drops", fun s -> s.Adps.es_drops);
      ("spikes", fun s -> s.Adps.es_spikes);
      ("degraded_instantiations", fun s -> s.Adps.es_fallbacks);
      ("unreachable_calls", fun s -> s.Adps.es_unreachable);
    ]

(* --- One report per decision -------------------------------------------
   Octarine profiled on o_oldwp0 and run on o_oldwp7 three ways that
   make routing or watch decisions: resilience and a two-host pool
   under a global partition, and an eager drift watch. *)

let octarine_staged =
  lazy
    (let app = Octarine.app in
     let image = Adps.instrument app.App.app_image in
     let profiled, _ =
       Adps.profile ~image ~registry:app.App.app_registry (App.scenario app "o_oldwp0").App.sc_run
     in
     let net = Coign_netsim.Net_profiler.exact network in
     let analyzed, _ = Adps.analyze ~image:profiled ~net () in
     (app, profiled, analyzed, net))

let decision_runs =
  let partition =
    { Coign_netsim.Fault.zero with Coign_netsim.Fault.fs_partitions_us = [ (50_000., 550_000.) ] }
  in
  let run ?logger ?tracer ?resilience ?watch ?faults () =
    let app, _, image, _ = Lazy.force octarine_staged in
    Adps.execute ?logger ?tracer ~image ~registry:app.App.app_registry ~network ~seed:0x5EEDL
      ?faults ?resilience ?watch (App.scenario app "o_oldwp7").App.sc_run
  in
  [
    ( "resilience",
      fun ?logger ?tracer () ->
        let _, profiled, _, net = Lazy.force octarine_staged in
        let resilience = Rte.resilience (Adps.fallback_ladder ~image:profiled ~net ()) in
        run ?logger ?tracer ~resilience ~faults:partition () );
    ( "fleet",
      fun ?logger ?tracer () ->
        let app, profiled, image, net = Lazy.force octarine_staged in
        let pl = Adps.pool_fallback_ladder ~hosts:2 ~image:profiled ~net () in
        fst
          (Adps.execute_fleet ?logger ?tracer ~image ~registry:app.App.app_registry ~network
             ~seed:0x5EEDL ~faults:partition ~fleet:(Rte.fleet pl)
             (App.scenario app "o_oldwp7").App.sc_run) );
    ( "watch",
      fun ?logger ?tracer () ->
        let _, profiled, _, net = Lazy.force octarine_staged in
        let watch =
          Rte.watch ~check_every:64 ~min_dwell_us:0. ~min_window:16. ~half_life_us:750_000.
            ~sample_every:4 ~net (Adps.analysis_session profiled)
        in
        run ?logger ?tracer ~watch () );
  ]

(* Each decision event reaches the logger and, as a zero-duration
   "event" span named by its kind and carrying its fields, the tracer:
   the two streams agree one-to-one, in order. *)
let test_decision_events_mirror_event_spans () =
  List.iter
    (fun (what, run) ->
      let logger, events = Sink.collector () in
      let sink, spans = Sink.collector () in
      ignore (run ?logger:(Some logger) ?tracer:(Some (Trace.create sink)) ());
      let decisions =
        List.filter
          (function
            | Event.Component_instantiated _ | Event.Interface_instantiated _
            | Event.Interface_call _ ->
                false
            | _ -> true)
          (events ())
      in
      let markers = List.filter (fun s -> s.Span.sp_cat = "event") (spans ()) in
      Alcotest.(check bool) (what ^ ": decisions made") true (decisions <> []);
      Alcotest.(check int) (what ^ ": one span per decision") (List.length decisions)
        (List.length markers);
      List.iter2
        (fun e s ->
          Alcotest.(check string) (what ^ ": named by kind") (Event.kind_name e) s.Span.sp_name;
          Alcotest.(check string) (what ^ ": args are the fields")
            (Jsonu.to_string (Jsonu.Obj (Event.fields e)))
            (Jsonu.to_string (Jsonu.Obj s.Span.sp_args));
          Alcotest.(check (float 0.)) (what ^ ": zero duration") 0. s.Span.sp_dur_us)
        decisions markers)
    decision_runs

let test_observability_zero_cost_decisions () =
  List.iter
    (fun (what, run) ->
      let bare = run ?logger:None ?tracer:None () in
      let observed =
        run ?logger:(Some (fst (Sink.collector ()))) ?tracer:(Some (Trace.create Sink.null)) ()
      in
      Alcotest.(check bool) (what ^ ": exec stats bit-identical") true (bare = observed))
    decision_runs

let test_analysis_metrics_and_zero_cost () =
  let app = Benefits.app in
  let sc = App.scenario app "b_addone" in
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let net = Coign_netsim.Net_profiler.profile (Prng.create 5L) network in
  let session = Adps.analysis_session image in
  let bare = Analysis.Session.solve session ~net in
  let metrics = Metrics.registry () in
  let observed = Analysis.Session.solve session ~metrics ~net in
  Alcotest.(check string) "distribution unchanged by metrics" (Analysis.encode bare)
    (Analysis.encode observed);
  let json = Harness.parse_json (Metrics.to_json_string metrics) in
  Alcotest.(check bool) "solve counted" true
    (Jsonu.member "coign_analysis_solves_total" json <> None)

let test_pipeline_phase_names () =
  let app = Benefits.app in
  let sc = App.scenario app "b_addone" in
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let net = Coign_netsim.Net_profiler.profile (Prng.create 5L) network in
  let profiler = Profiler.create () in
  let _ = Adps.analyze ~profiler ~image ~net () in
  Alcotest.(check (list string)) "stages in pipeline order"
    [ "profile_load"; "icc_graph_build"; "pricing"; "cut"; "validation" ]
    (List.map (fun p -> p.Profiler.ph_name) (Profiler.phases profiler))

let suite =
  [
    Alcotest.test_case "jsonu print/parse round-trip" `Quick test_jsonu_print_parse;
    Alcotest.test_case "jsonu float/int separation" `Quick test_jsonu_float_never_reparses_as_int;
    Alcotest.test_case "jsonu unicode escapes" `Quick test_jsonu_unicode_escapes;
    Alcotest.test_case "jsonu rejects garbage" `Quick test_jsonu_rejects_garbage;
    qtest qcheck_jsonu_string_roundtrip;
    Alcotest.test_case "logger line format (golden)" `Quick test_to_channel_golden;
    Alcotest.test_case "logger tally key stability" `Quick test_tally_key_stability;
    Alcotest.test_case "metrics counters and gauges" `Quick test_metrics_counters_and_gauges;
    Alcotest.test_case "metrics identity and mismatch" `Quick test_metrics_identity_and_mismatch;
    Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
    Alcotest.test_case "metrics non-finite values" `Quick test_metrics_non_finite;
    Alcotest.test_case "metrics exposition deterministic" `Quick
      test_metrics_exposition_deterministic;
    Alcotest.test_case "prometheus escaping per character" `Quick test_prometheus_escaping;
    Alcotest.test_case "prometheus escaping end to end" `Quick
      test_prometheus_escaping_end_to_end;
    Alcotest.test_case "metrics json parses" `Quick test_metrics_json_parses;
    Alcotest.test_case "trace nesting and emission order" `Quick
      test_trace_nesting_and_emission_order;
    Alcotest.test_case "trace LIFO enforced" `Quick test_trace_lifo_enforced;
    Alcotest.test_case "trace with_span on error" `Quick test_trace_with_span_error;
    Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
    Alcotest.test_case "profiler phases" `Quick test_profiler_phases;
    Alcotest.test_case "profiler records on exception" `Quick test_profiler_records_on_exception;
    Alcotest.test_case "profiler absorb and reset" `Quick test_profiler_absorb_and_reset;
    Alcotest.test_case "rte spans mirror shadow stack" `Slow test_rte_spans_mirror_shadow_stack;
    Alcotest.test_case "traces deterministic" `Slow test_traces_deterministic;
    Alcotest.test_case "zero cost: profiling" `Slow test_observability_zero_cost_profiling;
    Alcotest.test_case "zero cost: distributed" `Slow test_observability_zero_cost_distributed;
    Alcotest.test_case "metrics accumulate across runs" `Slow
      test_metrics_accumulate_across_runs;
    Alcotest.test_case "analysis metrics, zero cost" `Slow test_analysis_metrics_and_zero_cost;
    Alcotest.test_case "pipeline phase names" `Slow test_pipeline_phase_names;
    Alcotest.test_case "decision events mirror event spans" `Slow
      test_decision_events_mirror_event_spans;
    Alcotest.test_case "zero cost: tracer and logger on decision runs" `Slow
      test_observability_zero_cost_decisions;
  ]
