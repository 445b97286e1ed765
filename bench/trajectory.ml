(* Perf trajectory: compare two perfbench snapshots (BENCH_<n>.json,
   written by bench/snapshot.py) metric by metric.

   Usage: trajectory NEW.json OLD.json

   Bounds and directions come from BENCHMARK.json, read from the current
   directory or the nearest ancestor holding one. For every workload:

   - gate: the end-to-end metrics that are deterministic for a given
     seed (minor_words_per_op and sim_cost_s). NEW's median may be worse
     than OLD's by at most the metric's bound, in its "better"
     direction;
   - report: the other end-to-end metrics (host times) and every
     per-layer metric, OLD and NEW medians side by side with their
     quartile spreads. These depend on the machine and never fail.

   Exit codes: 0 every gate holds, 1 a gate failed, 2 usage error, an
   unreadable or old-schema snapshot, or a workload missing from one. *)

module J = Coign_util.Jsonu

let schema = "coign-perfbench-snapshot/1"

(* Fixed by the seed, not the machine or the run length: sim_cost_s to
   the bit, minor_words_per_op to a few parts in 10^5. A change beyond
   the bound is a change in the program. *)
let gated = [ "minor_words_per_op"; "sim_cost_s" ]

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("trajectory: " ^ msg);
      exit 2)
    fmt

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> die "%s" msg
  | text -> ( match J.parse text with Ok j -> j | Error msg -> die "%s: %s" path msg)

let rec find_benchmark dir =
  let path = Filename.concat dir "BENCHMARK.json" in
  if Sys.file_exists path then path
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then die "no BENCHMARK.json in %s or above" (Sys.getcwd ())
    else find_benchmark parent

let number = function
  | Some (J.Int n) -> Some (float_of_int n)
  | Some (J.Float f) -> Some f
  | _ -> None

type spec = { name : string; lower_better : bool; bound : float option }

let specs bench key =
  let field k m =
    match J.member k m with
    | Some (J.Str s) -> s
    | _ -> die "BENCHMARK.json: %s entry without %s" key k
  in
  match J.member key bench with
  | Some (J.Arr metrics) ->
      List.map
        (fun m ->
          {
            name = field "name" m;
            lower_better = String.equal (field "better" m) "lower";
            bound = number (J.member "bound" m);
          })
        metrics
  | _ -> die "BENCHMARK.json has no %s list" key

(* The value at a path of object keys. *)
let rec lookup keys json =
  match keys with [] -> Some json | k :: rest -> Option.bind (J.member k json) (lookup rest)

(* A snapshot nests one steady.py report per run kind: [end_to_end]
   from untraced runs, [per_layer] from traced ones. Each maps a
   workload to {"metrics": {name: {"median", "iqr_frac", ...}}}. *)
let sections = [ "end_to_end"; "per_layer" ]

let load_snapshot path workloads =
  let snap = read_json path in
  (match J.member "schema" snap with
  | Some (J.Str s) when String.equal s schema -> ()
  | _ ->
      die "%s: not a perfbench snapshot (want schema %S; rewrite it with bench/snapshot.py)"
        path schema);
  List.iter
    (fun section ->
      List.iter
        (fun w ->
          if lookup [ section; w ] snap = None then
            die "%s: workload %S missing from %s" path w section)
        workloads)
    sections;
  snap

(* [(median, iqr_frac)] of a metric, if the snapshot holds it. *)
let stat snap section workload metric =
  Option.bind (lookup [ section; workload; "metrics"; metric ] snap) (fun m ->
      Option.map
        (fun median -> (median, number (J.member "iqr_frac" m)))
        (number (J.member "median" m)))

let cell = function
  | None -> Printf.sprintf "%21s" "-"
  | Some (median, iqr) ->
      Printf.sprintf "%13.6g %s" median
        (match iqr with Some f -> Printf.sprintf "±%5.1f%%" (f *. 100.) | None -> "     - ")

(* How much worse NEW is than OLD, as a fraction of OLD, in the
   metric's direction (negative: better). *)
let worse_frac spec ~old ~now =
  let delta = if spec.lower_better then now -. old else old -. now in
  if old <> 0. then delta /. Float.abs old
  else if delta > 0. then infinity
  else if delta < 0. then neg_infinity
  else 0.

let row kind workload spec old now verdict =
  let change =
    match (old, now) with
    | Some (o, _), Some (n, _) when o <> 0. ->
        Printf.sprintf "%+8.2f%%" ((n -. o) /. Float.abs o *. 100.)
    | _ -> Printf.sprintf "%9s" "-"
  in
  Printf.printf "%-6s %-6s %-34s %s %s %s%s\n" kind workload spec.name (cell old) (cell now) change
    verdict

let () =
  let new_path, old_path =
    match List.tl (Array.to_list Sys.argv) with
    | [ n; o ] when not (String.starts_with ~prefix:"-" n || String.starts_with ~prefix:"-" o)
      ->
        (n, o)
    | _ ->
        prerr_endline "usage: trajectory NEW.json OLD.json";
        exit 2
  in
  let bench = read_json (find_benchmark (Sys.getcwd ())) in
  let workloads =
    match J.member "workloads" bench with
    | Some (J.Arr ws) ->
        List.map
          (fun w ->
            match J.member "name" w with
            | Some (J.Str s) -> s
            | _ -> die "BENCHMARK.json: unnamed workload")
          ws
    | _ -> die "BENCHMARK.json has no workloads list"
  in
  let end_to_end = specs bench "end_to_end" and per_layer = specs bench "per_layer" in
  let fresh = load_snapshot new_path workloads and old = load_snapshot old_path workloads in
  Printf.printf "perf trajectory: %s against %s (median, quartile spread / median)\n" new_path
    old_path;
  Printf.printf "%-6s %-6s %-34s %21s %21s %9s\n" "" "" "metric" "old" "new" "change";
  let failures = ref 0 and gates = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun spec ->
          let o = stat old "end_to_end" w spec.name and n = stat fresh "end_to_end" w spec.name in
          if List.mem spec.name gated then begin
            incr gates;
            match (o, n, spec.bound) with
            | Some (om, _), Some (nm, _), Some bound ->
                let ok = worse_frac spec ~old:om ~now:nm <= bound in
                if not ok then incr failures;
                row "gate" w spec o n
                  (Printf.sprintf "  bound %g%% %s" (bound *. 100.) (if ok then "ok" else "FAIL"))
            | _, _, None -> die "BENCHMARK.json: gated metric %s has no bound" spec.name
            | _ -> die "workload %S: gated metric %s missing from a snapshot" w spec.name
          end
          else row "report" w spec o n "")
        end_to_end;
      List.iter
        (fun spec ->
          let o = stat old "per_layer" w spec.name and n = stat fresh "per_layer" w spec.name in
          if o <> None || n <> None then row "report" w spec o n "")
        per_layer)
    workloads;
  if !failures > 0 then begin
    Printf.printf "%d of %d gates FAILED\n" !failures !gates;
    exit 1
  end;
  Printf.printf "all %d gates hold\n" !gates
