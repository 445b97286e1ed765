(* Helpers shared by the test suites: bit-exact float checks, minor
   words per run, and the integration tests that drive the coign
   executable as a user would, one process per stage over image files
   in a scratch directory. *)

let check_bits what expected actual =
  Alcotest.(check int64) what (Int64.bits_of_float expected) (Int64.bits_of_float actual)

(* Minor words per run of [f], over [n] runs after a warm-up. A block
   is at least two words, so under one word per run means no run
   allocated. *)
let words_per_run n f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* Whether this build inlines across modules. A dev build compiles each
   library opaque, so a float returned by another library's inlined
   function arrives boxed; a release build keeps it unboxed. A gate
   whose exact bound holds only with inlining reads this. *)
let inlines_across_modules =
  let rng = Coign_util.Prng.create 1L and cell = [| 0. |] in
  words_per_run 10 (fun () -> cell.(0) <- Coign_util.Prng.gaussian rng ~mu:0. ~sigma:1.) < 1.

(* An array of [(src, dst, cap)] edges as the three parallel arrays
   [Flow_network.of_edges] and [Multiway.multiway_cut] take. *)
let columns edges =
  ( Array.map (fun (src, _, _) -> src) edges,
    Array.map (fun (_, dst, _) -> dst) edges,
    Array.map (fun (_, _, cap) -> cap) edges )

(* [Flow_network.of_edges] over an array of [(src, dst, cap)] edges. *)
let of_edges ~n edges =
  let src, dst, cap = columns edges in
  Coign_flowgraph.Flow_network.of_edges ~n ~src ~dst ~cap

let exe = "../bin/coign.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [Jsonu.parse], raising [Invalid_argument] on malformed input. *)
let parse_json s =
  match Coign_util.Jsonu.parse s with Ok v -> v | Error msg -> invalid_arg ("Jsonu.parse: " ^ msg)

(* Run [f] on a fresh scratch directory, deleted with its files
   afterwards; skip the test when the executable or one of [needs] is
   missing. *)
let in_tmp ?(needs = []) f =
  if not (List.for_all Sys.file_exists (exe :: needs)) then Alcotest.skip ()
  else
    let dir = Filename.temp_file "coign_test" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Unix.rmdir dir)
      (fun () -> f dir)

(* Exit code of [coign args], all output discarded. *)
let run args = Sys.command (Filename.quote_command exe args ^ " > /dev/null 2>&1")

(* Exit code of [coign args], standard output written to [out]. *)
let run_to out args =
  Sys.command (Filename.quote_command exe args ^ " > " ^ Filename.quote out ^ " 2>/dev/null")

let check_ok what rc = Alcotest.(check int) what 0 rc

(* [dir]/oct.img: octarine instrumented and profiled on o_oldwp0. *)
let profiled_octarine dir =
  let img = Filename.concat dir "oct.img" in
  check_ok "instrument" (run [ "instrument"; "--app"; "octarine"; "-o"; img ]);
  check_ok "profile" (run [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
  img

(* [coign args] exits 0 and prints exactly the golden file. *)
let check_golden ~dir ~golden what args =
  let out = Filename.concat dir (what ^ ".txt") in
  check_ok what (run_to out args);
  Alcotest.(check string) (what ^ " text output matches golden") (read_file golden) (read_file out)

(* Same keys in the same order, same values; an int equals the float
   of its value. *)
let rec json_equal a b =
  let open Coign_util.Jsonu in
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b
  | Int a, Float b | Float b, Int a -> float_of_int a = b
  | Str a, Str b -> String.equal a b
  | Arr a, Arr b -> List.length a = List.length b && List.for_all2 json_equal a b
  | Obj a, Obj b ->
      List.length a = List.length b
      && List.for_all2 (fun (ka, va) (kb, vb) -> String.equal ka kb && json_equal va vb) a b
  | _ -> false

(* [coign args] exits 0 and prints JSON equal to the golden file's
   ([json_equal]; the layout may differ). *)
let check_golden_json ~dir ~golden what args =
  let out = Filename.concat dir (what ^ ".json") in
  check_ok what (run_to out args);
  let parse path = parse_json (read_file path) in
  Alcotest.(check bool) (what ^ " JSON output equals golden") true
    (json_equal (parse golden) (parse out))
