(* Helpers shared by the test suites: bit-exact float checks, and the
   integration tests that drive the coign executable as a user would,
   one process per stage over image files in a scratch directory. *)

let check_bits what expected actual =
  Alcotest.(check int64) what (Int64.bits_of_float expected) (Int64.bits_of_float actual)

let exe = "../bin/coign.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

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

(* [coign args] exits 0 and prints JSON equal to the golden file's
   ([Jsonu.equal]: same keys in the same order, same values; the
   layout may differ). *)
let check_golden_json ~dir ~golden what args =
  let out = Filename.concat dir (what ^ ".json") in
  check_ok what (run_to out args);
  let parse path = Coign_util.Jsonu.parse_exn (read_file path) in
  Alcotest.(check bool) (what ^ " JSON output equals golden") true
    (Coign_util.Jsonu.equal (parse golden) (parse out))
