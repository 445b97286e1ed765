(* A stored image is one validated unit. The classifier, ICC and
   distribution entries of a profiled and of a distributed octarine
   image (o_oldwp0) are mutated and fed to every consumer that reads
   them: analyze and verify (the library calls `coign verify` makes,
   in its order) read the profiled image, execute the distributed one.
   The only outcomes allowed are success and the typed errors the CLI
   reports with exit 1; anything else — an [Invalid_argument "index out
   of bounds"], a [Not_found], a [Failure] — is what the CLI reports as
   an internal error (exit 125), and fails the test. A sample of the
   mutations also goes through the executable itself. qcheck draws the
   mutations from QCHECK_SEED (a fresh seed per CI run), and a failure
   prints the shrunk mutation, which then belongs in this file as a
   fixed case; none has been found. *)

open Coign_core
module App = Coign_apps.App
module Binary_image = Coign_image.Binary_image
module Config_record = Coign_image.Config_record
module V = Coign_verify

let app = Coign_apps.Octarine.app
let wp0 = App.scenario app "o_oldwp0"
let network = Coign_netsim.Network.ethernet_10
let net = Coign_netsim.Net_profiler.exact network

let profiled =
  lazy
    (fst
       (Adps.profile ~image:(Adps.instrument app.App.app_image) ~registry:app.App.app_registry
          wp0.App.sc_run))

let distributed = lazy (fst (Adps.analyze ~image:(Lazy.force profiled) ~net ()))

(* {1 Mutations}

   A mutation is drawn as four small numbers, so qcheck shrinks it
   toward an early, short edit: its kind, a position and a length taken
   modulo the payload, and a byte. The kinds: truncation, a byte
   overwritten, a digit swapped, a chunk duplicated or deleted, and a
   number replaced by an extreme one. *)

type mutation = int * int * int * char

let extremes =
  [| "-1"; "0"; "-0"; "4611686018427387903"; "99999999999999999999"; "nan"; "1e308" |]

let is_digit c = c >= '0' && c <= '9'

let mutate ((kind, pos, len, byte) : mutation) s =
  let n = String.length s in
  if n = 0 then s
  else
    let pos = pos mod n in
    let len = 1 + (len mod Int.max 1 (n - pos)) in
    let before = String.sub s 0 pos and after i = String.sub s i (n - i) in
    (* The run of digits at or after [pos], as (start, stop). *)
    let number () =
      let start = ref pos in
      while !start < n && not (is_digit s.[!start]) do incr start done;
      let stop = ref !start in
      while !stop < n && is_digit s.[!stop] do incr stop done;
      (!start, !stop)
    in
    match kind mod 6 with
    | 0 -> before
    | 1 -> before ^ String.make 1 byte ^ after (pos + 1)
    | 2 ->
        let start, stop = number () in
        if start = stop then s
        else
          String.sub s 0 start
          ^ String.make 1 (Char.chr (Char.code '0' + (Char.code byte mod 10)))
          ^ after (start + 1)
    | 3 -> before ^ String.sub s pos len ^ after pos
    | 4 -> before ^ after (pos + len)
    | _ ->
        let start, stop = number () in
        String.sub s 0 start ^ extremes.(len mod Array.length extremes) ^ after stop

let arb_mutation =
  QCheck.make
    ~print:(fun (k, p, l, b) -> Printf.sprintf "(%d, %d, %d, %C)" k p l b)
    ~shrink:QCheck.Shrink.(quad int int int nil)
    QCheck.Gen.(quad (int_bound 5) (int_bound 1_000_000) (int_bound 64) char)

let with_entry image key edit =
  let config = Option.get image.Binary_image.config in
  let payload = Option.get (Config_record.entry config key) in
  { image with Binary_image.config = Some (Config_record.set_entry config key (edit payload)) }

(* {1 Consumers} *)

let analyze image = ignore (Adps.analyze ~image ~net ())

(* What `coign verify` runs, in its order, at a shallow depth. *)
let verify image =
  match Adps.load_profile image with
  | None -> ()
  | Some (classifier, icc) ->
      let session = Adps.analysis_session image in
      let primary = Option.map snd (Adps.load_distribution image) in
      let ladder = Fallback.compute ?primary session ~net () in
      let truth = Fallback.migration_safety session in
      let model = V.Model.build ~classifier ~icc ~ladder ~truth () in
      ignore (V.Explore.run ~depth:2 model)

let execute image =
  ignore (Adps.execute ~image ~registry:app.App.app_registry ~network wp0.App.sc_run)

(* The errors the CLI reports as bad input, exit 1. *)
let typed = function
  | Coign_image.Codec.Malformed _ | Icc.Decode_error _ | Classifier.Decode_error _
  | Analysis.Decode_error _ | Coign_com.Hresult.Com_error _ | Lint.Rejected _
  | Fallback.Invalid _ ->
      true
  | _ -> false

let outcome consume image =
  match consume image with
  | () -> true
  | exception e when typed e -> true
  | exception e -> QCheck.Test.fail_reportf "untyped %s" (Printexc.to_string e)

let fuzz ~image ~key ~consumer consume =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1_000
       ~name:(Printf.sprintf "mutated %s entry through %s" key consumer)
       arb_mutation
       (fun m -> outcome consume (with_entry (Lazy.force image) key (mutate m))))

(* {1 The executable}

   A seeded sample of mutations through `coign analyze`, `verify` and
   `run`: every exit is 0 or 1, never 125. *)
let test_cli_sample () =
  Harness.in_tmp (fun dir ->
      let rng = Random.State.make [| 20261019 |] in
      let draw () =
        ( Random.State.int rng 6,
          Random.State.int rng 1_000_000,
          Random.State.int rng 64,
          Char.chr (Random.State.int rng 256) )
      in
      let sample image key commands =
        for i = 1 to 8 do
          let m = draw () in
          let path = Filename.concat dir (Printf.sprintf "%s-%d.img" key i) in
          Binary_image.save (with_entry (Lazy.force image) key (mutate m)) path;
          List.iter
            (fun args ->
              let rc = Harness.run (List.map (fun a -> if a = "IMG" then path else a) args) in
              Alcotest.(check bool)
                (Printf.sprintf "coign %s on %s mutated by %s exits %d" (List.hd args) key
                   (QCheck.Print.quad string_of_int string_of_int string_of_int
                      (Printf.sprintf "%C") m)
                   rc)
                true (rc = 0 || rc = 1))
            commands
        done
      in
      let out = Filename.concat dir "out.img" in
      let profile_commands =
        [ [ "analyze"; "IMG"; "-o"; out ]; [ "verify"; "IMG"; "--depth"; "2" ] ]
      in
      sample profiled Config_keys.classifier profile_commands;
      sample profiled Config_keys.icc profile_commands;
      let run_commands = [ [ "run"; "IMG"; "--scenario"; "o_oldwp0" ] ] in
      sample distributed Config_keys.classifier run_commands;
      sample distributed Config_keys.distribution run_commands)

let suite =
  [
    fuzz ~image:profiled ~key:Config_keys.classifier ~consumer:"analyze" analyze;
    fuzz ~image:profiled ~key:Config_keys.icc ~consumer:"analyze" analyze;
    fuzz ~image:profiled ~key:Config_keys.classifier ~consumer:"verify" verify;
    fuzz ~image:profiled ~key:Config_keys.icc ~consumer:"verify" verify;
    fuzz ~image:distributed ~key:Config_keys.classifier ~consumer:"execute" execute;
    fuzz ~image:distributed ~key:Config_keys.distribution ~consumer:"execute" execute;
    Alcotest.test_case "mutated entries through the executable" `Quick test_cli_sample;
  ]
