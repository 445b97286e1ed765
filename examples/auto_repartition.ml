(* Fully automatic distribution optimization (paper §6).

   "In the future, Coign could automatically decide when usage differs
   significantly from profiled scenarios and silently enable profiling
   to re-optimize the distribution."

   This example closes that loop end to end:

   1. Octarine is profiled on text documents and distributed for them.
   2. The user's behaviour changes: they start working with large
      tables. The distributed runtime's drift watch notices that the
      usage signature of its observation window no longer matches the
      profile's.
   3. Coign silently re-profiles the new usage, re-cuts the graph, and
      installs the new distribution — cutting communication time that
      the stale distribution was leaving on the table.

   Run: dune exec examples/auto_repartition.exe *)

open Coign_util
open Coign_netsim
open Coign_core
open Coign_apps

let network = Network.ethernet_10

let profile_and_cut (app : App.t) (sc : App.scenario) =
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  (* The session (abstract graph + constraint edges) belongs to the new
     profile; the watch re-prices it whenever usage drifts, without
     re-deriving stage 1. *)
  let session = Adps.analysis_session image in
  let net = Net_profiler.profile (Prng.create 21L) network in
  let image, dist = Adps.analyze_with ~session ~image ~net () in
  (image, session, net, dist)

(* One "day" of usage under the installed distribution, watched with
   [coign watch]'s settings when [session] is given. *)
let run_day ?session ~net image (app : App.t) (sc : App.scenario) =
  let watch =
    Option.map
      (fun s ->
        Rte.watch ~threshold:0.90 ~check_every:64 ~min_dwell_us:750_000. ~min_window:16.
          ~half_life_us:750_000. ~sample_every:4 ~net (Analysis.Session.copy s))
      session
  in
  Adps.execute ~image ~registry:app.App.app_registry ~network ~jitter:0.015 ~seed:0xDA7L
    ?watch sc.App.sc_run

let report label (s : Adps.exec_stats) =
  Printf.printf "%s comm %.3f s, usage similarity %.2f, %d detections, %d re-cuts -> %s\n"
    label (s.Adps.es_comm_us /. 1e6) s.Adps.es_last_similarity s.Adps.es_drift_detections
    s.Adps.es_repartitions
    (if s.Adps.es_drift_detections > 0 then "DRIFT detected" else "ok")

let () =
  print_endline "Automatic re-optimization when usage drifts (paper section 6)";
  print_endline "==============================================================";
  let app = Octarine.app in
  let text_work = App.scenario app "o_oldwp0" in
  let table_work = App.scenario app "o_oldtb3" in

  (* Day 0: train on the user's current (text) usage. *)
  let image, session, net, dist = profile_and_cut app text_work in
  Printf.printf "\nDay 0: profiled text editing; %d classifications on the server.\n"
    dist.Analysis.server_count;

  (* Days 1-2: the user still edits text — the distribution fits. *)
  report "Day 1 (text):  " (run_day ~session ~net image app text_work);

  (* Day 3: the user switches to big table documents. The stale
     text-optimized distribution still runs, but poorly, and the watch
     notices. *)
  let day3 = run_day ~session ~net image app table_work in
  report "Day 3 (tables):" day3;

  (* Coign silently re-profiles the drifted usage and re-cuts. *)
  print_endline "\nre-profiling the new usage and re-cutting the ICC graph...";
  let image', _, net', dist' = profile_and_cut app table_work in
  let comm3 = day3.Adps.es_comm_us /. 1e6 in
  let comm4 = (run_day ~net:net' image' app table_work).Adps.es_comm_us /. 1e6 in
  Printf.printf
    "Day 4 (tables, re-optimized): comm %.3f s (%d classifications on the server)\n" comm4
    dist'.Analysis.server_count;
  Printf.printf
    "\nThe drifted day paid %.3f s per session; the re-optimized one pays %.3f s\n\
     — %.0f%% of the drift-induced cost recovered without user involvement.\n"
    comm3 comm4
    ((1. -. (comm4 /. comm3)) *. 100.)
