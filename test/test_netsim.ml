open Coign_util
open Coign_netsim

let qtest = QCheck_alcotest.to_alcotest

let test_message_time_formula () =
  let net = Network.make ~name:"t" ~latency_us:100. ~bandwidth_mbps:8. ~proc_us:50. in
  (* 1000 bytes at 8 Mbps = 1000 us *)
  Alcotest.(check (float 1e-6)) "formula" 1150. (Network.message_us net ~bytes:1000)

let test_monotone_in_size () =
  List.iter
    (fun net ->
      Alcotest.(check bool)
        (net.Network.net_name ^ " monotone")
        true
        (Network.message_us net ~bytes:100 < Network.message_us net ~bytes:10_000))
    Network.presets

let test_loopback_free () =
  Alcotest.(check bool) "negligible" true
    (Network.message_us Network.loopback ~bytes:1_000_000 < 0.01)

let test_preset_ordering () =
  (* For bulk data, faster networks are faster. *)
  let bulk net = Network.message_us net ~bytes:1_000_000 in
  Alcotest.(check bool) "isdn slowest" true (bulk Network.isdn_128 > bulk Network.ethernet_10);
  Alcotest.(check bool) "ethernet10 > ethernet100" true
    (bulk Network.ethernet_10 > bulk Network.ethernet_100);
  Alcotest.(check bool) "san fastest" true (bulk Network.san_1g < bulk Network.atm_155)

let test_invalid_network () =
  Alcotest.check_raises "bad params" (Invalid_argument "Network.make: nonsensical parameters")
    (fun () -> ignore (Network.make ~name:"x" ~latency_us:1. ~bandwidth_mbps:0. ~proc_us:1.))

(* --- Net_profiler --------------------------------------------------- *)

let test_profile_fit_close_to_truth () =
  let rng = Prng.create 42L in
  let net = Network.ethernet_10 in
  let p = Net_profiler.profile rng net in
  List.iter
    (fun bytes ->
      let truth = Network.message_us net ~bytes in
      let predicted = Net_profiler.predict_us p ~bytes in
      let err = Float.abs (predicted -. truth) /. truth in
      Alcotest.(check bool)
        (Printf.sprintf "fit within 10%% at %d bytes (err %.3f)" bytes err)
        true (err < 0.10))
    [ 64; 1_024; 32_768; 500_000 ]

let test_exact_profile_is_exact () =
  let net = Network.ethernet_10 in
  let p = Net_profiler.exact net in
  List.iter
    (fun bytes ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "%d bytes" bytes)
        (Network.message_us net ~bytes)
        (Net_profiler.predict_us p ~bytes))
    [ 0; 100; 9_999 ]

let test_profile_deterministic_per_seed () =
  let p1 = Net_profiler.profile (Prng.create 9L) Network.ethernet_10 in
  let p2 = Net_profiler.profile (Prng.create 9L) Network.ethernet_10 in
  Alcotest.(check (float 0.)) "same fit" p1.Net_profiler.fixed_us p2.Net_profiler.fixed_us

let prop_predictions_nonnegative =
  QCheck.Test.make ~name:"predictions are non-negative" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 1000))
    (fun (bytes, seed) ->
      let p = Net_profiler.profile (Prng.create (Int64.of_int seed)) Network.isdn_128 in
      Net_profiler.predict_us p ~bytes >= 0.)

(* The predictions as they were computed before a profile stored its
   means: a hash table of per-size sums, sorted, rebuilt on every call,
   then the same interpolation. The stored means must give the same
   floats, bit for bit. *)
let oracle_predict_us (p : Net_profiler.t) ~bytes =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i size ->
      let us = p.Net_profiler.obs_us.(i) in
      let sum, n = Option.value ~default:(0., 0) (Hashtbl.find_opt tbl size) in
      Hashtbl.replace tbl size (sum +. us, n + 1))
    p.Net_profiler.obs_bytes;
  let means =
    Hashtbl.fold (fun size (sum, n) acc -> (size, sum /. float_of_int n) :: acc) tbl []
    |> List.sort compare |> Array.of_list
  in
  let line () = p.Net_profiler.fixed_us +. (p.Net_profiler.per_byte_us *. float_of_int bytes) in
  let m = Array.length means in
  let v =
    if m < 2 then line ()
    else begin
      let fb = float_of_int bytes in
      let smallest, t_small = means.(0) in
      let largest, t_large = means.(m - 1) in
      if bytes <= smallest then
        t_small -. (p.Net_profiler.per_byte_us *. float_of_int (smallest - bytes))
      else if bytes >= largest then
        t_large +. (p.Net_profiler.per_byte_us *. float_of_int (bytes - largest))
      else begin
        let rec bracket i =
          let s1, t1 = means.(i) and s2, t2 = means.(i + 1) in
          if bytes <= s2 then
            t1 +. ((t2 -. t1) *. (fb -. float_of_int s1) /. float_of_int (s2 - s1))
          else bracket (i + 1)
        in
        bracket 0
      end
    end
  in
  Float.max 0. v

(* Every sampled size, its neighbours and both ends of 0..2^21 are
   checked in every case, beside the random sizes. *)
let representative_sizes = 16 :: List.init 15 (fun i -> 64 lsl i)

let fixed_sizes =
  [ 0; 1 lsl 21 ]
  @ List.concat_map (fun size -> [ size - 1; size; size + 1 ]) representative_sizes

let prop_predictions_match_oracle =
  QCheck.Test.make ~name:"stored means predict as the per-call means did" ~count:100
    QCheck.(pair int (list_of_size (Gen.return 20) (int_bound (1 lsl 21))))
    (fun (seed, random_sizes) ->
      let sizes = fixed_sizes @ random_sizes in
      List.for_all
        (fun net ->
          let sampled = Net_profiler.profile (Prng.create (Int64.of_int seed)) net in
          Array.to_list sampled.Net_profiler.mean_bytes = representative_sizes
          && List.for_all
            (fun p ->
              List.for_all
                (fun bytes ->
                  Int64.bits_of_float (Net_profiler.predict_us p ~bytes)
                  = Int64.bits_of_float (oracle_predict_us p ~bytes))
                sizes)
            [
              sampled; Net_profiler.degrade sampled; Net_profiler.link_down sampled;
              Net_profiler.exact net;
            ])
        Network.presets)

(* Every profile [Net_profiler] builds equals the one the tuple-and-list
   profiler built, field by field and bit for bit: sampled, both derived
   profiles, and the exact one with its derived profiles. *)
let prop_profiles_match_reference =
  QCheck.Test.make ~name:"flat profiles equal the tuple profiler's" ~count:50 QCheck.int
    (fun seed ->
      let module R = Oracles.Profiler_ref in
      List.for_all
        (fun net ->
          let sampled = Net_profiler.profile (Prng.create (Int64.of_int seed)) net in
          let ref_sampled = R.profile (Prng.create (Int64.of_int seed)) net in
          let exact = Net_profiler.exact net and ref_exact = R.exact net in
          List.for_all
            (fun (r, p) -> R.equal r p)
            [
              (ref_sampled, sampled);
              (R.degrade ref_sampled, Net_profiler.degrade sampled);
              (R.link_down ref_sampled, Net_profiler.link_down sampled);
              (ref_exact, exact);
              (R.degrade ref_exact, Net_profiler.degrade exact);
              (R.link_down ref_exact, Net_profiler.link_down exact);
            ])
        Network.presets)

(* --- Allocation --------------------------------------------------------
   A profile is its four arrays and its record: for 112 observations of
   16 sizes, 2 × (112 + 1) words of observations and 2 × (16 + 1) of
   means, then 8 for the record and 2 for each of its boxed floats. The
   fit returns its two floats as a pair (3 words), which the record
   then holds. That is all a release build allocates. A dev build does
   not inline across modules, so each size's [Network.message_us]
   returns a boxed float (2 words) and each draw's [Prng.gaussian]
   boxes 4 words of floats. A derived profile allocates its
   shifted observations, its means, its record, one boxed float and its
   name; it shares the base's sizes. *)

let words_of_array n = float_of_int (n + 1)
let words_of_string s = float_of_int (1 + ((String.length s + 8) / 8))

let test_profile_allocation () =
  let rng = Prng.create 3L in
  let net = Network.ethernet_10 in
  let p = Net_profiler.profile rng net in
  let obs = Array.length p.Net_profiler.obs_us and sizes = Array.length p.Net_profiler.mean_us in
  let arrays_and_record =
    (2. *. words_of_array obs) +. (2. *. words_of_array sizes) +. 8. +. 4. +. 3.
  in
  let bound =
    if Harness.inlines_across_modules then arrays_and_record
    else arrays_and_record +. (2. *. float_of_int sizes) +. (4. *. float_of_int obs)
  in
  let words = Harness.words_per_run 50 (fun () -> ignore (Net_profiler.profile rng net)) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per profile (bound %.0f)" words bound)
    true (words <= bound)

let test_derived_allocation () =
  let base = Net_profiler.profile (Prng.create 3L) Network.ethernet_10 in
  let obs = Array.length base.Net_profiler.obs_us
  and sizes = Array.length base.Net_profiler.mean_us in
  List.iter
    (fun (what, derive) ->
      let name = (derive base).Net_profiler.profiled_name in
      let bound = words_of_array obs +. words_of_array sizes +. 8. +. 2. +. words_of_string name in
      let words = Harness.words_per_run 50 (fun () -> ignore (derive base)) in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f minor words per %s (bound %.0f)" words what bound)
        true (words <= bound))
    [ ("degrade", Net_profiler.degrade); ("link_down", Net_profiler.link_down) ]

let suite =
  [
    Alcotest.test_case "message time formula" `Quick test_message_time_formula;
    Alcotest.test_case "monotone in size" `Quick test_monotone_in_size;
    Alcotest.test_case "loopback free" `Quick test_loopback_free;
    Alcotest.test_case "preset ordering" `Quick test_preset_ordering;
    Alcotest.test_case "invalid network" `Quick test_invalid_network;
    Alcotest.test_case "profiler fit close to truth" `Quick test_profile_fit_close_to_truth;
    Alcotest.test_case "exact profile is exact" `Quick test_exact_profile_is_exact;
    Alcotest.test_case "profile deterministic per seed" `Quick test_profile_deterministic_per_seed;
    qtest prop_predictions_nonnegative;
    qtest prop_predictions_match_oracle;
    qtest prop_profiles_match_reference;
    Alcotest.test_case "a profile allocates its arrays and record" `Quick test_profile_allocation;
    Alcotest.test_case "a derived profile shares the sizes" `Quick test_derived_allocation;
  ]
