(* The benchmark's own arithmetic, on inputs whose answers are worked
   out by hand. *)

let close = Alcotest.float 1e-12

let test_percentile () =
  let xs = [| 4.; 1.; 3.; 2. |] in
  Alcotest.check close "p0 is the minimum" 1. (Pstats.percentile xs 0.);
  Alcotest.check close "p100 is the maximum" 4. (Pstats.percentile xs 100.);
  (* rank 0.25 * 3 = 0.75: three quarters of the way from 1 to 2 *)
  Alcotest.check close "p25 interpolates" 1.75 (Pstats.percentile xs 25.);
  Alcotest.check close "median of an even count" 2.5 (Pstats.median xs);
  Alcotest.check close "median of an odd count" 3. (Pstats.median [| 5.; 3.; 1. |]);
  (* rank 0.99 * 100 = 99 lands exactly on the sample 99 *)
  Alcotest.check close "p99 of 0..100" 99.
    (Pstats.percentile (Array.init 101 float_of_int) 99.);
  Alcotest.check_raises "no samples" (Invalid_argument "Pstats.percentile: no samples")
    (fun () -> ignore (Pstats.median [||]))

(* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
   and statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]. *)
let test_quartiles () =
  let q1, q2, q3 = Pstats.quartiles (Array.init 10 (fun i -> float_of_int (10 - i))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  let q1, q2, q3 = Pstats.quartiles [| 2.; 1. |] in
  Alcotest.check close "two samples q1" 0.75 q1;
  Alcotest.check close "two samples q2" 1.5 q2;
  Alcotest.check close "two samples q3" 2.25 q3;
  (* (8.25 - 2.75) / 5.5 *)
  Alcotest.check close "iqr as a share of the median" 1.
    (Pstats.iqr_frac (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "constant samples have no spread" 0. (Pstats.iqr_frac [| 3.; 3.; 3. |])

let test_per_call () =
  Alcotest.check close "2 us over 4 calls" 0.5 (Pstats.us_per ~count:4 2e-6);
  Alcotest.check close "words per call" 2.5 (Pstats.per ~count:4 10.);
  Alcotest.check close "no calls cost nothing" 0. (Pstats.us_per ~count:0 1.)

let test_fail_frac () =
  Alcotest.check close "one of four" 0.25 (Pstats.fail_frac ~failed:1 ~attempted:4);
  Alcotest.check close "none failed" 0. (Pstats.fail_frac ~failed:0 ~attempted:7);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Pstats.fail_frac: nothing attempted") (fun () ->
      ignore (Pstats.fail_frac ~failed:0 ~attempted:0));
  Alcotest.check_raises "more failed than attempted"
    (Invalid_argument "Pstats.fail_frac: failed outside [0, attempted]") (fun () ->
      ignore (Pstats.fail_frac ~failed:3 ~attempted:2))

(* A clock that reads out a fixed schedule, one reading per call. *)
let scripted times =
  let rest = ref times in
  fun () ->
    match !rest with
    | t :: tl ->
        rest := tl;
        t
    | [] -> failwith "clock read past the script"

(* pass [0, 10) holds a [1, 3) and b [4, 5); a holds c [1.5, 2.5).
   Self times: pass 10 - 2 - 1 = 7, a 2 - 1 = 1, c 1, b 1. *)
let test_self_time () =
  let t = Spans.create ~clock:(scripted [ 0.; 1.; 1.5; 2.5; 3.; 4.; 5.; 10. ]) () in
  Spans.record t "pass" (fun () ->
      Spans.record t "a" (fun () -> Spans.record t "c" ignore);
      Spans.record t "b" ignore);
  let self = Spans.self_by_name (Spans.spans t) in
  Alcotest.(check (list (pair string (float 1e-12))))
    "self time per name" [ ("pass", 7.); ("a", 1.); ("c", 1.); ("b", 1.) ] self;
  let by_id =
    List.sort (fun (a : Spans.span) b -> compare a.Spans.sp_id b.Spans.sp_id) (Spans.spans t)
  in
  Alcotest.(check (list (pair string int)))
    "parents, in start order"
    [ ("pass", -1); ("a", 0); ("c", 1); ("b", 0) ]
    (List.map (fun (s : Spans.span) -> (s.Spans.sp_name, s.Spans.sp_parent)) by_id)

let test_self_time_sums () =
  (* Same name twice under one parent: self times add up. *)
  let t = Spans.create ~clock:(scripted [ 0.; 1.; 2.; 3.; 5.; 6. ]) () in
  Spans.record t "pass" (fun () ->
      Spans.record t "solve" ignore;
      Spans.record t "solve" ignore);
  Alcotest.(check (list (pair string (float 1e-12))))
    "repeated spans accumulate" [ ("pass", 3.); ("solve", 3.) ]
    (Spans.self_by_name (Spans.spans t))

let test_span_survives_exception () =
  let t = Spans.create ~clock:(scripted [ 0.; 1.; 2.; 3. ]) () in
  (try Spans.record t "pass" (fun () -> Spans.record t "boom" (fun () -> failwith "x"))
   with Failure _ -> ());
  Alcotest.(check int) "both spans recorded" 2 (List.length (Spans.spans t));
  Alcotest.(check (list (pair string (float 1e-12))))
    "self time after a raise" [ ("pass", 2.); ("boom", 1.) ]
    (Spans.self_by_name (Spans.spans t))

let () =
  Alcotest.run "perfbench"
    [
      ( "pstats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "per-call division" `Quick test_per_call;
          Alcotest.test_case "fail_frac" `Quick test_fail_frac;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time subtracts children" `Quick test_self_time;
          Alcotest.test_case "self time sums by name" `Quick test_self_time_sums;
          Alcotest.test_case "span closes on exception" `Quick test_span_survives_exception;
        ] );
    ]
