open Coign_util

let qtest = QCheck_alcotest.to_alcotest

(* --- Prng ---------------------------------------------------------- *)

(* The top 62 bits of the next raw draw. *)
let draw t = Prng.int t max_int

let test_prng_determinism () =
  let a = Prng.create 99L and b = Prng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (draw a) (draw b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1L and b = Prng.create 2L in
  Alcotest.(check bool) "different streams" false
    (List.init 8 (fun _ -> draw a) = List.init 8 (fun _ -> draw b))

let test_prng_int_bounds () =
  let rng = Prng.create 7L in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_bounds () =
  let rng = Prng.create 7L in
  for _ = 1 to 1000 do
    let v = Prng.float rng 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 3.5)
  done

let test_prng_gaussian_moments () =
  let rng = Prng.create 11L in
  let xs = Array.init 20_000 (fun _ -> Prng.gaussian rng ~mu:5. ~sigma:2.) in
  Alcotest.(check bool) "mean near 5" true (Float.abs (Oracles.mean xs -. 5.) < 0.1);
  Alcotest.(check bool) "stddev near 2" true (Float.abs (Oracles.stddev xs -. 2.) < 0.1)

let test_prng_exponential_mean () =
  let rng = Prng.create 13L in
  let xs = Array.init 20_000 (fun _ -> Prng.exponential rng ~mean:3.) in
  Alcotest.(check bool) "mean near 3" true (Float.abs (Oracles.mean xs -. 3.) < 0.15)

(* --- Exp_bucket ---------------------------------------------------- *)

let test_bucket_bounds_contiguous () =
  for i = 0 to 20 do
    let _, hi = Exp_bucket.bucket_bounds i in
    let lo', _ = Exp_bucket.bucket_bounds (i + 1) in
    Alcotest.(check int) "contiguous" (hi + 1) lo'
  done

let test_bucket_index_within_bounds () =
  List.iter
    (fun bytes ->
      let i = Exp_bucket.bucket_index bytes in
      let lo, hi = Exp_bucket.bucket_bounds i in
      Alcotest.(check bool)
        (Printf.sprintf "%d in [%d,%d]" bytes lo hi)
        true
        (bytes >= lo && bytes <= hi))
    [ 0; 1; 31; 32; 63; 64; 100; 1024; 65536; 1_000_000; 123_456_789 ]

let test_int_table () =
  let t = Int_table.create ~absent:(-1) 4 in
  for k = 0 to 99 do
    Int_table.replace t (k * 7919) k
  done;
  Int_table.replace t 7919 (Int_table.find t 7919 + 10);
  Alcotest.(check int) "length" 100 (Int_table.length t);
  Alcotest.(check int) "found" 42 (Int_table.find t (42 * 7919));
  Alcotest.(check int) "added" 11 (Int_table.find t 7919);
  Alcotest.(check int) "absent" (-1) (Int_table.find t 5);
  let check what f =
    let w = Harness.words_per_run 1_000 f in
    Alcotest.(check bool) (Printf.sprintf "%s: %.2f words per run" what w) true (w < 1.)
  in
  check "find existing" (fun () -> ignore (Int_table.find t (42 * 7919) : int));
  check "replace existing" (fun () -> Int_table.replace t (42 * 7919) 42)

let test_bucket_counts () =
  let b = Exp_bucket.create () in
  Exp_bucket.add b ~bytes:10;
  Exp_bucket.add b ~bytes:20;
  Exp_bucket.add b ~bytes:1000;
  Alcotest.(check int) "count" 3 (Exp_bucket.message_count b);
  Alcotest.(check int) "bytes" 1030 (Exp_bucket.total_bytes b)

let test_bucket_merge () =
  let a = Exp_bucket.create () and b = Exp_bucket.create () in
  Exp_bucket.add a ~bytes:5;
  Exp_bucket.add_many b ~bytes:100 ~count:4;
  let m = Exp_bucket.merge a b in
  Alcotest.(check int) "count" 5 (Exp_bucket.message_count m);
  Alcotest.(check int) "bytes" 405 (Exp_bucket.total_bytes m);
  (* inputs untouched *)
  Alcotest.(check int) "a intact" 1 (Exp_bucket.message_count a)

let test_bucket_mean () =
  let b = Exp_bucket.create () in
  Exp_bucket.add b ~bytes:40;
  Exp_bucket.add b ~bytes:60;
  let i = Exp_bucket.bucket_index 40 in
  Alcotest.(check int) "same bucket" i (Exp_bucket.bucket_index 60);
  Alcotest.(check (float 0.001)) "mean" 50. (Exp_bucket.mean_bytes_in_bucket b i)

let prop_bucket_index_monotone =
  QCheck.Test.make ~name:"bucket index monotone in size" ~count:500
    QCheck.(pair (int_bound 10_000_000) (int_bound 10_000_000))
    (fun (a, b) ->
      let a, b = (min a b, max a b) in
      Exp_bucket.bucket_index a <= Exp_bucket.bucket_index b)

let prop_bucket_merge_totals =
  QCheck.Test.make ~name:"merge preserves counts and bytes" ~count:200
    QCheck.(pair (small_list (int_bound 100_000)) (small_list (int_bound 100_000)))
    (fun (xs, ys) ->
      let mk sizes =
        let b = Exp_bucket.create () in
        List.iter (fun s -> Exp_bucket.add b ~bytes:s) sizes;
        b
      in
      let m = Exp_bucket.merge (mk xs) (mk ys) in
      Exp_bucket.message_count m = List.length xs + List.length ys
      && Exp_bucket.total_bytes m = List.fold_left ( + ) 0 xs + List.fold_left ( + ) 0 ys)

(* The 58-slot histogram [Exp_bucket] stored before its arrays grew on
   demand, kept as the reference the current one must match. *)
module Flat_bucket = struct
  let nbuckets = 58

  type t = { counts : int array; bytes : int array }

  let create () = { counts = Array.make nbuckets 0; bytes = Array.make nbuckets 0 }

  let add_many t ~bytes ~count =
    if count > 0 then begin
      let i = Exp_bucket.bucket_index bytes in
      t.counts.(i) <- t.counts.(i) + count;
      t.bytes.(i) <- t.bytes.(i) + (count * bytes)
    end

  let merge a b =
    let r = create () in
    for i = 0 to nbuckets - 1 do
      r.counts.(i) <- a.counts.(i) + b.counts.(i);
      r.bytes.(i) <- a.bytes.(i) + b.bytes.(i)
    done;
    r

  let message_count t = Array.fold_left ( + ) 0 t.counts
  let total_bytes t = Array.fold_left ( + ) 0 t.bytes

  let fold f t init =
    let acc = ref init in
    for i = 0 to nbuckets - 1 do
      if t.counts.(i) > 0 then acc := f ~index:i ~count:t.counts.(i) ~bytes:t.bytes.(i) !acc
    done;
    !acc

  let mean_bytes_in_bucket t i =
    if t.counts.(i) = 0 then 0. else float_of_int t.bytes.(i) /. float_of_int t.counts.(i)

  let equal a b = a.counts = b.counts && a.bytes = b.bytes
end

(* A histogram's history: [(size, None)] is one [add], [(size, Some
   n)] an [add_many] of [n] (0 included). Sizes cover every bucket:
   small ones, both sides of each power of two, and anything up to
   [max_int]. *)
let arb_bucket_ops =
  let size =
    QCheck.Gen.(
      frequency
        [
          (3, int_range 0 200);
          (3, map2 (fun k d -> Int.max 0 ((1 lsl k) + d)) (int_range 5 61) (int_range (-1) 1));
          (2, map (fun x -> x land max_int) int);
          (1, return max_int);
        ])
  in
  let op = QCheck.Gen.(pair size (opt (int_range 0 5))) in
  QCheck.make QCheck.Gen.(pair (list_size (int_range 0 12) op) (list_size (int_range 0 12) op))

let prop_bucket_matches_flat =
  QCheck.Test.make ~name:"on-demand histogram matches the 58-slot one" ~count:500 arb_bucket_ops
    (fun (xs, ys) ->
      let build ops =
        let e = Exp_bucket.create () and f = Flat_bucket.create () in
        List.iter
          (fun (bytes, many) ->
            match many with
            | None ->
                Exp_bucket.add e ~bytes;
                Flat_bucket.add_many f ~bytes ~count:1
            | Some count ->
                Exp_bucket.add_many e ~bytes ~count;
                Flat_bucket.add_many f ~bytes ~count)
          ops;
        (e, f)
      in
      let cells fold h = List.rev (fold (fun ~index ~count ~bytes acc -> (index, count, bytes) :: acc) h []) in
      let same (e, f) =
        cells Exp_bucket.fold e = cells Flat_bucket.fold f
        && Exp_bucket.message_count e = Flat_bucket.message_count f
        && Exp_bucket.total_bytes e = Flat_bucket.total_bytes f
        && List.for_all
             (fun i ->
               Float.equal (Exp_bucket.mean_bytes_in_bucket e i) (Flat_bucket.mean_bytes_in_bucket f i))
             (List.init Flat_bucket.nbuckets Fun.id)
      in
      let ((ea, fa) as a) = build xs and ((eb, fb) as b) = build ys in
      let e0, f0 = build [] in
      let merged = (Exp_bucket.merge ea eb, Flat_bucket.merge fa fb) in
      let swapped = (Exp_bucket.merge eb ea, Flat_bucket.merge fb fa) in
      let agree_equal (e1, f1) (e2, f2) = Oracles.bucket_equal e1 e2 = Flat_bucket.equal f1 f2 in
      same a && same b && same merged && same swapped
      && same (Exp_bucket.merge ea e0, Flat_bucket.merge fa f0)
      && agree_equal a b && agree_equal a a && agree_equal merged swapped
      && agree_equal a (Exp_bucket.merge ea e0, Flat_bucket.merge fa f0)
      && agree_equal (e0, f0) b)

(* --- Stats --------------------------------------------------------- *)

let test_stats_mean_var () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Oracles.mean xs);
  Alcotest.(check (float 1e-9)) "variance" 1.25 (Oracles.stddev xs ** 2.)

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  Alcotest.(check (float 1e-9)) "p0" 10. (Oracles.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p50" 30. (Oracles.percentile xs 50.);
  Alcotest.(check (float 1e-9)) "p100" 50. (Oracles.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "p25" 20. (Oracles.percentile xs 25.)

let test_stats_correlation_basics () =
  Alcotest.(check (float 1e-9)) "identical" 1. (Stats.cosine_correlation [| 1.; 2. |] [| 2.; 4. |]);
  Alcotest.(check (float 1e-9)) "orthogonal" 0. (Stats.cosine_correlation [| 1.; 0. |] [| 0.; 1. |]);
  Alcotest.(check (float 1e-9)) "both zero" 1. (Stats.cosine_correlation [| 0.; 0. |] [| 0.; 0. |]);
  Alcotest.(check (float 1e-9)) "one zero" 0. (Stats.cosine_correlation [| 0.; 0. |] [| 1.; 0. |])

let test_stats_linear_fit () =
  let xs = Array.init 10 Fun.id in
  let ys = Array.map (fun x -> 3. +. (2. *. float_of_int x)) xs in
  let intercept, slope = Stats.linear_fit ~xs ~ys in
  Alcotest.(check (float 1e-9)) "intercept" 3. intercept;
  Alcotest.(check (float 1e-9)) "slope" 2. slope

let test_stats_ratio_error () =
  Alcotest.(check (float 1e-9)) "under" (-0.5) (Stats.ratio_error ~predicted:5. ~measured:10.);
  Alcotest.(check (float 1e-9)) "exact" 0. (Stats.ratio_error ~predicted:10. ~measured:10.);
  Alcotest.(check (float 1e-9)) "zero-zero" 0. (Stats.ratio_error ~predicted:0. ~measured:0.)

let prop_correlation_range =
  QCheck.Test.make ~name:"correlation in [0,1] for non-negative vectors" ~count:300
    QCheck.(pair (array_of_size (QCheck.Gen.return 6) (float_bound_inclusive 100.))
              (array_of_size (QCheck.Gen.return 6) (float_bound_inclusive 100.)))
    (fun (a, b) ->
      let c = Stats.cosine_correlation a b in
      c >= -1e-9 && c <= 1. +. 1e-9)

(* Selection against the definition: copy, sort, interpolate. The
   shapes mix plain random values with quickselect's hard cases —
   heavy duplicates, all-equal arrays, zeros, already-sorted,
   reverse-sorted and organ-pipe inputs. *)
let gen_select_input =
  QCheck.Gen.(
    int_range 1 2000 >>= fun n ->
    let sorted g = map (fun a -> Array.sort Float.compare a; a) (array_repeat n g) in
    let values = float_range (-1e6) 1e6 in
    oneof
      [
        array_repeat n values;
        array_repeat n (map float_of_int (int_range 0 3));
        map (Array.make n) values;
        return (Array.make n 0.);
        array_repeat n (oneofl [ 0.; 1.5; 1e300 ]);
        sorted values;
        map
          (fun a ->
            let n = Array.length a in
            Array.init n (fun i -> a.(n - 1 - i)))
          (sorted values);
        map
          (fun a ->
            let n = Array.length a in
            Array.init n (fun i -> a.(if i mod 2 = 0 then i / 2 else n - 1 - (i / 2))))
          (sorted (map float_of_int (int_range 0 50)));
      ])

(* A rank set of 1 to 8 percentiles: the bounds, the report's own
   percentiles and arbitrary ones, duplicates allowed. *)
let gen_percentiles =
  QCheck.Gen.(
    int_range 1 8 >>= fun k ->
    array_repeat k (oneof [ oneofl [ 0.; 50.; 95.; 99.; 99.9; 100. ]; float_range 0. 100. ]))

let prop_select_matches_sort =
  QCheck.Test.make ~name:"selected percentiles == sort + interpolate, bit for bit" ~count:300
    (QCheck.make
       ~print:(fun (a, ps) ->
         Printf.sprintf "n=%d [%s ...] ps [%s]" (Array.length a)
           (String.concat "; "
              (List.filteri (fun i _ -> i < 8) (List.map string_of_float (Array.to_list a))))
           (String.concat "; " (List.map string_of_float (Array.to_list ps))))
       QCheck.Gen.(pair gen_select_input gen_percentiles))
    (fun (xs, ps) ->
      let bits = Int64.bits_of_float in
      let n = Array.length xs in
      let sorted = Array.copy xs in
      Array.sort Float.compare sorted;
      let by_sort p =
        let rank = p /. 100. *. float_of_int (n - 1) in
        let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
        let frac = rank -. floor rank in
        (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
      in
      let original = Array.copy xs in
      let work = Array.copy xs in
      let selected = Stats.percentiles_in_place work ps in
      let permuted = Array.copy work in
      Array.sort Float.compare permuted;
      Array.for_all2 (fun p v -> bits v = bits (by_sort p)) ps selected
      && Array.for_all (fun p -> bits (Oracles.percentile xs p) = bits (by_sort p)) ps
      && ((not (Array.mem 100. ps)) || bits work.(n - 1) = bits sorted.(n - 1))
      && permuted = sorted
      && xs = original)

(* --- Parallel ------------------------------------------------------ *)

let with_pool domains f =
  let pool = Parallel.create ~domains () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

let test_parallel_map_matches_sequential () =
  with_pool 3 (fun pool ->
      let items = Array.init 100 (fun i -> i) in
      let f x = (x * x) + 1 in
      Alcotest.(check (array int))
        "same results in same order" (Array.map f items)
        (Parallel.map pool ~f items))

let test_parallel_inline_pool () =
  (* domains:0 means no worker domains: everything runs inline on the
     calling domain, same contract. *)
  with_pool 0 (fun pool ->
      Alcotest.(check int) "no workers" 0 (Parallel.worker_count pool);
      let self = (Domain.self () :> int) in
      let ran_on = ref [] in
      Alcotest.(check (array int))
        "inline map" [| 2; 4; 6 |]
        (Parallel.map pool
           ~f:(fun x ->
             ran_on := (Domain.self () :> int) :: !ran_on;
             2 * x)
           [| 1; 2; 3 |]);
      Alcotest.(check (list int)) "every item on the calling domain" [ self; self; self ] !ran_on)

let test_parallel_empty () =
  with_pool 2 (fun pool ->
      Alcotest.(check int) "empty" 0 (Array.length (Parallel.map pool ~f:(fun x -> x) [||])))

let test_parallel_exception_propagates () =
  with_pool 2 (fun pool ->
      Alcotest.check_raises "first failure re-raised" (Failure "item 5") (fun () ->
          ignore
            (Parallel.map pool
               ~f:(fun x -> if x = 5 then failwith "item 5" else x)
               (Array.init 20 Fun.id)));
      (* the pool survives a failed job *)
      Alcotest.(check (array int))
        "pool usable after failure" [| 0; 1; 2 |]
        (Parallel.map pool ~f:Fun.id [| 0; 1; 2 |]))

let test_parallel_map_init_state () =
  (* Per-domain state: each domain gets its own buffer, so concurrent
     use never mixes; results still land by index. *)
  with_pool 3 (fun pool ->
      let results =
        Parallel.map_init pool
          ~init:(fun () -> Buffer.create 16)
          ~f:(fun buf x ->
            Buffer.clear buf;
            Buffer.add_string buf (string_of_int x);
            int_of_string (Buffer.contents buf))
          (Array.init 64 Fun.id)
      in
      Alcotest.(check (array int)) "state-local map" (Array.init 64 Fun.id) results)

let test_parallel_nested_falls_back () =
  with_pool 2 (fun pool ->
      let results =
        Parallel.map pool
          ~f:(fun x ->
            (* A nested map on the same pool must not deadlock: it runs
               inline. *)
            Array.fold_left ( + ) 0 (Parallel.map pool ~f:(fun y -> x * y) [| 1; 2; 3 |]))
          [| 1; 2; 3; 4 |]
      in
      Alcotest.(check (array int)) "nested" [| 6; 12; 18; 24 |] results)

let test_parallel_map_list () =
  with_pool 2 (fun pool ->
      Alcotest.(check (list int))
        "list map" [ 10; 20; 30 ]
        (Parallel.map_list pool ~f:(fun x -> 10 * x) [ 1; 2; 3 ]))

let test_parallel_invalid_domains () =
  Alcotest.check_raises "negative domains"
    (Invalid_argument "Parallel.create: negative domain count") (fun () ->
      ignore (Parallel.create ~domains:(-1) ()))

(* --- Tablefmt ------------------------------------------------------ *)

let test_tablefmt_alignment () =
  let t = Tablefmt.create [ ("name", Tablefmt.Left); ("value", Tablefmt.Right) ] in
  Tablefmt.add_row t [ "x"; "1" ];
  Tablefmt.add_row t [ "longer"; "22" ];
  let rendered = Tablefmt.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check bool) "header present" true
    (match lines with h :: _ -> String.length h > 0 && h.[0] = 'n' | [] -> false);
  (* all non-empty lines same width or shorter *)
  Alcotest.(check bool) "right aligned"
    true
    (List.exists (fun l -> String.length l > 0 && l.[String.length l - 1] = '1') lines)

let test_tablefmt_cell_mismatch () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left) ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Tablefmt.add_row: cell count mismatch")
    (fun () -> Tablefmt.add_row t [ "x"; "y" ])

let test_tablefmt_cells () =
  Alcotest.(check string) "float" "1.50" (Tablefmt.cell_float ~decimals:2 1.5);
  Alcotest.(check string) "pct" "95%" (Tablefmt.cell_pct 0.95)

(* [Text_field.field_end] skips eight bytes at a time: on every text
   of up to 20 bytes with a tab or newline (or none) at each position,
   after neighbours that differ from a separator in one bit, it stops
   where a byte-by-byte scan does, from every start. *)
let test_field_end_word_scan () =
  let naive s i =
    let rec go k = if k = String.length s || s.[k] = '\t' || s.[k] = '\n' then k else go (k + 1) in
    go i
  in
  for len = 0 to 20 do
    for at = -1 to len - 1 do
      List.iter
        (fun (sep, filler) ->
          let s = String.init len (fun k -> if k = at then sep else filler) in
          for i = 0 to len do
            Alcotest.(check int)
              (Printf.sprintf "%S from %d" s i)
              (naive s i) (Text_field.field_end s i)
          done)
        [ ('\t', '\x08'); ('\n', '\x0b'); ('\t', '\x89'); ('\n', 'a') ]
    done
  done

(* [Text_field.add_int] appends what [string_of_int] writes: on drawn
   ints of every magnitude, and on 0, -1, both ends of the int range and
   the powers of ten around them, each after text already in the
   buffer. *)
let prop_add_int_is_string_of_int =
  let edges =
    [ 0; -1; 1; 9; 10; -9; -10; 99; 100; max_int; min_int; max_int - 1; min_int + 1 ]
    @ List.concat_map (fun k -> [ k; -k; k - 1; 1 - k ])
        (List.init 18 (fun i -> int_of_float (10. ** float_of_int (i + 1))))
  in
  QCheck.Test.make ~name:"add_int writes string_of_int" ~count:500
    QCheck.(oneof [ int; small_signed_int; oneofl edges ])
    (fun n ->
      List.for_all
        (fun n ->
          let buf = Buffer.create 4 in
          Buffer.add_string buf "x\t";
          Text_field.add_int buf n;
          String.equal (Buffer.contents buf) ("x\t" ^ string_of_int n))
        (n :: edges))

let suite =
  [
    Alcotest.test_case "text field end scans by word" `Quick test_field_end_word_scan;
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng float bounds" `Quick test_prng_float_bounds;
    Alcotest.test_case "prng gaussian moments" `Quick test_prng_gaussian_moments;
    Alcotest.test_case "prng exponential mean" `Quick test_prng_exponential_mean;
    Alcotest.test_case "bucket bounds contiguous" `Quick test_bucket_bounds_contiguous;
    Alcotest.test_case "bucket index within bounds" `Quick test_bucket_index_within_bounds;
    Alcotest.test_case "int table allocation-free on existing keys" `Quick test_int_table;
    Alcotest.test_case "bucket counts" `Quick test_bucket_counts;
    Alcotest.test_case "bucket merge" `Quick test_bucket_merge;
    Alcotest.test_case "bucket mean" `Quick test_bucket_mean;
    qtest prop_bucket_index_monotone;
    qtest prop_bucket_merge_totals;
    qtest prop_bucket_matches_flat;
    Alcotest.test_case "stats mean/var" `Quick test_stats_mean_var;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats correlation" `Quick test_stats_correlation_basics;
    Alcotest.test_case "stats linear fit" `Quick test_stats_linear_fit;
    Alcotest.test_case "stats ratio error" `Quick test_stats_ratio_error;
    qtest prop_correlation_range;
    qtest prop_select_matches_sort;
    Alcotest.test_case "parallel map matches sequential" `Quick test_parallel_map_matches_sequential;
    Alcotest.test_case "parallel inline pool" `Quick test_parallel_inline_pool;
    Alcotest.test_case "parallel empty input" `Quick test_parallel_empty;
    Alcotest.test_case "parallel exception propagates" `Quick test_parallel_exception_propagates;
    Alcotest.test_case "parallel map_init state" `Quick test_parallel_map_init_state;
    Alcotest.test_case "parallel nested falls back" `Quick test_parallel_nested_falls_back;
    Alcotest.test_case "parallel map_list" `Quick test_parallel_map_list;
    Alcotest.test_case "parallel invalid domains" `Quick test_parallel_invalid_domains;
    Alcotest.test_case "tablefmt alignment" `Quick test_tablefmt_alignment;
    Alcotest.test_case "tablefmt cell mismatch" `Quick test_tablefmt_cell_mismatch;
    Alcotest.test_case "tablefmt cells" `Quick test_tablefmt_cells;
    qtest prop_add_int_is_string_of_int;
  ]
