(* Tests for the stats substrate: RNG, summaries, distributions. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close epsilon = Alcotest.(check (float epsilon))

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Stats.Rng.create ~seed:42 and b = Stats.Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Stats.Rng.bits64 a) (Stats.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Stats.Rng.create ~seed:1 and b = Stats.Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Stats.Rng.bits64 a <> Stats.Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "seeds give different streams" true !differs

let test_rng_copy () =
  let a = Stats.Rng.create ~seed:7 in
  ignore (Stats.Rng.bits64 a);
  let b = Stats.Rng.copy a in
  Alcotest.(check int64) "copy resumes identically" (Stats.Rng.bits64 a) (Stats.Rng.bits64 b)

let test_rng_split_decorrelates () =
  let a = Stats.Rng.create ~seed:7 in
  let b = Stats.Rng.split a in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Stats.Rng.bits64 a = Stats.Rng.bits64 b then incr equal
  done;
  Alcotest.(check int) "no collisions across split" 0 !equal

let test_rng_float_range () =
  let rng = Stats.Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Stats.Rng.float rng in
    if not (x >= 0.0 && x < 1.0) then Alcotest.failf "float out of range: %f" x
  done

let test_rng_int_bounds () =
  let rng = Stats.Rng.create ~seed:4 in
  for _ = 1 to 10_000 do
    let x = Stats.Rng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.failf "int out of range: %d" x
  done;
  Alcotest.check_raises "zero bound rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Stats.Rng.int rng 0))

let test_rng_int_covers_all_residues () =
  let rng = Stats.Rng.create ~seed:5 in
  let seen = Array.make 7 false in
  for _ = 1 to 1_000 do
    seen.(Stats.Rng.int rng 7) <- true
  done;
  Array.iteri (fun i hit -> Alcotest.(check bool) (Printf.sprintf "residue %d seen" i) true hit) seen

let test_bernoulli_frequency () =
  let rng = Stats.Rng.create ~seed:11 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Stats.Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  check_close 0.01 "bernoulli mean" 0.3 (float_of_int !hits /. float_of_int n)

let test_bernoulli_extremes () =
  let rng = Stats.Rng.create ~seed:12 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Stats.Rng.bernoulli rng ~p:0.0);
    Alcotest.(check bool) "p=1 always" true (Stats.Rng.bernoulli rng ~p:1.0)
  done

let test_geometric_mean () =
  let rng = Stats.Rng.create ~seed:13 in
  let p = 0.25 in
  let n = 50_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Stats.Rng.geometric rng ~p
  done;
  (* E[failures before success] = (1-p)/p = 3 *)
  check_close 0.1 "geometric mean" 3.0 (float_of_int !total /. float_of_int n)

let test_geometric_p1 () =
  let rng = Stats.Rng.create ~seed:14 in
  for _ = 1 to 10 do
    Alcotest.(check int) "p=1 gives zero failures" 0 (Stats.Rng.geometric rng ~p:1.0)
  done

let test_exponential_mean () =
  let rng = Stats.Rng.create ~seed:15 in
  let n = 50_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Stats.Rng.exponential rng ~mean:2.5
  done;
  check_close 0.1 "exponential mean" 2.5 (!total /. float_of_int n)

let test_shuffle_permutes () =
  let rng = Stats.Rng.create ~seed:16 in
  let a = Array.init 50 Fun.id in
  Stats.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_derive_deterministic () =
  let a = Stats.Rng.derive ~root:42 ~index:7 and b = Stats.Rng.derive ~root:42 ~index:7 in
  for _ = 1 to 16 do
    Alcotest.(check int64) "same stream" (Stats.Rng.bits64 a) (Stats.Rng.bits64 b)
  done

let test_derive_decorrelates_indices () =
  (* Adjacent task indices must not yield overlapping or shifted streams:
     check the first words across a window of indices are pairwise distinct,
     and that index i+1's stream is not index i's stream shifted by one (the
     failure mode of seeding xoshiro with correlated splitmix states). *)
  let first_words =
    List.init 64 (fun i ->
        let rng = Stats.Rng.derive ~root:1 ~index:i in
        (Stats.Rng.bits64 rng, Stats.Rng.bits64 rng))
  in
  let firsts = List.map fst first_words in
  let distinct = List.sort_uniq Int64.compare firsts in
  Alcotest.(check int) "distinct first words" 64 (List.length distinct);
  List.iteri
    (fun i (_, second) ->
      match List.nth_opt firsts (i + 1) with
      | Some next_first ->
          Alcotest.(check bool) "not a shifted stream" false (Int64.equal second next_first)
      | None -> ())
    first_words

let test_derive_root_sensitivity () =
  let a = Stats.Rng.derive ~root:1 ~index:0 and b = Stats.Rng.derive ~root:2 ~index:0 in
  let differs = ref false in
  for _ = 1 to 8 do
    if Stats.Rng.bits64 a <> Stats.Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "roots decorrelate" true !differs

let test_derive_rejects_negative_index () =
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.derive: index must be non-negative") (fun () ->
      ignore (Stats.Rng.derive ~root:1 ~index:(-1)))

(* -------------------------------------------------------------- Summary *)

let test_summary_basic () =
  let s = Stats.Summary.of_array [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "count" 4 (Stats.Summary.count s);
  check_float "mean" 2.5 (Stats.Summary.mean s);
  check_float "variance" (5.0 /. 3.0) (Stats.Summary.variance s);
  check_float "min" 1.0 (Stats.Summary.min s);
  check_float "max" 4.0 (Stats.Summary.max s);
  check_float "total" 10.0 (Stats.Summary.total s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Summary.mean s));
  Alcotest.(check bool) "variance nan" true (Float.is_nan (Stats.Summary.variance s))

let test_summary_single () =
  let s = Stats.Summary.of_array [| 5.0 |] in
  check_float "mean" 5.0 (Stats.Summary.mean s);
  Alcotest.(check bool) "variance nan for n=1" true (Float.is_nan (Stats.Summary.variance s))

let test_summary_merge_matches_union () =
  let xs = [| 1.0; 5.0; 2.0 |] and ys = [| 7.0; 3.0; 9.0; 4.0 |] in
  let merged = Stats.Summary.merge (Stats.Summary.of_array xs) (Stats.Summary.of_array ys) in
  let union = Stats.Summary.of_array (Array.append xs ys) in
  Alcotest.(check int) "count" (Stats.Summary.count union) (Stats.Summary.count merged);
  check_float "mean" (Stats.Summary.mean union) (Stats.Summary.mean merged);
  check_close 1e-9 "variance" (Stats.Summary.variance union) (Stats.Summary.variance merged)

let test_summary_merge_empty () =
  let s = Stats.Summary.of_array [| 1.0; 2.0 |] in
  let merged = Stats.Summary.merge s (Stats.Summary.create ()) in
  check_float "mean unchanged" 1.5 (Stats.Summary.mean merged)

let prop_welford_matches_naive =
  QCheck.Test.make ~name:"welford matches naive two-pass variance" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 100) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let a = Array.of_list xs in
      let s = Stats.Summary.of_array a in
      let n = float_of_int (Array.length a) in
      let mean = Array.fold_left ( +. ) 0.0 a /. n in
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 a /. (n -. 1.0)
      in
      let got = Stats.Summary.variance s in
      Float.abs (got -. var) <= 1e-6 *. Float.max 1.0 (Float.abs var))

(* --------------------------------------------------------- Distribution *)

let test_exchange_failure_prob () =
  check_float "zero loss" 0.0 (Stats.Distribution.exchange_failure_prob ~packet_loss:0.0 ~packets:64);
  check_float "zero packets" 0.0 (Stats.Distribution.exchange_failure_prob ~packet_loss:0.5 ~packets:0);
  check_close 1e-12 "two packets at 0.1"
    (1.0 -. (0.9 *. 0.9))
    (Stats.Distribution.exchange_failure_prob ~packet_loss:0.1 ~packets:2);
  (* Tiny-loss regime where naive 1-(1-p)^n would lose precision. *)
  let p = 1e-9 and n = 65 in
  (* First-order n*p, with the second-order binomial correction. *)
  let expected = (float_of_int n *. p) -. (2080.0 *. p *. p) in
  let got = Stats.Distribution.exchange_failure_prob ~packet_loss:p ~packets:n in
  if Float.abs (got -. expected) > 1e-9 *. expected then
    Alcotest.failf "tiny-loss precision: got %.17g want ~%.17g" got expected

let test_exchange_failure_total_loss () =
  check_float "loss=1" 1.0 (Stats.Distribution.exchange_failure_prob ~packet_loss:1.0 ~packets:1)

let test_geometric_moments () =
  check_float "mean" 1.0 (Stats.Distribution.geometric_mean ~fail:0.5);
  check_float "variance" 2.0 (Stats.Distribution.geometric_variance ~fail:0.5)

let test_geometric_pmf_sums () =
  let fail = 0.3 in
  let total = ref 0.0 in
  for k = 0 to 100 do
    total := !total +. Stats.Distribution.geometric_pmf ~fail k
  done;
  check_close 1e-12 "pmf sums to 1" 1.0 !total;
  check_close 1e-12 "cdf matches partial sum" !total (Stats.Distribution.geometric_cdf ~fail 100)

let test_binomial_pmf () =
  check_close 1e-9 "B(4,0.5) at 2" 0.375 (Stats.Distribution.binomial_pmf ~n:4 ~p:0.5 2);
  let total = ref 0.0 in
  for k = 0 to 10 do
    total := !total +. Stats.Distribution.binomial_pmf ~n:10 ~p:0.3 k
  done;
  check_close 1e-9 "pmf sums to 1" 1.0 !total

let test_log_choose () =
  check_close 1e-9 "C(10,3)" (log 120.0) (Stats.Distribution.log_choose 10 3);
  check_float "C(n,0)" 0.0 (Stats.Distribution.log_choose 5 0);
  Alcotest.(check bool) "k>n" true (Stats.Distribution.log_choose 3 4 = neg_infinity)

(* ----------------------------------------------------------- Percentile *)

let test_percentile_median () =
  check_float "odd median" 3.0 (Stats.Percentile.median [| 5.0; 1.0; 3.0 |]);
  check_float "even median" 2.5 (Stats.Percentile.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_percentile_extremes () =
  let xs = [| 9.0; 1.0; 5.0 |] in
  check_float "q0 is min" 1.0 (Stats.Percentile.quantile xs 0.0);
  check_float "q1 is max" 9.0 (Stats.Percentile.quantile xs 1.0)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (float_range (-100.0) 100.0))
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (xs, (q1, q2)) ->
      let a = Array.of_list xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Stats.Percentile.quantile a lo <= Stats.Percentile.quantile a hi +. 1e-9)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split decorrelates" `Quick test_rng_split_decorrelates;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int covers residues" `Quick test_rng_int_covers_all_residues;
          Alcotest.test_case "bernoulli frequency" `Quick test_bernoulli_frequency;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "derive deterministic" `Quick test_derive_deterministic;
          Alcotest.test_case "derive decorrelates indices" `Quick
            test_derive_decorrelates_indices;
          Alcotest.test_case "derive root sensitivity" `Quick test_derive_root_sensitivity;
          Alcotest.test_case "derive rejects negative index" `Quick
            test_derive_rejects_negative_index;
        ] );
      ( "summary",
        Alcotest.test_case "basic moments" `Quick test_summary_basic
        :: Alcotest.test_case "empty" `Quick test_summary_empty
        :: Alcotest.test_case "single" `Quick test_summary_single
        :: Alcotest.test_case "merge matches union" `Quick test_summary_merge_matches_union
        :: Alcotest.test_case "merge with empty" `Quick test_summary_merge_empty
        :: qcheck [ prop_welford_matches_naive ] );
      ( "distribution",
        [
          Alcotest.test_case "exchange failure prob" `Quick test_exchange_failure_prob;
          Alcotest.test_case "exchange failure total loss" `Quick test_exchange_failure_total_loss;
          Alcotest.test_case "geometric moments" `Quick test_geometric_moments;
          Alcotest.test_case "geometric pmf sums" `Quick test_geometric_pmf_sums;
          Alcotest.test_case "binomial pmf" `Quick test_binomial_pmf;
          Alcotest.test_case "log choose" `Quick test_log_choose;
        ] );
      ( "percentile",
        Alcotest.test_case "median" `Quick test_percentile_median
        :: Alcotest.test_case "extremes" `Quick test_percentile_extremes
        :: qcheck [ prop_quantile_monotone ] );
    ]
