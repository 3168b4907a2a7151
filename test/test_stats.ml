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

(* Known answers: the generator that stored its state as a record of boxed
   [int64] fields, copied verbatim as the reference. The unboxed state must
   reproduce it draw for draw — every seeded journal depends on it. *)
module Reference = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let splitmix64_next state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let create ~seed =
    let state = ref (Int64.of_int seed) in
    let s0 = splitmix64_next state in
    let s1 = splitmix64_next state in
    let s2 = splitmix64_next state in
    let s3 = splitmix64_next state in
    { s0; s1; s2; s3 }

  let derive ~root ~index =
    if index < 0 then invalid_arg "Rng.derive: index must be non-negative";
    let state = ref (Int64.of_int root) in
    let mixed_root = splitmix64_next state in
    let state = ref (Int64.logxor mixed_root (Int64.of_int index)) in
    let state = ref (splitmix64_next state) in
    let s0 = splitmix64_next state in
    let s1 = splitmix64_next state in
    let s2 = splitmix64_next state in
    let s3 = splitmix64_next state in
    { s0; s1; s2; s3 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

  let split t =
    let seed = Int64.to_int (bits64 t) land max_int in
    create ~seed

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
    let nonnegative = Int64.to_int (bits64 t) land max_int in
    nonnegative mod bound

  let float t =
    let bits = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
    bits *. (1.0 /. 9007199254740992.0)

  let bernoulli t ~p =
    if not (p >= 0.0 && p <= 1.0) then invalid_arg "Rng.bernoulli: p outside [0,1]";
    float t < p

  (* The payload generator the deterministic-simulation harness carried
     before {!Stats.Rng.string} replaced it. *)
  let payload_for rng bytes =
    let buf = Bytes.create bytes in
    let full = bytes / 8 in
    for i = 0 to full - 1 do
      Bytes.set_int64_le buf (i * 8) (bits64 rng)
    done;
    if bytes land 7 <> 0 then begin
      let word = bits64 rng in
      for i = full * 8 to bytes - 1 do
        Bytes.set_uint8 buf i
          (Int64.to_int (Int64.shift_right_logical word ((i land 7) * 8)) land 0xff)
      done
    end;
    Bytes.unsafe_to_string buf
end

(* The three ways a stream starts, as (name, generator, reference) makers. *)
let sources =
  [
    ("create", (fun () -> Stats.Rng.create ~seed:42), fun () -> Reference.create ~seed:42);
    ( "derive",
      (fun () -> Stats.Rng.derive ~root:1000 ~index:7),
      fun () -> Reference.derive ~root:1000 ~index:7 );
    ( "split",
      (fun () -> Stats.Rng.split (Stats.Rng.create ~seed:9)),
      fun () -> Reference.split (Reference.create ~seed:9) );
  ]

let test_rng_known_answers () =
  let first_64 name testable draw reference =
    List.iter
      (fun (source, make, make_ref) ->
        let rng = make () and ref_rng = make_ref () in
        for i = 1 to 64 do
          Alcotest.check testable
            (Printf.sprintf "%s from %s, draw %d" name source i)
            (reference ref_rng) (draw rng)
        done)
      sources
  in
  first_64 "bits64" Alcotest.int64 Stats.Rng.bits64 Reference.bits64;
  first_64 "int" Alcotest.int (fun r -> Stats.Rng.int r 1000) (fun r -> Reference.int r 1000);
  first_64 "int max_int" Alcotest.int
    (fun r -> Stats.Rng.int r max_int)
    (fun r -> Reference.int r max_int);
  first_64 "float" (Alcotest.float 0.0) Stats.Rng.float Reference.float;
  first_64 "bernoulli" Alcotest.bool
    (fun r -> Stats.Rng.bernoulli r ~p:0.3)
    (fun r -> Reference.bernoulli r ~p:0.3)

let test_rng_split_parent_known_answers () =
  let parent = Stats.Rng.create ~seed:9 and ref_parent = Reference.create ~seed:9 in
  ignore (Stats.Rng.split parent : Stats.Rng.t);
  ignore (Reference.split ref_parent : Reference.t);
  for i = 1 to 64 do
    Alcotest.(check int64)
      (Printf.sprintf "parent after split, draw %d" i)
      (Reference.bits64 ref_parent) (Stats.Rng.bits64 parent)
  done

let test_rng_copy_known_answers () =
  let rng = Stats.Rng.create ~seed:77 and ref_rng = Reference.create ~seed:77 in
  for _ = 1 to 5 do
    ignore (Stats.Rng.bits64 rng : int64);
    ignore (Reference.bits64 ref_rng : int64)
  done;
  let dup = Stats.Rng.copy rng and ref_dup = Reference.copy ref_rng in
  for i = 1 to 64 do
    let expected = Reference.bits64 ref_dup in
    Alcotest.(check int64) (Printf.sprintf "copy, draw %d" i) expected (Stats.Rng.bits64 dup);
    Alcotest.(check int64)
      (Printf.sprintf "original after copy, draw %d" i)
      (Reference.bits64 ref_rng) (Stats.Rng.bits64 rng)
  done

let test_rng_string_known_answers () =
  (* One stream through every length: equal bytes, and equal draws consumed. *)
  let rng = Stats.Rng.derive ~root:5 ~index:3 and ref_rng = Reference.derive ~root:5 ~index:3 in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "string of %d bytes" n)
        (Reference.payload_for ref_rng n) (Stats.Rng.string rng n))
    [ 0; 1; 7; 8; 9; 1023; 1024; 1025 ];
  Alcotest.(check int64) "stream position after the strings" (Reference.bits64 ref_rng)
    (Stats.Rng.bits64 rng);
  Alcotest.check_raises "negative length" (Invalid_argument "Rng.string: negative length")
    (fun () -> ignore (Stats.Rng.string rng (-1)))

(* A draw inside the module boxes nothing: 100k draws of the derived
   generators plus one 64 KiB string allocate under 1 KiB of minor words
   beyond their results — a boxed float per [float] draw; the string is
   larger than a minor-heap block and goes straight to the major heap. The
   boxed-record state allocated 168 bytes per draw. *)
let test_rng_draws_allocate_nothing () =
  let rng = Stats.Rng.create ~seed:21 in
  let n = 100_000 in
  let words_of f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let float_box = Obj.reachable_words (Obj.repr (Stats.Rng.float rng)) in
  let ints = words_of (fun () -> for _ = 1 to n do ignore (Stats.Rng.int rng 1000 : int) done) in
  let floats =
    words_of (fun () -> for _ = 1 to n do ignore (Stats.Rng.float rng : float) done)
    -. float_of_int (n * float_box)
  in
  let coins =
    words_of (fun () -> for _ = 1 to n do ignore (Stats.Rng.bernoulli rng ~p:0.3 : bool) done)
  in
  let bulk = words_of (fun () -> ignore (Stats.Rng.string rng 65536 : string)) in
  let beyond_bytes = (ints +. floats +. coins +. bulk) *. float_of_int (Sys.word_size / 8) in
  if beyond_bytes >= 1024.0 then
    Alcotest.failf
      "draws allocated %.0f bytes of minor words beyond their results (words: int %.0f, \
       float %.0f, bernoulli %.0f, string %.0f)"
      beyond_bytes ints floats coins bulk

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
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "split parent known answers" `Quick
            test_rng_split_parent_known_answers;
          Alcotest.test_case "copy known answers" `Quick test_rng_copy_known_answers;
          Alcotest.test_case "string known answers" `Quick test_rng_string_known_answers;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
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
