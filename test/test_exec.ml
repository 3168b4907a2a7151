(* Tests for the domain-parallel execution core and its contract: results
   are bit-for-bit identical whatever the parallelism, exceptions surface
   without killing the pool, and the shared observability sinks survive
   being hammered from several domains at once. *)

let costs = Analysis.Costs.standalone

(* ------------------------------------------------------------------ pool *)

let test_init_index_order () =
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      let results = Exec.Pool.init ~pool 100 ~f:(fun i -> i * i) in
      Alcotest.(check (array int)) "index order" (Array.init 100 (fun i -> i * i)) results)

let test_map_preserves_order () =
  let inputs = List.init 37 (fun i -> 37 - i) in
  let doubled = Exec.Pool.map ~jobs:4 inputs ~f:(fun x -> 2 * x) in
  Alcotest.(check (list int)) "list order" (List.map (fun x -> 2 * x) inputs) doubled

let test_fold_merges_in_index_order () =
  (* String concatenation is non-commutative, so any out-of-order merge or
     worker-dependent grouping would change the result. *)
  let expected = String.concat "" (List.init 50 string_of_int) in
  let folded =
    Exec.Pool.fold ~jobs:4 50 ~f:string_of_int ~merge:( ^ ) ~init:""
  in
  Alcotest.(check string) "index-order merge" expected folded;
  let serial = Exec.Pool.fold ~jobs:1 50 ~f:string_of_int ~merge:( ^ ) ~init:"" in
  Alcotest.(check string) "jobs=1 identical" folded serial

let test_pool_survives_raising_tasks () =
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      (* Several tasks raise; the whole batch must still drain, the
         lowest-index exception must be the one reported, and the pool must
         stay usable for later batches. *)
      let ran = Atomic.make 0 in
      (try
         ignore
           (Exec.Pool.init ~pool 64 ~f:(fun i ->
                ignore (Atomic.fetch_and_add ran 1 : int);
                if i mod 7 = 3 then failwith (Printf.sprintf "task %d" i);
                i)
            : int array);
         Alcotest.fail "expected a Failure"
       with Failure msg -> Alcotest.(check string) "lowest index wins" "task 3" msg);
      Alcotest.(check int) "batch fully drained" 64 (Atomic.get ran);
      let again = Exec.Pool.init ~pool 16 ~f:(fun i -> i + 1) in
      Alcotest.(check (array int)) "pool still works" (Array.init 16 (fun i -> i + 1)) again)

let test_empty_and_single () =
  Alcotest.(check (list int)) "empty map" [] (Exec.Pool.map ~jobs:4 [] ~f:(fun x -> x));
  let one = Exec.Pool.init ~jobs:4 1 ~f:(fun i -> i + 41) in
  Alcotest.(check (array int)) "single task" [| 41 |] one

let test_default_jobs_env () =
  Unix.putenv "LANREPRO_JOBS" "3";
  Alcotest.(check int) "env override" 3 (Exec.Pool.default_jobs ());
  Unix.putenv "LANREPRO_JOBS" "not-a-number";
  Alcotest.(check int) "garbage falls back" (Domain.recommended_domain_count ())
    (Exec.Pool.default_jobs ());
  Unix.putenv "LANREPRO_JOBS" "";
  Alcotest.(check int) "unset falls back" (Domain.recommended_domain_count ())
    (Exec.Pool.default_jobs ())

(* ----------------------------------------------------------- determinism *)

let bits = Int64.bits_of_float

let check_summary_identical label (a : Stats.Summary.t) (b : Stats.Summary.t) =
  Alcotest.(check int) (label ^ ": count") (Stats.Summary.count a) (Stats.Summary.count b);
  Alcotest.(check int64) (label ^ ": mean") (bits (Stats.Summary.mean a))
    (bits (Stats.Summary.mean b));
  Alcotest.(check int64) (label ^ ": stddev")
    (bits (Stats.Summary.stddev a))
    (bits (Stats.Summary.stddev b));
  Alcotest.(check int64) (label ^ ": min") (bits (Stats.Summary.min a))
    (bits (Stats.Summary.min b));
  Alcotest.(check int64) (label ^ ": max") (bits (Stats.Summary.max a))
    (bits (Stats.Summary.max b))

let mc_sample ~jobs ~pn ~trials ~seed =
  let timing =
    Montecarlo.Runner.blast_timing costs ~tr:(Analysis.Error_free.blast costs ~packets:32)
  in
  Montecarlo.Runner.sample ~jobs
    ~sampler:(fun rng -> Montecarlo.Runner.iid rng ~loss:pn)
    ~timing
    ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
    ~packets:32 ~trials ~seed ()

let test_mc_bit_identical_across_jobs () =
  (* The ISSUE's acceptance bar: 2000 trials, byte-identical statistics at
     jobs=1 and jobs>1. *)
  let a = mc_sample ~jobs:1 ~pn:1e-3 ~trials:2000 ~seed:17 in
  let b = mc_sample ~jobs:4 ~pn:1e-3 ~trials:2000 ~seed:17 in
  check_summary_identical "mc 2000 trials" a.Montecarlo.Runner.elapsed_ms
    b.Montecarlo.Runner.elapsed_ms;
  Alcotest.(check int) "failures" a.Montecarlo.Runner.failures b.Montecarlo.Runner.failures

let prop_mc_jobs_invariant =
  QCheck.Test.make ~name:"mc sample invariant under jobs" ~count:20
    QCheck.(triple (int_range 1 300) (int_range 0 1000) (float_range 0.0 0.05))
    (fun (trials, seed, pn) ->
      let a = mc_sample ~jobs:1 ~pn ~trials ~seed in
      let b = mc_sample ~jobs:4 ~pn ~trials ~seed in
      let sa = a.Montecarlo.Runner.elapsed_ms and sb = b.Montecarlo.Runner.elapsed_ms in
      a.Montecarlo.Runner.failures = b.Montecarlo.Runner.failures
      && Stats.Summary.count sa = Stats.Summary.count sb
      && Int64.equal (bits (Stats.Summary.mean sa)) (bits (Stats.Summary.mean sb))
      && Int64.equal (bits (Stats.Summary.stddev sa)) (bits (Stats.Summary.stddev sb))
      && Int64.equal (bits (Stats.Summary.min sa)) (bits (Stats.Summary.min sb))
      && Int64.equal (bits (Stats.Summary.max sa)) (bits (Stats.Summary.max sb)))

let test_campaign_bit_identical_across_jobs () =
  let spec =
    Simnet.Campaign.default ~network_loss:0.02 ~interface_loss:1e-3 ~trials:60 ~seed:5
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
      ~config:(Protocol.Config.make ~total_packets:16 ())
      ()
  in
  let a = Simnet.Campaign.run ~jobs:1 spec in
  let b = Simnet.Campaign.run ~jobs:4 spec in
  check_summary_identical "campaign elapsed" a.Simnet.Campaign.elapsed_ms
    b.Simnet.Campaign.elapsed_ms;
  check_summary_identical "campaign retransmissions" a.Simnet.Campaign.retransmissions
    b.Simnet.Campaign.retransmissions;
  Alcotest.(check int) "failures" a.Simnet.Campaign.failures b.Simnet.Campaign.failures

let test_sweep_bit_identical_across_jobs () =
  let run jobs =
    Simnet.Sweep.run ~trials:8 ~seed:2 ~jobs
      ~suites:
        [ Protocol.Suite.Stop_and_wait; Protocol.Suite.Blast Protocol.Blast.Go_back_n ]
      ~packets:[ 4; 8 ] ~losses:[ 0.0; 0.01 ] ()
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check int) "cell count"
    (List.length a.Simnet.Sweep.cells)
    (List.length b.Simnet.Sweep.cells);
  List.iter2
    (fun (ca : Simnet.Sweep.cell) (cb : Simnet.Sweep.cell) ->
      Alcotest.(check string) "suite"
        (Protocol.Suite.name ca.Simnet.Sweep.suite)
        (Protocol.Suite.name cb.Simnet.Sweep.suite);
      Alcotest.(check int) "packets" ca.Simnet.Sweep.packets cb.Simnet.Sweep.packets;
      Alcotest.(check int64) "loss" (bits ca.Simnet.Sweep.network_loss)
        (bits cb.Simnet.Sweep.network_loss);
      Alcotest.(check int64) "mean" (bits ca.Simnet.Sweep.mean_ms)
        (bits cb.Simnet.Sweep.mean_ms);
      Alcotest.(check int64) "stddev" (bits ca.Simnet.Sweep.stddev_ms)
        (bits cb.Simnet.Sweep.stddev_ms);
      Alcotest.(check int64) "retransmissions" (bits ca.Simnet.Sweep.retransmissions)
        (bits cb.Simnet.Sweep.retransmissions);
      Alcotest.(check int) "failures" ca.Simnet.Sweep.failures cb.Simnet.Sweep.failures)
    a.Simnet.Sweep.cells b.Simnet.Sweep.cells

(* ----------------------------------------------------- obs domain safety *)

let test_metrics_domain_safety () =
  let metrics = Obs.Metrics.create () in
  let c = Obs.Metrics.counter metrics "hammered" in
  let h = Obs.Metrics.histogram metrics "latency" in
  let s = Obs.Metrics.summary metrics "spread" in
  let per_domain = 25_000 in
  let hammer () =
    for i = 1 to per_domain do
      Obs.Metrics.inc c;
      if i mod 100 = 0 then begin
        Obs.Metrics.observe h (float_of_int (i mod 100));
        Obs.Metrics.record s (float_of_int i)
      end
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn hammer) in
  List.iter Domain.join domains;
  Alcotest.(check int) "exact counter total" (4 * per_domain)
    (Obs.Metrics.counter_value c);
  (* The locked instruments must have seen every observation; their exact
     totals show up in the JSON snapshot. *)
  let json = Obs.Json.to_string (Obs.Metrics.to_json metrics) in
  Alcotest.(check bool) "snapshot renders" true (String.length json > 0);
  (* Registration from several domains must converge on one instrument. *)
  let registered =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Obs.Metrics.counter metrics "shared"))
  in
  let counters = List.map Domain.join registered in
  List.iter (fun c' -> Obs.Metrics.inc c') counters;
  Alcotest.(check int) "one shared instrument" 4
    (Obs.Metrics.counter_value (Obs.Metrics.counter metrics "shared"))

let test_recorder_domain_safety () =
  let recorder = Obs.Recorder.create ~capacity:100_000 () in
  let per_domain = 5_000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Recorder.emit recorder
                ~lane:(Printf.sprintf "domain-%d" d)
                ~kind:Obs.Event.Tx ~seq:i ()
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "every event recorded" (4 * per_domain) (Obs.Recorder.total recorder);
  let events = Obs.Recorder.events recorder in
  Alcotest.(check int) "ring holds them all" (4 * per_domain) (List.length events);
  (* Timestamps from the default logical clock must be strictly increasing
     after sorting — i.e. no two events got the same tick. *)
  let ts = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.ts_ns) events in
  let sorted = List.sort compare ts in
  let distinct = List.sort_uniq compare ts in
  Alcotest.(check int) "no duplicated ticks" (List.length sorted) (List.length distinct)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "init in index order" `Quick test_init_index_order;
          Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
          Alcotest.test_case "fold merges in index order" `Quick
            test_fold_merges_in_index_order;
          Alcotest.test_case "survives raising tasks" `Quick test_pool_survives_raising_tasks;
          Alcotest.test_case "empty and single" `Quick test_empty_and_single;
        ] );
      ( "determinism",
        Alcotest.test_case "mc 2000 trials bit-identical" `Quick
          test_mc_bit_identical_across_jobs
        :: Alcotest.test_case "campaign bit-identical" `Quick
             test_campaign_bit_identical_across_jobs
        :: Alcotest.test_case "sweep bit-identical" `Quick test_sweep_bit_identical_across_jobs
        :: qcheck [ prop_mc_jobs_invariant ] );
      ( "obs-domain-safety",
        [
          Alcotest.test_case "metrics exact counts from 4 domains" `Quick
            test_metrics_domain_safety;
          Alcotest.test_case "recorder exact counts from 4 domains" `Quick
            test_recorder_domain_safety;
        ] );
      (* Env mutation last: it leaks into the process environment. *)
      ( "config",
        [ Alcotest.test_case "default_jobs env override" `Quick test_default_jobs_env ] );
    ]
