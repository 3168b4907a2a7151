(* Integration tests: protocol machines over the simulated LAN.

   The headline assertions: the simulator's error-free elapsed times equal
   the paper's closed-form formulas to the nanosecond, for every protocol and
   interface variant. *)

open Eventsim

(* Integer-nanosecond constants of the standalone preset. *)
let c = 1_350_000
let ca = 170_000
let t = 819_200
let ta = 51_200
let tau = 10_000

let saw_ns n = n * ((2 * c) + (2 * ca) + t + ta + (2 * tau))
let blast_ns n = (n * (c + t)) + c + (2 * ca) + ta + (2 * tau)
let sw_ns n = (n * (c + ca + t)) + c + ca + ta + (2 * tau)
let dbl_ns n = (n * c) + t + c + (2 * ca) + ta + (2 * tau) (* T < C here *)

let config ?(total = 8) () = Protocol.Config.make ~total_packets:total ()

let run ?params ?network_error ?interface_error ?trace ?payload suite ~total =
  Simnet.Driver.run ?params ?network_error ?interface_error ?trace ?payload ~suite
    ~config:(config ~total ()) ()

let check_elapsed_ns name expected result =
  Alcotest.(check int) name expected (Time.span_to_ns result.Simnet.Driver.elapsed)

(* ------------------------------------------- error-free exact elapsed time *)

let sizes = [ 1; 2; 4; 8; 16; 32; 64 ]

let test_saw_matches_formula () =
  List.iter
    (fun n ->
      let result = run Protocol.Suite.Stop_and_wait ~total:n in
      Alcotest.(check bool) "success" true (result.Simnet.Driver.outcome = Protocol.Action.Success);
      check_elapsed_ns (Printf.sprintf "SAW %d packets" n) (saw_ns n) result)
    sizes

let test_blast_matches_formula () =
  List.iter
    (fun strategy ->
      List.iter
        (fun n ->
          let result = run (Protocol.Suite.Blast strategy) ~total:n in
          check_elapsed_ns
            (Printf.sprintf "blast/%s %d packets" (Protocol.Blast.strategy_name strategy) n)
            (blast_ns n) result)
        sizes)
    Protocol.Blast.all_strategies

let test_sliding_window_matches_formula () =
  (* The simulator undercuts the steady-state formula by exactly one
     (Ca - Ta + tau) for N >= 2: the first data packet's cycle carries no ack
     copy-out yet (the ack is still in flight), a pipeline warm-up effect the
     paper's linear formula — an approximation by its own account — ignores. *)
  let warmup = ca - ta + tau in
  List.iter
    (fun n ->
      let result = run (Protocol.Suite.Sliding_window { window = max_int }) ~total:n in
      let expected = if n = 1 then sw_ns 1 else sw_ns n - warmup in
      check_elapsed_ns (Printf.sprintf "SW %d packets" n) expected result)
    sizes

let test_double_buffered_matches_formula () =
  let params = Netmodel.Params.double_buffered Netmodel.Params.standalone in
  List.iter
    (fun n ->
      let result = run ~params (Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~total:n in
      check_elapsed_ns (Printf.sprintf "double-buffered %d packets" n) (dbl_ns n) result)
    sizes

let test_multi_blast_error_free () =
  (* k back-to-back blasts of c packets: N (C+T) + k * (C + 2Ca + Ta + 2tau). *)
  let n = 12 and chunk = 4 in
  let k = 3 in
  let result =
    run (Protocol.Suite.Multi_blast { strategy = Protocol.Blast.Go_back_n; chunk_packets = chunk })
      ~total:n
  in
  let expected = (n * (c + t)) + (k * (c + (2 * ca) + ta + (2 * tau))) in
  check_elapsed_ns "multi-blast" expected result

(* --------------------------------------------- agreement with lib/analysis *)

let test_analysis_agrees_with_simulator () =
  let costs = Analysis.Costs.standalone in
  let check ?(tolerance = 1e-6) name formula simulated =
    List.iter
      (fun n ->
        let analytic = formula costs ~packets:n in
        let result = run simulated ~total:n in
        let sim_ms = Simnet.Driver.elapsed_ms result in
        if Float.abs (analytic -. sim_ms) > tolerance then
          Alcotest.failf "%s N=%d: analytic %.6f ms vs simulated %.6f ms" name n analytic sim_ms)
      sizes
  in
  check "SAW" Analysis.Error_free.stop_and_wait Protocol.Suite.Stop_and_wait;
  check "blast" Analysis.Error_free.blast (Protocol.Suite.Blast Protocol.Blast.Selective);
  (* SW: the formula is the paper's steady-state approximation; the simulator
     is exact, within one warm-up term (see above). *)
  check ~tolerance:0.13 "SW" Analysis.Error_free.sliding_window
    (Protocol.Suite.Sliding_window { window = max_int })

let test_paper_headline_ratio () =
  (* "the stop-and-wait protocol takes about twice as much time as either the
     sliding window or the blast protocol" *)
  let saw = float_of_int (saw_ns 64) and blast = float_of_int (blast_ns 64) in
  let ratio = saw /. blast in
  Alcotest.(check bool) "SAW ~ 2x blast" true (ratio > 1.7 && ratio < 2.1);
  let sw = float_of_int (sw_ns 64) in
  Alcotest.(check bool) "SW slightly above blast" true (sw > blast && sw < 1.1 *. blast)

let test_utilization_38_percent () =
  let result = run (Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~total:64 in
  Alcotest.(check (float 0.01)) "38%% utilization" 0.38 result.Simnet.Driver.utilization;
  let analytic = Analysis.Error_free.network_utilization Analysis.Costs.standalone ~packets:64 in
  Alcotest.(check (float 0.005)) "analysis agrees" analytic result.Simnet.Driver.utilization

let test_vkernel_anchors () =
  (* Table 3 anchors: To(1) = 5.9 ms, To(64) = 173 ms. *)
  let params = Netmodel.Params.vkernel in
  let one = run ~params (Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~total:1 in
  let sixty_four = run ~params (Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~total:64 in
  Alcotest.(check (float 0.05)) "To(1) ~ 5.9 ms" 5.9 (Simnet.Driver.elapsed_ms one);
  Alcotest.(check (float 1.0)) "To(64) ~ 173 ms" 173.0 (Simnet.Driver.elapsed_ms sixty_four)

let test_in_text_naive_estimates () =
  let k = Analysis.Costs.paper_rounded in
  Alcotest.(check (float 1e-9)) "57024 us" 57.024 (Analysis.Error_free.naive_stop_and_wait k ~packets:64);
  Alcotest.(check (float 1e-9)) "55764 us" 55.764 (Analysis.Error_free.naive_sliding_window k ~packets:64);
  Alcotest.(check (float 1e-9)) "52551 us" 52.551 (Analysis.Error_free.naive_blast k ~packets:64)

(* --------------------------------------------------- Table 2 trace breakdown *)

let test_breakdown_through_driver () =
  let trace = Trace.create () in
  let result = run ~trace (Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~total:1 in
  check_elapsed_ns "1-packet exchange" (blast_ns 1) result;
  let totals = Trace.total_by_kind trace in
  let find k = Time.span_to_ns (List.assoc k totals) in
  Alcotest.(check int) "copy data in" c (find "copy-data-in");
  Alcotest.(check int) "copy data out" c (find "copy-data-out");
  Alcotest.(check int) "transmit data" t (find "transmit-data");
  Alcotest.(check int) "copy ack in" ca (find "copy-ack-in");
  Alcotest.(check int) "copy ack out" ca (find "copy-ack-out");
  Alcotest.(check int) "transmit ack" ta (find "transmit-ack")

(* -------------------------------------------------------- payload integrity *)

let test_payload_integrity_through_sim () =
  let config = config ~total:5 () in
  let payload = Protocol.Machine.constant_payload config in
  let rng = Stats.Rng.create ~seed:42 in
  let network_error = Netmodel.Error_model.iid rng ~loss:0.1 in
  let result =
    Simnet.Driver.run ~network_error ~payload
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Selective) ~config ()
  in
  Alcotest.(check bool) "success" true (result.Simnet.Driver.outcome = Protocol.Action.Success);
  Alcotest.(check int) "all delivered" 5 (List.length result.Simnet.Driver.received);
  List.iter
    (fun (seq, received) ->
      Alcotest.(check string) (Printf.sprintf "packet %d" seq) (payload seq) received)
    result.Simnet.Driver.received

(* ------------------------------------------------------------- lossy runs *)

let lossy_suites =
  [
    Protocol.Suite.Stop_and_wait;
    Protocol.Suite.Sliding_window { window = max_int };
    Protocol.Suite.Blast Protocol.Blast.Full_retransmit;
    Protocol.Suite.Blast Protocol.Blast.Full_retransmit_nack;
    Protocol.Suite.Blast Protocol.Blast.Go_back_n;
    Protocol.Suite.Blast Protocol.Blast.Selective;
    Protocol.Suite.Multi_blast { strategy = Protocol.Blast.Go_back_n; chunk_packets = 8 };
  ]

let test_lossy_network_all_protocols () =
  List.iter
    (fun suite ->
      let rng = Stats.Rng.create ~seed:7 in
      let network_error = Netmodel.Error_model.iid rng ~loss:0.02 in
      let config =
        Protocol.Config.make ~total_packets:32
          ~tuning:(Protocol.Tuning.fixed ~max_attempts:200 ())
          ()
      in
      let result = Simnet.Driver.run ~network_error ~suite ~config () in
      Alcotest.(check bool)
        (Protocol.Suite.name suite ^ " succeeds at 2% loss")
        true
        (result.Simnet.Driver.outcome = Protocol.Action.Success);
      Alcotest.(check int)
        (Protocol.Suite.name suite ^ " delivers all")
        32
        result.Simnet.Driver.receiver.Protocol.Counters.delivered)
    lossy_suites

let test_interface_loss_slows_blast () =
  let clean = run (Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~total:64 in
  let rng = Stats.Rng.create ~seed:11 in
  let interface_error = Netmodel.Error_model.iid rng ~loss:0.05 in
  let lossy = run ~interface_error (Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~total:64 in
  Alcotest.(check bool) "lossy slower" true
    (Simnet.Driver.elapsed_ms lossy > Simnet.Driver.elapsed_ms clean);
  Alcotest.(check bool) "retransmissions happened" true
    (lossy.Simnet.Driver.sender.Protocol.Counters.retransmitted_data > 0)

let test_total_loss_gives_up () =
  let rng = Stats.Rng.create ~seed:13 in
  let network_error = Netmodel.Error_model.iid rng ~loss:1.0 in
  let config =
    Protocol.Config.make ~total_packets:4
      ~tuning:(Protocol.Tuning.fixed ~max_attempts:3 ())
      ()
  in
  let result =
    Simnet.Driver.run ~network_error ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
      ~config ()
  in
  Alcotest.(check bool) "gave up" true
    (result.Simnet.Driver.outcome = Protocol.Action.Too_many_attempts)

(* Karn's rule: the reply to a retransmission a timeout triggered is
   ambiguous, so it must not be sampled. Stop-and-wait sends one data packet
   per exchange and samples at most once per send that no timeout preceded,
   so samples can never exceed the data packets sent minus the timeouts. *)
let test_karn_no_sample_after_timeout () =
  List.iter
    (fun seed ->
      let rtt = Protocol.Rtt.create ~initial_ns:20_000_000 () in
      let result =
        Simnet.Driver.run ~rtt
          ~network_error:(Netmodel.Error_model.iid (Stats.Rng.create ~seed) ~loss:0.2)
          ~suite:Protocol.Suite.Stop_and_wait
          ~config:
            (Protocol.Config.make ~total_packets:32
               ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ~max_attempts:100 ())
               ())
          ()
      in
      let sender = result.Simnet.Driver.sender in
      Alcotest.(check bool) (Printf.sprintf "seed %d: success" seed) true
        (result.Simnet.Driver.outcome = Protocol.Action.Success);
      Alcotest.(check bool) (Printf.sprintf "seed %d: some timeouts" seed) true
        (sender.Protocol.Counters.timeouts > 0);
      let bound = sender.Protocol.Counters.data_sent - sender.Protocol.Counters.timeouts in
      if Protocol.Rtt.samples rtt > bound then
        Alcotest.failf "seed %d: %d RTT samples, at most %d allowed (%d sent, %d timeouts)"
          seed (Protocol.Rtt.samples rtt) bound sender.Protocol.Counters.data_sent
          sender.Protocol.Counters.timeouts)
    [ 1; 2; 3; 4; 5 ]

(* ---------------------------------------------------------------- pacing *)

let test_pacing_matches_closed_form () =
  (* With a healthy receiver, a paced blast costs N x (C + T + P) plus the
     usual tail; the formula and the simulator agree within one P (the pause
     after the final packet overlaps the ack path). *)
  let pacing_ms = 0.4 in
  let result =
    Simnet.Driver.run
      ~pacing:(Time.span_ms pacing_ms)
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
      ~config:(config ~total:16 ())
      ()
  in
  let formula =
    Analysis.Error_free.blast_paced Analysis.Costs.standalone ~packets:16 ~pacing_ms
  in
  let sim = Simnet.Driver.elapsed_ms result in
  if Float.abs (formula -. sim) > pacing_ms +. 1e-9 then
    Alcotest.failf "paced: formula %.4f vs sim %.4f" formula sim

let test_pacing_cures_slow_receiver () =
  let slow =
    {
      Netmodel.Params.standalone with
      Netmodel.Params.rx_service_overhead = Time.span_ms 1.23;
    }
  in
  let run ?pacing () =
    Simnet.Driver.run ~params:slow ?pacing
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
      ~config:
        (Protocol.Config.make
           ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ())
           ~total_packets:64 ())
      ()
  in
  let thrashing = run () in
  let paced = run ~pacing:(Time.span_ms 0.45) () in
  Alcotest.(check bool) "unpaced overruns" true
    (thrashing.Simnet.Driver.wire.Netmodel.Wire.lost_overrun > 0);
  Alcotest.(check int) "paced never overruns" 0
    paced.Simnet.Driver.wire.Netmodel.Wire.lost_overrun;
  Alcotest.(check bool) "pacing is faster than repairing" true
    (Simnet.Driver.elapsed_ms paced < Simnet.Driver.elapsed_ms thrashing)

(* --------------------------------------------------------------- campaign *)

let test_campaign_reproducible () =
  let spec =
    Simnet.Campaign.default ~network_loss:0.02 ~trials:5 ~seed:3
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
      ~config:(config ~total:16 ()) ()
  in
  let a = Simnet.Campaign.run spec and b = Simnet.Campaign.run spec in
  Alcotest.(check (float 1e-12)) "same mean" (Stats.Summary.mean a.Simnet.Campaign.elapsed_ms)
    (Stats.Summary.mean b.Simnet.Campaign.elapsed_ms)

let test_campaign_error_free_is_deterministic () =
  let spec =
    Simnet.Campaign.default ~trials:4
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
      ~config:(config ~total:8 ()) ()
  in
  let outcome = Simnet.Campaign.run spec in
  Alcotest.(check int) "no failures" 0 outcome.Simnet.Campaign.failures;
  Alcotest.(check (float 1e-12)) "zero spread" 0.0
    (Stats.Summary.stddev outcome.Simnet.Campaign.elapsed_ms);
  Alcotest.(check (float 1e-9)) "matches formula"
    (float_of_int (blast_ns 8) /. 1e6)
    (Stats.Summary.mean outcome.Simnet.Campaign.elapsed_ms)

let () =
  Alcotest.run "simnet"
    [
      ( "error-free-exact",
        [
          Alcotest.test_case "stop-and-wait = formula" `Quick test_saw_matches_formula;
          Alcotest.test_case "blast = formula (all strategies)" `Quick test_blast_matches_formula;
          Alcotest.test_case "sliding window = formula" `Quick test_sliding_window_matches_formula;
          Alcotest.test_case "double buffered = formula" `Quick test_double_buffered_matches_formula;
          Alcotest.test_case "multi-blast = formula" `Quick test_multi_blast_error_free;
          Alcotest.test_case "analysis agrees with simulator" `Quick
            test_analysis_agrees_with_simulator;
        ] );
      ( "paper-claims",
        [
          Alcotest.test_case "SAW ~ 2x blast" `Quick test_paper_headline_ratio;
          Alcotest.test_case "38% utilization" `Quick test_utilization_38_percent;
          Alcotest.test_case "V-kernel anchors" `Quick test_vkernel_anchors;
          Alcotest.test_case "in-text naive estimates" `Quick test_in_text_naive_estimates;
          Alcotest.test_case "Table 2 breakdown" `Quick test_breakdown_through_driver;
        ] );
      ( "lossy",
        [
          Alcotest.test_case "payload integrity" `Quick test_payload_integrity_through_sim;
          Alcotest.test_case "all protocols at 2% loss" `Quick test_lossy_network_all_protocols;
          Alcotest.test_case "interface loss slows blast" `Quick test_interface_loss_slows_blast;
          Alcotest.test_case "total loss gives up" `Quick test_total_loss_gives_up;
          Alcotest.test_case "Karn: no sample after a timeout" `Quick
            test_karn_no_sample_after_timeout;
        ] );
      ( "pacing",
        [
          Alcotest.test_case "matches closed form" `Quick test_pacing_matches_closed_form;
          Alcotest.test_case "cures a slow receiver" `Quick test_pacing_cures_slow_receiver;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "reproducible" `Quick test_campaign_reproducible;
          Alcotest.test_case "error-free deterministic" `Quick
            test_campaign_error_free_is_deterministic;
        ] );
    ]
