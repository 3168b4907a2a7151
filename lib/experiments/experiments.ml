(* Regeneration of every table and figure in the paper's evaluation, plus the
   ablations listed in DESIGN.md. Each experiment prints the same rows or
   series the paper reports; EXPERIMENTS.md records paper-vs-measured. *)

let costs = Analysis.Costs.standalone
let kernel_costs = Analysis.Costs.vkernel
let ladder = Workload.Sizes.paper_ladder_packets

let run_sim ?(params = Netmodel.Params.standalone) ?trace ?network_error suite packets =
  Simnet.Driver.run ~params ?trace ?network_error ~suite
    ~config:(Protocol.Config.make ~total_packets:packets ())
    ()

let elapsed ?params ?network_error suite packets =
  Simnet.Driver.elapsed_ms (run_sim ?params ?network_error suite packets)

let saw = Protocol.Suite.Stop_and_wait
let sw = Protocol.Suite.Sliding_window { window = max_int }
let blast = Protocol.Suite.Blast Protocol.Blast.Go_back_n

let section ppf title =
  Format.fprintf ppf "@.=== %s ===@." title

(* ------------------------------------------------------------- Table 1 *)

let table1 ppf =
  section ppf "Table 1: standalone error-free transmission times (ms)";
  let rows =
    List.map
      (fun n ->
        [
          Printf.sprintf "%d KiB" n;
          Report.Table.fmt_ms (elapsed saw n);
          Report.Table.fmt_ms (elapsed sw n);
          Report.Table.fmt_ms (elapsed blast n);
          Report.Table.fmt_ms (Analysis.Error_free.blast costs ~packets:n);
        ])
      ladder
  in
  Format.fprintf ppf "%s@."
    (Report.Table.render
       ~header:[ "size"; "stop-and-wait"; "sliding window"; "blast"; "blast (formula)" ]
       ~rows ());
  let ratio = elapsed saw 64 /. elapsed blast 64 in
  Format.fprintf ppf "64 KiB stop-and-wait / blast ratio: %.2fx (paper: ~2x)@." ratio

(* ------------------------------------------------------------- Table 2 *)

let table2 ppf =
  section ppf "Table 2: breakdown of a 1 KiB reliable exchange";
  let trace = Eventsim.Trace.create () in
  let result = run_sim ~trace blast 1 in
  let totals = Eventsim.Trace.total_by_kind trace in
  let get kind =
    Eventsim.Time.span_to_ms (Option.value ~default:Eventsim.Time.span_zero (List.assoc_opt kind totals))
  in
  let order =
    [
      ("Copy data into sender's interface", "copy-data-in");
      ("Transmit data", "transmit-data");
      ("Copy data out of receiver's interface", "copy-data-out");
      ("Copy ack into receiver's interface", "copy-ack-in");
      ("Transmit ack", "transmit-ack");
      ("Copy ack out of sender's interface", "copy-ack-out");
    ]
  in
  let rows =
    List.map (fun (label, kind) -> [ label; Report.Table.fmt_ms (get kind) ]) order
  in
  let computed = List.fold_left (fun acc (_, kind) -> acc +. get kind) 0.0 order in
  let device_latency = 2.0 *. 0.085 in
  let rows =
    rows
    @ [
        [ "Total (computed)"; Report.Table.fmt_ms computed ];
        [ "Device/propagation residual (modelled)"; Report.Table.fmt_ms device_latency ];
        [ "Observed elapsed (simulated)"; Report.Table.fmt_ms (Simnet.Driver.elapsed_ms result) ];
      ]
  in
  Format.fprintf ppf "%s@."
    (Report.Table.render ~header:[ "operation"; "time (ms)" ] ~rows ());
  let copies = get "copy-data-in" +. get "copy-data-out" +. get "copy-ack-in" +. get "copy-ack-out" in
  Format.fprintf ppf "copies account for %s of the exchange (paper: 75%%)@."
    (Report.Table.fmt_pct (copies /. Simnet.Driver.elapsed_ms result));
  Format.fprintf ppf "network transmission accounts for %s (paper: 21%%)@."
    (Report.Table.fmt_pct ((get "transmit-data" +. get "transmit-ack") /. Simnet.Driver.elapsed_ms result))

(* ------------------------------------------------------------- Table 3 *)

let table3 ppf =
  section ppf "Table 3: V kernel MoveTo times (kernel constants, ms)";
  let params = Netmodel.Params.vkernel in
  let rows =
    List.map
      (fun n ->
        [
          Printf.sprintf "%d KiB" n;
          Report.Table.fmt_ms (elapsed ~params saw n);
          Report.Table.fmt_ms (elapsed ~params blast n);
          Report.Table.fmt_ms (Analysis.Error_free.blast kernel_costs ~packets:n);
        ])
      ladder
  in
  Format.fprintf ppf "%s@."
    (Report.Table.render
       ~header:[ "size"; "stop-and-wait"; "blast (MoveTo)"; "blast (formula)" ]
       ~rows ());
  Format.fprintf ppf "anchors: To(1) = %s ms (paper: 5.9), To(64) = %s ms (paper: 173)@."
    (Report.Table.fmt_ms (elapsed ~params blast 1))
    (Report.Table.fmt_ms (elapsed ~params blast 64))

(* ------------------------------------------------------------ Figure 1 *)

let fig1 ppf =
  section ppf "Figure 1: stop-and-wait, sliding window and blast protocols";
  (* The paper's schematic, regenerated as real traces: two packets under
     each protocol, so the message pattern (not just the timing) is visible. *)
  let render name suite =
    let trace = Eventsim.Trace.create () in
    ignore (run_sim ~trace suite 2);
    Format.fprintf ppf "@.--- %s ---@.%s@." name (Report.Timeline.render ~width:90 trace)
  in
  render "stop-and-wait: data, ack, data, ack" saw;
  render "sliding window: acks overlap the next data packet" sw;
  render "blast: the whole train, one ack" blast

(* ------------------------------------------------------------ Figure 2 *)

let fig2 ppf =
  section ppf "Figure 2: network packet transmission timeline (1 KiB + ack)";
  let trace = Eventsim.Trace.create () in
  ignore (run_sim ~trace blast 1);
  Format.fprintf ppf "%s@." (Report.Timeline.render trace)

(* ------------------------------------------------------------ Figure 3 *)

let fig3 ppf =
  section ppf "Figure 3: three-packet transfers under each protocol";
  let render name ?params suite =
    let trace = Eventsim.Trace.create () in
    ignore (run_sim ?params ~trace suite 3);
    Format.fprintf ppf "@.--- %s ---@.%s@." name (Report.Timeline.render trace)
  in
  render "3.a stop-and-wait" saw;
  render "3.b blast" blast;
  render "3.c sliding window" sw;
  render "3.d double-buffered interface, blast"
    ~params:(Netmodel.Params.double_buffered Netmodel.Params.standalone)
    blast

(* ------------------------------------------------------------ Figure 4 *)

let fig4 ppf =
  section ppf "Figure 4: elapsed time vs transfer size, per protocol";
  let ns = List.init 64 (fun i -> i + 1) in
  let series name f = { Report.Chart.name; points = List.map (fun n -> (float_of_int n, f n)) ns } in
  let chart =
    Report.Chart.render ~x_label:"packets" ~y_label:"elapsed (ms)"
      [
        series "stop-and-wait" (fun n -> Analysis.Error_free.stop_and_wait costs ~packets:n);
        series "sliding window" (fun n -> Analysis.Error_free.sliding_window costs ~packets:n);
        series "blast" (fun n -> Analysis.Error_free.blast costs ~packets:n);
        series "double buffered" (fun n -> Analysis.Error_free.double_buffered costs ~packets:n);
      ]
  in
  Format.fprintf ppf "%s@." chart;
  (* Spot-check the analytic curves against the event simulator. *)
  let rows =
    List.map
      (fun n ->
        [
          string_of_int n;
          Report.Table.fmt_ms (elapsed saw n);
          Report.Table.fmt_ms (elapsed sw n);
          Report.Table.fmt_ms (elapsed blast n);
          Report.Table.fmt_ms
            (elapsed ~params:(Netmodel.Params.double_buffered Netmodel.Params.standalone) blast n);
        ])
      [ 8; 24; 48; 64 ]
  in
  Format.fprintf ppf "simulated spot checks:@.%s@."
    (Report.Table.render
       ~header:[ "packets"; "SAW"; "SW"; "blast"; "double-buffered" ]
       ~rows ())

(* ------------------------------------------------------------ Figure 5 *)

let fig5 ppf =
  section ppf "Figure 5: expected time of a 64 KiB transfer vs error rate";
  let packets = 64 in
  let t0_blast = Analysis.Error_free.blast kernel_costs ~packets in
  let t0_saw1 = Analysis.Error_free.stop_and_wait kernel_costs ~packets:1 in
  let pns = Workload.Sizes.pn_ladder in
  let curve name f = { Report.Chart.name; points = List.map (fun pn -> (pn, f pn)) pns } in
  let saw_curve factor pn =
    Analysis.Expected_time.stop_and_wait ~t0_packet:t0_saw1 ~tr:(factor *. t0_saw1) ~pn ~packets
  in
  let blast_curve factor pn =
    Analysis.Expected_time.blast ~t0:t0_blast ~tr:(factor *. t0_blast) ~pn ~packets
  in
  Format.fprintf ppf "%s@."
    (Report.Chart.render ~log_x:true ~x_label:"pn" ~y_label:"E[T] (ms)"
       [
         curve "SAW, Tr = 100 x To(1)" (saw_curve 100.0);
         curve "SAW, Tr = 10 x To(1)" (saw_curve 10.0);
         curve "blast, Tr = 10 x To(D)" (blast_curve 10.0);
         curve "blast, Tr = To(D)" (blast_curve 1.0);
       ]);
  (* Monte-Carlo validation of the analytic curves at selected rates. *)
  let timing = Montecarlo.Runner.blast_timing kernel_costs ~tr:t0_blast in
  let rows =
    List.map
      (fun pn ->
        let mc =
          Montecarlo.Runner.sample
            ~sampler:(fun rng -> Montecarlo.Runner.iid rng ~loss:pn)
            ~timing
            ~suite:(Protocol.Suite.Blast Protocol.Blast.Full_retransmit)
            ~packets ~trials:600 ~seed:11 ()
        in
        let mc = mc.Montecarlo.Runner.elapsed_ms in
        [
          Printf.sprintf "%g" pn;
          Report.Table.fmt_ms (blast_curve 1.0 pn);
          Report.Table.fmt_ms (Stats.Summary.mean mc);
          Report.Table.fmt_ms (saw_curve 10.0 pn);
        ])
      [ 1e-5; 1e-4; 1e-3; 1e-2 ]
  in
  Format.fprintf ppf
    "blast with full retransmission, Tr = To(D): analytic vs Monte-Carlo@.%s@."
    (Report.Table.render
       ~header:[ "pn"; "blast analytic"; "blast MC"; "SAW analytic (Tr=10xTo(1))" ]
       ~rows ());
  Format.fprintf ppf
    "operating region: network errors ~1e-5, interface errors ~1e-4 — both on the flat part of the blast curve.@."

(* ------------------------------------------------------------ Figure 6 *)

let fig6 ppf =
  section ppf "Figure 6: standard deviation of a 64 KiB MoveTo vs error rate";
  let packets = 64 in
  let t0 = Analysis.Error_free.blast kernel_costs ~packets in
  let timing = Montecarlo.Runner.blast_timing kernel_costs ~tr:t0 in
  let rates = [ 1e-5; 1e-4; 1e-3; 1e-2 ] in
  let sigma strategy pn trials =
    Stats.Summary.stddev
      (Montecarlo.Runner.sample
         ~sampler:(fun rng -> Montecarlo.Runner.iid rng ~loss:pn)
         ~timing ~suite:(Protocol.Suite.Blast strategy) ~packets ~trials ~seed:12 ())
        .Montecarlo.Runner.elapsed_ms
  in
  let rows =
    List.map
      (fun pn ->
        let pc = Analysis.Expected_time.blast_failure ~pn ~packets in
        (* Rare-event regimes need more trials for a usable sigma estimate. *)
        let trials = if pn < 1e-4 then 12_000 else 1_500 in
        [
          Printf.sprintf "%g" pn;
          Report.Table.fmt_ms (Analysis.Variance.full_retransmit ~t0 ~tr:t0 ~pc);
          Report.Table.fmt_ms (sigma Protocol.Blast.Full_retransmit pn trials);
          Report.Table.fmt_ms (sigma Protocol.Blast.Full_retransmit_nack pn trials);
          Report.Table.fmt_ms (sigma Protocol.Blast.Go_back_n pn trials);
          Report.Table.fmt_ms (sigma Protocol.Blast.Selective pn trials);
        ])
      rates
  in
  Format.fprintf ppf "%s@."
    (Report.Table.render
       ~header:
         [
           "pn";
           "full (analytic)";
           "full (MC)";
           "full+nack (MC)";
           "go-back-n (MC)";
           "selective (MC)";
         ]
       ~rows ());
  let curve name strategy =
    {
      Report.Chart.name;
      points = List.map (fun pn -> (pn, sigma strategy pn 800)) rates;
    }
  in
  Format.fprintf ppf "%s@."
    (Report.Chart.render ~log_x:true ~log_y:true ~x_label:"pn" ~y_label:"sigma (ms)"
       [
         curve "full retransmit, Tr=To(D)" Protocol.Blast.Full_retransmit;
         curve "full retransmit + nack" Protocol.Blast.Full_retransmit_nack;
         curve "go-back-n" Protocol.Blast.Go_back_n;
         curve "selective" Protocol.Blast.Selective;
       ]);
  Format.fprintf ppf
    "ranking matches the paper: full >> full+nack > go-back-n >= selective;@.go-back-n is the strategy of choice (simple, near-selective performance).@."

(* ------------------------------------------------------- in-text numbers *)

let intext ppf =
  section ppf "In-text numbers";
  let k = Analysis.Costs.paper_rounded in
  Format.fprintf ppf
    "naive (transmission-only) 64 KiB estimates: SAW %.3f ms, SW %.3f ms, blast %.3f ms@."
    (Analysis.Error_free.naive_stop_and_wait k ~packets:64)
    (Analysis.Error_free.naive_sliding_window k ~packets:64)
    (Analysis.Error_free.naive_blast k ~packets:64);
  Format.fprintf ppf "  (paper: 57.024 / 55.764 / 52.551 ms — <10%% apart)@.";
  Format.fprintf ppf "measured 64 KiB: SAW %s ms vs blast %s ms — %.2fx, not <1.1x@."
    (Report.Table.fmt_ms (elapsed saw 64))
    (Report.Table.fmt_ms (elapsed blast 64))
    (elapsed saw 64 /. elapsed blast 64);
  let result = run_sim blast 64 in
  Format.fprintf ppf "network utilization of a 64 KiB blast: %s (paper: 38%%)@."
    (Report.Table.fmt_pct result.Simnet.Driver.utilization);
  Format.fprintf ppf "V kernel blast constants: C = 1.83 ms, Ca = 0.67 ms (vs 1.35 / 0.17 standalone)@."

(* ----------------------------------------------------------- ablations *)

let ablation_buffers ppf =
  section ppf "Ablation: interface buffering (paper argues a 3rd buffer is useless)";
  let base = Netmodel.Params.standalone in
  let double = Netmodel.Params.double_buffered base in
  let triple = { double with Netmodel.Params.tx_buffers = 3; rx_buffers = 3 } in
  let rows =
    List.map
      (fun n ->
        [
          string_of_int n;
          Report.Table.fmt_ms (elapsed ~params:base blast n);
          Report.Table.fmt_ms (elapsed ~params:double blast n);
          Report.Table.fmt_ms (elapsed ~params:triple blast n);
        ])
      [ 8; 16; 32; 64 ]
  in
  Format.fprintf ppf "%s@."
    (Report.Table.render
       ~header:[ "packets"; "single buffer"; "double buffer"; "triple buffer" ]
       ~rows ());
  Format.fprintf ppf "double = triple, as predicted (both C and T are constant).@."

let ablation_window ppf =
  section ppf "Ablation: sliding-window size (64 KiB transfer)";
  let rows =
    List.map
      (fun window ->
        [
          string_of_int window;
          Report.Table.fmt_ms (elapsed (Protocol.Suite.Sliding_window { window }) 64);
        ])
      [ 1; 2; 4; 8; 16; 32; 64 ]
  in
  Format.fprintf ppf "%s@."
    (Report.Table.render ~header:[ "window"; "elapsed (ms)" ] ~rows ());
  Format.fprintf ppf
    "window 1 behaves like stop-and-wait (%s ms); beyond ~2 the window never closes.@."
    (Report.Table.fmt_ms (elapsed saw 64))

let ablation_multiblast ppf =
  section ppf "Ablation: multi-blast chunk size for a 16 MiB dump";
  let packets = Workload.Sizes.dump_bytes / 1024 in
  let t0 = Analysis.Error_free.blast kernel_costs ~packets in
  let timing = Montecarlo.Runner.blast_timing kernel_costs ~tr:(0.1 *. t0) in
  let chunks = [ 64; 256; 1024; packets ] in
  let rates = [ 0.0; 1e-4; 1e-3 ] in
  let cell chunk pn =
    let suite =
      if chunk >= packets then Protocol.Suite.Blast Protocol.Blast.Full_retransmit_nack
      else
        Protocol.Suite.Multi_blast
          { strategy = Protocol.Blast.Full_retransmit_nack; chunk_packets = chunk }
    in
    let summary =
      if pn = 0.0 then begin
        let elapsed =
          Montecarlo.Runner.one_transfer ~drops:(fun () -> false) ~timing ~suite ~packets ()
        in
        let s = Stats.Summary.create () in
        Stats.Summary.add s elapsed;
        s
      end
      else
        (Montecarlo.Runner.sample
           ~sampler:(fun rng -> Montecarlo.Runner.iid rng ~loss:pn)
           ~timing ~suite ~packets ~trials:30 ~seed:13 ())
          .Montecarlo.Runner.elapsed_ms
    in
    Printf.sprintf "%.0f" (Stats.Summary.mean summary)
  in
  let rows =
    List.map
      (fun chunk ->
        (if chunk >= packets then "single blast" else string_of_int chunk)
        :: List.map (cell chunk) rates)
      chunks
  in
  Format.fprintf ppf "%s@."
    (Report.Table.render
       ~header:[ "chunk (packets)"; "pn=0 (ms)"; "pn=1e-4 (ms)"; "pn=1e-3 (ms)" ]
       ~rows ());
  Format.fprintf ppf
    "error-free, one big blast is cheapest; under loss, chunking caps the retransmission cost —@.the paper's rationale for multiple blasts on very large transfers.@."

let ablation_burst ppf =
  section ppf "Ablation: burst (Gilbert-Elliott) vs iid losses at equal average rate";
  let packets = 64 in
  let t0 = Analysis.Error_free.blast kernel_costs ~packets in
  let timing = Montecarlo.Runner.blast_timing kernel_costs ~tr:t0 in
  let mean_loss = 1e-3 in
  let iid_sampler rng = Montecarlo.Runner.iid rng ~loss:mean_loss in
  let burst_sampler rng =
    let model =
      Netmodel.Error_model.matched_gilbert_elliott rng ~mean_loss ~burst_length:8.0
    in
    fun () -> Netmodel.Error_model.drops model
  in
  let row strategy =
    let sample sampler =
      (Montecarlo.Runner.sample ~sampler ~timing ~suite:(Protocol.Suite.Blast strategy)
         ~packets ~trials:2000 ~seed:14 ())
        .Montecarlo.Runner.elapsed_ms
    in
    let iid = sample iid_sampler and burst = sample burst_sampler in
    [
      Protocol.Blast.strategy_name strategy;
      Report.Table.fmt_ms (Stats.Summary.mean iid);
      Report.Table.fmt_ms (Stats.Summary.stddev iid);
      Report.Table.fmt_ms (Stats.Summary.mean burst);
      Report.Table.fmt_ms (Stats.Summary.stddev burst);
    ]
  in
  let rows = List.map row Protocol.Blast.all_strategies in
  Format.fprintf ppf "%s@."
    (Report.Table.render
       ~header:[ "strategy"; "iid mean"; "iid sigma"; "burst mean"; "burst sigma" ]
       ~rows ());
  Format.fprintf ppf
    "bursts concentrate losses in fewer trains: fewer transfers are hit, but go-back-n loses@.less of its advantage over full retransmission when a burst wipes out a contiguous run.@."

let ablation_dma ppf =
  section ppf "Ablation: DMA interfaces (Section 2.1.3's discussion)";
  (* The paper's experience: the Excelan's on-board 8088 copies much slower
     than the 68000 host, so elapsed time does not improve — but the host
     processor is freed for other work. *)
  let measure params =
    let result =
      Simnet.Driver.run ~params ~suite:blast
        ~config:(Protocol.Config.make ~total_packets:64 ())
        ()
    in
    let ms = Simnet.Driver.elapsed_ms result in
    let busy = Eventsim.Time.span_to_ms result.Simnet.Driver.sender_cpu_busy in
    (ms, busy /. ms)
  in
  let host = Netmodel.Params.standalone in
  let rows =
    List.map
      (fun (label, params) ->
        let ms, cpu = measure params in
        [ label; Report.Table.fmt_ms ms; Report.Table.fmt_pct cpu ])
      [
        ("host CPU copies (3-Com, busy-wait)", host);
        ("host CPU copies, double buffered", Netmodel.Params.double_buffered host);
        ("DMA, slow on-board processor (2x)", Netmodel.Params.with_dma host);
        ("DMA, copies at host speed (1x)", Netmodel.Params.with_dma ~copy_scale:1.0 host);
      ]
  in
  Format.fprintf ppf "%s@."
    (Report.Table.render
       ~header:[ "interface"; "64 KiB blast (ms)"; "sender host-CPU busy" ]
       ~rows ());
  Format.fprintf ppf
    "a slow DMA engine makes the transfer slower, not faster (the Excelan experience);@.what it buys is host CPU time — exactly the paper's reading.@."

let ablation_load ppf =
  section ppf
    "Ablation: background load on a CSMA/CD medium (the paper's low-load caveat)";
  let loads = [ 0.0; 0.2; 0.4; 0.6 ] in
  let measure suite load =
    let trials = if load = 0.0 then 1 else 5 in
    let summary = Stats.Summary.create () in
    let collisions = ref 0 in
    for trial = 0 to trials - 1 do
      let seed = 400 + (trial * 17) in
      let arbiter =
        Netmodel.Arbiter.csma_cd
          ~rng:(Stats.Rng.create ~seed)
          ~propagation:Netmodel.Params.standalone.Netmodel.Params.propagation ()
      in
      let background wire =
        if load > 0.0 then
          ignore
            (Simnet.Load.attach
               ~rng:(Stats.Rng.create ~seed:(seed + 1))
               ~offered_load:load wire)
      in
      let result =
        Simnet.Driver.run ~arbiter ~background ~suite
          ~config:(Protocol.Config.make ~total_packets:64 ())
          ()
      in
      Stats.Summary.add summary (Simnet.Driver.elapsed_ms result);
      collisions := !collisions + (Netmodel.Arbiter.stats arbiter).Netmodel.Arbiter.collisions
    done;
    (Stats.Summary.mean summary, !collisions / trials)
  in
  let rows =
    List.map
      (fun load ->
        let saw_ms, _ = measure saw load in
        let blast_ms, blast_collisions = measure blast load in
        [
          Report.Table.fmt_pct load;
          Report.Table.fmt_ms saw_ms;
          Report.Table.fmt_ms blast_ms;
          Printf.sprintf "%.2fx" (saw_ms /. blast_ms);
          string_of_int blast_collisions;
        ])
      loads
  in
  Format.fprintf ppf "%s@."
    (Report.Table.render
       ~header:
         [ "offered load"; "SAW 64 KiB (ms)"; "blast 64 KiB (ms)"; "SAW/blast"; "collisions" ]
       ~rows ());
  Format.fprintf ppf
    "blast keeps its ~1.8x advantage well past the paper's idle-network regime; contention@.inflates both protocols roughly proportionally until the medium saturates.@."

let ablation_rtt ppf =
  section ppf
    "Ablation: fixed vs adaptive retransmission timeout (64 KiB blast, full retransmit)";
  (* Timeout policy only matters for the timeout-driven strategy: with a NACK
     or go-back-n, losses are repaired by the receiver's reply and the timer
     almost never fires. Full retransmission without NACK is the case where
     Figure 6 shows the choice of Tr dominating the variance. *)
  let t0_ns = 173_000_000 in
  let measure ~loss variant =
    let summary = Stats.Summary.create () in
    (* The estimator persists across transfers, as a kernel's per-peer RTT
       state would: a one-shot blast has only its final ack to learn from. *)
    let shared_rtt = Protocol.Rtt.create ~initial_ns:(10 * t0_ns) () in
    for seed = 1 to 15 do
      let rng = Stats.Rng.create ~seed:(seed * 131) in
      let network_error = Netmodel.Error_model.iid rng ~loss in
      let retransmit_ns, rtt =
        match variant with
        | `Fixed factor -> (factor * t0_ns, None)
        | `Adaptive -> (10 * t0_ns, Some shared_rtt)
      in
      let result =
        Simnet.Driver.run ~params:Netmodel.Params.vkernel ~network_error ?rtt
          ~suite:(Protocol.Suite.Blast Protocol.Blast.Full_retransmit)
          ~config:
            (Protocol.Config.make
               ~tuning:(Protocol.Tuning.fixed ~retransmit_ns ())
               ~total_packets:64 ())
          ()
      in
      Stats.Summary.add summary (Simnet.Driver.elapsed_ms result)
    done;
    summary
  in
  let rows =
    List.concat_map
      (fun loss ->
        List.map
          (fun (label, variant) ->
            let s = measure ~loss variant in
            [
              Printf.sprintf "%g" loss;
              label;
              Report.Table.fmt_ms (Stats.Summary.mean s);
              Report.Table.fmt_ms (Stats.Summary.stddev s);
            ])
          [
            ("Tr = To(D)", `Fixed 1);
            ("Tr = 10 x To(D)", `Fixed 10);
            ("adaptive (Jacobson/Karn)", `Adaptive);
          ])
      [ 2e-3; 1e-2 ]
  in
  Format.fprintf ppf "%s@."
    (Report.Table.render ~header:[ "pn"; "timeout policy"; "mean (ms)"; "sigma (ms)" ] ~rows ());
  Format.fprintf ppf
    "a badly chosen fixed interval is several times worse once timeouts drive repair;@.at low loss the persistent per-peer estimator self-tunes to the well-chosen value@.without knowing To(D) in advance; at pn = 1e-2 Karn's rule leaves its timeout@.backed off through every retransmitted exchange, and it lands between the two@.fixed intervals.@."

let ablation_pagesize ppf =
  section ppf "Ablation: file-access page size (the paper's Section 1 motivation)";
  (* A workstation reads a 64 KiB file from a file server via MoveFrom, one
     page at a time: the per-page handshake and ack amortize better with
     large pages. *)
  let file_bytes = 65_536 in
  let read_with_page page_bytes =
    let sim = Eventsim.Sim.create () in
    let wire = Netmodel.Wire.create sim ~params:Netmodel.Params.vkernel () in
    let server = Vkernel.Kernel.create wire ~name:"server" in
    let client = Vkernel.Kernel.create wire ~name:"client" in
    let file = Bytes.init file_bytes (fun i -> Char.chr (i land 0xFF)) in
    let segment = Vkernel.Kernel.register_segment server ~rights:Vkernel.Kernel.Read_only file in
    let elapsed = ref 0.0 in
    Eventsim.Proc.spawn (Eventsim.Proc.env sim) (fun () ->
        let started = Eventsim.Sim.now sim in
        let pages = file_bytes / page_bytes in
        for page = 0 to pages - 1 do
          match
            Vkernel.Kernel.move_from client ~dst:(Vkernel.Kernel.address server) ~segment
              ~offset:(page * page_bytes) ~len:page_bytes
          with
          | Ok _ -> ()
          | Error e -> Format.kasprintf failwith "page read failed: %a" Vkernel.Kernel.pp_error e
        done;
        elapsed :=
          Eventsim.Time.span_to_ms (Eventsim.Time.diff (Eventsim.Sim.now sim) started));
    Eventsim.Sim.run sim;
    !elapsed
  in
  let rows =
    List.map
      (fun page_kib ->
        let ms = read_with_page (page_kib * 1024) in
        [
          Printf.sprintf "%d KiB" page_kib;
          string_of_int (file_bytes / (page_kib * 1024));
          Report.Table.fmt_ms ms;
          Printf.sprintf "%.2f" (ms /. 172.8);
        ])
      [ 1; 4; 16; 64 ]
  in
  Format.fprintf ppf "%s@."
    (Report.Table.render
       ~header:[ "page size"; "requests"; "total elapsed (ms)"; "vs one 64 KiB MoveFrom" ]
       ~rows ());
  Format.fprintf ppf
    "large pages amortize the per-request handshake and per-packet kernel overhead —@.the observation ([10,12,15]) that motivates the whole paper.@."

let ablation_overrun ppf =
  section ppf
    "Ablation: receiver overruns under full-speed blast (the 3-Com failure mode)";
  (* The paper attributes its 1e-4 'interface error' rate to interfaces
     dropping packets when driven at full speed. Mechanistically: if the
     receive buffer is still occupied by protocol software when the next
     frame lands, the frame is lost. Sweep that software cost. *)
  let t_ms = 0.8192 in
  let measure extra_ms =
    let params =
      {
        Netmodel.Params.standalone with
        Netmodel.Params.rx_service_overhead = Eventsim.Time.span_ms extra_ms;
      }
    in
    let result =
      Simnet.Driver.run ~params ~suite:blast
        ~config:
          (Protocol.Config.make
             ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ())
             ~total_packets:64 ())
        ()
    in
    (result, Simnet.Driver.elapsed_ms result)
  in
  let rows =
    List.map
      (fun factor ->
        let extra = factor *. t_ms in
        let result, ms = measure extra in
        let w = result.Simnet.Driver.wire in
        [
          Printf.sprintf "%.2f ms (%.1f x T)" extra factor;
          string_of_int w.Netmodel.Wire.lost_overrun;
          string_of_int result.Simnet.Driver.sender.Protocol.Counters.retransmitted_data;
          Report.Table.fmt_ms ms;
        ])
      [ 0.0; 0.5; 1.0; 1.5; 2.0 ]
  in
  Format.fprintf ppf "%s@."
    (Report.Table.render
       ~header:
         [ "rx software per packet"; "overrun drops"; "retransmissions"; "64 KiB blast (ms)" ]
       ~rows ());
  Format.fprintf ppf
    "once per-packet receive software exceeds the pipeline slack, the interface itself@.drops packets and go-back-n pays for them — the mechanism behind the paper's@.elevated full-speed error rate.@."

let ablation_pacing ppf =
  section ppf "Ablation: sender pacing vs retransmission for a slow receiver";
  (* When the receiver's per-packet software exceeds the pipeline slack
     (ablation-overrun), the sender can either thrash — overrun, drop,
     go-back-n — or slow down by a fixed inter-packet gap. *)
  let t_ms = 0.8192 in
  let slow_params extra_ms =
    {
      Netmodel.Params.standalone with
      Netmodel.Params.rx_service_overhead = Eventsim.Time.span_ms extra_ms;
    }
  in
  let measure ~extra_ms ~pacing_ms =
    let pacing =
      if pacing_ms > 0.0 then Some (Eventsim.Time.span_ms pacing_ms) else None
    in
    Simnet.Driver.run ~params:(slow_params extra_ms) ?pacing ~suite:blast
      ~config:
        (Protocol.Config.make
           ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ())
           ~total_packets:64 ())
      ()
  in
  let extra = 1.5 *. t_ms in
  let rows =
    List.map
      (fun pacing_ms ->
        let result = measure ~extra_ms:extra ~pacing_ms in
        let w = result.Simnet.Driver.wire in
        [
          (if pacing_ms = 0.0 then "none (thrash + go-back-n)"
           else Printf.sprintf "%.2f ms/packet" pacing_ms);
          string_of_int w.Netmodel.Wire.lost_overrun;
          string_of_int result.Simnet.Driver.sender.Protocol.Counters.retransmitted_data;
          Report.Table.fmt_ms (Simnet.Driver.elapsed_ms result);
        ])
      [ 0.0; 0.25 *. t_ms; 0.5 *. t_ms; 0.75 *. t_ms; 1.0 *. t_ms ]
  in
  Format.fprintf ppf
    "receiver software: %.2f ms/packet (1.5 x T beyond the copy), 64 KiB blast@." extra;
  Format.fprintf ppf "%s@."
    (Report.Table.render
       ~header:[ "sender pacing"; "overrun drops"; "retransmissions"; "elapsed (ms)" ]
       ~rows ());
  Format.fprintf ppf
    "pacing at ~the receiver's deficit eliminates overruns and beats go-back-n repair@.by ~2x — rate-based flow control, the road the field eventually took.@."

let all : (string * (Format.formatter -> unit)) list =
  [
    ("fig1", fig1);
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("intext", intext);
    ("ablation-buffers", ablation_buffers);
    ("ablation-window", ablation_window);
    ("ablation-multiblast", ablation_multiblast);
    ("ablation-burst", ablation_burst);
    ("ablation-load", ablation_load);
    ("ablation-rtt", ablation_rtt);
    ("ablation-dma", ablation_dma);
    ("ablation-pagesize", ablation_pagesize);
    ("ablation-overrun", ablation_overrun);
    ("ablation-pacing", ablation_pacing);
  ]
