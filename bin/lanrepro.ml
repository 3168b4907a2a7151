(* lanrepro — command-line front end to the library.

   Subcommands:
     simulate   run transfers on the simulated LAN and report statistics
     analyze    closed-form elapsed times / expected times / sigma
     timeline   render a Figure-3-style timing diagram
     mc         Monte-Carlo mean and standard deviation per strategy
     send/recv  real bulk transfer over UDP between two invocations *)

open Cmdliner

(* ------------------------------------------------------ shared arguments *)

let protocol_of_string s =
  let fail () =
    `Error
      (Printf.sprintf
         "unknown protocol %S (try: saw, sw, sw:8, blast:full, blast:nack, blast:gbn, \
          blast:selective, multi:gbn:64)"
         s)
  in
  let strategy = function
    | "full" -> Some Protocol.Blast.Full_retransmit
    | "nack" -> Some Protocol.Blast.Full_retransmit_nack
    | "gbn" -> Some Protocol.Blast.Go_back_n
    | "selective" -> Some Protocol.Blast.Selective
    | _ -> None
  in
  match String.split_on_char ':' s with
  | [ "saw" ] -> `Ok Protocol.Suite.Stop_and_wait
  | [ "sw" ] -> `Ok (Protocol.Suite.Sliding_window { window = max_int })
  | [ "sw"; w ] -> begin
      match int_of_string_opt w with
      | Some window when window > 0 -> `Ok (Protocol.Suite.Sliding_window { window })
      | _ -> fail ()
    end
  | [ "blast"; name ] -> begin
      match strategy name with Some s -> `Ok (Protocol.Suite.Blast s) | None -> fail ()
    end
  | [ "multi"; name; chunk ] -> begin
      match (strategy name, int_of_string_opt chunk) with
      | Some s, Some chunk_packets when chunk_packets > 0 ->
          `Ok (Protocol.Suite.Multi_blast { strategy = s; chunk_packets })
      | _ -> fail ()
    end
  | _ -> fail ()

let protocol_conv =
  Arg.conv
    ( (fun s ->
        match protocol_of_string s with `Ok p -> Ok p | `Error m -> Error (`Msg m)),
      fun ppf p -> Format.pp_print_string ppf (Protocol.Suite.name p) )

let protocol =
  Arg.(
    value
    & opt protocol_conv (Protocol.Suite.Blast Protocol.Blast.Go_back_n)
    & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:"Protocol: saw, sw[:W], blast:STRAT, multi:STRAT:CHUNK.")

let packets =
  Arg.(value & opt int 64 & info [ "n"; "packets" ] ~docv:"N" ~doc:"Transfer size in 1 KiB packets.")

let loss =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"Network packet loss probability.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")
let trials = Arg.(value & opt int 30 & info [ "trials" ] ~doc:"Number of trials.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel trials. Defaults to $(b,LANREPRO_JOBS) when set, \
           else the machine's recommended domain count. Results are identical at any \
           value.")

let effective_jobs = function Some j -> j | None -> Exec.Pool.default_jobs ()

let kernel_mode =
  Arg.(value & flag & info [ "kernel" ] ~doc:"Use the V-kernel cost constants (Table 3) instead of the standalone ones (Table 2).")

let params_of kernel = if kernel then Netmodel.Params.vkernel else Netmodel.Params.standalone
let costs_of kernel = if kernel then Analysis.Costs.vkernel else Analysis.Costs.standalone

(* ---------------------------------------------------------- observability *)

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"PATH"
        ~doc:
          "Write the run's datagram events as Chrome trace_event JSON to $(docv) \
           (loadable in Perfetto or chrome://tracing).")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"PATH" ~doc:"Write a JSON metrics snapshot to $(docv).")

(* A recorder/metrics pair exists only when the matching output file was
   requested, so untraced runs pay nothing. [flush] writes both files. *)
let telemetry trace_out metrics_out =
  let recorder = Option.map (fun _ -> Obs.Recorder.create ()) trace_out in
  let metrics = Option.map (fun _ -> Obs.Metrics.create ()) metrics_out in
  let flush ?(spans = []) () =
    (match (trace_out, recorder) with
    | Some path, Some r ->
        Obs.Export.write_chrome path ~spans ~events:(Obs.Recorder.events r) ();
        Printf.printf "wrote trace to %s\n" path
    | _ -> ());
    match (metrics_out, metrics) with
    | Some path, Some m ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Obs.Json.to_string (Obs.Metrics.to_json m)));
        Printf.printf "wrote metrics to %s\n" path
    | _ -> ()
  in
  (recorder, metrics, flush)

(* Tri-state so the LANREPRO_BATCH environment default applies when neither
   flag is given. *)
let batch_flag =
  Arg.(
    value
    & vflag None
        [
          ( Some true,
            info [ "batch" ]
              ~doc:
                "Submit packet trains through sendmmsg/recvmmsg — one syscall per train \
                 instead of per datagram, each run of equal-size datagrams as one UDP GSO \
                 message, received coalesced under UDP GRO where the kernel supports it \
                 (the default unless LANREPRO_BATCH=0)." );
          (Some false, info [ "no-batch" ] ~doc:"One syscall per datagram.");
        ])

let make_ctx ?faults ?recorder ?metrics ?tuning batch =
  Sockets.Io_ctx.make ?faults ?recorder ?metrics ?batch ?tuning ()

(* ---------------------------------------------------------------- tuning *)

(* The shared [--tuning]/[--pacing] pair. Commands resolve them against
   their own calibrated default profile: the retransmission timer and
   attempt budget stay whatever the command chose, only the train policy
   (and optionally the pacing) switches. *)
let tuning_flags =
  let mode =
    Arg.(
      value
      & opt (some (enum [ ("fixed", `Fixed); ("adaptive", `Adaptive) ])) None
      & info [ "tuning" ] ~docv:"PROFILE"
          ~doc:
            "Train tuning profile: $(b,fixed) keeps the paper's a-priori train \
             geometry; $(b,adaptive) runs the AIMD controller — train length tracks \
             per-round loss and the receiver-advertised budget (wire v2), pacing can \
             spread each train over one smoothed RTT.")
  in
  let pacing =
    Arg.(
      value
      & opt (some string) None
      & info [ "pacing" ] ~docv:"GAP"
          ~doc:
            "Data-packet pacing: $(b,none), $(b,rtt) (spread each train across one \
             smoothed RTT), or a fixed inter-packet gap in nanoseconds.")
  in
  Term.(const (fun mode pacing -> (mode, pacing)) $ mode $ pacing)

let resolve_tuning ~default (mode, pacing) =
  let pacing =
    match pacing with
    | None -> None
    | Some "none" -> Some Protocol.Tuning.No_pacing
    | Some "rtt" -> Some Protocol.Tuning.Rtt_spread
    | Some s -> (
        match int_of_string_opt s with
        | Some ns when ns > 0 -> Some (Protocol.Tuning.Fixed_gap ns)
        | _ ->
            Printf.eprintf "unknown --pacing %S (expected none, rtt, or a gap in ns)\n" s;
            exit 2)
  in
  let base =
    match mode with
    | None -> default
    | Some profile -> (
        let retransmit_ns = Protocol.Tuning.retransmit_ns default in
        let max_attempts = Protocol.Tuning.max_attempts default in
        let pacing = Protocol.Tuning.pacing default in
        match profile with
        | `Adaptive -> Protocol.Tuning.adaptive ~retransmit_ns ~max_attempts ~pacing ()
        | `Fixed -> Protocol.Tuning.fixed ~retransmit_ns ~max_attempts ~pacing ())
  in
  match pacing with None -> base | Some p -> Protocol.Tuning.with_pacing base p

(* --------------------------------------------------------------- simulate *)

let adaptive =
  Arg.(value & flag & info [ "adaptive" ] ~doc:"Use an adaptive (Jacobson/Karn) retransmission timeout.")

let simulate_cmd =
  let run protocol packets loss interface_loss trials seed kernel adaptive jobs trace_out
      metrics_out =
    let jobs = effective_jobs jobs in
    let spec =
      Simnet.Campaign.default ~params:(params_of kernel) ~network_loss:loss
        ~interface_loss ~trials ~seed ~suite:protocol
        ~config:(Protocol.Config.make ~total_packets:packets ())
        ()
    in
    let outcome =
      if adaptive then begin
        (* Campaign with a persistent per-peer estimator across trials. *)
        let rtt = Protocol.Rtt.create ~initial_ns:200_000_000 () in
        let elapsed = Stats.Summary.create () in
        let retransmissions = Stats.Summary.create () in
        let failures = ref 0 in
        (* A shared estimator makes trials order-dependent, so this branch is
           inherently serial; per-trial streams still come from the same
           [derive] path the parallel campaign uses. *)
        for trial = 0 to trials - 1 do
          let rng = Stats.Rng.derive ~root:seed ~index:trial in
          let error m l = if l = 0.0 then m else Netmodel.Error_model.iid rng ~loss:l in
          let result =
            Simnet.Driver.run ~params:(params_of kernel)
              ~network_error:(error (Netmodel.Error_model.perfect ()) loss)
              ~interface_error:(error (Netmodel.Error_model.perfect ()) interface_loss)
              ~rtt ~suite:protocol
              ~config:(Protocol.Config.make ~total_packets:packets ())
              ()
          in
          match result.Simnet.Driver.outcome with
          | Protocol.Action.Success ->
              Stats.Summary.add elapsed (Simnet.Driver.elapsed_ms result);
              Stats.Summary.add retransmissions
                (float_of_int result.Simnet.Driver.sender.Protocol.Counters.retransmitted_data)
          | Protocol.Action.Too_many_attempts | Protocol.Action.Peer_unreachable
          | Protocol.Action.Rejected ->
              incr failures
        done;
        { Simnet.Campaign.elapsed_ms = elapsed; failures = !failures; retransmissions }
      end
      else Simnet.Campaign.run ~jobs spec
    in
    Printf.printf "%s, %d KiB, loss=%g (network) %g (interface), %d trials, %d jobs%s:\n"
      (Protocol.Suite.name protocol) packets loss interface_loss trials jobs
      (if adaptive then " (adaptive: serial)" else "");
    Printf.printf "  elapsed: mean %.3f ms, sd %.3f ms, min %.3f, max %.3f\n"
      (Stats.Summary.mean outcome.Simnet.Campaign.elapsed_ms)
      (Stats.Summary.stddev outcome.Simnet.Campaign.elapsed_ms)
      (Stats.Summary.min outcome.Simnet.Campaign.elapsed_ms)
      (Stats.Summary.max outcome.Simnet.Campaign.elapsed_ms);
    Printf.printf "  retransmitted packets per trial: mean %.1f\n"
      (Stats.Summary.mean outcome.Simnet.Campaign.retransmissions);
    if outcome.Simnet.Campaign.failures > 0 then
      Printf.printf "  %d trials gave up\n" outcome.Simnet.Campaign.failures;
    (* Telemetry: re-run the first trial with the recorder/metrics attached
       (same seed, same error models) so the exported trace shows one
       representative transfer, then append the campaign-level gauges. *)
    let recorder, metrics, flush = telemetry trace_out metrics_out in
    if recorder <> None || metrics <> None then begin
      let trace = Eventsim.Trace.create () in
      let rng = Stats.Rng.derive ~root:seed ~index:0 in
      let error l = if l = 0.0 then Netmodel.Error_model.perfect () else Netmodel.Error_model.iid rng ~loss:l in
      ignore
        (Simnet.Driver.run ~params:(params_of kernel) ~network_error:(error loss)
           ~interface_error:(error interface_loss) ~trace ?recorder ?metrics
           ~suite:protocol
           ~config:(Protocol.Config.make ~total_packets:packets ())
           ()
          : Simnet.Driver.result);
      Option.iter
        (fun m ->
          let g name v =
            Obs.Metrics.set_gauge
              (Obs.Metrics.gauge m ~labels:[ ("transport", "sim") ] name)
              v
          in
          g "campaign_elapsed_ms_mean" (Stats.Summary.mean outcome.Simnet.Campaign.elapsed_ms);
          g "campaign_elapsed_ms_stddev"
            (Stats.Summary.stddev outcome.Simnet.Campaign.elapsed_ms);
          g "campaign_failures" (float_of_int outcome.Simnet.Campaign.failures))
        metrics;
      flush ~spans:(Obs.Span.of_trace trace) ()
    end
  in
  let interface_loss =
    Arg.(value & opt float 0.0 & info [ "interface-loss" ] ~docv:"P" ~doc:"Interface loss probability.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run transfers on the simulated LAN")
    Term.(
      const run $ protocol $ packets $ loss $ interface_loss $ trials $ seed $ kernel_mode
      $ adaptive $ jobs $ trace_out $ metrics_out)

(* -------------------------------------------------------------- calibrate *)

let calibrate_cmd =
  let run kernel =
    let params = params_of kernel in
    let measure suite n =
      Simnet.Driver.elapsed_ms
        (Simnet.Driver.run ~params ~suite
           ~config:(Protocol.Config.make ~total_packets:n ())
           ())
    in
    let ladder suite = List.map (fun n -> (n, measure suite n)) [ 2; 4; 8; 16; 32; 64 ] in
    let transmit_ms =
      Eventsim.Time.span_to_ms (Netmodel.Params.data_transmit params)
    in
    let recovered =
      Analysis.Calibrate.recover_constants
        ~blast:(ladder (Protocol.Suite.Blast Protocol.Blast.Go_back_n))
        ~sliding_window:(ladder (Protocol.Suite.Sliding_window { window = max_int }))
        ~transmit_ms
    in
    Printf.printf "measured ladders on the simulator, fitted T(N) = slope*N + intercept:\n";
    Printf.printf "  blast:          slope %.4f ms/packet (r2 %.6f)\n"
      recovered.Analysis.Calibrate.fit_blast.Analysis.Calibrate.slope
      recovered.Analysis.Calibrate.fit_blast.Analysis.Calibrate.r_square;
    Printf.printf "  sliding window: slope %.4f ms/packet (r2 %.6f)\n"
      recovered.Analysis.Calibrate.fit_sliding_window.Analysis.Calibrate.slope
      recovered.Analysis.Calibrate.fit_sliding_window.Analysis.Calibrate.r_square;
    Printf.printf "recovered constants (known T = %.4f ms):\n" transmit_ms;
    Printf.printf "  C  = %.4f ms (data packet copy)\n" recovered.Analysis.Calibrate.copy_data_ms;
    Printf.printf "  Ca = %.4f ms (ack packet copy)\n" recovered.Analysis.Calibrate.copy_ack_ms
  in
  Cmd.v
    (Cmd.info "calibrate" ~doc:"Recover the cost-model constants from measured ladders")
    Term.(const run $ kernel_mode)

(* ---------------------------------------------------------------- analyze *)

let analyze_cmd =
  let run packets pn tr_factor kernel =
    let costs = costs_of kernel in
    Printf.printf "constants: %s\n" (Format.asprintf "%a" Analysis.Costs.pp costs);
    Printf.printf "error-free elapsed for %d packets:\n" packets;
    Printf.printf "  stop-and-wait   %10.3f ms\n" (Analysis.Error_free.stop_and_wait costs ~packets);
    Printf.printf "  sliding window  %10.3f ms\n" (Analysis.Error_free.sliding_window costs ~packets);
    Printf.printf "  blast           %10.3f ms\n" (Analysis.Error_free.blast costs ~packets);
    Printf.printf "  double-buffered %10.3f ms\n" (Analysis.Error_free.double_buffered costs ~packets);
    Printf.printf "  network utilization (blast): %.1f%%\n"
      (100.0 *. Analysis.Error_free.network_utilization costs ~packets);
    if pn > 0.0 then begin
      let t0 = Analysis.Error_free.blast costs ~packets in
      let t0_packet = Analysis.Error_free.stop_and_wait costs ~packets:1 in
      let pc = Analysis.Expected_time.blast_failure ~pn ~packets in
      Printf.printf "\nat pn = %g (Tr = %g x T0):\n" pn tr_factor;
      Printf.printf "  E[T] blast (full retx)  %10.3f ms\n"
        (Analysis.Expected_time.blast ~t0 ~tr:(tr_factor *. t0) ~pn ~packets);
      Printf.printf "  E[T] stop-and-wait      %10.3f ms\n"
        (Analysis.Expected_time.stop_and_wait ~t0_packet ~tr:(tr_factor *. t0_packet) ~pn ~packets);
      Printf.printf "  sigma full retx         %10.3f ms\n"
        (Analysis.Variance.full_retransmit ~t0 ~tr:(tr_factor *. t0) ~pc);
      Printf.printf "  sigma full retx + nack  %10.3f ms\n"
        (Analysis.Variance.full_retransmit_nack ~t0 ~pc)
    end
  in
  let pn = Arg.(value & opt float 0.0 & info [ "pn" ] ~doc:"Packet error probability for the loss analysis.") in
  let tr_factor =
    Arg.(value & opt float 1.0 & info [ "tr-factor" ] ~doc:"Retransmission interval as a multiple of T0.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Closed-form elapsed times, expected times, standard deviations")
    Term.(const run $ packets $ pn $ tr_factor $ kernel_mode)

(* --------------------------------------------------------------- timeline *)

let timeline_cmd =
  let run protocol packets width double kernel trace_out =
    let params = params_of kernel in
    let params = if double then Netmodel.Params.double_buffered params else params in
    let trace = Eventsim.Trace.create () in
    let result =
      Simnet.Driver.run ~params ~trace ~suite:protocol
        ~config:(Protocol.Config.make ~total_packets:packets ())
        ()
    in
    print_endline (Report.Timeline.render ~width trace);
    Printf.printf "total elapsed: %.3f ms\n" (Simnet.Driver.elapsed_ms result);
    match trace_out with
    | None -> ()
    | Some path ->
        Obs.Export.write_chrome path ~spans:(Obs.Span.of_trace trace) ();
        Printf.printf "wrote trace to %s\n" path
  in
  let width = Arg.(value & opt int 100 & info [ "width" ] ~doc:"Diagram width in columns.") in
  let double = Arg.(value & flag & info [ "double-buffered" ] ~doc:"Use a double-buffered interface.") in
  Cmd.v
    (Cmd.info "timeline" ~doc:"Render a Figure-3-style timing diagram")
    Term.(const run $ protocol $ packets $ width $ double $ kernel_mode $ trace_out)

(* --------------------------------------------------------------------- mc *)

let mc_cmd =
  let run protocol packets pn tr_factor trials seed kernel jobs =
    let jobs = effective_jobs jobs in
    let costs = costs_of kernel in
    let t0 = Analysis.Error_free.blast costs ~packets in
    let timing = Montecarlo.Runner.blast_timing costs ~tr:(tr_factor *. t0) in
    let sample =
      Montecarlo.Runner.sample ~jobs
        ~sampler:(fun rng -> Montecarlo.Runner.iid rng ~loss:pn)
        ~timing ~suite:protocol ~packets ~trials ~seed ()
    in
    let summary = sample.Montecarlo.Runner.elapsed_ms in
    Printf.printf "%s, %d packets, pn=%g, Tr=%g x T0, %d trials, %d jobs:\n"
      (Protocol.Suite.name protocol) packets pn tr_factor trials jobs;
    Printf.printf "  mean %.3f ms, sigma %.3f ms (error-free %.3f ms)\n"
      (Stats.Summary.mean summary) (Stats.Summary.stddev summary)
      (Montecarlo.Runner.error_free_time timing ~packets);
    if sample.Montecarlo.Runner.failures > 0 then
      Printf.printf "  %d trials gave up (excluded from the statistics)\n"
        sample.Montecarlo.Runner.failures
  in
  let pn = Arg.(value & opt float 1e-3 & info [ "pn" ] ~doc:"Packet error probability.") in
  let tr_factor =
    Arg.(value & opt float 1.0 & info [ "tr-factor" ] ~doc:"Retransmission interval as a multiple of T0.")
  in
  Cmd.v
    (Cmd.info "mc" ~doc:"Monte-Carlo expected time and standard deviation")
    Term.(
      const run $ protocol $ packets $ pn $ tr_factor $ trials $ seed $ kernel_mode $ jobs)

(* ------------------------------------------------------------------ sweep *)

let sweep_cmd =
  let run protocols packets losses trials seed kernel jobs csv metrics_out =
    let jobs = effective_jobs jobs in
    let suites =
      if protocols = [] then
        [
          Protocol.Suite.Stop_and_wait;
          Protocol.Suite.Sliding_window { window = max_int };
          Protocol.Suite.Blast Protocol.Blast.Go_back_n;
        ]
      else
        List.map
          (fun s ->
            match protocol_of_string s with
            | `Ok p -> p
            | `Error m ->
                prerr_endline m;
                exit 2)
          protocols
    in
    Printf.printf "sweep: %d trials per cell, %d jobs\n%!" trials jobs;
    let sweep =
      Simnet.Sweep.run ~params:(params_of kernel) ~trials ~seed ~jobs ~suites
        ~packets:(if packets = [] then [ 16; 64 ] else packets)
        ~losses:(if losses = [] then [ 0.0; 1e-3; 1e-2 ] else losses)
        ()
    in
    (match csv with
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Simnet.Sweep.to_csv sweep));
        Printf.printf "wrote %d rows to %s\n" (List.length sweep.Simnet.Sweep.cells) path
    | None -> print_endline (Simnet.Sweep.to_table sweep));
    (* One gauge set per cell, labelled by the cell coordinates, so the whole
       cross product lands in a single machine-readable snapshot. *)
    let _, metrics, flush = telemetry None metrics_out in
    Option.iter
      (fun m ->
        List.iter
          (fun (c : Simnet.Sweep.cell) ->
            let labels =
              [
                ("protocol", Protocol.Suite.name c.Simnet.Sweep.suite);
                ("packets", string_of_int c.Simnet.Sweep.packets);
                ("loss", Printf.sprintf "%g" c.Simnet.Sweep.network_loss);
              ]
            in
            let g name v = Obs.Metrics.set_gauge (Obs.Metrics.gauge m ~labels name) v in
            g "sweep_mean_ms" c.Simnet.Sweep.mean_ms;
            g "sweep_stddev_ms" c.Simnet.Sweep.stddev_ms;
            g "sweep_retransmissions" c.Simnet.Sweep.retransmissions;
            g "sweep_failures" (float_of_int c.Simnet.Sweep.failures))
          sweep.Simnet.Sweep.cells;
        flush ())
      metrics
  in
  let protocols =
    Arg.(value & opt_all string [] & info [ "P"; "protocols" ] ~docv:"PROTO" ~doc:"Protocol to include (repeatable).")
  in
  let packet_list =
    Arg.(value & opt_all int [] & info [ "N" ] ~docv:"N" ~doc:"Transfer size in packets (repeatable).")
  in
  let loss_list =
    Arg.(value & opt_all float [] & info [ "L" ] ~docv:"P" ~doc:"Loss probability (repeatable).")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH" ~doc:"Write CSV instead of a table.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Cross-product measurement sweep (protocols x sizes x loss rates)")
    Term.(
      const run $ protocols $ packet_list $ loss_list $ trials $ seed $ kernel_mode $ jobs
      $ csv $ metrics_out)

(* ------------------------------------------------------------------ repro *)

let repro_cmd =
  let run list names =
    if list then List.iter (fun (name, _) -> print_endline name) Experiments.all
    else begin
      let to_run =
        if names = [] then Experiments.all
        else
          List.map
            (fun name ->
              match List.assoc_opt name Experiments.all with
              | Some f -> (name, f)
              | None ->
                  Printf.eprintf "unknown experiment %S (try --list)\n" name;
                  exit 2)
            names
      in
      let ppf = Format.std_formatter in
      List.iter (fun (_, f) -> f ppf) to_run;
      Format.pp_print_flush ppf ()
    end
  in
  let list = Arg.(value & flag & info [ "list" ] ~doc:"List the available experiments.") in
  let names = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT") in
  Cmd.v
    (Cmd.info "repro"
       ~doc:"Regenerate the paper's tables and figures (same engine as bench/main.exe)")
    Term.(const run $ list $ names)

(* -------------------------------------------------------------- send/recv *)

let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Peer host.")
let port = Arg.(value & opt int 47085 & info [ "port" ] ~doc:"UDP port.")

let tx_loss =
  Arg.(value & opt float 0.0 & info [ "inject-loss" ] ~doc:"Probability of dropping each outgoing datagram (testing aid).")

(* A flag outside its range is a usage error, reported before any side
   effect: [<cmd>: --<flag> must be ...] and exit 2. *)
let require ~cmd ~flag ok ~must_be =
  if not ok then begin
    Printf.eprintf "%s: --%s must be %s\n" cmd flag must_be;
    exit 2
  end

let require_positive ~cmd ~flag n = require ~cmd ~flag (n > 0) ~must_be:"positive"

let require_packet_bytes ~cmd n =
  require ~cmd ~flag:"packet-bytes" (n >= 1 && n <= Sockets.Flow.max_packet_bytes)
    ~must_be:(Printf.sprintf "in [1, %d]" Sockets.Flow.max_packet_bytes)

let resolve_scenario = function
  | None -> None
  | Some name -> begin
      match Faults.Scenario.find name with
      | Some s -> Some s
      | None ->
          Printf.eprintf "unknown scenario %S (known: %s)\n" name
            (String.concat ", " (List.map Faults.Scenario.name Faults.Scenario.all));
          exit 2
    end

(* [--inject-loss p] as the endpoint's fault pipeline: an iid drop on every
   outgoing datagram, journaled and counted like any other Netem fault. *)
let loss_faults ~cmd ~seed loss =
  require ~cmd ~flag:"inject-loss" (loss >= 0.0 && loss <= 1.0) ~must_be:"in [0, 1]";
  if loss = 0.0 then None
  else
    Some
      (Faults.Netem.create ~seed
         (Faults.Scenario.make ~name:"lossy" [ Faults.Scenario.Drop_iid loss ]))

let send_cmd =
  let run protocol host port file size loss seed adaptive batch tuning trace_out metrics_out =
    if file = None then require_positive ~cmd:"send" ~flag:"size" size;
    let faults = loss_faults ~cmd:"send" ~seed loss in
    let data =
      match file with
      | Some path ->
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
      | None ->
          let rng = Stats.Rng.create ~seed in
          String.init size (fun _ -> Char.chr (Stats.Rng.int rng 256))
    in
    let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    let peer = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
    let rtt = if adaptive then Some (Protocol.Rtt.create ~initial_ns:50_000_000 ()) else None in
    let tuning = resolve_tuning ~default:Protocol.Tuning.wire_default tuning in
    let recorder, metrics, flush = telemetry trace_out metrics_out in
    let ctx = make_ctx ?faults ?recorder ?metrics ~tuning batch in
    let result = Sockets.Peer.send ~ctx ?rtt ~socket ~peer ~suite:protocol ~data () in
    Unix.close socket;
    Printf.printf "%s: %d bytes in %.1f ms (%d packets, %d retransmitted)\n"
      (match result.Sockets.Peer.outcome with
      | Protocol.Action.Success -> "sent"
      | Protocol.Action.Too_many_attempts -> "FAILED"
      | Protocol.Action.Peer_unreachable -> "FAILED (peer unreachable)"
      | Protocol.Action.Rejected -> "FAILED (server busy)")
      (String.length data)
      (float_of_int result.Sockets.Peer.elapsed_ns /. 1e6)
      result.Sockets.Peer.counters.Protocol.Counters.data_sent
      result.Sockets.Peer.counters.Protocol.Counters.retransmitted_data;
    flush ()
  in
  let file =
    Arg.(value & opt (some file) None & info [ "file" ] ~docv:"PATH" ~doc:"File to send (otherwise random data).")
  in
  let size =
    Arg.(value & opt int 65536 & info [ "size" ] ~doc:"Random payload size in bytes when no file is given.")
  in
  Cmd.v
    (Cmd.info "send" ~doc:"Send a bulk transfer to a lanrepro recv peer over UDP")
    Term.(
      const run $ protocol $ host $ port $ file $ size $ tx_loss $ seed $ adaptive
      $ batch_flag $ tuning_flags $ trace_out $ metrics_out)

let recv_cmd =
  let run protocol port out loss seed tuning trace_out metrics_out =
    let faults = loss_faults ~cmd:"recv" ~seed loss in
    let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_of_string "0.0.0.0", port));
    Printf.printf "listening on UDP port %d...\n%!" port;
    let tuning = resolve_tuning ~default:Protocol.Tuning.wire_default tuning in
    let recorder, metrics, flush = telemetry trace_out metrics_out in
    let ctx = make_ctx ?faults ?recorder ?metrics ~tuning None in
    let result = Sockets.Peer.serve_one ~ctx ~socket ~suite:protocol () in
    Unix.close socket;
    Printf.printf "received %d bytes (transfer %d)\n"
      (String.length result.Sockets.Peer.data)
      result.Sockets.Peer.transfer_id;
    (match out with
    | Some path ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc result.Sockets.Peer.data);
        Printf.printf "wrote %s\n" path
    | None -> ());
    flush ()
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"PATH" ~doc:"Write the received data to this file.")
  in
  Cmd.v
    (Cmd.info "recv" ~doc:"Receive one bulk transfer over UDP")
    Term.(
      const run $ protocol $ port $ out $ tx_loss $ seed $ tuning_flags $ trace_out
      $ metrics_out)

(* ----------------------------------------------------------- dump/restore *)

let dump_cmd =
  let run protocol host port directory loss seed adaptive =
    let ctx = make_ctx ?faults:(loss_faults ~cmd:"dump" ~seed loss) None in
    let data = Archive.encode (Archive.of_directory directory) in
    Printf.printf "archived %s: %d bytes\n%!" directory (String.length data);
    let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    let peer = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
    let rtt = if adaptive then Some (Protocol.Rtt.create ~initial_ns:50_000_000 ()) else None in
    let result = Sockets.Peer.send ~ctx ?rtt ~socket ~peer ~suite:protocol ~data () in
    Unix.close socket;
    Printf.printf "%s in %.1f ms (%d packets, %d retransmitted)\n"
      (match result.Sockets.Peer.outcome with
      | Protocol.Action.Success -> "dumped"
      | Protocol.Action.Too_many_attempts -> "FAILED"
      | Protocol.Action.Peer_unreachable -> "FAILED (peer unreachable)"
      | Protocol.Action.Rejected -> "FAILED (server busy)")
      (float_of_int result.Sockets.Peer.elapsed_ns /. 1e6)
      result.Sockets.Peer.counters.Protocol.Counters.data_sent
      result.Sockets.Peer.counters.Protocol.Counters.retransmitted_data
  in
  let directory =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR" ~doc:"Directory to dump.")
  in
  let multi_default =
    Arg.(
      value
      & opt protocol_conv
          (Protocol.Suite.Multi_blast { strategy = Protocol.Blast.Go_back_n; chunk_packets = 64 })
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:"Transfer protocol.")
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Archive a directory and blast it to a lanrepro restore peer (the paper's remote file-system dump)")
    Term.(const run $ multi_default $ host $ port $ directory $ tx_loss $ seed $ adaptive)

let restore_cmd =
  let run port root loss seed =
    let ctx = make_ctx ?faults:(loss_faults ~cmd:"restore" ~seed loss) None in
    let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_of_string "0.0.0.0", port));
    Printf.printf "waiting for a dump on UDP port %d...\n%!" port;
    let result = Sockets.Peer.serve_one ~ctx ~socket () in
    Unix.close socket;
    (match result.Sockets.Peer.integrity with
    | Sockets.Peer.Verified -> print_endline "end-to-end checksum: verified"
    | Sockets.Peer.Mismatch -> print_endline "WARNING: end-to-end checksum mismatch"
    | Sockets.Peer.Not_carried -> print_endline "sender carried no checksum");
    match Archive.decode result.Sockets.Peer.data with
    | Error e -> Format.printf "archive decode failed: %a@." Archive.pp_error e
    | Ok entries ->
        let written = Archive.extract ~root entries in
        Printf.printf "restored %d entries under %s\n" written root
  in
  let root =
    Arg.(value & opt string "restored" & info [ "root" ] ~docv:"DIR" ~doc:"Where to extract.")
  in
  Cmd.v
    (Cmd.info "restore" ~doc:"Receive one dump and extract it")
    Term.(const run $ port $ root $ tx_loss $ seed)

(* ------------------------------------------------------------ serve/swarm *)

let string_of_sockaddr = function
  | Unix.ADDR_INET (address, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr address) port
  | Unix.ADDR_UNIX path -> path

let max_flows =
  Arg.(
    value
    & opt int 64
    & info [ "max-flows" ] ~docv:"N"
        ~doc:"Admission cap: concurrent transfers beyond this are answered with REJ.")

let admin_port =
  Arg.(
    value
    & opt (some int) None
    & info [ "admin-port" ] ~docv:"PORT"
        ~doc:
          "Bind a stat socket on 127.0.0.1:$(docv), answered by the server group's \
           own thread with the merged snapshot — query it live with $(b,lanrepro \
           stat) or $(b,lanrepro top).")

let stats_interval =
  Arg.(
    value
    & opt (some float) None
    & info [ "stats-interval" ] ~docv:"SECONDS"
        ~doc:
          "Write one JSON stats snapshot every $(docv) seconds (one object per line; \
           see $(b,--stats-out)).")

let stats_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-out" ] ~docv:"PATH"
        ~doc:"Destination for $(b,--stats-interval) snapshots (default stdout).")

let shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Server shard count: $(docv) engines, each on its own domain with its own \
           SO_REUSEPORT socket on the shared port; the kernel's 4-tuple hash spreads \
           flows across them and observability (stat socket, totals, counters, \
           loop-health histograms) is merged across the group. 1 (default) is a lone \
           engine, without SO_REUSEPORT.")

(* The periodic-snapshot sink: a JSONL writer plus its close hook. *)
let stats_writer stats_interval stats_out =
  match stats_interval with
  | None -> (None, (fun _ -> ()), fun () -> ())
  | Some seconds ->
      let interval_ns = Some (int_of_float (seconds *. 1e9)) in
      (match stats_out with
      | None ->
          (interval_ns, (fun json -> print_endline (Obs.Json.to_string json)), fun () -> ())
      | Some path ->
          let oc = open_out path in
          ( interval_ns,
            (fun json ->
              output_string oc (Obs.Json.to_string json);
              output_char oc '\n';
              Stdlib.flush oc),
            fun () ->
              close_out oc;
              Printf.printf "wrote stats to %s\n" path ))

(* A flowtrace rides along whenever a trace file was requested: its lifecycle
   spans land in the same Perfetto export as the datagram events. *)
let flowtrace_for trace_out = Option.map (fun _ -> Obs.Flowtrace.create ()) trace_out

let scenario_name option_name ~doc =
  Arg.(value & opt (some string) None & info [ option_name ] ~docv:"NAME" ~doc)

let serve_cmd =
  let run port max_flows scenario_name seed max_transfers batch tuning trace_out
      metrics_out admin_port stats_interval stats_out shards =
    require_positive ~cmd:"serve" ~flag:"shards" shards;
    Option.iter (require_positive ~cmd:"serve" ~flag:"max-transfers") max_transfers;
    let scenario = resolve_scenario scenario_name in
    let tuning = resolve_tuning ~default:Protocol.Tuning.wire_default tuning in
    let recorder, metrics, flush = telemetry trace_out metrics_out in
    let ctx = make_ctx ?recorder ?metrics ~tuning batch in
    let flowtrace = flowtrace_for trace_out in
    let stats_interval_ns, on_snapshot, close_stats = stats_writer stats_interval stats_out in
    let on_complete (e : Server.Engine.completion_event) =
      let c = e.Server.Engine.completion in
      Printf.printf "  flow %d from %s: %s, %d bytes, crc %s, %.1f ms\n%!"
        c.Sockets.Flow.transfer_id
        (string_of_sockaddr e.Server.Engine.peer)
        (Format.asprintf "%a" Protocol.Action.pp_outcome c.Sockets.Flow.outcome)
        (String.length c.Sockets.Flow.data)
        (match c.Sockets.Flow.integrity with
        | Sockets.Flow.Verified -> "verified"
        | Sockets.Flow.Mismatch -> "MISMATCH"
        | Sockets.Flow.Not_carried -> "not carried")
        (float_of_int (e.Server.Engine.finished_ns - e.Server.Engine.started_ns) /. 1e6)
    in
    let scenario_suffix =
      match scenario_name with Some s -> ", scenario " ^ s | None -> ""
    in
    (* [max_transfers] counts hand-overs group-wide — the group's completion
       callback is serialized, so a plain counter is race-free. A success is
       handed over at verification, before its linger, so the group stops
       one linger after the N-th hand-over. *)
    let group_cell = ref None in
    let settled = ref 0 in
    let linger_s = 3. *. float_of_int (Protocol.Tuning.retransmit_ns tuning) /. 1e9 in
    let on_complete e =
      on_complete e;
      incr settled;
      if Some !settled = max_transfers then
        ignore
          (Thread.create
             (fun () ->
               Thread.delay linger_s;
               Option.iter Server.Group.stop !group_cell)
             ()
            : Thread.t)
    in
    let group =
      Server.Group.create ~address:"0.0.0.0" ~port ~max_flows ?scenario ~seed ~ctx
        ~on_complete ?flowtrace ?admin_port ?stats_interval_ns ~on_snapshot
        ~binding:Server.Group.Shared_port ~members:shards ()
    in
    group_cell := Some group;
    (* Ctrl-C stops the loops instead of killing the process, so the totals
       line and any requested telemetry still get written. *)
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Server.Group.stop group));
    Printf.printf "serving on UDP %s (shards %d, max %d concurrent flows per shard%s)...\n%!"
      (string_of_sockaddr (Server.Group.address group 0))
      shards max_flows scenario_suffix;
    Option.iter
      (fun p -> Printf.printf "stat socket on 127.0.0.1:%d\n%!" p)
      (Server.Group.admin_port group);
    Server.Group.start group;
    Server.Group.join group;
    Format.printf "server: %a@." Server.Engine.pp_totals (Server.Group.totals group);
    close_stats ();
    flush
      ~spans:(match flowtrace with Some ft -> Obs.Flowtrace.spans ft | None -> [])
      ()
  in
  let max_transfers =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-transfers" ] ~docv:"N"
          ~doc:
            "Exit one linger after the $(docv)-th flow has been handed over (default: \
             serve until SIGINT).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Concurrent transfer server: accept many simultaneous senders over one UDP \
          socket, with admission control and per-flow fault injection")
    Term.(
      const run $ port $ max_flows
      $ scenario_name "scenario" ~doc:"Server-side fault scenario applied independently per flow."
      $ seed $ max_transfers $ batch_flag $ tuning_flags $ trace_out $ metrics_out
      $ admin_port $ stats_interval $ stats_out $ shards_arg)

let swarm_cmd =
  let run flows max_flows jobs size packet_bytes protocol scenario_name server_scenario_name
      seed batch tuning trace_out metrics_out admin_port stats_interval stats_out shards =
    require_positive ~cmd:"swarm" ~flag:"flows" flows;
    require_positive ~cmd:"swarm" ~flag:"size" size;
    require_packet_bytes ~cmd:"swarm" packet_bytes;
    let scenario = resolve_scenario scenario_name in
    let server_scenario = resolve_scenario server_scenario_name in
    let tuning =
      resolve_tuning ~default:(Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ()) tuning
    in
    let recorder, metrics, flush = telemetry trace_out metrics_out in
    let ctx = make_ctx ?recorder ?metrics batch in
    let flowtrace = flowtrace_for trace_out in
    let stats_interval_ns, on_snapshot, close_stats = stats_writer stats_interval stats_out in
    let report =
      Server.Swarm.run ~max_flows ?jobs ~bytes:size ~packet_bytes ~suite:protocol ~tuning
        ?scenario ?server_scenario ~seed ~ctx ?flowtrace ?admin_port ?stats_interval_ns
        ~on_snapshot ~shards ~flows ()
    in
    close_stats ();
    Format.printf "%a@." Server.Swarm.pp_report report;
    Printf.printf "server-verified transfers: %d/%d\n"
      (Server.Swarm.server_verified report)
      report.Server.Swarm.completed;
    List.iter (Printf.printf "VIOLATION %s\n") report.Server.Swarm.violations;
    List.iter (Printf.printf "INVARIANT %s\n") report.Server.Swarm.invariants;
    flush
      ~spans:(match flowtrace with Some ft -> Obs.Flowtrace.spans ft | None -> [])
      ();
    if
      report.Server.Swarm.failed > 0
      || report.Server.Swarm.violations <> []
      || report.Server.Swarm.invariants <> []
    then exit 1
  in
  let flows =
    Arg.(value & opt int 8 & info [ "flows" ] ~docv:"N" ~doc:"Concurrent senders to launch.")
  in
  let size =
    Arg.(value & opt int 65536 & info [ "size" ] ~docv:"BYTES" ~doc:"Payload bytes per flow.")
  in
  let packet_bytes =
    Arg.(value & opt int 1024 & info [ "packet-bytes" ] ~docv:"BYTES" ~doc:"Payload bytes per data packet.")
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:
         "Swarm load generator: drive N concurrent transfers against one in-process \
          server and report aggregate throughput, latency, and admission outcomes; \
          exits non-zero if any flow fails uncleanly, the delivery oracle or an \
          engine invariant is breached")
    Term.(
      const run $ flows $ max_flows $ jobs $ size $ packet_bytes $ protocol
      $ scenario_name "scenario" ~doc:"Sender-side fault scenario (independent per sender)."
      $ scenario_name "server-scenario" ~doc:"Server-side fault scenario (independent per flow)."
      $ seed $ batch_flag $ tuning_flags $ trace_out $ metrics_out $ admin_port
      $ stats_interval $ stats_out $ shards_arg)

(* ------------------------------------------------- deterministic simulation *)

let dst_cmd =
  let run seed seeds workload churn fault_name senders transfers max_flows shards
      until_virtual_s jobs tuning protocols journal_dir ring =
    require_positive ~cmd:"dst" ~flag:"seeds" seeds;
    let base =
      match workload with
      | `Senders -> Dst.Harness.default_config ~seed
      | `Ring -> { (Dst.Harness.ring_config ~seed) with Dst.Harness.workload = Ring ring }
    in
    let churn =
      match churn with
      | None -> base.Dst.Harness.churn
      | Some name -> (
          match Dst.Harness.churn_of_string name with
          | Some c -> c
          | None ->
              Printf.eprintf "unknown churn scenario %S (known: %s)\n" name
                (String.concat ", " (List.map Dst.Harness.churn_name Dst.Harness.all_churns));
              exit 2)
    in
    let cfg =
      {
        base with
        Dst.Harness.churn;
        faults =
          (if fault_name = None then base.Dst.Harness.faults else resolve_scenario fault_name);
        senders;
        transfers;
        max_flows = Option.value max_flows ~default:base.Dst.Harness.max_flows;
        shards;
        horizon_ns = int_of_float (until_virtual_s *. 1e9);
        tuning = resolve_tuning ~default:base.Dst.Harness.tuning tuning;
        suites = (if protocols = [] then base.Dst.Harness.suites else protocols);
      }
    in
    (match Dst.Harness.validate cfg with
    | () -> ()
    | exception Invalid_argument msg ->
        prerr_endline msg;
        exit 2);
    let seed_list = List.init seeds (fun i -> seed + i) in
    let started = Unix.gettimeofday () in
    let trials = Dst.Harness.run_seeds ?jobs cfg ~seeds:seed_list in
    let wall_s = Unix.gettimeofday () -. started in
    List.iter (fun t -> Format.printf "%a@." Dst.Harness.pp_trial t) trials;
    let active_s =
      List.fold_left (fun acc t -> acc +. (float_of_int t.Dst.Harness.virtual_ns /. 1e9)) 0.0
        trials
    in
    (* Each trial simulates its full horizon: the clock runs to the horizon
       even when every participant resolves early (idle virtual time is free
       — that is the point of discrete-event time). The active span is how
       much of it contained traffic. *)
    let simulated_s = float_of_int (List.length trials) *. until_virtual_s in
    Printf.printf
      "%d trial(s): %.0f virtual s simulated (%.1f s active) in %.2f wall s (%.0f virtual \
       s per wall s, %d jobs)\n"
      (List.length trials) simulated_s active_s wall_s
      (if wall_s > 0.0 then simulated_s /. wall_s else 0.0)
      (effective_jobs jobs);
    let failing =
      List.filter (fun t -> t.Dst.Harness.violations <> []) trials
    in
    List.iter
      (fun (t : Dst.Harness.trial) ->
        List.iter
          (fun v -> Printf.printf "seed %d: %s\n" t.Dst.Harness.seed v)
          t.Dst.Harness.violations)
      failing;
    (* Any failing seed must replay bit-for-bit: re-run it and compare the
       journal fingerprints, and keep the journal for offline debugging. *)
    let prefix = match workload with `Senders -> "dst" | `Ring -> "ring-dst" in
    let diverged = ref false in
    List.iter
      (fun (t : Dst.Harness.trial) ->
        let seed = t.Dst.Harness.seed in
        (match journal_dir with
        | None -> ()
        | Some dir ->
            let write name contents =
              let file =
                Filename.concat dir (Printf.sprintf "%s-seed-%d.%s" prefix seed name)
              in
              let oc = open_out file in
              output_string oc contents;
              close_out oc;
              Printf.printf "seed %d: %s written to %s\n" seed name file
            in
            write "journal" t.Dst.Harness.journal;
            write "flowtrace.jsonl" t.Dst.Harness.flowtrace;
            if t.Dst.Harness.flight <> "" then write "flight.jsonl" t.Dst.Harness.flight);
        let again = Dst.Harness.run { cfg with Dst.Harness.seed } in
        let identical = again.Dst.Harness.digest = t.Dst.Harness.digest in
        if not identical then diverged := true;
        Printf.printf "seed %d: replay %s (digest %s)\n" seed
          (if identical then "identical" else "DIVERGED")
          t.Dst.Harness.digest)
      failing;
    if !diverged then exit 2;
    if failing <> [] then exit 1
  in
  let senders_only = "SENDER WORKLOAD OPTIONS" and ring_only = "RING WORKLOAD OPTIONS" in
  let seeds =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"N" ~doc:"Sweep N consecutive seeds starting at --seed.")
  in
  let workload =
    Arg.(
      value
      & opt (enum [ ("senders", `Senders); ("ring", `Ring) ]) `Senders
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "$(b,senders): independent senders against one engine (or a sharded \
             group). $(b,ring): a striped, replicated put across ring members, then \
             surveys and read-repair.")
  in
  let churn =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            "Churn scenario: steady (none), kill (senders die mid-transfer; in a ring, \
             one member dies for good), reuse (killed senders' ports rebound with \
             colliding transfer ids), restart (engine stop/restart with lingering \
             flows), or mixed. The ring workload takes steady or kill. Default: mixed \
             for senders, kill for a ring.")
  in
  let fault_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"NAME"
          ~doc:
            "Wire fault scenario applied per memnet endpoint (clean disables). Default: \
             chaos for senders, clean for a ring.")
  in
  let senders =
    Arg.(
      value & opt int 16
      & info [ "senders" ] ~docv:"N" ~docs:senders_only
          ~doc:"Concurrent simulated senders.")
  in
  let transfers =
    Arg.(
      value & opt int 3
      & info [ "transfers" ] ~docv:"N" ~docs:senders_only
          ~doc:"Transfers each sender attempts.")
  in
  let max_flows =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-flows" ] ~docv:"N"
          ~doc:
            "Engine admission cap; below --senders exercises REJ under pressure. \
             Default: 12 for senders, 64 per member for a ring.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N" ~docs:senders_only
          ~doc:
            "Engine shard count: N engine processes as members of one memnet \
             REUSEPORT-style group, with datagrams steered by a pure seeded hash of \
             the source address — a sharded trial replays bit-for-bit like any other.")
  in
  let until_virtual_s =
    Arg.(
      value & opt float 60.0
      & info [ "until-virtual-s" ] ~docv:"SECONDS"
          ~doc:"Virtual-time budget per trial (the hang backstop).")
  in
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "Write each failing seed's event journal, flowtrace, and engine flight \
             ring to DIR (CI artifact hook).")
  in
  let protocols =
    Arg.(
      value
      & opt_all protocol_conv []
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~docs:senders_only
          ~doc:
            "Protocol suite (repeatable, as for $(b,swarm)): transfer I of sender K \
             runs the (K + I)-th suite, cyclically. Default: blast:gbn.")
  in
  let ring =
    let d = Dst.Harness.default_ring in
    let int name docv doc default =
      Arg.(value & opt int default & info [ name ] ~docv ~docs:ring_only ~doc)
    in
    Term.(
      const (fun servers stripes replicas quorum object_bytes ->
          { Dst.Harness.servers; stripes; replicas; quorum; object_bytes })
      $ int "servers" "N" "Ring members." d.servers
      $ int "stripes" "N" "Stripes the object splits into." d.stripes
      $ int "replicas" "R" "Replicas per stripe." d.replicas
      $ int "quorum" "W" "Write quorum per stripe." d.quorum
      $ int "bytes" "BYTES" "Object size." d.object_bytes)
  in
  Cmd.v
    (Cmd.info "dst"
       ~man:[ `S Manpage.s_options; `S senders_only; `S ring_only ]
       ~doc:
         "Whole-system deterministic simulation: engines plus a workload — a sender \
          swarm, or a striped ring put with read-repair — under virtual time with \
          seeded faults and churn; every trial asserts verified-delivery-or-clean-failure \
          and engine invariants, any failing seed replays bit-for-bit, and thousands of \
          virtual seconds run per wall second")
    Term.(
      const run $ seed $ seeds $ workload $ churn $ fault_name $ senders $ transfers
      $ max_flows $ shards $ until_virtual_s $ jobs $ tuning_flags $ protocols $ journal_dir
      $ ring)

(* ------------------------------------------------------------ ring transfers *)

(* Both the put and a later repair pass (possibly another process) derive
   the object bytes from the seed alone, so a repair never needs the
   original invocation's buffer shipped to it. *)
let ring_payload ~seed bytes =
  String.init bytes (fun i -> Char.chr (Stats.Hash.mix2 ~seed i 1 land 0xff))

let ring_servers =
  Arg.(value & opt int 3 & info [ "servers" ] ~docv:"N" ~doc:"Ring members.")

let ring_stripes =
  Arg.(value & opt int 8 & info [ "stripes" ] ~docv:"N" ~doc:"Stripes the object splits into.")

let ring_replicas =
  Arg.(value & opt int 2 & info [ "replicas" ] ~docv:"R" ~doc:"Replicas per stripe.")

let ring_quorum =
  Arg.(value & opt int 2 & info [ "quorum" ] ~docv:"W" ~doc:"Write quorum per stripe.")

let ring_bytes =
  Arg.(value & opt int 262144 & info [ "bytes" ] ~docv:"BYTES" ~doc:"Object size.")

let ring_object_id =
  Arg.(value & opt int 1 & info [ "object-id" ] ~docv:"ID" ~doc:"Object identifier.")

let ring_base_port =
  Arg.(
    value & opt int 0
    & info [ "base-port" ] ~docv:"PORT"
        ~doc:"Member i binds PORT+i (0: ephemeral ports, printed at startup).")

let ring_validate ~servers ~stripes ~replicas ~quorum ~bytes =
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "ring: %s\n" m; exit 2) fmt in
  if servers < 1 then fail "need at least one server";
  if not (0 < replicas && replicas <= servers) then
    fail "need 0 < replicas (%d) <= servers (%d)" replicas servers;
  if not (0 < quorum && quorum <= replicas) then
    fail "need 0 < quorum (%d) <= replicas (%d)" quorum replicas;
  if stripes < 1 then fail "need at least one stripe";
  if bytes < stripes then fail "need bytes (%d) >= stripes (%d)" bytes stripes

let pp_replication counts =
  String.concat " " (Array.to_list (Array.map string_of_int counts))

let print_survey { Ring.Repair.answered; unresponsive } =
  let dead = pp_replication (Array.of_list unresponsive) in
  Printf.printf "survey: %d answered%s\n" (List.length answered)
    (if unresponsive = [] then "" else Printf.sprintf ", unresponsive [%s]" dead)

let print_repair_report
    { Ring.Repair.first; before; rounds; reblasts; last; after; fully_replicated;
      elapsed_ns; _ } =
  print_survey first;
  Printf.printf "replication before repair [%s]\n" (pp_replication before);
  List.iter
    (fun { Ring.Client.job = { Ring.Client.stripe; server; _ }; result; _ } ->
      Format.printf "  re-blast stripe %d -> server %d: %a@." stripe server
        Protocol.Action.pp_outcome result.Sockets.Peer.outcome)
    reblasts;
  if rounds > 0 then print_survey last;
  Printf.printf "replication after repair  [%s]\n" (pp_replication after);
  Printf.printf "repair: %s in %d round(s), %.1f ms\n"
    (if fully_replicated then "fully replicated" else "UNDER-REPLICATED")
    rounds
    (float_of_int elapsed_ns /. 1e6)

let ring_put_cmd =
  let run servers stripes replicas quorum bytes packet_bytes retransmit_ms max_attempts
      base_port object_id seed kill no_repair hold_s admin_port =
    ring_validate ~servers ~stripes ~replicas ~quorum ~bytes;
    require_packet_bytes ~cmd:"ring-put" packet_bytes;
    require ~cmd:"ring-put" ~flag:"kill" ((not kill) || servers >= 2)
      ~must_be:"used with at least two servers";
    let fleet =
      Server.Group.create ~port:base_port ~seed ?admin_port ~binding:Server.Group.Own_ports
        ~members:servers ()
    in
    Server.Group.start fleet;
    Fun.protect
      ~finally:(fun () ->
        Server.Group.stop fleet;
        Server.Group.join fleet)
      (fun () ->
        Printf.printf "ring: %d servers on ports [%s]\n%!" servers
          (String.concat " "
             (List.init servers (fun i -> string_of_int (Server.Group.port fleet i))));
        let placement = Ring.Placement.create ~seed (Server.Group.alive fleet) in
        let peer_of = Server.Group.address fleet in
        let data = ring_payload ~seed bytes in
        let retransmit_ns = retransmit_ms * 1_000_000 in
        let tuning = Protocol.Tuning.fixed ~retransmit_ns ~max_attempts () in
        let ctx = Sockets.Io_ctx.make ~tuning () in
        (* The kill lands while the put is in flight, driven by its own
           progress: the put must still report honestly, and repair
           re-homes the dead member's stripes. *)
        let churn transport =
          if not kill then transport
          else
            let rng = Stats.Rng.derive ~root:seed ~index:object_id in
            Ring.Client.kill_mid_put ~draw:(Stats.Rng.int rng) ~max_attempts ~packet_bytes
              ~peer_of ~kill:(fun victim ->
                Server.Group.kill fleet victim;
                Printf.printf "killed server %d mid-transfer\n%!" victim)
              (Ring.Client.plan placement ~object_id ~total:bytes ~stripes ~replicas)
              transport
        in
        (* Two sockets open at once: the repair's flows must not meet the
           put's on the same (address, transfer id) keys. *)
        let ok =
          Ring.Client.over_udp (fun transport ->
              let put =
                Ring.Client.put ~ctx ~packet_bytes ~transport:(churn transport) ~placement
                  ~peer_of ~object_id ~stripes ~replicas ~quorum ~data ()
              in
              Printf.printf
                "put object %d: %d bytes, %d stripes x %d replicas; acks [%s]; \
                 quorum %s in %.1f ms\n"
                object_id bytes stripes replicas
                (pp_replication put.Ring.Client.acked)
                (if put.Ring.Client.quorum_met then "MET" else "UNMET")
                (float_of_int put.Ring.Client.elapsed_ns /. 1e6);
              (* With a kill, W = R puts cannot reach quorum for the dead
                 member's stripes; the verdict that matters is the ring's
                 own post-repair survey, so that is what the exit code
                 reports. *)
              if no_repair then put.Ring.Client.quorum_met
              else
                Ring.Client.over_udp (fun transport ->
                    let live = Ring.Placement.create ~seed (Server.Group.alive fleet) in
                    let report =
                      Ring.Repair.run ~ctx ~packet_bytes ~transport ~placement:live ~peer_of
                        ~object_id ~stripes ~replicas ~data ()
                    in
                    print_repair_report report;
                    report.Ring.Repair.fully_replicated
                    && Array.for_all (fun c -> c >= quorum) report.Ring.Repair.after))
        in
        let snap = Server.Group.snapshot fleet in
        Printf.printf "fleet: %d/%d alive, %d stripe replicas held\n"
          (List.length (Server.Group.alive fleet))
          servers
          (Option.value ~default:0
             (Option.bind (Obs.Json.member "manifest_stripes" snap) Obs.Json.to_int));
        if hold_s > 0.0 then begin
          Printf.printf "holding the ring for %.1f s (repair it from another shell: \
                         lanrepro ring-repair --base-port %d ...)\n%!"
            hold_s (Server.Group.port fleet 0);
          Unix.sleepf hold_s
        end;
        if not ok then exit 1)
  in
  let packet_bytes =
    Arg.(value & opt int 1024 & info [ "packet-bytes" ] ~docv:"BYTES" ~doc:"Payload bytes per data packet.")
  in
  let retransmit_ms =
    Arg.(
      value & opt int 20
      & info [ "retransmit-ms" ] ~docv:"MS"
          ~doc:"Per-flow retransmit timer; with --max-attempts this bounds how long a \
                blast at a dead member keeps trying.")
  in
  let max_attempts =
    Arg.(value & opt int 15 & info [ "max-attempts" ] ~docv:"N" ~doc:"Retries before a flow gives up.")
  in
  let kill =
    Arg.(
      value & flag
      & info [ "kill" ]
          ~doc:"Kill one (seeded) member mid-put, permanently: it dies just before the \
                put's k-th datagram to it, so its blasts fail however fast the host is. \
                Repair then re-homes the dead member's stripes.")
  in
  let no_repair =
    Arg.(value & flag & info [ "no-repair" ] ~doc:"Skip the read-repair pass after the put.")
  in
  let hold_s =
    Arg.(
      value & opt float 0.0
      & info [ "hold-s" ] ~docv:"SECONDS"
          ~doc:"Keep the ring serving after the put, so another invocation (ring-repair, \
                stat) can reach it.")
  in
  Cmd.v
    (Cmd.info "ring-put"
       ~doc:
         "Striped, replicated blast across an in-process server ring: split the object \
          into stripes, blast each to its consistent-hash replicas as ordinary flows, \
          all at once on one client socket, report the write quorum, then read-repair; \
          with --kill one member dies mid-put and the object must survive. Exits \
          non-zero if the quorum or repair fails")
    Term.(
      const run $ ring_servers $ ring_stripes $ ring_replicas $ ring_quorum $ ring_bytes
      $ packet_bytes $ retransmit_ms $ max_attempts $ ring_base_port $ ring_object_id
      $ seed $ kill $ no_repair $ hold_s $ admin_port)

let ring_repair_cmd =
  let run servers base_port dead bytes stripes replicas object_id seed =
    ring_validate ~servers ~stripes ~replicas ~quorum:replicas ~bytes;
    require ~cmd:"ring-repair" ~flag:"base-port" (base_port > 0)
      ~must_be:"given (the ring's first port)";
    let dead =
      match dead with
      | "" -> []
      | s -> List.map int_of_string (String.split_on_char ',' s)
    in
    let live = List.filter (fun i -> not (List.mem i dead)) (List.init servers Fun.id) in
    if live = [] then begin
      Printf.eprintf "ring-repair: every member is marked dead\n";
      exit 2
    end;
    let placement = Ring.Placement.create ~seed live in
    let peer_of i = Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + i) in
    let data = ring_payload ~seed bytes in
    (* ring-put's default timers: a silent member costs the survey 15 tries
       of 80 ms, not the wire default's 50 of 200 ms. *)
    let tuning = Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ~max_attempts:15 () in
    let ctx = Sockets.Io_ctx.make ~tuning () in
    let report =
      Ring.Client.over_udp (fun transport ->
          Ring.Repair.run ~ctx ~transport ~placement ~peer_of ~object_id ~stripes ~replicas
            ~data ())
    in
    print_repair_report report;
    if not report.Ring.Repair.fully_replicated then exit 1
  in
  let base_port =
    Arg.(
      value & opt int 0
      & info [ "base-port" ] ~docv:"PORT" ~doc:"Member i listens on PORT+i.")
  in
  let dead =
    Arg.(
      value & opt string ""
      & info [ "dead" ] ~docv:"I,J"
          ~doc:"Member indices known dead; repair plans around them on the live ring.")
  in
  Cmd.v
    (Cmd.info "ring-repair"
       ~doc:
         "Read-repair an object on a running ring (e.g. ring-put --hold-s): survey every \
          live member's stripe manifest over MREQ/MREP, re-blast under-replicated \
          stripes to their live successors, and re-survey. Exits non-zero unless every \
          stripe ends fully replicated")
    Term.(
      const run $ ring_servers $ base_port $ dead $ ring_bytes $ ring_stripes
      $ ring_replicas $ ring_object_id $ seed)

(* --------------------------------------------------------- live stats plane *)

let stat_addr =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ADDR"
        ~doc:"Stat socket address, HOST:PORT or just PORT (host defaults to 127.0.0.1).")

let stat_timeout_ms =
  Arg.(
    value & opt int 1000
    & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-attempt reply timeout.")

let stat_retries =
  Arg.(
    value & opt int 3
    & info [ "retries" ] ~docv:"N" ~doc:"Query attempts before giving up (UDP, so lossy).")

(* Path lookup into a parsed snapshot; every accessor is total so a truncated
   or foreign reply degrades to "-" cells instead of an exception. *)
let json_path path json =
  List.fold_left (fun acc key -> Option.bind acc (Obs.Json.member key)) (Some json) path

let json_int path json = Option.bind (json_path path json) Obs.Json.to_int
let json_float path json = Option.bind (json_path path json) Obs.Json.to_float
let json_str path json = Option.bind (json_path path json) Obs.Json.to_str

let fetch_snapshot addr timeout_ms retries =
  match Server.Admin.parse_address addr with
  | Error e ->
      Printf.eprintf "stat: %s\n" e;
      exit 2
  | Ok sockaddr -> (
      match Server.Admin.query ~timeout_ms ~retries sockaddr with
      | Error e -> Error e
      | Ok json -> (
          match json_str [ "schema" ] json with
          | Some "lanrepro-stat/1" -> Ok json
          | Some other -> Error (Printf.sprintf "unexpected snapshot schema %S" other)
          | None -> Error "reply is not a lanrepro stat snapshot (no schema field)"))

let stat_cmd =
  let run addr timeout_ms retries =
    match fetch_snapshot addr timeout_ms retries with
    | Error e ->
        Printf.eprintf "stat: %s\n" e;
        exit 1
    | Ok json -> print_endline (Obs.Json.to_string json)
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Query a running server's stat socket (serve/swarm --admin-port) once and \
          print the JSON snapshot: per-flow states, loop-health quantiles, and \
          engine counters")
    Term.(const run $ stat_addr $ stat_timeout_ms $ stat_retries)

let render_snapshot buf addr json =
  let cell = function Some f -> Printf.sprintf "%10.1f" f | None -> "         -" in
  let int_or d path = Option.value ~default:d (json_int path json) in
  let uptime_s = float_of_int (int_or 0 [ "uptime_ns" ]) /. 1e9 in
  let shard_count = int_or 1 [ "shards" ] in
  let unresponsive = int_or 0 [ "shards_unresponsive" ] in
  Buffer.add_string buf
    (Printf.sprintf "lanrepro top — %s    uptime %.1f s%s\n\n" addr uptime_s
       (if shard_count > 1 then
          Printf.sprintf "    %d shards%s" shard_count
            (if unresponsive > 0 then Printf.sprintf " (%d unresponsive)" unresponsive
             else "")
        else ""));
  Buffer.add_string buf
    (Printf.sprintf
       "flows %d/%d active (%d omitted)   accepted %d  completed %d  aborted %d  \
        rejected %d  superseded %d\n"
       (int_or 0 [ "active_flows" ])
       (int_or 0 [ "max_flows" ])
       (int_or 0 [ "flows_omitted" ])
       (int_or 0 [ "totals"; "accepted" ])
       (int_or 0 [ "totals"; "completed" ])
       (int_or 0 [ "totals"; "aborted" ])
       (int_or 0 [ "totals"; "rejected" ])
       (int_or 0 [ "totals"; "superseded" ]));
  Buffer.add_string buf
    (Printf.sprintf "ticks %d  drain-exhausted %d  spurious %d  timer-heap %d\n\n"
       (int_or 0 [ "health"; "ticks" ])
       (int_or 0 [ "health"; "drain_exhausted" ])
       (int_or 0 [ "health"; "spurious_wakeups" ])
       (int_or 0 [ "health"; "timer_heap" ]));
  (* Per-shard lanes: one row per shard from the aggregated snapshot's
     [per_shard] breakdown (a lone engine's single row adds nothing). *)
  (match Option.bind (json_path [ "per_shard" ] json) Obs.Json.to_list with
  | Some (_ :: _ as per_shard) when shard_count > 1 ->
      Buffer.add_string buf
        (Printf.sprintf "%-6s %8s %9s %10s %8s %8s %10s %11s\n" "shard" "active"
           "accepted" "completed" "rejected" "ticks" "spurious" "timer-heap");
      List.iter
        (fun row ->
          let rint_or d path = Option.value ~default:d (json_int path row) in
          match json_path [ "unresponsive" ] row with
          | Some (Obs.Json.Bool true) ->
              Buffer.add_string buf
                (Printf.sprintf "  s%-4d (unresponsive)\n" (rint_or 0 [ "shard" ]))
          | _ ->
              Buffer.add_string buf
                (Printf.sprintf "  s%-4d %8d %9d %10d %8d %8d %10d %11d\n"
                   (rint_or 0 [ "shard" ])
                   (rint_or 0 [ "active_flows" ])
                   (rint_or 0 [ "totals"; "accepted" ])
                   (rint_or 0 [ "totals"; "completed" ])
                   (rint_or 0 [ "totals"; "rejected" ])
                   (rint_or 0 [ "health"; "ticks" ])
                   (rint_or 0 [ "health"; "spurious_wakeups" ])
                   (rint_or 0 [ "health"; "timer_heap" ])))
        per_shard;
      Buffer.add_char buf '\n'
  | _ -> ());
  (* Ring fleets answer with a [per_server] breakdown instead: one row per
     member, manifest size included, dead members marked. *)
  (match Option.bind (json_path [ "per_server" ] json) Obs.Json.to_list with
  | Some (_ :: _ as per_server) ->
      Buffer.add_string buf
        (Printf.sprintf "%-6s %6s %6s %8s %9s %10s %9s %8s\n" "server" "port" "alive"
           "active" "accepted" "completed" "stripes" "ticks");
      List.iter
        (fun row ->
          let rint_or d path = Option.value ~default:d (json_int path row) in
          match json_path [ "unresponsive" ] row with
          | Some (Obs.Json.Bool true) ->
              Buffer.add_string buf
                (Printf.sprintf "  r%-4d %6d (unresponsive)\n"
                   (rint_or 0 [ "server" ])
                   (rint_or 0 [ "port" ]))
          | _ ->
              Buffer.add_string buf
                (Printf.sprintf "  r%-4d %6d %6s %8d %9d %10d %9d %8d\n"
                   (rint_or 0 [ "server" ])
                   (rint_or 0 [ "port" ])
                   (match json_path [ "alive" ] row with
                   | Some (Obs.Json.Bool false) -> "dead"
                   | _ -> "yes")
                   (rint_or 0 [ "active_flows" ])
                   (rint_or 0 [ "totals"; "accepted" ])
                   (rint_or 0 [ "totals"; "completed" ])
                   (rint_or 0 [ "manifest_stripes" ])
                   (rint_or 0 [ "health"; "ticks" ])))
        per_server;
      Buffer.add_char buf '\n'
  | _ -> ());
  Buffer.add_string buf
    (Printf.sprintf "%-22s %10s %10s %10s\n" "loop health" "p50" "p99" "max");
  let hist_row label key scale =
    let q name = Option.map (fun v -> v *. scale) (json_float [ "health"; key; name ] json) in
    Buffer.add_string buf
      (Printf.sprintf "  %-20s %s %s %s\n" label (cell (q "p50")) (cell (q "p99"))
         (cell (q "max")))
  in
  hist_row "tick duration (us)" "tick_duration_ns" 1e-3;
  hist_row "recv drain (pkts)" "recv_drained" 1.0;
  hist_row "flush train (pkts)" "flush_train" 1.0;
  hist_row "timer heap depth" "timer_heap_depth" 1.0;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%-34s %-9s %-9s %13s %7s %8s\n" "flow" "status" "phase" "pkts"
       "rounds" "age");
  let flows =
    Option.value ~default:[]
      (Option.bind (json_path [ "flows" ] json) Obs.Json.to_list)
  in
  List.iter
    (fun flow ->
      let str_or d path = Option.value ~default:d (json_str path flow) in
      let fint_or d path = Option.value ~default:d (json_int path flow) in
      Buffer.add_string buf
        (Printf.sprintf "%-34s %-9s %-9s %6d/%6d %7d %6.1f s\n"
           (str_or "?" [ "flow" ])
           (str_or "?" [ "status" ])
           (str_or "?" [ "phase" ])
           (fint_or 0 [ "delivered" ])
           (fint_or 0 [ "total_packets" ])
           (fint_or 0 [ "rounds" ])
           (float_of_int (fint_or 0 [ "age_ns" ]) /. 1e9)))
    flows;
  if flows = [] then Buffer.add_string buf "  (no active flows)\n"

let top_cmd =
  let run addr timeout_ms retries interval count =
    let remaining = ref count in
    let misses = ref 0 in
    while !remaining <> 0 && !misses < retries + 2 do
      (match fetch_snapshot addr timeout_ms retries with
      | Error e ->
          incr misses;
          Printf.printf "\027[2J\027[Hlanrepro top — %s: %s (attempt %d)\n%!" addr e !misses
      | Ok json ->
          misses := 0;
          let buf = Buffer.create 1024 in
          render_snapshot buf addr json;
          (* Clear + home, then one write, so the refresh does not flicker. *)
          print_string "\027[2J\027[H";
          print_string (Buffer.contents buf);
          Stdlib.flush Stdlib.stdout);
      if !remaining > 0 then decr remaining;
      if !remaining <> 0 then Unix.sleepf interval
    done;
    if !misses > 0 then exit 1
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between refreshes.")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop after N refreshes (default 0: run until interrupted).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view of a running server's stat socket: summary line, \
          loop-health quantiles, and a per-flow table, refreshed in place")
    Term.(const run $ stat_addr $ stat_timeout_ms $ stat_retries $ interval $ count)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "lanrepro" ~version:"1.0.0"
             ~doc:"Protocols for large data transfers over local networks (SIGCOMM '85) — reproduction toolkit")
          [
            simulate_cmd;
            analyze_cmd;
            calibrate_cmd;
            timeline_cmd;
            mc_cmd;
            sweep_cmd;
            repro_cmd;
            send_cmd;
            recv_cmd;
            dump_cmd;
            restore_cmd;
            serve_cmd;
            swarm_cmd;
            dst_cmd;
            ring_put_cmd;
            ring_repair_cmd;
            stat_cmd;
            top_cmd;
          ]))
