(* Benchmark harness.

   Two layers:
   1. Reproduction: prints every table and figure of the paper (plus the
      ablations) — `main.exe` runs all of them, `main.exe table1 fig5 ...`
      a subset, `main.exe --list` enumerates them.
   2. Micro-benchmarks: one Bechamel Test.make per experiment, timing the
      computational kernel that regenerates it (skip with --no-bechamel). *)

open Bechamel

let kernel_costs = Analysis.Costs.vkernel

let one_sim_transfer suite packets () =
  ignore
    (Simnet.Driver.run ~suite ~config:(Protocol.Config.make ~total_packets:packets ()) ())

let one_mc_sample strategy pn () =
  ignore
    (Montecarlo.Runner.sample
       ~sampler:(fun rng -> Montecarlo.Runner.iid rng ~loss:pn)
       ~timing:
         (Montecarlo.Runner.blast_timing kernel_costs
            ~tr:(Analysis.Error_free.blast kernel_costs ~packets:64))
       ~suite:(Protocol.Suite.Blast strategy) ~packets:64 ~trials:20 ~seed:1 ())

let analytic_sweep () =
  List.iter
    (fun pn ->
      ignore
        (Analysis.Expected_time.blast
           ~t0:(Analysis.Error_free.blast kernel_costs ~packets:64)
           ~tr:173.0 ~pn ~packets:64))
    Workload.Sizes.pn_ladder

let tests =
  [
    Test.make ~name:"table1:sim-64KiB-blast" (Staged.stage (one_sim_transfer (Protocol.Suite.Blast Protocol.Blast.Go_back_n) 64));
    Test.make ~name:"table1:sim-64KiB-saw" (Staged.stage (one_sim_transfer Protocol.Suite.Stop_and_wait 64));
    Test.make ~name:"table1:sim-64KiB-sw"
      (Staged.stage (one_sim_transfer (Protocol.Suite.Sliding_window { window = max_int }) 64));
    Test.make ~name:"table2:sim-1KiB-exchange"
      (Staged.stage (one_sim_transfer (Protocol.Suite.Blast Protocol.Blast.Go_back_n) 1));
    Test.make ~name:"table3:sim-64KiB-kernel"
      (Staged.stage (fun () ->
           ignore
             (Simnet.Driver.run ~params:Netmodel.Params.vkernel
                ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
                ~config:(Protocol.Config.make ~total_packets:64 ())
                ())));
    Test.make ~name:"fig4:analytic-curves"
      (Staged.stage (fun () ->
           for n = 1 to 64 do
             ignore (Analysis.Error_free.blast Analysis.Costs.standalone ~packets:n)
           done));
    Test.make ~name:"fig5:analytic-sweep" (Staged.stage analytic_sweep);
    Test.make ~name:"fig5:mc-full-retransmit" (Staged.stage (one_mc_sample Protocol.Blast.Full_retransmit 1e-3));
    Test.make ~name:"fig6:mc-go-back-n" (Staged.stage (one_mc_sample Protocol.Blast.Go_back_n 1e-3));
    Test.make ~name:"fig6:mc-selective" (Staged.stage (one_mc_sample Protocol.Blast.Selective 1e-3));
    Test.make ~name:"codec:encode-decode-1KiB"
      (Staged.stage
         (let m =
            Packet.Message.data ~transfer_id:1 ~seq:0 ~total:64
              ~payload:(String.make 1024 'x')
          in
          fun () ->
            match Packet.Codec.decode (Packet.Codec.encode m) with
            | Ok _ -> ()
            | Error _ -> assert false));
    Test.make ~name:"machine:blast-64-error-free"
      (Staged.stage (fun () ->
           ignore
             (Montecarlo.Runner.one_transfer
                ~drops:(fun () -> false)
                ~timing:(Montecarlo.Runner.blast_timing kernel_costs ~tr:173.0)
                ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~packets:64 ())));
  ]

(* Machine-readable perf trajectory: every bench run rewrites
   BENCH_protocols.json with per-protocol elapsed time and throughput for
   the standard 64-packet sim transfer plus wall times for the Monte-Carlo
   kernels, so later changes can diff protocol-level timings instead of
   eyeballing the console tables. *)

let bench_json_path = "BENCH_protocols.json"

let wall_ns f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  (r, int_of_float ((t1 -. t0) *. 1e9))

let bench_suites =
  [
    Protocol.Suite.Stop_and_wait;
    Protocol.Suite.Sliding_window { window = max_int };
    Protocol.Suite.Blast Protocol.Blast.Full_retransmit;
    Protocol.Suite.Blast Protocol.Blast.Full_retransmit_nack;
    Protocol.Suite.Blast Protocol.Blast.Go_back_n;
    Protocol.Suite.Blast Protocol.Blast.Selective;
    Protocol.Suite.Multi_blast { strategy = Protocol.Blast.Go_back_n; chunk_packets = 4 };
  ]

(* Wall-clock for the same 2000-trial Monte-Carlo sample at one worker and
   at the requested parallelism. The results are bit-for-bit identical by
   the Exec.Pool contract; only the wall time may differ (on a multi-core
   machine). *)
let mc_parallel_rows jobs =
  let sample strategy ~jobs =
    ignore
      (Montecarlo.Runner.sample ~jobs
         ~sampler:(fun rng -> Montecarlo.Runner.iid rng ~loss:1e-3)
         ~timing:
           (Montecarlo.Runner.blast_timing kernel_costs
              ~tr:(Analysis.Error_free.blast kernel_costs ~packets:64))
         ~suite:(Protocol.Suite.Blast strategy) ~packets:64 ~trials:2000 ~seed:1 ()
        : Montecarlo.Runner.sample)
  in
  List.map
    (fun (label, strategy) ->
      let (), serial_wall = wall_ns (fun () -> sample strategy ~jobs:1) in
      let (), parallel_wall = wall_ns (fun () -> sample strategy ~jobs) in
      Obs.Json.Obj
        [
          ("kernel", Obs.Json.String label);
          ( "protocol",
            Obs.Json.String (Protocol.Suite.name (Protocol.Suite.Blast strategy)) );
          ("trials", Obs.Json.Int 2000);
          ("jobs", Obs.Json.Int jobs);
          ("wall_ns_jobs1", Obs.Json.Int serial_wall);
          ("wall_ns_jobsN", Obs.Json.Int parallel_wall);
          ( "speedup",
            Obs.Json.Float (float_of_int serial_wall /. float_of_int (max 1 parallel_wall))
          );
        ])
    [
      ("fig5:mc-full-retransmit", Protocol.Blast.Full_retransmit);
      ("fig6:mc-go-back-n", Protocol.Blast.Go_back_n);
    ]

(* Per-datagram allocation of the receive path, fresh buffer vs the reusable
   one (satellite of the server work: the old path allocated 64 KiB per
   recvfrom). Loopback self-send so the numbers are pure socket-path cost. *)
let rx_alloc_iters = 1000

let rx_alloc_delta () =
  let socket, address = Sockets.Udp.create_socket () in
  let message =
    Packet.Message.data ~transfer_id:1 ~seq:0 ~total:1 ~payload:(String.make 1024 'x')
  in
  let measure recv =
    let before = Gc.allocated_bytes () in
    for _ = 1 to rx_alloc_iters do
      ignore (Sockets.Udp.send_message socket address message : Sockets.Udp.send_outcome);
      ignore
        (recv ()
          : [ `Message of Packet.Message.t * Unix.sockaddr
            | `Timeout
            | `Garbage of Packet.Codec.error ])
    done;
    (Gc.allocated_bytes () -. before) /. float_of_int rx_alloc_iters
  in
  let fresh =
    measure (fun () -> Sockets.Udp.recv_message ~timeout_ns:1_000_000_000 socket)
  in
  let buffer = Sockets.Udp.rx_buffer () in
  let reused =
    measure (fun () -> Sockets.Udp.recv_message ~timeout_ns:1_000_000_000 ~buffer socket)
  in
  Sockets.Udp.close socket;
  (fresh, reused)

(* Table 2 revisited at the syscall layer: a one-way loopback blast of 4 MiB
   in 1 KiB datagrams, submitted as packet trains of increasing length with
   the sendmmsg/recvmmsg fast path on and off. The receiver drains after
   every train so the socket buffer never overflows, and the syscall counts
   cover both directions. Best-of-N walls to shave scheduler noise. *)
let batched_io_datagrams = 4096
let batched_io_payload_bytes = 1024
let batched_io_reps = 5

let batched_io_run ~train ~batched =
  let rx_socket, address = Sockets.Udp.create_socket () in
  Unix.set_nonblock rx_socket;
  (try Unix.setsockopt_int rx_socket Unix.SO_RCVBUF (4 * 1024 * 1024)
   with Unix.Unix_error _ -> ());
  let tx_socket, _ = Sockets.Udp.create_socket () in
  let payload = Bytes.make batched_io_payload_bytes 'x' in
  let rx_buffer = Sockets.Udp.rx_buffer () in
  let run () =
    let tx_syscalls = ref 0 and rx_syscalls = ref 0 and received = ref 0 in
    let batch =
      if batched then Some (Sockets.Batch.create ~capacity:train ~socket:tx_socket ())
      else None
    in
    let rx =
      if batched then
        Some (Sockets.Batch.create_rx ~capacity:(min train 256) ~socket:rx_socket ())
      else None
    in
    let drain_once () =
      match rx with
      | Some r -> Sockets.Batch.recv r ~limit:max_int
      | None -> (
          incr rx_syscalls;
          match Unix.recvfrom rx_socket rx_buffer 0 (Bytes.length rx_buffer) [] with
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
              0
          | _ -> 1)
    in
    let rec drain_all () =
      let n = drain_once () in
      if n > 0 then begin
        received := !received + n;
        drain_all ()
      end
    in
    let t0 = Unix.gettimeofday () in
    let submitted = ref 0 in
    while !submitted < batched_io_datagrams do
      let n = min train (batched_io_datagrams - !submitted) in
      (match batch with
      | Some b ->
          for _ = 1 to n do
            Sockets.Batch.push b ~peer:address payload
          done;
          ignore (Sockets.Batch.flush b : Sockets.Batch.report)
      | None ->
          for _ = 1 to n do
            incr tx_syscalls;
            ignore
              (Sockets.Udp.send_bytes tx_socket address payload : Sockets.Udp.send_outcome)
          done);
      submitted := !submitted + n;
      drain_all ()
    done;
    (* Bounded tail: the last train may still be in flight through loopback. *)
    let deadline = Unix.gettimeofday () +. 1.0 in
    while !received < batched_io_datagrams && Unix.gettimeofday () < deadline do
      ignore (Unix.select [ rx_socket ] [] [] 0.01);
      drain_all ()
    done;
    let wall = Unix.gettimeofday () -. t0 in
    (match batch with
    | Some b -> tx_syscalls := (Sockets.Batch.totals b).Sockets.Batch.syscalls
    | None -> ());
    (match rx with Some r -> rx_syscalls := Sockets.Batch.rx_syscalls r | None -> ());
    (wall, !tx_syscalls, !rx_syscalls, !received)
  in
  let best = ref (run ()) in
  for _ = 2 to batched_io_reps do
    let (wall, _, _, _) as rep = run () in
    let best_wall, _, _, _ = !best in
    if wall < best_wall then best := rep
  done;
  Sockets.Udp.close tx_socket;
  Sockets.Udp.close rx_socket;
  !best

let batched_io_rows () =
  List.concat_map
    (fun train ->
      List.map
        (fun batched ->
          let wall, tx_syscalls, rx_syscalls, received = batched_io_run ~train ~batched in
          let per_datagram =
            float_of_int (tx_syscalls + rx_syscalls) /. float_of_int batched_io_datagrams
          in
          let goodput_mbit_s =
            if wall <= 0.0 then 0.0
            else float_of_int (received * batched_io_payload_bytes * 8) /. wall /. 1e6
          in
          Printf.printf
            "batched_io: train=%3d %-9s %5d tx + %5d rx syscalls (%.3f/datagram), %d/%d \
             received, %.0f Mbit/s\n\
             %!"
            train
            (if batched then "batched" else "unbatched")
            tx_syscalls rx_syscalls per_datagram received batched_io_datagrams
            goodput_mbit_s;
          Obs.Json.Obj
            [
              ("train_len", Obs.Json.Int train);
              ("batched", Obs.Json.Bool batched);
              ("datagrams", Obs.Json.Int batched_io_datagrams);
              ("payload_bytes", Obs.Json.Int batched_io_payload_bytes);
              ("received", Obs.Json.Int received);
              ("tx_syscalls", Obs.Json.Int tx_syscalls);
              ("rx_syscalls", Obs.Json.Int rx_syscalls);
              ("syscalls_per_datagram", Obs.Json.Float per_datagram);
              ("wall_ns", Obs.Json.Int (int_of_float (wall *. 1e9)));
              ("goodput_mbit_s", Obs.Json.Float goodput_mbit_s);
            ])
        [ true; false ])
    [ 1; 8; 32; 128 ]

(* Simulation rate of the whole-system deterministic trials, measured over a
   seed sweep so per-trial setup cost amortises the way it does in a real CI
   soak. Two rates: horizon virtual s per wall s (what a seed sweep costs —
   the harness floor is 1000, and idle virtual time is free to simulate) and
   active virtual s per wall s (event-dense time only, the honest measure of
   the event loop itself). *)
let dst_sweep_seeds = 10

let dst_rows () =
  List.map
    (fun (label, churn, faults) ->
      let cfg =
        {
          (Dst.Harness.default_config ~seed:1) with
          Dst.Harness.churn;
          faults;
          senders = 8;
          transfers = 2;
        }
      in
      let seeds = List.init dst_sweep_seeds (fun i -> i + 1) in
      let trials, wall = wall_ns (fun () -> Dst.Harness.run_seeds ~jobs:1 cfg ~seeds) in
      let virtual_ns =
        List.fold_left (fun acc t -> acc + t.Dst.Harness.virtual_ns) 0 trials
      in
      let events = List.fold_left (fun acc t -> acc + t.Dst.Harness.events) 0 trials in
      let attempted =
        List.fold_left (fun acc t -> acc + t.Dst.Harness.attempted) 0 trials
      in
      let completed =
        List.fold_left (fun acc t -> acc + t.Dst.Harness.completed) 0 trials
      in
      let violations =
        List.fold_left (fun acc t -> acc + List.length t.Dst.Harness.violations) 0 trials
      in
      let horizon_ns = dst_sweep_seeds * cfg.Dst.Harness.horizon_ns in
      let active_per_wall =
        if wall <= 0 then 0.0 else float_of_int virtual_ns /. float_of_int wall
      in
      let horizon_per_wall =
        if wall <= 0 then 0.0 else float_of_int horizon_ns /. float_of_int wall
      in
      Printf.printf
        "dst: %-12s %d seeds, %.0f virtual s (%.1f active) in %6.1f wall ms (%6.0f \
         horizon / %4.0f active virtual s per wall s, %d events, %d/%d completed)\n\
         %!"
        label dst_sweep_seeds
        (float_of_int horizon_ns /. 1e9)
        (float_of_int virtual_ns /. 1e9)
        (float_of_int wall /. 1e6)
        horizon_per_wall active_per_wall events completed attempted;
      Obs.Json.Obj
        [
          ("scenario", Obs.Json.String label);
          ("churn", Obs.Json.String (Dst.Harness.churn_name churn));
          ("senders", Obs.Json.Int cfg.Dst.Harness.senders);
          ("seeds", Obs.Json.Int dst_sweep_seeds);
          ("attempted", Obs.Json.Int attempted);
          ("completed", Obs.Json.Int completed);
          ("events", Obs.Json.Int events);
          ("active_virtual_ns", Obs.Json.Int virtual_ns);
          ("horizon_virtual_ns", Obs.Json.Int horizon_ns);
          ("wall_ns", Obs.Json.Int wall);
          ("horizon_virtual_s_per_wall_s", Obs.Json.Float horizon_per_wall);
          ("active_virtual_s_per_wall_s", Obs.Json.Float active_per_wall);
          ("violations", Obs.Json.Int violations);
        ])
    [
      ("clean-steady", Dst.Harness.Steady, None);
      ("chaos-mixed", Dst.Harness.Mixed, Some Faults.Scenario.chaos);
    ]

(* Gate verdicts. A gate records its FAIL line here instead of exiting, so
   one failing gate cannot stop the cells after it from running or
   BENCH_protocols.json from being written; [write_bench_json] prints every
   line and exits 1 once the file is out. *)
let gate_failures = ref []

let gate_fail fmt =
  Printf.ksprintf (fun line -> gate_failures := line :: !gate_failures) fmt

(* Aggregate service capacity of the concurrent server at increasing fan-in:
   N simultaneous senders against one port, small payloads so the smoke run
   stays fast — at shards=1 (the single-engine loop, the ceiling this bench
   historically measured) and shards=4 (the SO_REUSEPORT fleet). Every row
   records the shard/jobs count it actually ran with and what the host could
   have offered ([recommended_domains]): a 1-core CI box runs the same
   matrix, it just cannot honestly pass the scaling gates there. *)
let serve_concurrency_rows () =
  (* The widest fan-in run doubles as the loop-health sample: its engine
     snapshot (taken after the loop exited) carries the tick-duration and
     heap-depth histograms for the bench's [engine_health] section. *)
  let health = ref Obs.Json.Null in
  let domains = Domain.recommended_domain_count () in
  let goodput = Hashtbl.create 16 in
  let rows =
    List.concat_map
      (fun shards ->
        List.map
          (fun flows ->
            let report =
              Server.Swarm.run ~flows ~bytes:16384 ~packet_bytes:1024 ~seed:1 ~shards ()
            in
            Hashtbl.replace goodput (shards, flows) report.Server.Swarm.aggregate_mbit_s;
            (match Obs.Json.member "health" report.Server.Swarm.engine_snapshot with
            | Some h ->
                health :=
                  Obs.Json.Obj
                    [
                      ("flows", Obs.Json.Int flows);
                      ("shards", Obs.Json.Int shards);
                      ("health", h);
                    ]
            | None -> ());
            let lat = Obs.Hist.snapshot report.Server.Swarm.latency_ms in
            Obs.Json.Obj
              [
                ("flows", Obs.Json.Int flows);
                ("shards", Obs.Json.Int report.Server.Swarm.shards);
                ("jobs", Obs.Json.Int report.Server.Swarm.jobs);
                ("recommended_domains", Obs.Json.Int domains);
                ("bytes_per_flow", Obs.Json.Int report.Server.Swarm.bytes_per_flow);
                ("completed", Obs.Json.Int report.Server.Swarm.completed);
                ("rejected", Obs.Json.Int report.Server.Swarm.rejected);
                ("failed", Obs.Json.Int report.Server.Swarm.failed);
                ("wall_ns", Obs.Json.Int report.Server.Swarm.elapsed_ns);
                ("aggregate_mbit_s", Obs.Json.Float report.Server.Swarm.aggregate_mbit_s);
                ("latency_ms_mean", Obs.Json.Float lat.Obs.Hist.mean);
                ("latency_ms_p50", Obs.Json.Float lat.Obs.Hist.p50);
                ("latency_ms_p90", Obs.Json.Float lat.Obs.Hist.p90);
                ("latency_ms_p99", Obs.Json.Float lat.Obs.Hist.p99);
                ("latency_ms_max", Obs.Json.Float lat.Obs.Hist.max);
              ])
          [ 1; 8; 32; 64; 256 ])
      [ 1; 4 ]
  in
  (* Scaling gates — skipped honestly, never faked, on hosts without the
     cores to run a real fleet (the skip is printed and the per-row
     [recommended_domains] records why). *)
  let g shards flows = Hashtbl.find_opt goodput (shards, flows) in
  if domains >= 4 then begin
    (match (g 1 32, g 4 32) with
    | Some single, Some sharded when single > 0.0 ->
        if sharded < 2.0 *. single then
          gate_fail
            "bench: FAIL serve_concurrency scaling — shards=4 at 32 flows is %.2fx \
             shards=1 (%.2f vs %.2f Mbit/s; need >= 2x)"
            (sharded /. single) sharded single
    | _ -> ());
    match (g 4 1, g 4 64, g 4 256) with
    | Some g1, Some g64, Some g256 ->
        if g64 < g1 && g256 < g64 then
          gate_fail
            "bench: FAIL serve_concurrency collapse — sharded goodput falls \
             monotonically 1 -> 64 -> 256 flows (%.2f -> %.2f -> %.2f Mbit/s)"
            g1 g64 g256
    | _ -> ()
  end
  else
    Printf.printf
      "serve_concurrency: SKIP scaling gates (host recommends %d domain(s); a shard \
       fleet needs >= 4)\n\
       %!"
      domains;
  (rows, !health)

(* Striped replicated ring transfers: wall-clock completion of a
   write-quorum put against a real-UDP fleet, as stripe width grows, on a
   clean wire and under loss. The client runs every blast on one loop, but
   the members each serve on their own domain: striping only pays when the
   host has the cores to run them in parallel, so the width gate arms on
   >= 4 recommended domains and is otherwise printed as a SKIP (the per-row
   [recommended_domains] records why). *)
let ring_stripe_rows () =
  let domains = Domain.recommended_domain_count () in
  let bytes = 262_144 and servers = 4 and replicas = 2 and quorum = 2 in
  let data = String.init bytes (fun i -> Char.chr (i land 0xff)) in
  let clean_ns = Hashtbl.create 8 in
  let rows =
    List.concat_map
      (fun scenario ->
        let clean = Faults.Scenario.is_clean scenario in
        List.map
          (fun stripes ->
            let fleet =
              Server.Group.create
                ?scenario:(if clean then None else Some scenario)
                ~seed:1 ~binding:Server.Group.Own_ports ~members:servers ()
            in
            Server.Group.start fleet;
            Fun.protect
              ~finally:(fun () ->
                Server.Group.stop fleet;
                Server.Group.join fleet)
              (fun () ->
                let tuning =
                  Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ~max_attempts:20 ()
                in
                let placement = Ring.Placement.create ~seed:1 (Server.Group.alive fleet) in
                let put =
                  Ring.Client.over_udp (fun transport ->
                      Ring.Client.put ~ctx:(Sockets.Io_ctx.make ~tuning ()) ~transport
                        ~placement ~peer_of:(Server.Group.address fleet) ~object_id:1
                        ~stripes ~replicas ~quorum ~data ())
                in
                let sum field =
                  Obs.Json.Int
                    (List.fold_left
                       (fun n r -> n + field r.Ring.Client.result.Sockets.Peer.counters)
                       0 put.Ring.Client.results)
                in
                if clean then Hashtbl.replace clean_ns stripes put.Ring.Client.elapsed_ns;
                Obs.Json.Obj
                  [
                    ("scenario", Obs.Json.String (Faults.Scenario.name scenario));
                    ("stripes", Obs.Json.Int stripes);
                    ("replicas", Obs.Json.Int replicas);
                    ("quorum", Obs.Json.Int quorum);
                    ("servers", Obs.Json.Int servers);
                    ("recommended_domains", Obs.Json.Int domains);
                    ("bytes", Obs.Json.Int bytes);
                    ("quorum_met", Obs.Json.Bool put.Ring.Client.quorum_met);
                    ("wall_ns", Obs.Json.Int put.Ring.Client.elapsed_ns);
                    ("sender_timeouts", sum (fun c -> c.Protocol.Counters.timeouts));
                    ( "retransmitted_data",
                      sum (fun c -> c.Protocol.Counters.retransmitted_data) );
                  ]))
          [ 1; 4; 16 ])
      [ Faults.Scenario.clean; Faults.Scenario.lossy2 ]
  in
  if domains >= 4 then begin
    match (Hashtbl.find_opt clean_ns 1, Hashtbl.find_opt clean_ns 4) with
    | Some w1, Some w4 when w1 > 0 ->
        (* Width 4 must not lose to the single path on a host that can
           actually parallelize it; 25% slack absorbs wall-clock noise. *)
        if float_of_int w4 > 1.25 *. float_of_int w1 then
          gate_fail
            "bench: FAIL ring_stripe width — stripes=4 put took %.1f ms vs %.1f ms at \
             stripes=1 (need <= 1.25x)"
            (float_of_int w4 /. 1e6) (float_of_int w1 /. 1e6)
    | _ -> ()
  end
  else
    Printf.printf
      "ring_stripe: SKIP width gate (host recommends %d domain(s); the members' \
       domains need >= 4)\n\
       %!"
      domains;
  rows

(* Adaptive trains vs the fixed ladder. Two legs, one geometry each:

   - simnet: a 256-packet transfer over the simulated LAN per netem
     scenario, fixed trains as Multi_blast chunks of 1/8/32/128 vs the
     AIMD-controlled adaptive blast. Virtual-time elapsed, so the rows are
     deterministic.
   - UDP swarm: the concurrent server under real sockets, same ladder,
     goodput from the swarm report's wall clock.

   Gate (both legs, per scenario): adaptive must reach at least 0.9x the
   best fixed train — the point of the controller is to find the geometry,
   not to be handed it. *)
let adaptive_gate = 0.9

let adaptive_fixed_trains = [ 1; 8; 32; 128 ]

let adaptive_scenarios = [ Faults.Scenario.clean; Faults.Scenario.lossy2 ]

let adaptive_sim_packets = 256

let adaptive_blast_rows () =
  let sim_rows =
    List.concat_map
      (fun scenario ->
        let faults seed =
          if Faults.Scenario.is_clean scenario then None
          else Some (Faults.Netem.create ~seed scenario)
        in
        let goodput config suite =
          let result =
            Simnet.Driver.run ?sender_faults:(faults 11) ?receiver_faults:(faults 12)
              ~suite ~config ()
          in
          let elapsed_ms = Simnet.Driver.elapsed_ms result in
          if result.Simnet.Driver.outcome <> Protocol.Action.Success || elapsed_ms <= 0.0
          then 0.0
          else float_of_int (adaptive_sim_packets * 1024 * 8) /. (elapsed_ms /. 1e3) /. 1e6
        in
        let row ~train ~goodput:g =
          Obs.Json.Obj
            [
              ("scenario", Obs.Json.String (Faults.Scenario.name scenario));
              ("train", Obs.Json.String train);
              ("goodput_mbit_s", Obs.Json.Float g);
            ]
        in
        let fixed_rows =
          List.map
            (fun chunk ->
              let config =
                Protocol.Config.make
                  ~tuning:(Protocol.Tuning.fixed ~max_attempts:400 ())
                  ~total_packets:adaptive_sim_packets ()
              in
              let g =
                goodput config
                  (Protocol.Suite.Multi_blast
                     { strategy = Protocol.Blast.Selective; chunk_packets = chunk })
              in
              (chunk, g))
            adaptive_fixed_trains
        in
        let adaptive_goodput =
          let config =
            Protocol.Config.make
              ~tuning:(Protocol.Tuning.adaptive ~max_attempts:400 ())
              ~total_packets:adaptive_sim_packets ()
          in
          goodput config (Protocol.Suite.Blast Protocol.Blast.Selective)
        in
        let best_fixed = List.fold_left (fun acc (_, g) -> max acc g) 0.0 fixed_rows in
        Printf.printf
          "adaptive_blast sim: %-8s adaptive %7.1f Mbit/s vs best fixed %7.1f (%s)\n%!"
          (Faults.Scenario.name scenario)
          adaptive_goodput best_fixed
          (String.concat ", "
             (List.map (fun (c, g) -> Printf.sprintf "%d: %.1f" c g) fixed_rows));
        if adaptive_goodput < adaptive_gate *. best_fixed then
          gate_fail
            "bench: FAIL adaptive_blast gate — sim/%s: adaptive %.1f < %.1fx best fixed \
             %.1f Mbit/s"
            (Faults.Scenario.name scenario)
            adaptive_goodput adaptive_gate best_fixed;
        List.map (fun (c, g) -> row ~train:(string_of_int c) ~goodput:g) fixed_rows
        @ [ row ~train:"adaptive" ~goodput:adaptive_goodput ])
      adaptive_scenarios
  in
  let swarm_flows = 8 in
  let swarm_rows =
    List.concat_map
      (fun scenario ->
        let scenario_args =
          if Faults.Scenario.is_clean scenario then None else Some scenario
        in
        (* Real sockets and wall clocks: one swarm run on a loaded CI host
           can easily swing 30%, so each cell is the best of three — the
           gate compares achievable goodput, not scheduler luck. *)
        let goodput ~tuning ~suite =
          let one () =
            let report =
              Server.Swarm.run ~flows:swarm_flows ~bytes:65_536 ~packet_bytes:1024
                ~tuning ?scenario:scenario_args ?server_scenario:scenario_args ~seed:7
                ~suite ()
            in
            if report.Server.Swarm.completed < swarm_flows then 0.0
            else report.Server.Swarm.aggregate_mbit_s
          in
          List.fold_left (fun acc _ -> Float.max acc (one ())) 0.0 [ (); (); () ]
        in
        let row ~train ~goodput:g =
          Obs.Json.Obj
            [
              ("scenario", Obs.Json.String (Faults.Scenario.name scenario));
              ("train", Obs.Json.String train);
              ("flows", Obs.Json.Int swarm_flows);
              ("goodput_mbit_s", Obs.Json.Float g);
            ]
        in
        let fixed_rows =
          List.map
            (fun chunk ->
              let g =
                goodput
                  ~tuning:
                    (Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ~max_attempts:100 ())
                  ~suite:
                    (Protocol.Suite.Multi_blast
                       { strategy = Protocol.Blast.Selective; chunk_packets = chunk })
              in
              (chunk, g))
            adaptive_fixed_trains
        in
        let adaptive_goodput =
          goodput
            ~tuning:
              (Protocol.Tuning.adaptive ~retransmit_ns:20_000_000 ~max_attempts:100 ())
            ~suite:(Protocol.Suite.Blast Protocol.Blast.Selective)
        in
        let best_fixed = List.fold_left (fun acc (_, g) -> max acc g) 0.0 fixed_rows in
        Printf.printf
          "adaptive_blast udp: %-8s adaptive %7.1f Mbit/s vs best fixed %7.1f (%s)\n%!"
          (Faults.Scenario.name scenario)
          adaptive_goodput best_fixed
          (String.concat ", "
             (List.map (fun (c, g) -> Printf.sprintf "%d: %.1f" c g) fixed_rows));
        if adaptive_goodput < adaptive_gate *. best_fixed then
          gate_fail
            "bench: FAIL adaptive_blast gate — udp/%s: adaptive %.1f < %.1fx best fixed \
             %.1f Mbit/s"
            (Faults.Scenario.name scenario)
            adaptive_goodput adaptive_gate best_fixed;
        List.map (fun (c, g) -> row ~train:(string_of_int c) ~goodput:g) fixed_rows
        @ [ row ~train:"adaptive" ~goodput:adaptive_goodput ])
      adaptive_scenarios
  in
  Obs.Json.Obj
    [
      ("gate", Obs.Json.Float adaptive_gate);
      ("sim", Obs.Json.List sim_rows);
      ("udp_swarm", Obs.Json.List swarm_rows);
    ]

let write_bench_json ~jobs () =
  let packets = 64 in
  let sim_rows =
    List.map
      (fun suite ->
        let result, wall =
          wall_ns (fun () ->
              Simnet.Driver.run ~suite
                ~config:(Protocol.Config.make ~total_packets:packets ())
                ())
        in
        let elapsed_ms = Simnet.Driver.elapsed_ms result in
        (* Simulated goodput for the 64 KiB transfer, in Mbit/s. *)
        let throughput_mbit_s =
          float_of_int (packets * 1024 * 8) /. (elapsed_ms /. 1e3) /. 1e6
        in
        Obs.Json.Obj
          [
            ("protocol", Obs.Json.String (Protocol.Suite.name suite));
            ("elapsed_ms", Obs.Json.Float elapsed_ms);
            ("throughput_mbit_s", Obs.Json.Float throughput_mbit_s);
            ("wall_ns", Obs.Json.Int wall);
          ])
      bench_suites
  in
  let mc_rows =
    List.map
      (fun strategy ->
        let (), wall = wall_ns (one_mc_sample strategy 1e-3) in
        Obs.Json.Obj
          [
            ( "protocol",
              Obs.Json.String (Protocol.Suite.name (Protocol.Suite.Blast strategy)) );
            ("trials", Obs.Json.Int 20);
            ("wall_ns", Obs.Json.Int wall);
          ])
      [
        Protocol.Blast.Full_retransmit;
        Protocol.Blast.Full_retransmit_nack;
        Protocol.Blast.Go_back_n;
        Protocol.Blast.Selective;
      ]
  in
  let fresh_alloc, reused_alloc = rx_alloc_delta () in
  Printf.printf
    "rx buffer: %.0f B allocated per recv with a fresh buffer, %.0f B reused (%d loopback \
     datagrams)\n%!"
    fresh_alloc reused_alloc rx_alloc_iters;
  (* Regression gate: the reusable-buffer receive path is the default in
     every hot loop, and it must stay allocation-light. *)
  if reused_alloc > 4096.0 then
    gate_fail
      "bench: FAIL rx_alloc regression — reused-buffer recv allocates %.0f B/datagram \
       (budget 4096)"
      reused_alloc;
  let serve_rows, engine_health = serve_concurrency_rows () in
  let json =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "lanrepro-bench/9");
        ("packets", Obs.Json.Int packets);
        (* Context for mc_parallel: speedup > 1 is only possible when the
           host actually has cores to spread the domains over. *)
        ("recommended_domains", Obs.Json.Int (Domain.recommended_domain_count ()));
        ("sim_transfer", Obs.Json.List sim_rows);
        ("mc_kernels", Obs.Json.List mc_rows);
        ("mc_parallel", Obs.Json.List (mc_parallel_rows jobs));
        ("batched_io", Obs.Json.List (batched_io_rows ()));
        ("serve_concurrency", Obs.Json.List serve_rows);
        ("engine_health", engine_health);
        ("dst", Obs.Json.List (dst_rows ()));
        ("ring_stripe", Obs.Json.List (ring_stripe_rows ()));
        ("adaptive_blast", adaptive_blast_rows ());
        ( "rx_alloc",
          Obs.Json.Obj
            [
              ("iters", Obs.Json.Int rx_alloc_iters);
              ("fresh_bytes_per_recv", Obs.Json.Float fresh_alloc);
              ("reused_bytes_per_recv", Obs.Json.Float reused_alloc);
            ] );
      ]
  in
  let oc = open_out bench_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Obs.Json.to_string json));
  Printf.printf "wrote %s\n%!" bench_json_path;
  List.iter (Printf.eprintf "%s\n%!") (List.rev !gate_failures);
  if !gate_failures <> [] then exit 1

let run_bechamel () =
  print_endline "\n=== Bechamel micro-benchmarks (ns/run, OLS estimate) ===";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let result = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let estimate =
            match Analyze.OLS.estimates result with
            | Some (est :: _) -> est
            | Some [] | None -> nan
          in
          let r2 = Option.value ~default:nan (Analyze.OLS.r_square result) in
          Printf.printf "%-32s %12.0f ns/run  (r2=%.3f)\n%!" (Test.Elt.name elt) estimate r2)
        (Test.elements test))
    tests

(* Pull a "--jobs N" (or "-j N") pair out of the raw argument list before
   the experiment-name filter runs: the numeric value would otherwise be
   mistaken for an experiment name. *)
let extract_jobs args =
  let rec go acc = function
    | [] -> (None, List.rev acc)
    | ("--jobs" | "-j") :: value :: rest -> begin
        match int_of_string_opt value with
        | Some j when j > 0 -> (Some j, List.rev_append acc rest)
        | _ ->
            Printf.eprintf "bench: --jobs expects a positive integer, got %S\n" value;
            exit 2
      end
    | ("--jobs" | "-j") :: [] ->
        Printf.eprintf "bench: --jobs expects a value\n";
        exit 2
    | a :: rest -> go (a :: acc) rest
  in
  go [] args

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs_opt, args = extract_jobs args in
  let jobs = match jobs_opt with Some j -> j | None -> Exec.Pool.default_jobs () in
  let list_only = List.mem "--list" args in
  let no_bechamel = List.mem "--no-bechamel" args in
  let selected = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  if list_only then List.iter (fun (name, _) -> print_endline name) Experiments.all
  else begin
    let to_run =
      if selected = [] then Experiments.all
      else
        List.map
          (fun name ->
            match List.assoc_opt name Experiments.all with
            | Some f -> (name, f)
            | None ->
                Printf.eprintf "unknown experiment %S (try --list)\n" name;
                exit 2)
          selected
    in
    Printf.printf "bench: jobs=%d (parallel Monte-Carlo timings)\n%!" jobs;
    let ppf = Format.std_formatter in
    List.iter (fun (_, f) -> f ppf) to_run;
    Format.pp_print_flush ppf ();
    write_bench_json ~jobs ();
    if not no_bechamel then run_bechamel ()
  end
