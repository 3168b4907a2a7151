let log = Logs.Src.create "server.swarm" ~doc:"concurrent-sender load generator"

module Log = (val Logs.src_log log : Logs.LOG)

type sender_report = {
  index : int;
  outcome : Protocol.Action.outcome;
  elapsed_ns : int;
  bytes : int;
}

type report = {
  flows : int;
  jobs : int;
  shards : int;
  bytes_per_flow : int;
  completed : int;
  rejected : int;
  failed : int;
  elapsed_ns : int;
  aggregate_mbit_s : float;
  latency_ms : Obs.Hist.t;
  senders : sender_report list;
  completions : Engine.completion_event list;
      (** server-side view of every settled flow, in settlement order *)
  server : Engine.totals;
  rollup : Protocol.Counters.t;
  engine_snapshot : Obs.Json.t;
  invariants : string list;
  violations : string list;
}

let server_verified report =
  List.length
    (List.filter
       (fun (e : Engine.completion_event) ->
         e.Engine.completion.Sockets.Flow.integrity = Sockets.Flow.Verified)
       report.completions)

let pp_report ppf r =
  let lat = Obs.Hist.snapshot r.latency_ms in
  Format.fprintf ppf
    "%d flows over %d jobs to %d shard%s: %d completed, %d rejected, %d failed in %.1f ms \
     (%.2f Mbit/s aggregate; latency p50 %.2f / p90 %.2f / p99 %.2f / max %.2f ms); server: %a"
    r.flows r.jobs r.shards
    (if r.shards = 1 then "" else "s")
    r.completed r.rejected r.failed
    (float_of_int r.elapsed_ns /. 1e6)
    r.aggregate_mbit_s lat.Obs.Hist.p50 lat.Obs.Hist.p90 lat.Obs.Hist.p99
    lat.Obs.Hist.max Engine.pp_totals r.server

let run ?max_flows ?jobs ?(bytes = 64 * 1024) ?(packet_bytes = 1024)
    ?(tuning = Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ()) ?idle_timeout_ns
    ?(suite = Protocol.Suite.Blast Protocol.Blast.Go_back_n) ?scenario ?server_scenario
    ?(seed = 42) ?ctx ?flowtrace ?admin_port ?stats_interval_ns ?on_snapshot
    ?(shards = 1) ~flows () =
  if flows <= 0 then invalid_arg "Swarm.run: flows must be positive";
  if bytes <= 0 then invalid_arg "Swarm.run: bytes must be positive";
  if shards <= 0 then invalid_arg "Swarm.run: shards must be positive";
  let ctx = match ctx with Some c -> c | None -> Sockets.Io_ctx.default () in
  (* One tuning for the whole swarm: the engines read it from their context,
     the senders from theirs. *)
  let ctx = { ctx with Sockets.Io_ctx.tuning } in
  let metrics = ctx.Sockets.Io_ctx.metrics in
  let ledger = Ledger.create () in
  let completions = ref [] in
  let on_complete (event : Engine.completion_event) =
    completions := event :: !completions;
    ignore
      (Ledger.served ledger ~peer:event.Engine.peer event.Engine.completion : string option)
  in
  (* The server side gets its own domain(s): the pool below keeps every
     other domain (including this one) busy running senders, and the server
     must keep ticking its timers while they all blast at it. Past one
     shard the group's REUSEPORT hash spreads the senders' flows across
     its engines. *)
  let group =
    Group.create ?max_flows ?idle_timeout_ns ?scenario:server_scenario ~seed:(seed + 1)
      ~ctx ~on_complete ?flowtrace ?admin_port ?stats_interval_ns ?on_snapshot
      ~binding:Group.Shared_port ~members:shards ()
  in
  Group.start group;
  let server_address = Group.address group 0 in
  let jobs = match jobs with Some j -> j | None -> flows in
  (* Each sender's payload, its CRC for the ledger and its fault pipeline,
     made before the clock starts: reproducible from (seed, index) alone,
     byte-varied so misdelivery between flows cannot go unnoticed by the
     CRC. Each sender shares the swarm's telemetry context but owns its
     fault pipeline; the server side never sees ctx.faults (per-flow
     scenario seeding covers it). *)
  let prepared =
    List.init flows (fun index ->
        let rng = Stats.Rng.derive ~root:seed ~index in
        let data = Stats.Rng.string rng bytes in
        let faults =
          match scenario with
          | Some sc when not (Faults.Scenario.is_clean sc) ->
              Some
                (Faults.Netem.create
                   ~seed:(Int64.to_int (Stats.Rng.bits64 rng) land max_int)
                   sc)
          | _ -> None
        in
        let crc = Packet.Checksum.crc32_string data in
        (index, data, crc, { ctx with Sockets.Io_ctx.faults }))
  in
  let one (index, data, crc, sender_ctx) =
    let sender_socket, sender_address = Sockets.Udp.create_socket () in
    Fun.protect
      ~finally:(fun () -> Sockets.Udp.close sender_socket)
      (fun () ->
        let transfer_id = index + 1 in
        let result =
          Sockets.Peer.send ~ctx:sender_ctx ~transfer_id ~packet_bytes ?idle_timeout_ns
            ~socket:sender_socket ~peer:server_address ~suite ~data ()
        in
        ignore
          (Ledger.sent ledger ~peer:sender_address ~transfer_id ~crc
             ~max_attempts:(Protocol.Tuning.max_attempts tuning)
             ~packets:((bytes + packet_bytes - 1) / packet_bytes)
             result
            : string option);
        {
          index;
          outcome = result.Sockets.Peer.outcome;
          elapsed_ns = result.Sockets.Peer.elapsed_ns;
          bytes;
        })
  in
  (* Elapsed time from the context clock — the same source every timeout in
     the run uses, and the hook a virtual-time harness overrides. *)
  let clock = ctx.Sockets.Io_ctx.clock in
  let started = clock () in
  let senders = Exec.Pool.map ~jobs ~f:one prepared in
  let elapsed_ns = clock () - started in
  (* Read the server side only after its domains exited: snapshot and the
     invariant check walk live flow tables. A violated invariant also dumps
     the flight ring from inside [invariant_violations]. *)
  Group.stop group;
  Group.join group;
  let engine_snapshot = Group.snapshot group in
  let invariants = Group.invariant_violations group in
  let violations = Ledger.violations ledger in
  let count outcome =
    List.length (List.filter (fun s -> s.outcome = outcome) senders)
  in
  let completed = count Protocol.Action.Success in
  let rejected = count Protocol.Action.Rejected in
  let failed = flows - completed - rejected in
  (* Millisecond latencies: 1 µs … 1000 s at ~24 buckets per decade. *)
  let latency_ms = Obs.Hist.create ~lo:1e-3 ~hi:1e6 ~bins:216 () in
  List.iter
    (fun s ->
      if s.outcome = Protocol.Action.Success then
        Obs.Hist.add latency_ms (float_of_int s.elapsed_ns /. 1e6))
    senders;
  let aggregate_mbit_s =
    if elapsed_ns <= 0 then 0.0
    else float_of_int (completed * bytes * 8) /. (float_of_int elapsed_ns /. 1e9) /. 1e6
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let labels = [ ("side", "swarm") ] in
      Obs.Metrics.set_gauge (Obs.Metrics.gauge m ~labels "aggregate_mbit_s") aggregate_mbit_s;
      Obs.Metrics.set_gauge
        (Obs.Metrics.gauge m ~labels "completed")
        (float_of_int completed);
      let lat = Obs.Hist.snapshot latency_ms in
      if lat.Obs.Hist.count > 0 then begin
        Obs.Metrics.set_gauge (Obs.Metrics.gauge m ~labels "latency_ms_p50") lat.Obs.Hist.p50;
        Obs.Metrics.set_gauge (Obs.Metrics.gauge m ~labels "latency_ms_p99") lat.Obs.Hist.p99
      end);
  let report =
    {
      flows;
      jobs = Stdlib.min 64 (Stdlib.max 1 jobs);
      shards;
      bytes_per_flow = bytes;
      completed;
      rejected;
      failed;
      elapsed_ns;
      aggregate_mbit_s;
      latency_ms;
      senders;
      completions = List.rev !completions;
      server = Group.totals group;
      rollup = Group.rollup group;
      engine_snapshot;
      invariants;
      violations;
    }
  in
  if invariants <> [] then
    Log.warn (fun f ->
        f "engine invariants violated: %s" (String.concat "; " invariants));
  if violations <> [] then
    Log.warn (fun f -> f "delivery oracle breached: %s" (String.concat "; " violations));
  Log.info (fun f -> f "%a" pp_report report);
  report
