(* lanrepro benchmark: one workload, one seed, a fixed measuring time.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints the run's stamp, a human-readable metric listing (and with
   --trace 1 the per-layer cost table), and as its last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
   output failed its check, 2 on bad arguments. *)

let workloads = [ "udp_blast_64k"; "udp_lossy_64k"; "dst_chaos" ]

let end_to_end =
  [
    ("goodput_mbit_s", "Mbit/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("latency_p99_ms", "ms");
    ("cpu_ms_per_op", "ms");
    ("verified_ratio", "ratio");
    ("setup_s", "s");
    ("peak_rss_mib", "MiB");
  ]

(* Every workload prints every per-layer metric; one a workload does not
   exercise reads 0. *)
let per_layer =
  [
    ("sockets.datagrams_per_flush", "count");
    ("sockets.flush_us_per_op", "us");
    ("sockets.poll_us_per_op", "us");
    ("sockets.recv_wait_us_per_op", "us");
    ("sockets.transport_setup_us_per_op", "us");
    ("sockets.sender_alloc_kib_per_op", "KiB");
    ("sockets.handshake_us_p50", "us");
    ("sockets.blast_us_p50", "us");
    ("sockets.send_failures_per_op", "count");
    ("packet.encode_ns_per_datagram", "ns");
    ("packet.decode_ns_per_datagram", "ns");
    ("packet.crc32_ns_per_kib", "ns");
    ("packet.est_us_per_op", "us");
    ("protocol.retransmit_ratio", "ratio");
    ("protocol.timeouts_per_op", "count");
    ("protocol.rounds_per_op", "count");
    ("protocol.nacks_per_op", "count");
    ("protocol.duplicates_per_op", "count");
    ("faults.injected_per_op", "count");
    ("faults.netem_ns_per_datagram", "ns");
    ("server.tick_us_p50", "us");
    ("server.tick_us_p99", "us");
    ("server.ticks_per_op", "count");
    ("server.recv_drained_p50", "count");
    ("server.flush_train_p50", "count");
    ("server.spurious_wakeups_per_op", "count");
    ("server.timer_heap_depth_p99", "count");
    ("server.rejected", "count");
    ("server.handshake_us_p50", "us");
    ("server.blast_us_p50", "us");
    ("server.linger_ms_p50", "ms");
    ("server.engine_alloc_kib_per_op", "KiB");
    ("runtime.minor_collections_per_op", "count");
    ("runtime.major_collections_per_op", "count");
    ("runtime.alloc_kib_per_op", "KiB");
    ("dst.events_per_op", "count");
    ("dst.completed_ratio", "ratio");
    ("dst.virtual_s_per_wall_s", "ratio");
    ("dst.journal_kib_per_op", "KiB");
    ("obs.tracing_overhead_ratio", "ratio");
    ("cost.unattributed_share", "ratio");
  ]

(* The measured metrics in declaration order, absent ones as 0. A
   measured name or unit the declaration lacks is a benchmark bug. *)
let complete declared measured =
  List.iter
    (fun (x : Report.metric) ->
      if not (List.mem (x.Report.name, x.Report.unit) declared) then
        failwith (Printf.sprintf "undeclared metric %s [%s]" x.Report.name x.Report.unit))
    measured;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (x : Report.metric) -> x.Report.name = name) measured with
      | Some x -> x
      | None -> Report.m name unit 0.0)
    declared

let usage () =
  prerr_endline
    ("usage: bench.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun _ -> usage ()) "bench.exe"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  if (not (List.mem !workload workloads)) || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then usage ();
  let workload = !workload and seed = !seed and trace = !trace = 1 in
  let seconds_f = float_of_int !seconds in
  let tuning, extra =
    if workload = "dst_chaos" then
      let cfg = Dst.Harness.default_config ~seed:0 in
      ( cfg.Dst.Harness.tuning,
        Printf.sprintf "dst=default_config seeds=%d..%d from=%d jobs=1" Dst_load.first_seed
          (Dst_load.first_seed + Dst_load.list_length - 1)
          (Dst_load.seeds ~seed).(0) )
    else
      ( Udp_load.tuning,
        Printf.sprintf "bytes=%d packet_bytes=%d suite=gbn max_flows=%d scenario=%s"
          Udp_load.transfer_bytes Udp_load.packet_bytes Udp_load.max_flows
          (if workload = "udp_lossy_64k" then "lossy2" else "clean") )
  in
  Report.stamp ~workload ~seed ~seconds:!seconds ~trace ~tuning ~extra;
  let (attempted, failed, problems), measured =
    match workload with
    | "udp_blast_64k" -> Udp_load.run ~workload ~lossy:false ~seed ~seconds:seconds_f ~trace
    | "udp_lossy_64k" -> Udp_load.run ~workload ~lossy:true ~seed ~seconds:seconds_f ~trace
    | _ -> Dst_load.run ~workload ~seed ~seconds:seconds_f ~trace
  in
  let metrics = complete (if trace then per_layer else end_to_end) measured in
  Report.print_metrics metrics;
  List.iteri (fun i p -> if i < 20 then prerr_endline ("CHECK FAILED: " ^ p)) problems;
  if List.length problems > 20 then
    Printf.eprintf "CHECK FAILED: ... and %d more\n" (List.length problems - 20);
  let correct = failed = 0 && problems = [] && attempted > 0 in
  print_endline (Report.result_line { Report.correct; attempted; failed; metrics });
  if not correct then exit 1
