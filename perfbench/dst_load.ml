(* The deterministic-simulation workload: [Dst.Harness.run] with
   [default_config] over a seed list, one trial at a time on one thread —
   the whole stack under virtual time, no kernel, no wakeups. *)

let list_length = 64
let first_seed = 1_000
let setups = 15

(* A fixed list of trial seeds, so every run does the same work; the run's
   seed only picks where in the cycle it starts. *)
let seeds ~seed =
  let start = ((seed mod list_length) + list_length) mod list_length in
  Array.init list_length (fun i -> first_seed + ((start + i) mod list_length))

(* What the benchmark reads from a trial's journal ("[<ns>] <body>" lines):
   the payload bytes of server-side verified deliveries, and when traced
   also the wire's delivered-datagram count and the bytes senders started. *)
type scan = { verified_bytes : int; datagrams : int; started_bytes : int }

let scan ~trace journal =
  let verified = ref 0 and datagrams = ref 0 and started = ref 0 in
  let add r v = r := !r + v in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | None -> ()
      | Some i -> (
          let body = String.sub line (i + 1) (String.length line - i - 1) in
          let after_label =
            match String.index_opt body ' ' with
            | Some j -> String.sub body (j + 1) (String.length body - j - 1)
            | None -> ""
          in
          try
            if String.starts_with ~prefix:"server settle " body then
              Scanf.sscanf body "server settle peer=%_d id=%_d outcome=success bytes=%d"
                (add verified)
            else if trace && String.starts_with ~prefix:"net delivered=" body then
              Scanf.sscanf body "net delivered=%d" (add datagrams)
            else if trace && String.starts_with ~prefix:"start id=" after_label then
              Scanf.sscanf after_label "start id=%_d bytes=%d" (add started)
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()))
    (String.split_on_char '\n' journal);
  { verified_bytes = !verified; datagrams = !datagrams; started_bytes = !started }

(* What the benchmark keeps of a trial; the journal itself is dropped so
   the run's memory is the program's, not the benchmark's. *)
type op = {
  seed : int;
  violations : string list;
  attempted : int;
  completed : int;
  virtual_ns : int;
  events : int;
  journal_bytes : int;
  wall_ns : int;
  scan : scan;
}

let trial ~trace seed =
  let t0 = Common.now_ns () in
  let t = Dst.Harness.run (Dst.Harness.default_config ~seed) in
  let wall_ns = Common.now_ns () - t0 in
  {
    seed;
    violations = t.Dst.Harness.violations;
    attempted = t.Dst.Harness.attempted;
    completed = t.Dst.Harness.completed;
    virtual_ns = t.Dst.Harness.virtual_ns;
    events = t.Dst.Harness.events;
    journal_bytes = String.length t.Dst.Harness.journal;
    wall_ns;
    scan = scan ~trace t.Dst.Harness.journal;
  }

type phase = {
  ops : op array;
  window_s : float;
  cpu_s : float;
  marks : Common.mark array;  (** one before the first trial, one per pass *)
  gc0 : Common.gc;
  gc1 : Common.gc;
}

(* Trials in list order, cycling, for [seconds]; a block is one whole pass
   over the list, so every block does the same work. *)
let measure ~trace ~list ~seconds =
  let ops = ref [] in
  let gc0 = Common.gc () in
  let m0 = Common.mark () in
  let marks = ref [ m0 ] in
  let deadline = m0.Common.ns + int_of_float (seconds *. 1e9) in
  let i = ref 0 in
  while Common.now_ns () < deadline do
    ops := trial ~trace list.(!i mod list_length) :: !ops;
    incr i;
    if !i mod list_length = 0 then marks := Common.mark () :: !marks
  done;
  let t1 = Common.now_ns () in
  let gc1 = Common.gc () in
  let cpu1 = Common.cpu_s () in
  {
    ops = Array.of_list (List.rev !ops);
    window_s = float_of_int (t1 - m0.Common.ns) /. 1e9;
    cpu_s = cpu1 -. m0.Common.cpu;
    marks = Array.of_list (List.rev !marks);
    gc0;
    gc1;
  }

let n_ops p = float_of_int (max 1 (Array.length p.ops))
let sum f p = Array.fold_left (fun acc o -> acc + f o) 0 p.ops
let clean o = o.violations = []

let goodput p =
  float_of_int (sum (fun o -> o.scan.verified_bytes) p * 8) /. p.window_s /. 1e6

(* Pass medians of goodput and CPU per trial; whole-window figures when the
   run was too short for one pass. *)
let rates p =
  if Array.length p.marks < 2 then (goodput p, p.cpu_s *. 1e3 /. n_ops p)
  else
    Common.block_rates p.marks ~block:list_length ~bits:(fun i ->
        float_of_int (p.ops.(i).scan.verified_bytes * 8))

let problems p =
  Array.to_list p.ops
  |> List.filter (fun o -> not (clean o))
  |> List.map (fun o ->
         Printf.sprintf "dst seed %d: %s" o.seed (String.concat "; " o.violations))

(* Set-up: one trial of the list's first seed, which also warms the
   allocator and code paths; the median of [setups] repetitions. *)
let set_up () =
  let times =
    Array.init setups (fun _ ->
        let t0 = Common.now_ns () in
        let cfg = Dst.Harness.default_config ~seed:first_seed in
        ignore (Dst.Harness.run cfg : Dst.Harness.trial);
        float_of_int (Common.now_ns () - t0) /. 1e9)
  in
  Common.median times

(* Per-seed median trial times in ms. Every seed of the list runs about a
   dozen times in a run, so one sample per seed makes the latency tail the
   workload's slowest seeds, not the host's hiccups. *)
let seed_latencies p =
  let by_seed = Hashtbl.create list_length in
  Array.iter
    (fun o ->
      let prev = Option.value (Hashtbl.find_opt by_seed o.seed) ~default:[] in
      Hashtbl.replace by_seed o.seed ((float_of_int o.wall_ns /. 1e6) :: prev))
    p.ops;
  Hashtbl.to_seq_values by_seed
  |> Seq.map (fun l -> Common.median (Array.of_list l))
  |> Array.of_seq

let end_to_end p ~setup_s =
  let lat = seed_latencies p in
  let goodput, cpu_ms = rates p in
  let open Report in
  [
    m "goodput_mbit_s" "Mbit/s" goodput;
    m "latency_p50_ms" "ms" (Common.quantile lat 0.5);
    m "latency_p90_ms" "ms" (Common.quantile lat 0.9);
    m "latency_p99_ms" "ms" (Common.quantile lat 0.99);
    m "cpu_ms_per_op" "ms" cpu_ms;
    m "verified_ratio" "ratio"
      (float_of_int (sum (fun o -> Bool.to_int (clean o)) p) /. n_ops p);
    m "setup_s" "s" setup_s;
    m "peak_rss_mib" "MiB" (Common.peak_rss_mib ());
  ]

(* Representative datagrams for the unit costs: DST does not expose its
   wire, so the packet layer is timed on data packets of the config's
   packet size and on the acks that answer them. *)
let sample_datagrams () =
  let cfg = Dst.Harness.default_config ~seed:0 in
  let rng = Stats.Rng.create ~seed:1 in
  let data =
    List.init 64 (fun seq ->
        Packet.Codec.encode
          (Packet.Message.data ~transfer_id:1 ~seq ~total:64
             ~payload:(Common.payload rng cfg.Dst.Harness.packet_bytes)))
  in
  let acks =
    List.init 8 (fun seq ->
        Packet.Codec.encode (Packet.Message.ack ~transfer_id:1 ~seq ~total:64))
  in
  data @ acks

let per_layer ~workload ~untraced p =
  let ops = n_ops p in
  let samples = sample_datagrams () in
  let enc = Udp_load.encode_ns samples and dec = Udp_load.decode_ns samples in
  let crc_kib = Udp_load.crc32_ns_per_kib () in
  let netem = Udp_load.netem_ns Faults.Scenario.chaos samples in
  let datagrams = float_of_int (sum (fun o -> o.scan.datagrams) p) /. ops in
  let kib = float_of_int (sum (fun o -> o.scan.started_bytes) p) /. 1024.0 /. ops in
  let encode_us = enc *. datagrams /. 1e3 and decode_us = dec *. datagrams /. 1e3 in
  let crc_us = 2.0 *. crc_kib *. kib /. 1e3 in
  let netem_us = netem *. datagrams /. 1e3 in
  let cpu_ms = p.cpu_s *. 1e3 /. ops in
  let unattributed =
    Report.cost_table ~workload ~cpu_ms_per_op:cpu_ms
      [
        ("packet.encode", encode_us /. 1e3);
        ("packet.decode", decode_us /. 1e3);
        ("packet.crc32 (whole segment)", crc_us /. 1e3);
        ("faults.netem", netem_us /. 1e3);
      ]
      ~waits:[]
  in
  let tr f = float_of_int (sum f p) in
  let wall_s = float_of_int (sum (fun o -> o.wall_ns) p) /. 1e9 in
  let open Report in
  [
    m "packet.encode_ns_per_datagram" "ns" enc;
    m "packet.decode_ns_per_datagram" "ns" dec;
    m "packet.crc32_ns_per_kib" "ns" crc_kib;
    m "packet.est_us_per_op" "us" (encode_us +. decode_us +. crc_us);
    m "faults.netem_ns_per_datagram" "ns" netem;
    m "runtime.minor_collections_per_op" "count"
      (float_of_int (p.gc1.Common.minor - p.gc0.Common.minor) /. ops);
    m "runtime.major_collections_per_op" "count"
      (float_of_int (p.gc1.Common.major - p.gc0.Common.major) /. ops);
    m "runtime.alloc_kib_per_op" "KiB"
      ((p.gc1.Common.alloc_bytes -. p.gc0.Common.alloc_bytes) /. ops /. 1024.0);
    m "dst.events_per_op" "count" (tr (fun o -> o.events) /. ops);
    m "dst.completed_ratio" "ratio"
      (tr (fun o -> o.completed) /. tr (fun o -> o.attempted));
    m "dst.virtual_s_per_wall_s" "ratio" (tr (fun o -> o.virtual_ns) /. 1e9 /. wall_s);
    m "dst.journal_kib_per_op" "KiB" (tr (fun o -> o.journal_bytes) /. 1024.0 /. ops);
    m "obs.tracing_overhead_ratio" "ratio" (fst (rates p) /. fst (rates untraced));
    m "cost.unattributed_share" "ratio" unattributed;
  ]

let tally p =
  let failed = Array.fold_left (fun n o -> if clean o then n else n + 1) 0 p.ops in
  (Array.length p.ops, failed, problems p)

let run ~workload ~seed ~seconds ~trace =
  let list = seeds ~seed in
  let setup_s = set_up () in
  let p = measure ~trace:false ~list ~seconds in
  if not trace then (tally p, end_to_end p ~setup_s)
  else begin
    let traced = measure ~trace:true ~list ~seconds in
    let (a, f, pr), (a', f', pr') = (tally p, tally traced) in
    ((a + a', f + f', pr @ pr'), per_layer ~workload ~untraced:p traced)
  end
