(* The real-UDP workloads: one closed-loop sender thread pushing 64 KiB
   go-back-N blasts at one [Server.Engine] on its own domain, over
   loopback, with [Protocol.Tuning.wire_default] and the CLI's batching
   default. [lossy] adds seeded [Faults.Scenario.lossy2] at both ends. *)

let transfer_bytes = 64 * 1024
let packet_bytes = 1024
let pool = 16
let warmup = 16
let setups = 7
let block = 256
let suite = Protocol.Suite.Blast Protocol.Blast.Go_back_n
let tuning = Protocol.Tuning.wire_default

(* Admission headroom. A settled flow lingers 3 x 50 ms for its sender's
   duplicate terminators, so a closed-loop client doing R transfers/s keeps
   about 0.15 R flows in the table; at the engine's default cap of 64 a
   client doing 1 ms transfers is refused about half the time. 2^20 stays
   clear of that up to millions of transfers per second. *)
let max_flows = 1 lsl 20

(* Fault coins do not depend on the run's seed: transfer [k] meets the same
   sender-side drops, and flow [k] the same engine-side drops, in every
   run, so two runs do the same work and their spread is the host's. The
   seed picks the payload bytes.

   Under lossy2's iid 2% drop about one transfer in ten needs a retransmit
   timeout (~52 ms against ~2.5 ms for none) and one in a hundred needs
   two (~102 ms), so for many roots p90 or p99 sits on the edge between two
   modes and flips between them from run to run. With this root 11.6% of
   the first 3650 transfers need a timeout and 0.8% two, so both p90 and
   p99 lie well inside the one-timeout mode. *)
let fault_root = 3

(* The engine's verdict per transfer id: [unsettled], [good] (settled
   [Success], [Verified] and byte-equal to what was sent) or [bad]. Bytes,
   not a table, so a long run adds nothing for the GC to scan. Written by
   the engine domain, read after the join. *)
type verdicts = { mutable codes : Bytes.t }

let unsettled = '\000'
let good = '\001'
let bad = '\002'

let record v id code =
  let len = Bytes.length v.codes in
  if id >= len then begin
    let codes = Bytes.make (max (2 * len) (id + 1)) unsettled in
    Bytes.blit v.codes 0 codes 0 len;
    v.codes <- codes
  end;
  Bytes.set v.codes id code

let verdict v id = if id < Bytes.length v.codes then Bytes.get v.codes id else unsettled

type server = {
  socket : Unix.file_descr;
  poller : Sockets.Poller.t;
  engine : Server.Engine.t;
  domain : float Domain.t;  (** bytes the engine domain allocated while serving *)
  address : Unix.sockaddr;
  verdicts : verdicts;
}

let start_server ~lossy ~payloads ?tap ?flowtrace () =
  let socket, address = Sockets.Udp.create_socket () in
  let poller = Sockets.Poller.create () in
  let transport = Sockets.Transport.udp ~poller ~socket () in
  let transport = match tap with Some t -> Tap.wrap t transport | None -> transport in
  let verdicts = { codes = Bytes.make 4096 unsettled } in
  let on_complete (e : Server.Engine.completion_event) =
    let c = e.Server.Engine.completion in
    let id = c.Sockets.Flow.transfer_id in
    record verdicts id
      (if
         c.Sockets.Flow.outcome = Protocol.Action.Success
         && c.Sockets.Flow.integrity = Sockets.Flow.Verified
         && String.equal c.Sockets.Flow.data payloads.(id mod pool)
       then good
       else bad)
  in
  let scenario = if lossy then Some Faults.Scenario.lossy2 else None in
  let engine =
    Server.Engine.create ~max_flows ?scenario ~seed:fault_root
      ~ctx:(Sockets.Io_ctx.make ~tuning ()) ~on_complete ?flowtrace ~transport ()
  in
  let domain =
    Domain.spawn (fun () ->
        let a0 = Gc.allocated_bytes () in
        Server.Engine.run engine;
        Gc.allocated_bytes () -. a0)
  in
  { socket; poller; engine; domain; address; verdicts }

type served = {
  engine_alloc_bytes : float;
  totals : Server.Engine.totals;
  health : Server.Engine.health;
  rollup : Protocol.Counters.t;
  invariants : string list;
}

let stop_server s =
  Server.Engine.stop s.engine;
  let engine_alloc_bytes = Domain.join s.domain in
  let served =
    {
      engine_alloc_bytes;
      totals = Server.Engine.totals s.engine;
      health = Server.Engine.health s.engine;
      rollup = Server.Engine.rollup s.engine;
      invariants = Server.Engine.invariant_violations s.engine;
    }
  in
  Sockets.Poller.close s.poller;
  Sockets.Udp.close s.socket;
  served

type sender = {
  lossy : bool;
  sock : Unix.file_descr;
  peer : Unix.sockaddr;
  payloads : string array;
  mutable next_id : int;
}

type op = {
  id : int;
  outcome : Protocol.Action.outcome;
  start_ns : int;
  wall_ns : int;  (** around the whole send, handshake included *)
  elapsed_ns : int;  (** the sender's own handshake-to-completion time *)
  setup_ns : int;  (** building the transport (traced runs only) *)
  counters : Protocol.Counters.t;
}

(* One transfer. Untraced it is exactly [Peer.send]; traced it builds the
   transport the way [Peer.send] does, times that, and hands a tapped copy
   to [Peer.send_via]. *)
let transfer ?tap st =
  let id = st.next_id in
  st.next_id <- id + 1;
  let data = st.payloads.(id mod pool) in
  let faults =
    if st.lossy then
      let rng = Stats.Rng.derive ~root:fault_root ~index:id in
      Some
        (Faults.Netem.create
           ~seed:(Int64.to_int (Stats.Rng.bits64 rng) land max_int)
           Faults.Scenario.lossy2)
    else None
  in
  let ctx = { (Sockets.Io_ctx.make ~tuning ()) with Sockets.Io_ctx.faults } in
  let start_ns = Common.now_ns () in
  let r, setup_ns =
    match tap with
    | None ->
        ( Sockets.Peer.send ~ctx ~transfer_id:id ~packet_bytes ~socket:st.sock ~peer:st.peer
            ~suite ~data (),
          0 )
    | Some tap ->
        let batch = ctx.Sockets.Io_ctx.batch in
        let transport = Sockets.Transport.udp ~batch ~socket:st.sock () in
        let setup_ns = Common.now_ns () - start_ns in
        ( Sockets.Peer.send_via ~ctx ~transfer_id:id ~packet_bytes
            ~transport:(Tap.wrap tap transport) ~peer:st.peer ~suite ~data (),
          setup_ns )
  in
  {
    id;
    outcome = r.Sockets.Peer.outcome;
    start_ns;
    wall_ns = Common.now_ns () - start_ns;
    elapsed_ns = r.Sockets.Peer.elapsed_ns;
    setup_ns;
    counters = r.Sockets.Peer.counters;
  }

type live = { server : server; st : sender }

(* Set-up: seeded payloads, the engine and its domain, the client socket,
   and warm-up transfers that are never measured. *)
let set_up ~lossy ~seed ?tap ?flowtrace () =
  let t0 = Common.now_ns () in
  let payloads =
    Array.init pool (fun i ->
        Common.payload (Stats.Rng.derive ~root:seed ~index:i) transfer_bytes)
  in
  let server = start_server ~lossy ~payloads ?tap ?flowtrace () in
  let sock, _ = Sockets.Udp.create_socket () in
  let st = { lossy; sock; peer = server.address; payloads; next_id = 1 } in
  for _ = 1 to warmup do
    ignore (transfer st : op)
  done;
  ({ server; st }, float_of_int (Common.now_ns () - t0) /. 1e9)

(* A measured phase. Op [i] is transfer [first_id + i]; per-op figures are
   kept in columns, per-run sums as such. *)
type phase = {
  first_id : int;
  wall_ns : float array;  (** around the whole send, handshake included *)
  elapsed_ns : float array;  (** the sender's own handshake-to-completion time *)
  done_ns : float array;  (** the instant the sender returned *)
  setup_ns : int;  (** summed transport set-up (traced runs only) *)
  counters : Protocol.Counters.t;  (** summed sender counters *)
  window_s : float;
  cpu_s : float;
  marks : Common.mark array;  (** one before the first op, one per [block] ops *)
  gc0 : Common.gc;
  gc1 : Common.gc;
  served : served;
  verified : bool array;
  problems : string list;  (** anything that makes the run incorrect *)
}

(* Closed loop for [seconds], then the engine is stopped and every sender
   success is matched to the engine's verdict for the same transfer id. *)
let measure ?tap live ~seconds =
  let first_id = live.st.next_id in
  let wall = Common.column () and elapsed = Common.column () in
  let finished = Common.column () in
  let counters = Protocol.Counters.create () and setup_ns = ref 0 in
  let failed = Hashtbl.create 16 in
  let gc0 = Common.gc () in
  let m0 = Common.mark () in
  let marks = ref [ m0 ] in
  let deadline = m0.Common.ns + int_of_float (seconds *. 1e9) in
  while Common.now_ns () < deadline do
    let o = transfer ?tap live.st in
    Common.push wall (float_of_int o.wall_ns);
    Common.push elapsed (float_of_int o.elapsed_ns);
    Common.push finished (float_of_int (o.start_ns + o.wall_ns));
    Protocol.Counters.merge ~into:counters o.counters;
    setup_ns := !setup_ns + o.setup_ns;
    if o.outcome <> Protocol.Action.Success then Hashtbl.replace failed o.id o.outcome;
    if wall.Common.len mod block = 0 then marks := Common.mark () :: !marks
  done;
  let t1 = Common.now_ns () in
  let gc1 = Common.gc () in
  let cpu1 = Common.cpu_s () in
  let served = stop_server live.server in
  Sockets.Udp.close live.st.sock;
  let verified =
    Array.init wall.Common.len (fun i ->
        let id = first_id + i in
        (not (Hashtbl.mem failed id)) && verdict live.server.verdicts id = good)
  in
  let describe i =
    let id = first_id + i in
    let sender =
      match Hashtbl.find_opt failed id with
      | Some o -> Format.asprintf "%a" Protocol.Action.pp_outcome o
      | None -> "success"
    in
    let v = verdict live.server.verdicts id in
    Printf.sprintf "transfer %d: sender %s, engine %s" id sender
      (if v = good then "verified"
       else if v = bad then "settled without a verified, byte-equal delivery"
       else "never settled it")
  in
  let unverified =
    List.init (Array.length verified) Fun.id
    |> List.filter_map (fun i -> if verified.(i) then None else Some (describe i))
  in
  let rejected = served.totals.Server.Engine.rejected in
  let problems =
    unverified
    @ (if rejected > 0 then [ Printf.sprintf "engine refused %d REQs" rejected ] else [])
    @ List.map (fun v -> "engine invariant: " ^ v) served.invariants
  in
  {
    first_id;
    wall_ns = Common.values wall;
    elapsed_ns = Common.values elapsed;
    done_ns = Common.values finished;
    setup_ns = !setup_ns;
    counters;
    window_s = float_of_int (t1 - m0.Common.ns) /. 1e9;
    cpu_s = cpu1 -. m0.Common.cpu;
    marks = Array.of_list (List.rev !marks);
    gc0;
    gc1;
    served;
    verified;
    problems;
  }

let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a
let n_ops p = Array.length p.wall_ns
let per_op p x = x /. float_of_int (max 1 (n_ops p))
let verified_bytes p = count Fun.id p.verified * transfer_bytes

let goodput p = float_of_int (verified_bytes p * 8) /. p.window_s /. 1e6

(* Block medians of goodput and CPU per op; whole-window figures when the
   run was too short for a single block. *)
let rates p =
  if Array.length p.marks < 2 then (goodput p, per_op p (p.cpu_s *. 1e3))
  else
    Common.block_rates p.marks ~block ~bits:(fun i ->
        if p.verified.(i) then float_of_int (transfer_bytes * 8) else 0.0)

(* On the clean wire the latency tail is host hiccups, which segment
   medians shed. Under lossy2 it is the fixed fault pattern, which only the
   whole run samples: a 1000-op segment holds a handful of two-timeout
   transfers, too few to keep its p99 off the edge of that mode. *)
let end_to_end ~lossy p ~setup_s =
  let lat = Array.map (fun ns -> ns /. 1e6) p.wall_ns in
  let quantile = if lossy then Common.quantile lat else Common.segment_quantile lat in
  let goodput, cpu_ms = rates p in
  let open Report in
  [
    m "goodput_mbit_s" "Mbit/s" goodput;
    m "latency_p50_ms" "ms" (quantile 0.5);
    m "latency_p90_ms" "ms" (quantile 0.9);
    m "latency_p99_ms" "ms" (quantile 0.99);
    m "cpu_ms_per_op" "ms" cpu_ms;
    m "verified_ratio" "ratio" (per_op p (float_of_int (count Fun.id p.verified)));
    m "setup_s" "s" setup_s;
    m "peak_rss_mib" "MiB" (Common.peak_rss_mib ());
  ]

(* Flow lifecycle phases from the engine's flowtrace, joined to the
   sender's completion instant (one monotonic clock in one process): the
   handshake (admitted -> first data), the blast (first data -> sender
   done) and the linger (sender done -> terminal). *)
let lifecycle ft p =
  let id_of label =
    match String.index_opt label '#' with
    | None -> None
    | Some i -> (
        match String.index_from_opt label i '/' with
        | None -> None
        | Some j -> int_of_string_opt (String.sub label (i + 1) (j - i - 1)))
  in
  let admitted = Hashtbl.create 4096 and first = Hashtbl.create 4096 in
  let terminal = Hashtbl.create 4096 in
  List.iter
    (fun (r : Obs.Flowtrace.record) ->
      match id_of r.Obs.Flowtrace.flow with
      | None -> ()
      | Some id -> (
          let ts = r.Obs.Flowtrace.ts_ns in
          match r.Obs.Flowtrace.event with
          | Obs.Flowtrace.Admitted -> Hashtbl.replace admitted id ts
          | Obs.Flowtrace.First_data -> Hashtbl.replace first id ts
          | Obs.Flowtrace.Terminal _ -> Hashtbl.replace terminal id ts
          | Obs.Flowtrace.Round | Obs.Flowtrace.Verify -> ()))
    (Obs.Flowtrace.records ft);
  let collect f =
    Array.of_list
      (List.filter_map
         (fun i -> f (p.first_id + i) (int_of_float p.done_ns.(i)))
         (List.init (n_ops p) Fun.id))
  in
  let get tbl id = Hashtbl.find_opt tbl id in
  let hs =
    collect (fun id _ ->
        match (get admitted id, get first id) with
        | Some a, Some f -> Some (float_of_int (f - a) /. 1e3)
        | _ -> None)
  in
  let blast =
    collect (fun id done_ns ->
        Option.map (fun f -> float_of_int (done_ns - f) /. 1e3) (get first id))
  in
  let linger =
    collect (fun id done_ns ->
        Option.map (fun t -> float_of_int (t - done_ns) /. 1e6) (get terminal id))
  in
  (Common.median hs, Common.median blast, Common.median linger)

(* Unit costs of the packet and faults layers, micro-timed on datagrams
   the run itself sent. *)
let decode_all samples =
  List.filter_map
    (fun b -> match Packet.Codec.decode b with Ok m -> Some m | Error _ -> None)
    samples

let per_item_ns items f =
  let n = List.length items in
  if n = 0 then 0.0
  else Common.micro_ns ~reps:20 (fun () -> List.iter f items) /. float_of_int n

let encode_ns samples =
  per_item_ns (decode_all samples) (fun m -> ignore (Packet.Codec.encode m : bytes))

let decode_ns samples =
  per_item_ns samples (fun b ->
      ignore (Packet.Codec.decode b : (Packet.Message.t, Packet.Codec.error) result))

let crc32_ns_per_kib () =
  let data = String.make transfer_bytes 'x' in
  Common.micro_ns ~reps:200 (fun () -> ignore (Packet.Checksum.crc32_string data : int32))
  /. float_of_int (transfer_bytes / 1024)

let netem_ns scenario samples =
  let netem = Faults.Netem.create ~seed:7 scenario in
  per_item_ns samples (fun b ->
      ignore (Faults.Netem.tx_bytes netem b : Faults.Netem.emission list))

let per_layer ~workload ~lossy ~untraced (p : phase) ~(stap : Tap.t) ~(etap : Tap.t) ~ft =
  let ops = float_of_int (max 1 (n_ops p)) in
  (* Engine-side figures are cumulative over the traced engine's life, so
     they are per transfer it served, warm-up included. *)
  let served = float_of_int (max 1 (n_ops p + warmup)) in
  let per_s x = float_of_int x /. ops and per_e x = float_of_int x /. served in
  let sc = p.counters in
  let ec = p.served.rollup in
  let h = p.served.health in
  let hs_us, blast_us, linger_ms = lifecycle ft p in
  let handshake_us = Array.mapi (fun i w -> (w -. p.elapsed_ns.(i)) /. 1e3) p.wall_ns in
  let elapsed_us = Array.map (fun ns -> ns /. 1e3) p.elapsed_ns in
  let enc_s = encode_ns stap.Tap.samples and enc_e = encode_ns etap.Tap.samples in
  let dec_s = decode_ns stap.Tap.samples and dec_e = decode_ns etap.Tap.samples in
  let crc_kib = crc32_ns_per_kib () in
  let s_sends = per_s stap.Tap.sends and e_sends = per_e etap.Tap.sends in
  (* The engine decodes what the sender sent and vice versa. *)
  let s_rx = per_s stap.Tap.rx_datagrams and e_rx = per_e etap.Tap.rx_datagrams in
  let weighted a wa b wb =
    if wa +. wb > 0.0 then ((a *. wa) +. (b *. wb)) /. (wa +. wb) else 0.0
  in
  let encode_us = ((enc_s *. s_sends) +. (enc_e *. e_sends)) /. 1e3 in
  let decode_us = ((dec_s *. e_rx) +. (dec_e *. s_rx)) /. 1e3 in
  (* Whole-segment CRC: computed once by the sender, verified once by the
     engine. *)
  let crc_us = 2.0 *. crc_kib *. float_of_int (transfer_bytes / 1024) /. 1e3 in
  let netem_dg =
    if lossy then netem_ns Faults.Scenario.lossy2 (stap.Tap.samples @ etap.Tap.samples)
    else 0.0
  in
  let netem_us = netem_dg *. (s_sends +. e_sends) /. 1e3 in
  let flush_us = (per_s stap.Tap.flush_ns +. per_e etap.Tap.flush_ns) /. 1e3 in
  let poll_us = (per_s stap.Tap.poll_ns +. per_e etap.Tap.poll_ns) /. 1e3 in
  let setup_us = per_s p.setup_ns /. 1e3 in
  let recv_wait_us = per_s stap.Tap.recv_ns /. 1e3 in
  let kib bytes = bytes /. 1024.0 in
  let sender_alloc_kib =
    kib (p.gc1.Common.alloc_bytes -. p.gc0.Common.alloc_bytes) /. ops
  in
  let engine_alloc_kib = kib p.served.engine_alloc_bytes /. served in
  let unattributed =
    Report.cost_table ~workload ~cpu_ms_per_op:(p.cpu_s *. 1e3 /. ops)
      [
        ("packet.encode", encode_us /. 1e3);
        ("packet.decode", decode_us /. 1e3);
        ("packet.crc32 (whole segment)", crc_us /. 1e3);
        ("faults.netem", netem_us /. 1e3);
        ("sockets.flush (sendmmsg)", flush_us /. 1e3);
        ("sockets.poll (recvmmsg)", poll_us /. 1e3);
        ("sockets.transport_setup", setup_us /. 1e3);
      ]
      ~waits:[ ("sockets.recv_wait (sender)", recv_wait_us /. 1e3) ]
  in
  let q hist x = Obs.Hist.quantile hist x in
  let open Protocol.Counters in
  let open Report in
  [
    m "sockets.datagrams_per_flush" "count"
      (Common.ratio
         (stap.Tap.sends + etap.Tap.sends)
         (stap.Tap.flushes + etap.Tap.flushes));
    m "sockets.flush_us_per_op" "us" flush_us;
    m "sockets.poll_us_per_op" "us" poll_us;
    m "sockets.recv_wait_us_per_op" "us" recv_wait_us;
    m "sockets.transport_setup_us_per_op" "us" setup_us;
    m "sockets.sender_alloc_kib_per_op" "KiB" sender_alloc_kib;
    m "sockets.handshake_us_p50" "us" (Common.median handshake_us);
    m "sockets.blast_us_p50" "us" (Common.median elapsed_us);
    m "sockets.send_failures_per_op" "count"
      (per_s stap.Tap.send_failures +. per_e etap.Tap.send_failures);
    m "packet.encode_ns_per_datagram" "ns" (weighted enc_s s_sends enc_e e_sends);
    m "packet.decode_ns_per_datagram" "ns" (weighted dec_s e_rx dec_e s_rx);
    m "packet.crc32_ns_per_kib" "ns" crc_kib;
    m "packet.est_us_per_op" "us" (encode_us +. decode_us +. crc_us);
    m "protocol.retransmit_ratio" "ratio" (Common.ratio sc.retransmitted_data sc.data_sent);
    m "protocol.timeouts_per_op" "count" (per_s sc.timeouts +. per_e ec.timeouts);
    m "protocol.rounds_per_op" "count" (per_s sc.rounds);
    m "protocol.nacks_per_op" "count" (per_e ec.nacks_sent);
    m "protocol.duplicates_per_op" "count" (per_e ec.duplicates_received);
    m "faults.injected_per_op" "count"
      (per_s sc.faults_injected +. per_e ec.faults_injected);
    m "faults.netem_ns_per_datagram" "ns" netem_dg;
    m "server.tick_us_p50" "us" (q h.Server.Engine.tick_duration_ns 0.5 /. 1e3);
    m "server.tick_us_p99" "us" (q h.Server.Engine.tick_duration_ns 0.99 /. 1e3);
    m "server.ticks_per_op" "count" (per_e h.Server.Engine.ticks);
    m "server.recv_drained_p50" "count" (q h.Server.Engine.recv_drained 0.5);
    m "server.flush_train_p50" "count" (q h.Server.Engine.flush_train 0.5);
    m "server.spurious_wakeups_per_op" "count" (per_e h.Server.Engine.spurious_wakeups);
    m "server.timer_heap_depth_p99" "count" (q h.Server.Engine.timer_heap_depth 0.99);
    m "server.rejected" "count" (float_of_int p.served.totals.Server.Engine.rejected);
    m "server.handshake_us_p50" "us" hs_us;
    m "server.blast_us_p50" "us" blast_us;
    m "server.linger_ms_p50" "ms" linger_ms;
    m "server.engine_alloc_kib_per_op" "KiB" engine_alloc_kib;
    m "runtime.minor_collections_per_op" "count"
      (per_s (p.gc1.Common.minor - p.gc0.Common.minor));
    m "runtime.major_collections_per_op" "count"
      (per_s (p.gc1.Common.major - p.gc0.Common.major));
    m "runtime.alloc_kib_per_op" "KiB" (sender_alloc_kib +. engine_alloc_kib);
    m "obs.tracing_overhead_ratio" "ratio" (fst (rates p) /. fst (rates untraced));
    m "cost.unattributed_share" "ratio" unattributed;
  ]

(* What one phase contributes to the result line. *)
let tally p = (n_ops p, n_ops p - count Fun.id p.verified, p.problems)

let run ~workload ~lossy ~seed ~seconds ~trace =
  if not trace then begin
    (* Set up [setups] times and keep the last; set-up time is the median. *)
    let times = Array.make setups 0.0 in
    let live = ref None in
    for i = 0 to setups - 1 do
      Option.iter
        (fun l ->
          ignore (stop_server l.server : served);
          Sockets.Udp.close l.st.sock)
        !live;
      let l, s = set_up ~lossy ~seed () in
      times.(i) <- s;
      live := Some l
    done;
    let p = measure (Option.get !live) ~seconds in
    (tally p, end_to_end ~lossy p ~setup_s:(Common.median times))
  end
  else begin
    let untraced, _ = set_up ~lossy ~seed () in
    let base = measure untraced ~seconds in
    let stap = Tap.create () and etap = Tap.create () in
    let ft = Obs.Flowtrace.create () in
    let live, _ = set_up ~lossy ~seed ~tap:etap ~flowtrace:ft () in
    let p = measure ~tap:stap live ~seconds in
    let (a, f, pr), (a', f', pr') = (tally base, tally p) in
    ( (a + a', f + f', pr @ pr'),
      per_layer ~workload ~lossy ~untraced:base p ~stap ~etap ~ft )
  end
