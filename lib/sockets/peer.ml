type send_result = {
  outcome : Protocol.Action.outcome;
  elapsed_ns : int;
  counters : Protocol.Counters.t;
  adaptive : bool;
}

type integrity = Flow.integrity = Verified | Mismatch | Not_carried

type receive_result = {
  data : string;
  transfer_id : int;
  receive_counters : Protocol.Counters.t;
  integrity : integrity;
      (** whole-segment CRC check: [Verified]/[Mismatch] when the sender
          carried one in the REQ, [Not_carried] otherwise *)
  receive_outcome : Protocol.Action.outcome;
      (** [Success] for a completed transfer; [Peer_unreachable] when the
          idle watchdog aborted because the sender went silent *)
}

(* An endpoint's telemetry: journal timestamps from the context clock, and
   the fault pipeline reporting into the endpoint's counters and lane. *)
let instrument ~lane (ctx : Io_ctx.t) =
  let counters = Protocol.Counters.create () in
  Option.iter (fun r -> Obs.Recorder.set_clock r ctx.Io_ctx.clock) ctx.Io_ctx.recorder;
  let probe = Obs.Probe.create ?recorder:ctx.Io_ctx.recorder ~lane ~counters () in
  Option.iter
    (fun netem ->
      Faults.Netem.attach_counters netem counters;
      Faults.Netem.set_observer netem (Obs.Probe.fault probe))
    ctx.Io_ctx.faults;
  (counters, probe)

let publish_metrics (ctx : Io_ctx.t) ~side ?elapsed_ns counters =
  Option.iter
    (fun m ->
      let labels = [ ("side", side); ("transport", "udp") ] in
      Obs.Metrics.bridge_counters m ~labels counters;
      Option.iter
        (fun ns ->
          Obs.Metrics.set_gauge (Obs.Metrics.gauge m ~labels "elapsed_ms") (float_of_int ns /. 1e6))
        elapsed_ns)
    ctx.Io_ctx.metrics

(* One flow on one loop. The loop asks for the flow's own next deadline,
   ticks it once per wakeup and hands it one datagram per wakeup; pacing is
   an inline sleep after each DATA datagram, at the gap the flow asks for.
   A receiver has no flow until [accept] admits a REQ, or [accept_deadline]
   passes. Held-back (reordered) emissions die with the endpoint. *)
let drive (ctx : Io_ctx.t) ~(transport : Transport.t) ~probe ~counters ?accept_deadline
    ?(accept = fun ~now:_ _ -> None) start =
  let loop = Loop.create ~clock:ctx.Io_ctx.clock transport in
  let slot = ref None and gone = ref false in
  let execute (f, peer) actions =
    List.iter
      (fun (Flow.Transmit m) ->
        Loop.transmit loop ?faults:ctx.Io_ctx.faults ~probe ~peer m;
        if m.Packet.Message.kind = Packet.Kind.Data then
          let gap = Flow.pacing_gap f in
          if gap > 0 then transport.Transport.sleep_ns gap)
      actions
  in
  let admit peer (f, actions) =
    slot := Some (f, peer);
    execute (f, peer) actions
  in
  Option.iter (fun (peer, started) -> admit peer started) start;
  let receive ~now { Transport.buf; pos; len; from } =
    match (Packet.Codec.decode_sub buf ~pos ~len, !slot) with
    | Error reason, Some ((f, _) as s) -> execute s (Flow.on_garbage f ~now reason)
    | Error reason, None -> Flow.count_garbage ~probe counters reason
    | Ok m, Some ((f, _) as s) -> execute s (Flow.on_message f ~now m)
    | Ok m, None -> Option.iter (admit from) (accept ~now m)
  in
  Loop.run loop
    {
      Loop.next_deadline =
        (fun () ->
          match !slot with Some (f, _) -> Flow.next_deadline f | None -> accept_deadline);
      due =
        (fun ~now ->
          match (!slot, accept_deadline) with
          | Some ((f, _) as s), _ -> execute s (Flow.on_tick f ~now)
          | None, Some d -> if d - now <= 0 then gone := true
          | None, None -> ());
      receive;
      finished =
        (fun () ->
          match !slot with Some (f, _) -> Flow.next_deadline f = None | None -> !gone);
    };
  Option.iter
    (fun netem -> ignore (Faults.Netem.flush netem : Faults.Netem.emission list))
    ctx.Io_ctx.faults;
  Option.bind !slot (fun (f, _) ->
      match Flow.status f with `Done c -> Some (f, c) | `Running | `Lingering -> None)

(* A one-transfer endpoint that ends in failure dumps its flight ring, so the
   last datagrams before the failure survive the run. An engine's flows share
   one ring and do not: it is exported whole at exit instead. *)
let dump_on_failure probe ~side outcome =
  match outcome with
  | Protocol.Action.Success -> ()
  | outcome ->
      ignore
        (Obs.Probe.postmortem probe
           ~reason:(Format.asprintf "%s: %a" side Protocol.Action.pp_outcome outcome)
          : string option)

let send_via ?ctx ?transfer_id ?(packet_bytes = 1024) ?rtt ?idle_timeout_ns ?stripe
    ~transport ~peer ~suite ~data () =
  let ctx = match ctx with Some c -> c | None -> Io_ctx.default () in
  let transfer_id =
    match transfer_id with Some id -> id | None -> Protocol.Config.fresh_transfer_id ()
  in
  let counters, probe = instrument ~lane:"sender" ctx in
  let started =
    Flow.initiate ?rtt ?idle_timeout_ns ?stripe ~tuning:ctx.Io_ctx.tuning ~packet_bytes
      ~suite ~transfer_id ~probe ~counters ~now:(ctx.Io_ctx.clock ()) data
  in
  let flow, c = Option.get (drive ctx ~transport ~probe ~counters (Some (peer, started))) in
  dump_on_failure probe ~side:"send" c.Flow.outcome;
  let elapsed_ns = ctx.Io_ctx.clock () - Flow.started_ns flow in
  publish_metrics ctx ~side:"sender" ~elapsed_ns counters;
  { outcome = c.Flow.outcome; elapsed_ns; counters; adaptive = Flow.adaptive flow }

let send ?ctx ?transfer_id ?packet_bytes ?rtt ?idle_timeout_ns ?stripe ~socket ~peer ~suite
    ~data () =
  let ctx = match ctx with Some c -> c | None -> Io_ctx.default () in
  (* Pacing wants an inter-packet gap, batching erases them: a paced sender
     stays on the one-datagram path. *)
  let batch =
    ctx.Io_ctx.batch && Protocol.Tuning.pacing ctx.Io_ctx.tuning = Protocol.Tuning.No_pacing
  in
  let transport = Transport.udp ~batch ~socket () in
  send_via ~ctx ?transfer_id ?packet_bytes ?rtt ?idle_timeout_ns ?stripe ~transport ~peer
    ~suite ~data ()

let serve_one ?ctx ?idle_timeout_ns ?accept_timeout_ns ?suite ~socket () =
  let ctx = match ctx with Some c -> c | None -> Io_ctx.default () in
  let transport = Transport.udp ~batch:ctx.Io_ctx.batch ~socket () in
  let counters, probe = instrument ~lane:"receiver" ctx in
  let clock = ctx.Io_ctx.clock in
  (* The sans-IO {!Flow} takes over from the first geometry-carrying REQ;
     [accept_timeout_ns] bounds the wait for it. *)
  let accept ~now m =
    Result.to_option
      (Flow.create ?fallback_suite:suite ~tuning:ctx.Io_ctx.tuning ?idle_timeout_ns ~probe
         ~counters ~now m)
  in
  let settled =
    drive ctx ~transport ~probe ~counters
      ?accept_deadline:(Option.map (fun ns -> clock () + ns) accept_timeout_ns)
      ~accept None
  in
  publish_metrics ctx ~side:"receiver" counters;
  match settled with
  | Some (_, c) ->
      dump_on_failure probe ~side:"flow" c.Flow.outcome;
      {
        data = c.Flow.data;
        transfer_id = c.Flow.transfer_id;
        receive_counters = c.Flow.counters;
        integrity = c.Flow.integrity;
        receive_outcome = c.Flow.outcome;
      }
  | None ->
      Obs.Probe.complete probe Protocol.Action.Peer_unreachable;
      ignore (Obs.Probe.postmortem probe ~reason:"serve_one: peer unreachable" : string option);
      {
        data = "";
        transfer_id = 0;
        receive_counters = counters;
        integrity = Not_carried;
        receive_outcome = Protocol.Action.Peer_unreachable;
      }
