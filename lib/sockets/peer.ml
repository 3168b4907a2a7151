type send_result = {
  outcome : Protocol.Action.outcome;
  elapsed_ns : int;
  counters : Protocol.Counters.t;
  adaptive : bool;
}

type transfer = {
  peer : Unix.sockaddr;
  transfer_id : int;
  stripe : Packet.Stripe.t option;
  suite : Protocol.Suite.t;
  data : string;
}

(* One flow's telemetry: journal timestamps from the context clock. *)
let instrument (ctx : Io_ctx.t) =
  let counters = Protocol.Counters.create () in
  Option.iter (fun r -> Obs.Recorder.set_clock r ctx.Io_ctx.clock) ctx.Io_ctx.recorder;
  (counters, Obs.Probe.create ?recorder:ctx.Io_ctx.recorder ~lane:"sender" ~counters ())

let publish_metrics (ctx : Io_ctx.t) ~elapsed_ns counters =
  Option.iter
    (fun m ->
      let labels = [ ("side", "sender"); ("transport", "udp") ] in
      Obs.Metrics.bridge_counters m ~labels counters;
      Obs.Metrics.set_gauge (Obs.Metrics.gauge m ~labels "elapsed_ms")
        (float_of_int elapsed_ns /. 1e6))
    ctx.Io_ctx.metrics

(* A flow on the loop, with the peer it talks to and when it settled. *)
type entry = { flow : Flow.t; peer : Unix.sockaddr; mutable settled_ns : int option }

(* Many flows on one loop. The loop asks for the earliest of their
   deadlines, ticks every flow once per wakeup and hands over one datagram
   per wakeup, routed by its source: to the flow keyed by (source, transfer
   id), else to every flow of that source as foreign traffic; manifest
   traffic is never a flow's. Pacing is an inline sleep after each DATA
   datagram, at the gap its flow asks for. What no flow's source sent is
   counted on [probe]/[counters], which also carry the fault pipeline's
   injections. Held-back (reordered) emissions die with the endpoint. *)
let drive (ctx : Io_ctx.t) ~(transport : Transport.t) ~probe ~counters started =
  Option.iter
    (fun netem ->
      Faults.Netem.attach_counters netem counters;
      Faults.Netem.set_observer netem (Obs.Probe.fault probe))
    ctx.Io_ctx.faults;
  let loop = Loop.create ~clock:ctx.Io_ctx.clock transport in
  let execute e actions =
    let probe = Flow.probe e.flow in
    List.iter
      (fun (Flow.Transmit m) ->
        Loop.transmit loop ?faults:ctx.Io_ctx.faults ~probe ~peer:e.peer m;
        if m.Packet.Message.kind = Packet.Kind.Data then
          let gap = Flow.pacing_gap e.flow in
          if gap > 0 then transport.Transport.sleep_ns gap)
      actions;
    if e.settled_ns = None && Flow.next_deadline e.flow = None then
      e.settled_ns <- Some (ctx.Io_ctx.clock ())
  in
  let entries = List.map (fun (peer, (flow, _)) -> { flow; peer; settled_ns = None }) started in
  List.iter2 (fun e (_, (_, actions)) -> execute e actions) entries started;
  let receive ~now { Transport.buf; pos; len; from } =
    let mine = List.filter (fun e -> e.peer = from) entries in
    match Packet.Codec.decode_sub buf ~pos ~len with
    | Error reason when mine = [] -> Flow.count_garbage ~probe counters reason
    | Error r -> List.iter (fun e -> execute e (Flow.on_garbage e.flow ~now r)) mine
    | Ok { Packet.Message.kind = Packet.Kind.Mreq | Packet.Kind.Mrep; _ } -> ()
    | Ok m -> (
        let id = m.Packet.Message.transfer_id in
        match List.find_opt (fun e -> Flow.transfer_id e.flow = id) mine with
        | Some e -> execute e (Flow.on_message e.flow ~now m)
        | None -> List.iter (fun e -> execute e (Flow.on_message e.flow ~now m)) mine)
  in
  let earliest acc e =
    match (acc, Flow.next_deadline e.flow) with
    | None, d | d, None -> d
    | Some a, Some b -> Some (min a b)
  in
  Loop.run loop
    {
      Loop.next_deadline = (fun () -> List.fold_left earliest None entries);
      due = (fun ~now -> List.iter (fun e -> execute e (Flow.on_tick e.flow ~now)) entries);
      receive;
      finished = (fun () -> List.for_all (fun e -> e.settled_ns <> None) entries);
    };
  Option.iter
    (fun netem -> ignore (Faults.Netem.flush netem : Faults.Netem.emission list))
    ctx.Io_ctx.faults;
  entries

(* A sender that ends in failure dumps its flight ring, so the last
   datagrams before the failure survive the run. *)
let dump_on_failure probe outcome =
  match outcome with
  | Protocol.Action.Success -> ()
  | outcome ->
      ignore
        (Obs.Probe.postmortem probe
           ~reason:(Format.asprintf "send: %a" Protocol.Action.pp_outcome outcome)
          : string option)

let send_all_via ?ctx ?(packet_bytes = 1024) ?rtt ?idle_timeout_ns ~transport transfers =
  let ctx = match ctx with Some c -> c | None -> Io_ctx.default () in
  let start (t : transfer) =
    let counters, probe = instrument ctx in
    ( t.peer,
      Flow.initiate ?rtt ?idle_timeout_ns ?stripe:t.stripe ~tuning:ctx.Io_ctx.tuning
        ~packet_bytes ~suite:t.suite ~transfer_id:t.transfer_id ~probe ~counters
        ~now:(ctx.Io_ctx.clock ()) t.data )
  in
  match List.map start transfers with
  | [] -> []
  | (_, (first, _)) :: _ as started ->
      (* The first flow's telemetry doubles as the endpoint's. *)
      drive ctx ~transport ~probe:(Flow.probe first) ~counters:(Flow.counters first) started
      |> List.map (fun e ->
             let outcome =
               match Flow.status e.flow with
               | `Done c -> c.Flow.outcome
               | `Running | `Lingering -> assert false
             in
             dump_on_failure (Flow.probe e.flow) outcome;
             let elapsed_ns = Option.get e.settled_ns - Flow.started_ns e.flow in
             let counters = Flow.counters e.flow in
             publish_metrics ctx ~elapsed_ns counters;
             { outcome; elapsed_ns; counters; adaptive = Flow.adaptive e.flow })

let send_via ?ctx ?transfer_id ?packet_bytes ?rtt ?idle_timeout_ns ?stripe ~transport ~peer
    ~suite ~data () =
  let transfer_id =
    match transfer_id with Some id -> id | None -> Protocol.Config.fresh_transfer_id ()
  in
  match
    send_all_via ?ctx ?packet_bytes ?rtt ?idle_timeout_ns ~transport
      [ { peer; transfer_id; stripe; suite; data } ]
  with
  | [ result ] -> result
  | _ -> assert false

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
