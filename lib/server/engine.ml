let log = Logs.Src.create "server.engine" ~doc:"concurrent UDP transfer server"

module Log = (val Logs.src_log log : Logs.LOG)

type totals = {
  mutable accepted : int;
  mutable completed : int;
  mutable aborted : int;
  mutable rejected : int;
  mutable superseded : int;
  mutable stray_datagrams : int;
  mutable garbage : int;
  mutable send_failures : int;
}

let create_totals () =
  {
    accepted = 0;
    completed = 0;
    aborted = 0;
    rejected = 0;
    superseded = 0;
    stray_datagrams = 0;
    garbage = 0;
    send_failures = 0;
  }

let pp_totals ppf t =
  Format.fprintf ppf
    "accepted %d, completed %d, aborted %d, rejected %d, superseded %d, stray %d, garbage %d, send failures %d"
    t.accepted t.completed t.aborted t.rejected t.superseded t.stray_datagrams t.garbage
    t.send_failures

type completion_event = {
  peer : Unix.sockaddr;
  completion : Sockets.Flow.completion;
  started_ns : int;
  finished_ns : int;
}

type health = Sockets.Loop.health = {
  tick_duration_ns : Obs.Hist.t;
  recv_drained : Obs.Hist.t;
  flush_train : Obs.Hist.t;
  timer_heap_depth : Obs.Hist.t;
  mutable ticks : int;
  mutable drain_exhausted : int;
  mutable last_drain_exhausted : int;
  mutable spurious_wakeups : int;
}

(* A flow is keyed by who is talking and which transfer they mean: two
   transfers from the same source port never collide (distinct ids), and two
   senders reusing id 1 never collide either (distinct sockaddrs). *)
type key = Unix.sockaddr * int

type flow_state = {
  flow : Sockets.Flow.t;
  peer : Unix.sockaddr;
  faults : Faults.Netem.t option;
  started_ns : int;
  label : string;  (** flowtrace lane / snapshot key, unique per incarnation *)
  mutable saw_data : bool;  (** first DATA datagram reached the flow *)
  mutable seen_rounds : int;
      (** ack+nack response high-water — the receiver-side round marker
          behind the flowtrace [Round] events *)
  mutable scheduled_at : int;  (** earliest heap entry for this flow; [max_int] = none *)
}

type t = {
  loop : Sockets.Loop.t;
  max_flows : int;
  tuning : Protocol.Tuning.t;
  idle_timeout_ns : int option;
  linger_ns : int option;
  fallback_suite : Protocol.Suite.t option;
  scenario : Faults.Scenario.t option;
  seed : int;
  recorder : Obs.Recorder.t option;
  metrics : Obs.Metrics.t option;
  clock : unit -> int;
  on_complete : completion_event -> unit;
  flowtrace : Obs.Flowtrace.t option;
  on_idle : unit -> unit;
  trace_epoch : int;
  label_prefix : string;  (** member tag on every trace lane; "" for a lone engine *)
  created_ns : int;
  health : health;
  flows : (key, flow_state) Hashtbl.t;
  manifests : (int * int, Packet.Stripe.entry) Hashtbl.t;
      (** stripes this server holds, keyed [(object_id, stripe index)] —
          recorded only for CRC-verified successes, answered over MREQ *)
  timers : key Sockets.Timers.t;  (** flow ticks, lazily invalidated *)
  totals : totals;
  settled : Protocol.Counters.t;  (** merged counters of finished flows *)
  server_counters : Protocol.Counters.t;  (** pre-admission garbage accounting *)
  server_probe : Obs.Probe.t;
  mutable next_index : int;
  mutable next_reject : int;  (** uniquifier for rejected-REQ trace lanes *)
  mutable flight_dumped : bool;  (** one automatic postmortem per engine *)
}

(* Datagrams handed over per wakeup: the fairness knob — one blast sender
   saturating the socket cannot starve the other flows' timers. *)
let drain_budget = 64

let create ?(max_flows = 64)
    ?idle_timeout_ns ?linger_ns ?fallback_suite ?scenario ?(seed = 1)
    ?ctx ?(on_complete = fun _ -> ()) ?flowtrace
    ?(on_idle = fun () -> ()) ?(trace_epoch = 0) ?lane_prefix:(label_prefix = "")
    ~transport () =
  if max_flows < 0 then invalid_arg "Engine.create: negative max_flows";
  (* An idle engine blocks until traffic, a wake or a stop: a transport
     that cannot be woken would leave a stop unheard. *)
  if Option.is_none transport.Sockets.Transport.wake then
    invalid_arg "Engine.create: the transport cannot be woken";
  let ctx = match ctx with Some c -> c | None -> Sockets.Io_ctx.default () in
  let { Sockets.Io_ctx.recorder; metrics; clock; batch = _; faults = _; tuning } = ctx in
  Option.iter (fun r -> Obs.Recorder.set_clock r clock) recorder;
  let server_counters = Protocol.Counters.create () in
  let server_probe =
    Obs.Probe.create ?recorder ~lane:(label_prefix ^ "server")
      ~counters:server_counters ()
  in
  let created_ns = clock () in
  let health = Sockets.Loop.create_health () in
  {
    loop = Sockets.Loop.create ~health ~drain_budget ~clock transport;
    max_flows;
    tuning;
    idle_timeout_ns;
    linger_ns;
    fallback_suite;
    scenario = (match scenario with Some s when Faults.Scenario.is_clean s -> None | s -> s);
    seed;
    recorder;
    metrics;
    clock;
    on_complete;
    flowtrace;
    on_idle;
    trace_epoch;
    label_prefix;
    created_ns;
    health;
    flows = Hashtbl.create 64;
    manifests = Hashtbl.create 16;
    timers = Sockets.Timers.create ();
    totals = create_totals ();
    settled = Protocol.Counters.create ();
    server_counters;
    server_probe;
    next_index = 0;
    next_reject = 0;
    flight_dumped = false;
  }

let totals t = t.totals
let active_flows t = Hashtbl.length t.flows
let health t = t.health
let manifest_size t =
  let keys = Hashtbl.create 16 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) t.manifests;
  Hashtbl.iter
    (fun _ fs ->
      match Sockets.Flow.verified_stripe fs.flow with
      | Some { Packet.Stripe.stripe = s; _ } ->
          Hashtbl.replace keys (s.Packet.Stripe.object_id, s.Packet.Stripe.index) ()
      | None -> ())
    t.flows;
  Hashtbl.length keys

let manifest t ~object_id =
  (* Settled stripes, plus flows whose machine already completed but are
     still in their linger grace period: their bytes are final, and a
     repair survey racing the tail of a blast must count them. *)
  let best = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (oid, idx) entry -> if oid = object_id then Hashtbl.replace best idx entry)
    t.manifests;
  Hashtbl.iter
    (fun _ fs ->
      match Sockets.Flow.verified_stripe fs.flow with
      | Some ({ Packet.Stripe.stripe; _ } as entry)
        when stripe.Packet.Stripe.object_id = object_id ->
          Hashtbl.replace best stripe.Packet.Stripe.index entry
      | _ -> ())
    t.flows;
  Hashtbl.fold (fun _ entry acc -> entry :: acc) best []
  |> List.sort (fun a b ->
         compare a.Packet.Stripe.stripe.Packet.Stripe.index
           b.Packet.Stripe.stripe.Packet.Stripe.index)

let string_of_sockaddr = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (addr, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port

let trace t event ~flow ~now =
  match t.flowtrace with
  | None -> ()
  | Some ft -> Obs.Flowtrace.record ft ~flow event ~now

let rollup t =
  let total = Protocol.Counters.create () in
  Protocol.Counters.merge ~into:total t.settled;
  Protocol.Counters.merge ~into:total t.server_counters;
  Hashtbl.iter
    (fun _ fs -> Protocol.Counters.merge ~into:total (Sockets.Flow.counters fs.flow))
    t.flows;
  total

let metric_counter t name =
  Option.map (fun m -> Obs.Metrics.counter m ~labels:[ ("side", "server") ] name) t.metrics

let bump t name = Option.iter Obs.Metrics.inc (metric_counter t name)

let publish_gauges t =
  match t.metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.set_gauge
        (Obs.Metrics.gauge m ~labels:[ ("side", "server") ] "active_flows")
        (float_of_int (Hashtbl.length t.flows))

let send_failed t () = t.totals.send_failures <- t.totals.send_failures + 1

(* Timer-heap depth: flow ticks plus the loop's delayed emissions, so heap
   backlog still counts delayed sends. *)
let timer_depth t = Sockets.Timers.length t.timers + Sockets.Loop.pending t.loop

let execute t fs actions =
  List.iter
    (fun (Sockets.Flow.Transmit m) ->
      Sockets.Loop.transmit t.loop ?faults:fs.faults ~on_failed:(send_failed t)
        ~probe:(Sockets.Flow.probe fs.flow) ~peer:fs.peer m)
    actions

let reschedule t key fs =
  if Hashtbl.mem t.flows key then
    match Sockets.Flow.next_deadline fs.flow with
    | None -> ()
    | Some deadline ->
        if deadline < fs.scheduled_at then begin
          Sockets.Timers.add t.timers ~deadline key;
          fs.scheduled_at <- deadline
        end

(* The hand-over: [on_complete] sees each admitted flow exactly once, as
   soon as it settles — for a success the moment the whole-segment CRC has
   been checked, so the flow lingers holding no payload — or when a live
   flow is force-settled. *)
let hand_over t fs ~now =
  match Sockets.Flow.take_completion fs.flow with
  | None -> ()
  | Some completion ->
      t.on_complete
        { peer = fs.peer; completion; started_ns = fs.started_ns; finished_ns = now }

(* Linger end (or force-settle): the flow leaves the table and is counted.
   Its payload, if any, went out through [hand_over] already — or goes now,
   for a flow that never lingered. *)
let finalize ?(superseded = false) t key fs (completion : Sockets.Flow.completion)
    ~now =
  Hashtbl.remove t.flows key;
  (* Exactly one terminal trace event per admitted flow, whatever path
     settles it: normal completion, shutdown force-settle, or supersede. *)
  (match t.flowtrace with
  | None -> ()
  | Some _ ->
      let state =
        if superseded then Obs.Flowtrace.Superseded
        else
          match completion.Sockets.Flow.outcome with
          | Protocol.Action.Success -> Obs.Flowtrace.Done
          | _ -> Obs.Flowtrace.Failed
      in
      if completion.Sockets.Flow.integrity = Sockets.Flow.Verified then
        trace t Obs.Flowtrace.Verify ~flow:fs.label ~now;
      trace t (Obs.Flowtrace.Terminal state) ~flow:fs.label ~now);
  (match fs.faults with
  | None -> ()
  | Some netem ->
      (* Release held-back (reordered) datagrams so a sender waiting on its
         final ack is not starved by our own fault pipeline. *)
      List.iter
        (Sockets.Loop.emit t.loop ~peer:fs.peer ~on_failed:(send_failed t))
        (Faults.Netem.flush netem));
  Protocol.Counters.merge ~into:t.settled completion.Sockets.Flow.counters;
  (* A CRC-verified striped success makes this server a durable replica of
     that stripe: record it, so MREQ queries (and the repair pass behind
     them) see exactly what would survive a re-read. *)
  (match Sockets.Flow.verified_stripe fs.flow with
  | Some ({ Packet.Stripe.stripe; _ } as entry) ->
      Hashtbl.replace t.manifests
        (stripe.Packet.Stripe.object_id, stripe.Packet.Stripe.index)
        entry
  | None -> ());
  (match completion.Sockets.Flow.outcome with
  | Protocol.Action.Success ->
      t.totals.completed <- t.totals.completed + 1;
      bump t "flows_completed"
  | _ ->
      t.totals.aborted <- t.totals.aborted + 1;
      bump t "flows_aborted");
  publish_gauges t;
  Log.debug (fun f ->
      f "flow %d settled (%a); %d active" completion.Sockets.Flow.transfer_id
        Protocol.Action.pp_outcome completion.Sockets.Flow.outcome
        (Hashtbl.length t.flows));
  hand_over t fs ~now

let settle_if_done t key fs ~now =
  match Sockets.Flow.status fs.flow with
  | `Done completion -> finalize t key fs completion ~now
  | `Lingering -> hand_over t fs ~now
  | `Running -> ()

let reject t ~now ~from ~transfer_id =
  t.totals.rejected <- t.totals.rejected + 1;
  bump t "flows_rejected";
  (match t.flowtrace with
  | None -> ()
  | Some _ ->
      (* A refused REQ never owned a flow; a lone terminal on its own lane
         is its whole lifecycle. Each retry is its own lane — one REQ, one
         REJ, one trace record. *)
      let flow =
        Printf.sprintf "%s%s#%d/%d.r%d" t.label_prefix (string_of_sockaddr from)
          transfer_id t.trace_epoch t.next_reject
      in
      t.next_reject <- t.next_reject + 1;
      trace t (Obs.Flowtrace.Terminal Obs.Flowtrace.Rejected) ~flow ~now);
  Log.debug (fun f ->
      f "rejecting transfer %d: %d/%d flows busy" transfer_id (Hashtbl.length t.flows)
        t.max_flows);
  Sockets.Loop.send t.loop ~peer:from ~on_failed:(send_failed t)
    (Packet.Codec.encode (Packet.Message.rej ~transfer_id))

(* Receiver-advertised train budget, recomputed at every solicit. The pool
   an adaptive sender may fill is the tuning's [max_train] (or the nominal
   128 when the engine itself runs fixed tuning), shared fairly across the
   flows currently multiplexed on this engine; when the drain loop has been
   hitting its budget (socket pressure) or the timer heap is backed up
   relative to the flow count, the advert is halved. Every input — flow
   count, heap depth, drain-exhaustion count — is a deterministic function
   of the event stream, so the advert is reproducible under DST virtual
   time. *)
let advertised_budget t =
  let pool =
    match Protocol.Tuning.aimd t.tuning with
    | Some aimd -> aimd.Protocol.Tuning.max_train
    | None -> 128
  in
  let active = max 1 (Hashtbl.length t.flows) in
  (* Fair share, floored at half the drain budget: the socket buffer absorbs
     a train-sized burst per flow and every wakeup retires [drain_budget]
     datagrams, so capping each of N flows to a 1/N sliver of the pool just
     idles the engine between wakeups. Genuine pressure still halves the
     advert below the floor. *)
  let share = max 1 (max (min pool (drain_budget / 2)) (pool / active)) in
  let heap_backlog = timer_depth t > 2 * active in
  let drain_pressure = t.health.drain_exhausted > t.health.last_drain_exhausted in
  t.health.last_drain_exhausted <- t.health.drain_exhausted;
  if heap_backlog || drain_pressure then max 1 (share / 2) else share

let admit t ~now ~from message =
  if Hashtbl.length t.flows >= t.max_flows then
    reject t ~now ~from ~transfer_id:message.Packet.Message.transfer_id
  else begin
    let index = t.next_index in
    let counters = Protocol.Counters.create () in
    let probe =
      Obs.Probe.create ?recorder:t.recorder
        ~lane:(Printf.sprintf "%sflow-%d" t.label_prefix index)
        ~counters ()
    in
    let faults =
      match t.scenario with
      | None -> None
      | Some scenario ->
          (* Every flow gets its own independent, reproducible fault stream:
             one shared Netem would entangle flows' randomness and make
             per-flow replay impossible. *)
          let rng = Stats.Rng.derive ~root:t.seed ~index in
          let seed = Int64.to_int (Stats.Rng.bits64 rng) land max_int in
          let netem = Faults.Netem.create ~counters ~seed scenario in
          Faults.Netem.set_observer netem (Obs.Probe.fault probe);
          Some netem
    in
    match
      Sockets.Flow.create ?fallback_suite:t.fallback_suite ~tuning:t.tuning
        ~budget:(fun () -> advertised_budget t)
        ?idle_timeout_ns:t.idle_timeout_ns ?linger_ns:t.linger_ns ~probe ~counters ~now
        message
    with
    | Error (`Not_a_req | `Bad_geometry) ->
        (* A REQ whose geometry does not decode is indistinguishable from
           noise: count it where pre-admission garbage is counted. *)
        t.totals.garbage <- t.totals.garbage + 1;
        t.server_counters.Protocol.Counters.garbage_received <-
          t.server_counters.Protocol.Counters.garbage_received + 1
    | Ok (flow, actions) ->
        t.next_index <- index + 1;
        t.totals.accepted <- t.totals.accepted + 1;
        bump t "flows_accepted";
        let key = (from, message.Packet.Message.transfer_id) in
        let label =
          (* Unique per incarnation: the epoch distinguishes engine restarts
             (DST) and the admission index distinguishes supersede reuses of
             the same (address, transfer id). *)
          Printf.sprintf "%s%s#%d/%d.%d" t.label_prefix (string_of_sockaddr from)
            message.Packet.Message.transfer_id t.trace_epoch index
        in
        let fs =
          {
            flow;
            peer = from;
            faults;
            started_ns = now;
            label;
            saw_data = false;
            seen_rounds =
              counters.Protocol.Counters.acks_sent
              + counters.Protocol.Counters.nacks_sent;
            scheduled_at = max_int;
          }
        in
        Hashtbl.replace t.flows key fs;
        trace t Obs.Flowtrace.Admitted ~flow:label ~now;
        publish_gauges t;
        Log.debug (fun f ->
            f "admitted flow %d (transfer %d); %d active" index
              message.Packet.Message.transfer_id (Hashtbl.length t.flows));
        execute t fs actions;
        settle_if_done t key fs ~now;
        reschedule t key fs
  end

(* The sender's address and transfer id have been reused by a *different*
   transfer — a restarted process landed on the same ephemeral port while the
   old flow lingers in the table. Feeding the new REQ into the old machine
   would ack progress the new sender never made, so the old flow settles now
   (its typed completion fires as usual) and the REQ is admitted fresh. *)
let supersede t key fs ~now ~from message =
  t.totals.superseded <- t.totals.superseded + 1;
  bump t "flows_superseded";
  Log.debug (fun f ->
      f "transfer %d: address reuse with different geometry — superseding stale flow"
        message.Packet.Message.transfer_id);
  Obs.Probe.timeout (Sockets.Flow.probe fs.flow) ~detail:"superseded" ();
  let completion = Sockets.Flow.force_done fs.flow ~now in
  finalize ~superseded:true t key fs completion ~now;
  admit t ~now ~from message

(* One blast round, seen from the receiving side: the flow answering with
   an ACK or NACK. [Counters.rounds] itself only advances on the sender, so
   the response counters are the engine's per-round signal — the same
   per-flow rhythm the 1985 paper's diagnosis method watches. *)
let observe_rounds t fs ~now =
  match t.flowtrace with
  | None -> ()
  | Some _ ->
      let c = Sockets.Flow.counters fs.flow in
      let responses =
        c.Protocol.Counters.acks_sent + c.Protocol.Counters.nacks_sent
      in
      if responses > fs.seen_rounds then begin
        fs.seen_rounds <- responses;
        trace t Obs.Flowtrace.Round ~flow:fs.label ~now
      end

let handle_datagram t ~now { Sockets.Transport.buf; pos; len; from } =
  match Packet.Codec.decode_sub buf ~pos ~len with
  | Error reason ->
      (* No trustworthy header, so no flow to attribute it to. *)
      t.totals.garbage <- t.totals.garbage + 1;
      Sockets.Flow.count_garbage ~probe:t.server_probe t.server_counters reason
  | Ok message when message.Packet.Message.kind = Packet.Kind.Mreq ->
      (* Manifest query: which stripes of this object does the server hold?
         Flow-less, like REJ — the reply is one datagram built from the
         manifest table, so a repair pass can interrogate a loaded server
         without consuming a flow slot. *)
      let object_id = message.Packet.Message.transfer_id in
      let entries =
        manifest t ~object_id
        |> List.filteri (fun i _ -> i < Packet.Stripe.max_entries)
      in
      Sockets.Loop.send t.loop ~peer:from ~on_failed:(send_failed t)
        (Packet.Codec.encode (Packet.Stripe.manifest_reply ~object_id entries))
  | Ok message when message.Packet.Message.kind = Packet.Kind.Mrep ->
      (* Servers answer manifests, they never ask: a reply arriving here is
         a misdelivery, absorbed like any other stray. *)
      t.totals.stray_datagrams <- t.totals.stray_datagrams + 1
  | Ok message -> (
      let key = (from, message.Packet.Message.transfer_id) in
      match Hashtbl.find_opt t.flows key with
      | Some fs ->
          if
            message.Packet.Message.kind = Packet.Kind.Req
            && not (Sockets.Flow.same_request fs.flow message)
          then supersede t key fs ~now ~from message
          else begin
            if message.Packet.Message.kind = Packet.Kind.Data && not fs.saw_data
            then begin
              fs.saw_data <- true;
              trace t Obs.Flowtrace.First_data ~flow:fs.label ~now
            end;
            execute t fs (Sockets.Flow.on_message fs.flow ~now message);
            observe_rounds t fs ~now;
            settle_if_done t key fs ~now;
            reschedule t key fs
          end
      | None ->
          if message.Packet.Message.kind = Packet.Kind.Req then admit t ~now ~from message
          else
            (* Late datagrams of an already-settled flow, or acks for a
               handshake we refused — expected traffic, silently absorbed. *)
            t.totals.stray_datagrams <- t.totals.stray_datagrams + 1)

(* Service everything the heap owes us at [now]: each due flow gets its
   tick (machine timer, idle watchdog, or linger expiry). Stale heap
   entries — the flow's deadline moved later or the flow is gone — are
   dropped or re-armed. *)
let rec service_timers t ~now =
  match Sockets.Timers.pop_due t.timers ~now with
  | None -> ()
  | Some key ->
      (match Hashtbl.find_opt t.flows key with
      | None -> ()
      | Some fs ->
          fs.scheduled_at <- max_int;
          (match Sockets.Flow.next_deadline fs.flow with
          | Some deadline when deadline - now <= 0 ->
              execute t fs (Sockets.Flow.on_tick fs.flow ~now);
              observe_rounds t fs ~now;
              settle_if_done t key fs ~now
          | _ -> ());
          reschedule t key fs);
      service_timers t ~now

let counters_json (c : Protocol.Counters.t) =
  Obs.Json.Obj
    [
      ("data_sent", Obs.Json.Int c.data_sent);
      ("retransmitted_data", Obs.Json.Int c.retransmitted_data);
      ("acks_sent", Obs.Json.Int c.acks_sent);
      ("nacks_sent", Obs.Json.Int c.nacks_sent);
      ("rounds", Obs.Json.Int c.rounds);
      ("timeouts", Obs.Json.Int c.timeouts);
      ("duplicates_received", Obs.Json.Int c.duplicates_received);
      ("delivered", Obs.Json.Int c.delivered);
      ("faults_injected", Obs.Json.Int c.faults_injected);
      ("corrupt_detected", Obs.Json.Int c.corrupt_detected);
      ("garbage_received", Obs.Json.Int c.garbage_received);
    ]

let totals_json (a : totals) =
  Obs.Json.Obj
    [
      ("accepted", Obs.Json.Int a.accepted);
      ("completed", Obs.Json.Int a.completed);
      ("aborted", Obs.Json.Int a.aborted);
      ("rejected", Obs.Json.Int a.rejected);
      ("superseded", Obs.Json.Int a.superseded);
      ("stray_datagrams", Obs.Json.Int a.stray_datagrams);
      ("garbage", Obs.Json.Int a.garbage);
      ("send_failures", Obs.Json.Int a.send_failures);
    ]

let health_json t =
  let h = t.health in
  Obs.Json.Obj
    [
      ("ticks", Obs.Json.Int h.ticks);
      ("drain_exhausted", Obs.Json.Int h.drain_exhausted);
      ("spurious_wakeups", Obs.Json.Int h.spurious_wakeups);
      ("timer_heap", Obs.Json.Int (timer_depth t));
      ("tick_duration_ns", Obs.Hist.to_json h.tick_duration_ns);
      ("recv_drained", Obs.Hist.to_json h.recv_drained);
      ("flush_train", Obs.Hist.to_json h.flush_train);
      ("timer_heap_depth", Obs.Hist.to_json h.timer_heap_depth);
    ]

(* One UDP datagram bounds the admin reply, so the per-flow listing is
   capped; [flows_omitted] says how many a loaded server held back. *)
let snapshot_flow_cap = 128

let flow_json ~now fs =
  let c = Sockets.Flow.counters fs.flow in
  Obs.Json.Obj
    [
      ("flow", Obs.Json.String fs.label);
      ("peer", Obs.Json.String (string_of_sockaddr fs.peer));
      ("id", Obs.Json.Int (Sockets.Flow.transfer_id fs.flow));
      ( "status",
        Obs.Json.String
          (match Sockets.Flow.status fs.flow with
          | `Running -> "running"
          | `Lingering -> "lingering"
          | `Done _ -> "done") );
      ( "phase",
        Obs.Json.String (if fs.saw_data then "blast" else "handshake") );
      ("delivered", Obs.Json.Int c.Protocol.Counters.delivered);
      ("total_packets", Obs.Json.Int (Sockets.Flow.total_packets fs.flow));
      ("total_bytes", Obs.Json.Int (Sockets.Flow.total_bytes fs.flow));
      ("rounds", Obs.Json.Int c.Protocol.Counters.rounds);
      ("age_ns", Obs.Json.Int (now - fs.started_ns));
      ( "deadline_in_ns",
        match Sockets.Flow.next_deadline fs.flow with
        | None -> Obs.Json.Null
        | Some d -> Obs.Json.Int (d - now) );
    ]

(* Not thread-safe: reads the live flow table, so it must run on the serving
   thread (the [on_idle] hook) or after [run] returned. *)
let snapshot t =
  let now = t.clock () in
  let flows = Hashtbl.fold (fun _ fs acc -> fs :: acc) t.flows [] in
  let flows = List.sort (fun a b -> compare a.label b.label) flows in
  let shown = List.filteri (fun i _ -> i < snapshot_flow_cap) flows in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "lanrepro-stat/1");
      ("now_ns", Obs.Json.Int now);
      ("uptime_ns", Obs.Json.Int (now - t.created_ns));
      ("max_flows", Obs.Json.Int t.max_flows);
      ("active_flows", Obs.Json.Int (Hashtbl.length t.flows));
      ( "flows_omitted",
        Obs.Json.Int (max 0 (List.length flows - snapshot_flow_cap)) );
      ("totals", totals_json t.totals);
      ("manifest_stripes", Obs.Json.Int (manifest_size t));
      ("flows", Obs.Json.List (List.map (flow_json ~now) shown));
      ("health", health_json t);
      ("counters", counters_json (rollup t));
    ]

(* The serving loop until [finished], then shutdown. *)
let serve t ~next_deadline ~finished =
  Log.info (fun f -> f "serving (max %d concurrent flows)" t.max_flows);
  Sockets.Loop.run t.loop
    {
      Sockets.Loop.next_deadline;
      due =
        (fun ~now ->
          service_timers t ~now;
          t.on_idle ();
          Obs.Hist.add t.health.timer_heap_depth (float_of_int (timer_depth t)));
      receive = handle_datagram t;
      finished;
    };
  (* Shutdown settles every live flow to a typed result — nothing is left
     dangling, and the caller's on_complete sees each one exactly once
     (a lingering flow's hand-over already happened). *)
  let remaining = Hashtbl.fold (fun key fs acc -> (key, fs) :: acc) t.flows [] in
  List.iter
    (fun (key, fs) ->
      let now = t.clock () in
      let completion = Sockets.Flow.force_done fs.flow ~now in
      finalize t key fs completion ~now)
    remaining;
  Sockets.Loop.flush t.loop;
  publish_gauges t;
  (match t.metrics with
  | None -> ()
  | Some m -> Obs.Metrics.bridge_counters m ~labels:[ ("side", "server") ] (rollup t));
  Log.info (fun f -> f "server loop exits: %a" pp_totals t.totals)

let run t =
  serve t
    ~next_deadline:(fun () -> Sockets.Timers.peek_deadline t.timers)
    ~finished:(fun () -> false)

(* One flow slot on the caller's socket, served until the first admitted
   flow has left the table. Before any admission the heap is empty and the
   accept deadline, if any, is the loop's. *)
let receive_one ?ctx ?idle_timeout_ns ?accept_timeout_ns ?fallback_suite ?scenario ?seed
    ~socket () =
  let ctx = match ctx with Some c -> c | None -> Sockets.Io_ctx.default () in
  let poller = Sockets.Poller.create () in
  Fun.protect
    ~finally:(fun () -> Sockets.Poller.close poller)
    (fun () ->
      let transport =
        Sockets.Transport.udp ~batch:ctx.Sockets.Io_ctx.batch ~poller ~socket ()
      in
      let first = ref None in
      let on_complete e = if Option.is_none !first then first := Some e.completion in
      let t =
        create ~max_flows:1 ?idle_timeout_ns ?fallback_suite ?scenario ?seed ~ctx
          ~on_complete ~transport ()
      in
      let accept_until = Option.map (fun ns -> t.clock () + ns) accept_timeout_ns in
      let waiting () = t.totals.accepted = 0 in
      serve t
        ~next_deadline:(fun () ->
          if waiting () then accept_until else Sockets.Timers.peek_deadline t.timers)
        ~finished:(fun () ->
          if waiting () then
            match accept_until with Some d -> t.clock () - d >= 0 | None -> false
          else t.totals.completed + t.totals.aborted > 0);
      (* A one-transfer endpoint owns its flight ring: a failure dumps it. *)
      (match (!first, t.recorder) with
      | Some { Sockets.Flow.outcome; _ }, Some recorder
        when outcome <> Protocol.Action.Success ->
          ignore
            (Obs.Recorder.postmortem recorder
               ~reason:(Format.asprintf "flow: %a" Protocol.Action.pp_outcome outcome)
              : string option)
      | _ -> ());
      !first)

let wake t = Sockets.Loop.wake t.loop
let stop t = Sockets.Loop.stop t.loop

(* Structural invariants the event loop maintains between rounds; the
   deterministic-simulation harness calls this after every scheduler step.
   Empty list = healthy. *)
let invariant_violations t =
  let violations = ref [] in
  let fail fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  if Hashtbl.length t.flows > t.max_flows then
    fail "flow table holds %d flows, cap is %d" (Hashtbl.length t.flows) t.max_flows;
  (* Earliest live heap entry per flow key: lazy invalidation means extra,
     later entries are fine, but a live flow's next deadline must always be
     covered by an entry at or before it, or the loop could sleep past it. *)
  let heap_min : (key, int) Hashtbl.t = Hashtbl.create 16 in
  Sockets.Timers.iter t.timers (fun ~deadline key ->
      match Hashtbl.find_opt heap_min key with
      | Some d when d <= deadline -> ()
      | _ -> Hashtbl.replace heap_min key deadline);
  Hashtbl.iter
    (fun key fs ->
      let id = Sockets.Flow.transfer_id fs.flow in
      match Sockets.Flow.status fs.flow with
      | `Done _ -> fail "flow %d is closed but still in the table" id
      | `Running | `Lingering -> (
          match Sockets.Flow.next_deadline fs.flow with
          | None -> fail "live flow %d has no deadline (watchdog unarmed)" id
          | Some deadline -> (
              match Hashtbl.find_opt heap_min key with
              | Some h when h <= deadline -> ()
              | Some h ->
                  fail "flow %d: earliest heap entry %d is after its deadline %d" id h
                    deadline
              | None -> fail "flow %d: deadline %d has no timer-heap entry" id deadline)))
    t.flows;
  let a = t.totals in
  if a.accepted <> a.completed + a.aborted + Hashtbl.length t.flows then
    fail "totals drift: accepted %d <> completed %d + aborted %d + active %d" a.accepted
      a.completed a.aborted (Hashtbl.length t.flows);
  let violations = List.rev !violations in
  (* A broken invariant is exactly the moment "what were the last N
     datagrams doing" matters: dump the flight ring alongside the report. *)
  (match (violations, t.recorder) with
  | first :: _, Some recorder when not t.flight_dumped ->
      t.flight_dumped <- true;
      ignore
        (Obs.Recorder.postmortem recorder
           ~reason:("engine invariant violated: " ^ first))
  | _ -> ());
  violations
