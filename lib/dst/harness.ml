module Sim = Eventsim.Sim
module Proc = Eventsim.Proc
module Time = Eventsim.Time
module Net = Memnet.Net

let log = Logs.Src.create "dst.harness" ~doc:"whole-system deterministic simulation"

module Log = (val Logs.src_log log : Logs.LOG)

type churn = Steady | Kill | Reuse | Restart | Mixed

let churn_name = function
  | Steady -> "steady"
  | Kill -> "kill"
  | Reuse -> "reuse"
  | Restart -> "restart"
  | Mixed -> "mixed"

let all_churns = [ Steady; Kill; Reuse; Restart; Mixed ]
let churn_of_string s = List.find_opt (fun c -> churn_name c = s) all_churns

type config = {
  seed : int;
  churn : churn;
  faults : Faults.Scenario.t option;
  senders : int;
  transfers : int;
  max_flows : int;
  shards : int;
  bytes_min : int;
  bytes_max : int;
  think_min_ns : int;
  think_max_ns : int;
  packet_bytes : int;
  tuning : Protocol.Tuning.t;
  suites : Protocol.Suite.t list;
  latency_ns : int;
  horizon_ns : int;
}

let default_suites = [ Protocol.Suite.Blast Protocol.Blast.Go_back_n ]

let default_config ~seed =
  {
    seed;
    churn = Mixed;
    faults = Some Faults.Scenario.chaos;
    senders = 16;
    transfers = 3;
    max_flows = 12;
    shards = 1;
    bytes_min = 2 * 1024;
    bytes_max = 32 * 1024;
    think_min_ns = 200_000_000;
    think_max_ns = 2_000_000_000;
    packet_bytes = 1024;
    tuning = Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ~max_attempts:20 ();
    suites = default_suites;
    latency_ns = 50_000;
    horizon_ns = 60_000_000_000;
  }

type trial = {
  seed : int;
  churn : churn;
  fault_name : string;
  attempted : int;
  completed : int;
  rejected : int;
  failed : int;
  killed : int;
  restarts : int;
  superseded : int;
  server_completed : int;
  server_aborted : int;
  virtual_ns : int;
  events : int;
  violations : string list;
  journal : string;
  digest : string;
  flowtrace : string;
      (** per-flow lifecycle export (JSONL), virtual-time stamped — the
          byte-comparable replay artifact *)
  flight : string;  (** engine flight-ring JSONL; [""] unless the trial failed *)
}

(* One participant — an initial sender or a churn-spawned replacement. The
   churn controller and the end-of-run hang check read these; the process
   body writes them. All single-threaded under the simulation. *)
type slot = {
  label : string;
  mutable ep : Net.endpoint option;
  mutable active_id : int;  (** transfer id in flight; 0 = thinking/idle *)
  mutable active_total : int;  (** packet count of the in-flight transfer *)
  mutable started_at : int;  (** virtual ns the active transfer started *)
  mutable terminal : bool;
}

type harness = {
  cfg : config;
  sim : Sim.t;
  net : Net.t;
  journal : Buffer.t;
  flowtrace : Obs.Flowtrace.t;  (** shared across engine incarnations *)
  recorder : Obs.Recorder.t;  (** engine flight ring, virtual-time stamped *)
  violations : string list ref;
  engines : Server.Engine.t option array;
      (** current incarnation per shard, [None] mid-outage; length
          [cfg.shards] (1 = the classic single engine) *)
  slots : slot list ref;  (** insertion order — the churn picker's stable index *)
  remaining : int ref;  (** non-terminal participants *)
  shutdown : bool ref;  (** final stop requested; no restarts past this *)
  ledger : Server.Ledger.t;  (** the delivery oracle *)
  mutable last_activity_ns : int;  (** virtual time of the latest journal line *)
  mutable attempted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable failed : int;
  mutable killed : int;
  mutable restarts : int;
  mutable superseded : int;
  mutable server_completed : int;
  mutable server_aborted : int;
}

let server_port = 9_000

let now_ns h = Time.to_ns (Sim.now h.sim)

let line h fmt =
  Printf.ksprintf
    (fun s ->
      let now = now_ns h in
      h.last_activity_ns <- now;
      Buffer.add_string h.journal (Printf.sprintf "[%d] %s\n" now s))
    fmt

let violation h s =
  h.violations := s :: !(h.violations);
  line h "VIOLATION %s" s

let port_of = function
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "dst: ADDR_UNIX peer"

let outcome_str o = Format.asprintf "%a" Protocol.Action.pp_outcome o

(* Worst-case clean-failure time for one transfer: handshake and machine
   each exhaust [max_attempts] timeouts, plus linger, plus the netem delay
   cap (scenario validation bounds injected delays at one second) and a
   margin. A transfer unresolved longer than this has hung. *)
let worst_case_ns cfg =
  let retransmit_ns = Protocol.Tuning.retransmit_ns cfg.tuning in
  let max_attempts = Protocol.Tuning.max_attempts cfg.tuning in
  (2 * max_attempts * retransmit_ns) + (3 * retransmit_ns) + 2_000_000_000

let clock_of h () = now_ns h

let all_done h =
  h.shutdown := true;
  line h "all senders resolved; stopping engine";
  Array.iter (function Some e -> Server.Engine.stop e | None -> ()) h.engines

let finish h slot =
  if not slot.terminal then begin
    slot.terminal <- true;
    slot.active_id <- 0;
    decr h.remaining;
    if !(h.remaining) = 0 then all_done h
  end

(* ----------------------------------------------------------- server side *)

let on_complete h (e : Server.Engine.completion_event) =
  let c = e.Server.Engine.completion in
  let peer_port = port_of e.Server.Engine.peer in
  Option.iter (violation h) (Server.Ledger.served h.ledger ~peer:e.Server.Engine.peer c);
  line h "server settle peer=%d id=%d outcome=%s bytes=%d" peer_port
    c.Sockets.Flow.transfer_id (outcome_str c.Sockets.Flow.outcome)
    (String.length c.Sockets.Flow.data)

(* Tags for journal lines and lanes: a single-shard run keeps the classic,
   untagged journal shape. *)
let engine_tag h index = if h.cfg.shards = 1 then "engine" else Printf.sprintf "engine s%d" index

let engine_proc h index () =
  let bind () =
    if h.cfg.shards = 1 then Net.bind ~port:server_port h.net
    else
      (* Steering is memnet's default: {!Stats.Hash.steer} of the source
         port under the network seed — the kernel's REUSEPORT 4-tuple hash
         made explicit, shared with ring placement. *)
      Net.bind_shard h.net ~port:server_port ~shards:h.cfg.shards ~index
  in
  let rec incarnation gen =
    let ep = bind () in
    let transport = Net.transport ep in
    let engine =
      Server.Engine.create ~max_flows:h.cfg.max_flows
        ~ctx:
          (Sockets.Io_ctx.make ~clock:(clock_of h) ~recorder:h.recorder
             ~tuning:h.cfg.tuning ())
        ~on_complete:(on_complete h) ~flowtrace:h.flowtrace ~trace_epoch:gen
        ~lane_prefix:(if h.cfg.shards = 1 then "" else Printf.sprintf "s%d:" index)
        ~transport ()
    in
    h.engines.(index) <- Some engine;
    line h "%s up gen=%d" (engine_tag h index) gen;
    (try Server.Engine.run engine
     with exn ->
       violation h
         (Printf.sprintf "%s gen %d raised %s" (engine_tag h index) gen
            (Printexc.to_string exn)));
    h.engines.(index) <- None;
    let t = Server.Engine.totals engine in
    h.server_completed <- h.server_completed + t.Server.Engine.completed;
    h.server_aborted <- h.server_aborted + t.Server.Engine.aborted;
    h.superseded <- h.superseded + t.Server.Engine.superseded;
    line h "%s down gen=%d %s" (engine_tag h index) gen
      (Format.asprintf "%a" Server.Engine.pp_totals t);
    Net.close ep;
    (* An outage window before the same port comes back: mid-transfer
       senders blast into the void, then into a server that has never heard
       of their flows. Re-checked after the sleep — a shutdown during the
       outage must not resurrect the engine. *)
    if not !(h.shutdown) then begin
      h.restarts <- h.restarts + 1;
      Proc.sleep (Time.span_ns 200_000_000);
      if not !(h.shutdown) then incarnation (gen + 1)
    end
  in
  incarnation 0

(* ----------------------------------------------------------- sender side *)

let server_address = Unix.ADDR_INET (Unix.inet_addr_loopback, server_port)

(* Seeded random payload, eight bytes per RNG draw: senders generate tens of
   kilobytes per transfer, and a per-byte draw is the harness's hottest loop. *)
let payload_for rng bytes =
  let buf = Bytes.create bytes in
  let full = bytes / 8 in
  for i = 0 to full - 1 do
    Bytes.set_int64_le buf (i * 8) (Stats.Rng.bits64 rng)
  done;
  if bytes land 7 <> 0 then begin
    let word = Stats.Rng.bits64 rng in
    for i = full * 8 to bytes - 1 do
      Bytes.set_uint8 buf i (Int64.to_int (Int64.shift_right_logical word ((i land 7) * 8)) land 0xff)
    done
  end;
  Bytes.unsafe_to_string buf

let range rng lo hi = if hi <= lo then lo else lo + Stats.Rng.int rng (hi - lo + 1)

let packets_of h bytes = (bytes + h.cfg.packet_bytes - 1) / h.cfg.packet_bytes

(* One transfer through the real sender path over the simulated wire.
   [avoid_total] (a packet count) is for churn replacements: on a reused
   address and transfer id the geometry is the only thing distinguishing the
   new transfer's acks from the old one's stragglers, so a replacement never
   repeats its victim's. *)
let one_transfer h slot ~ep ~rng ~suite ~transfer_id ?(avoid_total = 0) () =
  let avoidable =
    avoid_total > 0
    && (packets_of h h.cfg.bytes_min <> avoid_total
       || packets_of h h.cfg.bytes_max <> avoid_total)
  in
  let rec pick () =
    let bytes = range rng h.cfg.bytes_min h.cfg.bytes_max in
    if avoidable && packets_of h bytes = avoid_total then pick () else bytes
  in
  let bytes = pick () in
  let data = payload_for rng bytes in
  let crc = Packet.Checksum.crc32_string data in
  let packets = packets_of h bytes in
  slot.active_id <- transfer_id;
  slot.active_total <- packets;
  slot.started_at <- now_ns h;
  h.attempted <- h.attempted + 1;
  line h "%s start id=%d bytes=%d crc=%08lx" slot.label transfer_id bytes crc;
  let result =
    Sockets.Peer.send_via
      ~ctx:(Sockets.Io_ctx.make ~clock:(clock_of h) ~tuning:h.cfg.tuning ())
      ~transfer_id ~packet_bytes:h.cfg.packet_bytes ~transport:(Net.transport ep)
      ~peer:server_address ~suite ~data ()
  in
  let outcome = result.Sockets.Peer.outcome in
  line h "%s end id=%d outcome=%s elapsed=%d" slot.label transfer_id (outcome_str outcome)
    result.Sockets.Peer.elapsed_ns;
  Option.iter (violation h)
    (Server.Ledger.sent h.ledger ~peer:(Net.address ep) ~transfer_id ~crc
       ~max_attempts:(Protocol.Tuning.max_attempts h.cfg.tuning) ~packets result);
  (match outcome with
  | Protocol.Action.Success -> h.completed <- h.completed + 1
  | Protocol.Action.Rejected -> h.rejected <- h.rejected + 1
  | Protocol.Action.Peer_unreachable | Protocol.Action.Too_many_attempts ->
      h.failed <- h.failed + 1);
  slot.active_id <- 0;
  slot.active_total <- 0

let guard h slot body =
  try body () with
  | Net.Closed _ ->
      h.killed <- h.killed + 1;
      line h "%s killed" slot.label;
      finish h slot
  | exn ->
      violation h
        (Printf.sprintf "%s raised %s — not a typed outcome" slot.label
           (Printexc.to_string exn));
      finish h slot

(* The suite axis is a pure function of the participant, never an RNG draw,
   so a single-suite trial keeps its event stream. *)
let suite_for h n = List.nth h.cfg.suites (n mod List.length h.cfg.suites)

let sender_proc h slot index () =
  guard h slot (fun () ->
      let rng = Stats.Rng.derive ~root:h.cfg.seed ~index:(100 + index) in
      (* Staggered start: admission pressure ramps instead of one spike. *)
      Proc.sleep (Time.span_ns (1_000_000 + Stats.Rng.int rng 500_000_000));
      let ep = Net.bind h.net in
      slot.ep <- Some ep;
      for i = 1 to h.cfg.transfers do
        one_transfer h slot ~ep ~rng ~suite:(suite_for h (index + i)) ~transfer_id:i ();
        if i < h.cfg.transfers then
          Proc.sleep (Time.span_ns (range rng h.cfg.think_min_ns h.cfg.think_max_ns))
      done;
      line h "%s done" slot.label;
      finish h slot)

(* A churn replacement: rebinds the victim's port within the old flow's idle
   window and throws a REQ with the victim's in-flight transfer id but fresh
   bytes at the engine — the [(address, transfer id)] collision the
   supersede path must catch. *)
let replacement_proc h slot seq ~port ~transfer_id ~avoid_total () =
  guard h slot (fun () ->
      let rng = Stats.Rng.derive ~root:h.cfg.seed ~index:(7_000 + seq) in
      Proc.sleep (Time.span_ns (10_000_000 + Stats.Rng.int rng 40_000_000));
      let ep = Net.bind ~port h.net in
      slot.ep <- Some ep;
      one_transfer h slot ~ep ~rng ~suite:(suite_for h seq) ~transfer_id ~avoid_total ();
      line h "%s done" slot.label;
      finish h slot)

(* ----------------------------------------------------------------- churn *)

let spawn_slot h label body =
  let slot =
    { label; ep = None; active_id = 0; active_total = 0; started_at = 0; terminal = false }
  in
  h.slots := !(h.slots) @ [ slot ];
  incr h.remaining;
  (slot, body slot)

let churn_controller h =
  let rng = Stats.Rng.derive ~root:h.cfg.seed ~index:7 in
  let kills = ref 0 and restarts_asked = ref 0 and reuse_seq = ref 0 in
  let max_kills = max 1 (h.cfg.senders / 2) in
  let victims () =
    let live = List.filter (fun s -> s.ep <> None && not s.terminal) !(h.slots) in
    (* Prefer a victim with a transfer in flight: senders spend most of their
       virtual time thinking, and killing an idle one never leaves a stale
       flow in the engine's table — the collision the reuse scenario exists
       to provoke. *)
    match List.filter (fun s -> s.active_id > 0) live with
    | [] -> live
    | busy -> busy
  in
  let kill ~reuse =
    match victims () with
    | [] -> ()
    | candidates ->
        let victim = List.nth candidates (Stats.Rng.int rng (List.length candidates)) in
        let ep = Option.get victim.ep in
        let port = Net.port ep in
        let in_flight = victim.active_id in
        let in_flight_total = victim.active_total in
        incr kills;
        line h "churn kill %s port=%d in_flight=%d" victim.label port in_flight;
        (* Closing wakes the victim's parked transport call with [Closed];
           its [guard] turns that into a journaled kill, never a violation. *)
        Net.close ep;
        victim.ep <- None;
        if reuse then begin
          incr reuse_seq;
          let seq = !reuse_seq in
          let transfer_id = if in_flight > 0 then in_flight else 1 in
          let slot, body =
            spawn_slot h
              (Printf.sprintf "reuse%d" seq)
              (fun slot ->
                replacement_proc h slot seq ~port ~transfer_id ~avoid_total:in_flight_total)
          in
          line h "churn reuse %s port=%d id=%d" slot.label port transfer_id;
          Proc.spawn (Proc.env h.sim) body
        end
  in
  let restart () =
    if !restarts_asked < 2 then begin
      (* Pick among live incarnations; a shard mid-outage is not a
         candidate. The extra RNG draw happens only when there is a real
         choice, so single-shard runs keep their classic event stream. *)
      let live = ref [] in
      Array.iteri
        (fun i e -> match e with Some engine -> live := (i, engine) :: !live | None -> ())
        h.engines;
      match List.rev !live with
      | [] -> ()
      | [ (index, engine) ] ->
          incr restarts_asked;
          line h "churn restart %s" (engine_tag h index);
          Server.Engine.stop engine
      | candidates ->
          let index, engine =
            List.nth candidates (Stats.Rng.int rng (List.length candidates))
          in
          incr restarts_asked;
          line h "churn restart %s" (engine_tag h index);
          Server.Engine.stop engine
    end
  in
  let act () =
    match h.cfg.churn with
    | Steady -> ()
    | Kill -> if !kills < max_kills then kill ~reuse:false
    | Reuse -> if !kills < max_kills then kill ~reuse:true
    | Restart -> restart ()
    | Mixed -> (
        match Stats.Rng.int rng 4 with
        | 0 -> restart ()
        | 1 -> if !kills < max_kills then kill ~reuse:false
        | _ -> if !kills < max_kills then kill ~reuse:true)
  in
  let rec tick () =
    if not !(h.shutdown) then begin
      act ();
      ignore
        (Sim.schedule_after h.sim
           (Time.span_ns (250_000_000 + Stats.Rng.int rng 1_000_000_000))
           tick
          : Sim.handle)
    end
  in
  if h.cfg.churn <> Steady then
    ignore
      (Sim.schedule_after h.sim
         (Time.span_ns (400_000_000 + Stats.Rng.int rng 800_000_000))
         tick
        : Sim.handle)

let invariant_watch h =
  let rec tick () =
    Array.iteri
      (fun index e ->
        match e with
        | Some engine ->
            List.iter
              (fun v -> violation h (engine_tag h index ^ " invariant: " ^ v))
              (Server.Engine.invariant_violations engine)
        | None -> ())
      h.engines;
    if not !(h.shutdown) then
      ignore (Sim.schedule_after h.sim (Time.span_ns 25_000_000) tick : Sim.handle)
  in
  ignore (Sim.schedule_after h.sim (Time.span_ns 25_000_000) tick : Sim.handle)

(* ------------------------------------------------------------------ trial *)

let run cfg =
  if cfg.senders <= 0 then invalid_arg "Dst: senders must be positive";
  if cfg.transfers <= 0 then invalid_arg "Dst: transfers must be positive";
  if cfg.bytes_min <= 0 || cfg.bytes_max < cfg.bytes_min then
    invalid_arg "Dst: bad transfer size range";
  if cfg.horizon_ns <= 0 then invalid_arg "Dst: horizon must be positive";
  if cfg.shards <= 0 then invalid_arg "Dst: shards must be positive";
  if cfg.suites = [] then invalid_arg "Dst: suites must not be empty";
  let sim = Sim.create () in
  let net = Net.create ~sim ~latency_ns:cfg.latency_ns ?scenario:cfg.faults ~seed:cfg.seed () in
  let h =
    {
      cfg;
      sim;
      net;
      journal = Buffer.create 4096;
      flowtrace = Obs.Flowtrace.create ();
      recorder = Obs.Recorder.create ();
      violations = ref [];
      engines = Array.make cfg.shards None;
      slots = ref [];
      remaining = ref 0;
      shutdown = ref false;
      ledger = Server.Ledger.create ();
      last_activity_ns = 0;
      attempted = 0;
      completed = 0;
      rejected = 0;
      failed = 0;
      killed = 0;
      restarts = 0;
      superseded = 0;
      server_completed = 0;
      server_aborted = 0;
    }
  in
  line h
    "dst seed=%d churn=%s faults=%s senders=%d transfers=%d max_flows=%d shards=%d tuning=%s%s"
    cfg.seed (churn_name cfg.churn)
    (match cfg.faults with Some s -> Faults.Scenario.name s | None -> "clean")
    cfg.senders cfg.transfers cfg.max_flows cfg.shards
    (Protocol.Tuning.to_string cfg.tuning)
    (* Like [engine_tag]: the default keeps the classic header. *)
    (if cfg.suites = default_suites then ""
     else " suites=" ^ String.concat "," (List.map Protocol.Suite.name cfg.suites));
  let env = Proc.env sim in
  for index = 0 to cfg.shards - 1 do
    Proc.spawn env
      ~name:(if cfg.shards = 1 then "engine" else Printf.sprintf "engine-s%d" index)
      (engine_proc h index)
  done;
  for index = 0 to cfg.senders - 1 do
    let _slot, body =
      spawn_slot h (Printf.sprintf "sender%d" index) (fun slot -> sender_proc h slot index)
    in
    Proc.spawn env ~name:(Printf.sprintf "sender%d" index) body
  done;
  churn_controller h;
  invariant_watch h;
  Sim.run ~until:(Time.of_ns cfg.horizon_ns) sim;
  (* [Sim.run ~until] leaves the clock at the horizon even when the queue
     drained early; the last journal line marks when activity actually
     stopped, which is the honest numerator for virtual-time throughput. *)
  let active_ns = h.last_activity_ns in
  let virtual_ns = now_ns h in
  (* Hang detection: an unresolved sender is a violation if the queue went
     quiet (a lost wake-up) or its transfer overran the worst-case bound. *)
  if !(h.remaining) > 0 then begin
    if Sim.pending sim = 0 then
      violation h
        (Printf.sprintf "event queue drained with %d senders unresolved (lost wake-up)"
           !(h.remaining));
    List.iter
      (fun s ->
        if (not s.terminal) && s.active_id > 0
           && virtual_ns - s.started_at > worst_case_ns cfg then
          violation h
            (Printf.sprintf "%s hung: transfer %d unresolved for %d virtual ns" s.label
               s.active_id (virtual_ns - s.started_at)))
      !(h.slots)
  end;
  List.iter (violation h) (Server.Ledger.unmatched h.ledger);
  let any_engine_up = Array.exists Option.is_some h.engines in
  Array.iteri
    (fun index e ->
      match e with
      | Some engine ->
          List.iter
            (fun v -> violation h (engine_tag h index ^ " invariant at horizon: " ^ v))
            (Server.Engine.invariant_violations engine)
      | None -> ())
    h.engines;
  if not any_engine_up then
    (* Every engine wound down, so every admitted flow was settled: the
       lifecycle grammar must hold — exactly one terminal per flow, nothing
       recorded past it. (With an engine still up at the horizon live flows
       legitimately lack terminals; the hang checks own that case.) *)
    List.iter
      (fun p -> violation h ("flowtrace: " ^ p))
      (Obs.Flowtrace.validate h.flowtrace);
  let stats = Net.stats net in
  line h "net delivered=%d unbound=%d overrun=%d" stats.Net.delivered
    stats.Net.dropped_unbound stats.Net.dropped_overrun;
  line h
    "trial end attempted=%d completed=%d rejected=%d failed=%d killed=%d restarts=%d \
     superseded=%d server=%d/%d"
    h.attempted h.completed h.rejected h.failed h.killed h.restarts h.superseded
    h.server_completed h.server_aborted;
  let journal = Buffer.contents h.journal in
  let violations = List.rev !(h.violations) in
  let trial =
    {
      seed = cfg.seed;
      churn = cfg.churn;
      fault_name = (match cfg.faults with Some s -> Faults.Scenario.name s | None -> "clean");
      attempted = h.attempted;
      completed = h.completed;
      rejected = h.rejected;
      failed = h.failed;
      killed = h.killed;
      restarts = h.restarts;
      superseded = h.superseded;
      server_completed = h.server_completed;
      server_aborted = h.server_aborted;
      virtual_ns = active_ns;
      events = List.length (String.split_on_char '\n' journal) - 1;
      violations;
      journal;
      digest = Digest.to_hex (Digest.string journal);
      flowtrace = Obs.Flowtrace.to_jsonl h.flowtrace;
      flight =
        (* Materialized only for failing trials: "what were the last N
           datagrams doing" next to the journal. *)
        (if violations = [] then ""
         else Obs.Export.jsonl_of_events (Obs.Recorder.events h.recorder));
    }
  in
  Log.info (fun f ->
      f "seed %d: %d/%d ok, %d violations" cfg.seed trial.completed trial.attempted
        (List.length trial.violations));
  trial

let run_seeds ?jobs cfg ~seeds =
  Exec.Pool.map ?jobs ~f:(fun seed -> run { cfg with seed }) seeds

let pp_trial ppf t =
  Format.fprintf ppf
    "seed %d [%s/%s]: %d attempted, %d ok, %d rejected, %d failed, %d killed; restarts %d, \
     superseded %d; server %d/%d; %d events over %.2f virtual s; %s"
    t.seed (churn_name t.churn) t.fault_name t.attempted t.completed t.rejected t.failed
    t.killed t.restarts t.superseded t.server_completed t.server_aborted t.events
    (float_of_int t.virtual_ns /. 1e9)
    (match t.violations with
    | [] -> "no violations"
    | vs -> Printf.sprintf "%d VIOLATIONS" (List.length vs))
