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

type ring = {
  servers : int;
  stripes : int;
  replicas : int;
  quorum : int;
  object_bytes : int;
}

type workload = Senders | Ring of ring

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
  workload : workload;
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
    workload = Senders;
  }

let default_ring =
  { servers = 5; stripes = 8; replicas = 3; quorum = 2; object_bytes = 64 * 1024 }

let ring_config ~seed =
  {
    (default_config ~seed) with
    workload = Ring default_ring;
    churn = Kill;
    faults = None;
    max_flows = 64;
  }

let validate cfg =
  let require ok what = if not ok then invalid_arg ("Dst: " ^ what) in
  require (cfg.horizon_ns > 0) "horizon must be positive";
  require (cfg.shards > 0) "shards must be positive";
  require (cfg.max_flows >= 0) "max_flows must not be negative";
  match cfg.workload with
  | Senders ->
      require (cfg.senders > 0) "senders must be positive";
      require (cfg.transfers > 0) "transfers must be positive";
      require
        (cfg.bytes_min > 0 && cfg.bytes_max >= cfg.bytes_min)
        "bad transfer size range";
      require (cfg.suites <> []) "suites must not be empty"
  | Ring r ->
      require (cfg.shards = 1) "the ring workload runs one engine per member (shards = 1)";
      require
        (cfg.churn = Steady || cfg.churn = Kill)
        "the ring workload takes steady or kill churn";
      require (r.servers >= 2) "ring needs at least 2 servers";
      require (r.stripes > 0) "ring stripes must be positive";
      require
        (0 < r.replicas && r.replicas <= r.servers)
        "ring needs 0 < replicas <= servers";
      require (0 < r.quorum && r.quorum <= r.replicas) "ring needs 0 < quorum <= replicas";
      require
        (cfg.churn <> Kill || r.quorum <= r.replicas - 1)
        "ring quorum must survive one death (quorum <= replicas - 1)";
      require (r.object_bytes >= r.stripes) "ring object has fewer bytes than stripes"

type ring_verdict = {
  killed_member : int option;
  put_blasts : int;
  quorum_met : bool;
  repair_actions : int;
  repair_rounds : int;
  fully_replicated : bool;
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
  ring : ring_verdict option;
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

(* The ring workload's progress: the client and the killer write it, the
   survey reads [dead], the trailer reads the rest. *)
type ring_state = {
  dead : bool array;
  mutable verdict : ring_verdict;
  mutable client_done : bool;
}

type harness = {
  cfg : config;
  sim : Sim.t;
  net : Net.t;
  journal : Buffer.t;
  flowtrace : Obs.Flowtrace.t;  (** shared across engines and their incarnations *)
  recorder : Obs.Recorder.t;  (** engine flight ring, virtual-time stamped *)
  violations : string list ref;
  engines : Server.Engine.t option array;
      (** current incarnation per shard or ring member, [None] while down *)
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
let ring_base_port = 9_100
let object_id = 77
let is_ring h = match h.cfg.workload with Ring _ -> true | Senders -> false

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
let packets_of h bytes = (bytes + h.cfg.packet_bytes - 1) / h.cfg.packet_bytes

let stop_all h reason =
  h.shutdown := true;
  line h "%s" reason;
  Array.iter (function Some e -> Server.Engine.stop e | None -> ()) h.engines

let finish h slot =
  if not slot.terminal then begin
    slot.terminal <- true;
    slot.active_id <- 0;
    decr h.remaining;
    if !(h.remaining) = 0 then stop_all h "all senders resolved; stopping engine"
  end

(* ----------------------------------------------------------- server side *)

(* Tags for journal lines and lanes: a single-shard run keeps the classic,
   untagged journal shape; a ring member is named by its index. *)
let engine_tag h index =
  match h.cfg.workload with
  | Ring _ -> Printf.sprintf "server %d" index
  | Senders -> if h.cfg.shards = 1 then "engine" else Printf.sprintf "engine s%d" index

let on_complete h index (e : Server.Engine.completion_event) =
  let c = e.Server.Engine.completion in
  let peer_port = port_of e.Server.Engine.peer in
  Option.iter (violation h) (Server.Ledger.served h.ledger ~peer:e.Server.Engine.peer c);
  line h "%s settle peer=%d id=%d outcome=%s bytes=%d"
    (if is_ring h then engine_tag h index else "server")
    peer_port c.Sockets.Flow.transfer_id (outcome_str c.Sockets.Flow.outcome)
    (String.length c.Sockets.Flow.data)

(* One engine slot. A sender-workload engine restarts after churn stops it;
   a ring member that stops stays down — killed for good, and the repair
   pass re-homes its stripes. *)
let engine_proc h index () =
  let tag = engine_tag h index in
  let bind, lane_prefix =
    match h.cfg.workload with
    | Ring _ ->
        ((fun () -> Net.bind ~port:(ring_base_port + index) h.net), Printf.sprintf "r%d:" index)
    | Senders when h.cfg.shards = 1 -> ((fun () -> Net.bind ~port:server_port h.net), "")
    | Senders ->
        (* Steering is memnet's default: {!Stats.Hash.steer} of the source
           port under the network seed — the kernel's REUSEPORT 4-tuple
           hash made explicit, shared with ring placement. *)
        ( (fun () -> Net.bind_shard h.net ~port:server_port ~shards:h.cfg.shards ~index),
          Printf.sprintf "s%d:" index )
  in
  let rec incarnation gen =
    let ep = bind () in
    let engine =
      Server.Engine.create ~max_flows:h.cfg.max_flows
        ~ctx:
          (Sockets.Io_ctx.make ~clock:(clock_of h) ~recorder:h.recorder
             ~tuning:h.cfg.tuning ())
        ~on_complete:(on_complete h index) ~flowtrace:h.flowtrace ~trace_epoch:gen
        ~lane_prefix ~transport:(Net.transport ep) ()
    in
    h.engines.(index) <- Some engine;
    if is_ring h then line h "%s up port=%d" tag (Net.port ep)
    else line h "%s up gen=%d" tag gen;
    (try Server.Engine.run engine
     with exn ->
       violation h
         (Printf.sprintf "%s%s raised %s" tag
            (if is_ring h then "" else Printf.sprintf " gen %d" gen)
            (Printexc.to_string exn)));
    h.engines.(index) <- None;
    let t = Server.Engine.totals engine in
    h.server_completed <- h.server_completed + t.Server.Engine.completed;
    h.server_aborted <- h.server_aborted + t.Server.Engine.aborted;
    h.superseded <- h.superseded + t.Server.Engine.superseded;
    let totals = Format.asprintf "%a" Server.Engine.pp_totals t in
    if is_ring h then
      line h "%s down manifest=%d %s" tag (Server.Engine.manifest_size engine) totals
    else line h "%s down gen=%d %s" tag gen totals;
    Net.close ep;
    (* An outage window before the same port comes back: mid-transfer
       senders blast into the void, then into a server that has never heard
       of their flows. Re-checked after the sleep — a shutdown during the
       outage must not resurrect the engine. *)
    if (not (is_ring h)) && not !(h.shutdown) then begin
      h.restarts <- h.restarts + 1;
      Proc.sleep (Time.span_ns 200_000_000);
      if not !(h.shutdown) then incarnation (gen + 1)
    end
  in
  incarnation 0

(* ----------------------------------------------------------- sender side *)

let server_address = Unix.ADDR_INET (Unix.inet_addr_loopback, server_port)

let range rng lo hi = if hi <= lo then lo else lo + Stats.Rng.int rng (hi - lo + 1)

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
  let data = Stats.Rng.string rng bytes in
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

(* ------------------------------------------------------------------ ring *)

let ring_address server = Unix.ADDR_INET (Unix.inet_addr_loopback, ring_base_port + server)
let ints_str l = String.concat "," (List.map string_of_int l)
let replication_str counts = ints_str (Array.to_list counts)

let kill_member h st victim =
  st.dead.(victim) <- true;
  st.verdict <- { st.verdict with killed_member = Some victim };
  h.killed <- h.killed + 1;
  line h "churn kill server=%d" victim;
  Option.iter Server.Engine.stop h.engines.(victim)

(* Each blast's outcome into the trial's counts and the delivery oracle,
   under its stripe's CRC and the client endpoint it left from. *)
let record_blasts h ~label ~peer ~crcs results =
  List.iter
    (fun { Ring.Client.job; transfer_id; result } ->
      let outcome = result.Sockets.Peer.outcome in
      line h "%s id=%d stripe=%d server=%d outcome=%s" label transfer_id
        job.Ring.Client.stripe job.Ring.Client.server (outcome_str outcome);
      h.attempted <- h.attempted + 1;
      if outcome = Protocol.Action.Success then h.completed <- h.completed + 1
      else h.failed <- h.failed + 1;
      Option.iter (violation h)
        (Server.Ledger.sent h.ledger ~peer ~transfer_id ~crc:crcs.(job.Ring.Client.stripe)
           ~max_attempts:(Protocol.Tuning.max_attempts h.cfg.tuning)
           ~packets:(packets_of h job.Ring.Client.bytes) result))
    results

let record_survey h { Ring.Repair.answered; unresponsive } =
  List.iter (fun (s, e) -> line h "survey server=%d entries=%d" s (List.length e)) answered;
  List.iter (fun s -> line h "survey server=%d unresponsive" s) unresponsive

(* The serving client on the simulated wire: the put, then read-repair on
   the live ring, each on an endpoint of its own. The harness adds the kill
   and checks the outcomes. *)
let ring_client h r st () =
  let cfg = h.cfg in
  let rng = Stats.Rng.derive ~root:cfg.seed ~index:42 in
  (* Let every server come up before the fan-out. *)
  Proc.sleep (Time.span_ns 5_000_000);
  let data = Stats.Rng.string rng r.object_bytes in
  let crcs = Ring.Client.stripe_crcs ~data ~stripes:r.stripes in
  let members = List.init r.servers Fun.id in
  let placement = Ring.Placement.create ~seed:cfg.seed members in
  let jobs =
    Ring.Client.plan placement ~object_id ~total:r.object_bytes ~stripes:r.stripes
      ~replicas:r.replicas
  in
  let ctx = Sockets.Io_ctx.make ~clock:(clock_of h) ~tuning:cfg.tuning () in
  st.verdict <- { st.verdict with put_blasts = List.length jobs };
  line h "put start object=%d bytes=%d stripes=%d replicas=%d quorum=%d jobs=%d" object_id
    r.object_bytes r.stripes r.replicas r.quorum (List.length jobs);
  let ep = Net.bind h.net in
  let transport =
    if cfg.churn <> Kill then Net.transport ep
    else
      Ring.Client.kill_mid_put ~draw:(Stats.Rng.int rng)
        ~max_attempts:(Protocol.Tuning.max_attempts cfg.tuning)
        ~packet_bytes:cfg.packet_bytes ~peer_of:ring_address ~kill:(kill_member h st) jobs
        (Net.transport ep)
  in
  let put =
    Ring.Client.put ~ctx ~packet_bytes:cfg.packet_bytes ~transport ~placement
      ~peer_of:ring_address ~object_id ~stripes:r.stripes ~replicas:r.replicas
      ~quorum:r.quorum ~data ()
  in
  Net.close ep;
  record_blasts h ~label:"blast" ~peer:(Net.address ep) ~crcs put.Ring.Client.results;
  line h "put end ok=%d failed=%d" h.completed h.failed;
  (* The invariant is no {e false durability claim}: whenever the put's own
     outcomes reached the quorum (per stripe, [Success] >= W), the survey
     must confirm it. The converse is allowed — under a hostile enough wire
     a blast at a {e live} server can exhaust its attempts and fail cleanly,
     and then the put itself already reported the object not durable.
     Successes on the killed server do not count toward the claim: a
     replica may land there before the kill, and dies with it — which is
     precisely the gap repair exists to close, not a lie anyone told. *)
  let claimed = Array.make r.stripes 0 in
  List.iter
    (fun { Ring.Client.job = { Ring.Client.stripe; server; _ }; result; _ } ->
      if result.Sockets.Peer.outcome = Protocol.Action.Success && not st.dead.(server) then
        claimed.(stripe) <- claimed.(stripe) + 1)
    put.Ring.Client.results;
  let put_claimed_quorum = Array.for_all (fun c -> c >= r.quorum) claimed in
  let live = List.filter (fun i -> not st.dead.(i)) members in
  let ep = Net.bind h.net in
  let { Ring.Repair.first; before; rounds; reblasts; last; after; target; fully_replicated;
        _ } =
    Ring.Repair.run ~ctx ~packet_bytes:cfg.packet_bytes ~transport:(Net.transport ep)
      ~placement:(Ring.Placement.create ~seed:cfg.seed live)
      ~peer_of:ring_address ~object_id ~stripes:r.stripes ~replicas:r.replicas ~data ()
  in
  Net.close ep;
  (* A partial survey (under a hostile wire the survey itself is lossy) can
     drive repair — re-blasting a held stripe is idempotent — but never
     grounds a verdict against anyone. *)
  let unanswered (s : Ring.Repair.survey) = s.Ring.Repair.unresponsive in
  record_survey h first;
  line h "replication before repair [%s]" (replication_str before);
  let quorum_met = Array.for_all (fun n -> n >= r.quorum) before in
  if not quorum_met then begin
    line h "write quorum unmet before repair (put claimed it: %b)" put_claimed_quorum;
    if put_claimed_quorum then
      if unanswered first = [] then
        violation h
          (Printf.sprintf
             "false durability claim: put reached quorum but the survey says [%s]"
             (replication_str before))
      else
        line h "survey partial (unanswered [%s]); quorum verdict skipped"
          (ints_str (unanswered first))
  end;
  record_blasts h ~label:"reblast" ~peer:(Net.address ep) ~crcs reblasts;
  if rounds > 0 then record_survey h last;
  line h "replication after repair [%s]" (replication_str after);
  st.verdict <-
    {
      st.verdict with
      quorum_met;
      repair_actions = List.length reblasts;
      repair_rounds = rounds;
      fully_replicated;
    };
  if not fully_replicated then
    if unanswered last = [] then
      violation h
        (Printf.sprintf
           "repair left the object under-replicated after %d rounds: [%s] (target %d)"
           rounds (replication_str after) target)
    else
      line h "under-replication verdict skipped: survey partial (unanswered [%s])"
        (ints_str (unanswered last));
  st.client_done <- true;
  stop_all h "client done; stopping ring"

(* ------------------------------------------------------------ invariants *)

let check_engines h ~what =
  Array.iteri
    (fun index e ->
      match e with
      | Some engine ->
          List.iter
            (fun v -> violation h (Printf.sprintf "%s %s: %s" (engine_tag h index) what v))
            (Server.Engine.invariant_violations engine)
      | None -> ())
    h.engines

let invariant_watch h =
  let rec tick () =
    check_engines h ~what:"invariant";
    if not !(h.shutdown) then
      ignore (Sim.schedule_after h.sim (Time.span_ns 25_000_000) tick : Sim.handle)
  in
  ignore (Sim.schedule_after h.sim (Time.span_ns 25_000_000) tick : Sim.handle)

(* ------------------------------------------------------------------ trial *)

let run cfg =
  validate cfg;
  let sim = Sim.create () in
  let net = Net.create ~sim ~latency_ns:cfg.latency_ns ?scenario:cfg.faults ~seed:cfg.seed () in
  let engine_count = match cfg.workload with Senders -> cfg.shards | Ring r -> r.servers in
  let h =
    {
      cfg;
      sim;
      net;
      journal = Buffer.create 4096;
      flowtrace = Obs.Flowtrace.create ();
      recorder = Obs.Recorder.create ();
      violations = ref [];
      engines = Array.make engine_count None;
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
  let fault_name =
    match cfg.faults with Some s -> Faults.Scenario.name s | None -> "clean"
  in
  (match cfg.workload with
  | Senders ->
      line h
        "dst seed=%d churn=%s faults=%s senders=%d transfers=%d max_flows=%d shards=%d \
         tuning=%s%s"
        cfg.seed (churn_name cfg.churn) fault_name cfg.senders cfg.transfers cfg.max_flows
        cfg.shards
        (Protocol.Tuning.to_string cfg.tuning)
        (* Like [engine_tag]: the default keeps the classic header. *)
        (if cfg.suites = default_suites then ""
         else " suites=" ^ String.concat "," (List.map Protocol.Suite.name cfg.suites))
  | Ring r ->
      line h "ring seed=%d servers=%d stripes=%d replicas=%d quorum=%d kill=%b faults=%s"
        cfg.seed r.servers r.stripes r.replicas r.quorum (cfg.churn = Kill) fault_name);
  let env = Proc.env sim in
  for index = 0 to engine_count - 1 do
    Proc.spawn env (engine_proc h index)
  done;
  let ring =
    match cfg.workload with
    | Senders ->
        for index = 0 to cfg.senders - 1 do
          let _slot, body =
            spawn_slot h (Printf.sprintf "sender%d" index) (fun slot -> sender_proc h slot index)
          in
          Proc.spawn env ~name:(Printf.sprintf "sender%d" index) body
        done;
        churn_controller h;
        None
    | Ring r ->
        let st =
          {
            dead = Array.make r.servers false;
            verdict =
              {
                killed_member = None;
                put_blasts = 0;
                quorum_met = false;
                repair_actions = 0;
                repair_rounds = 0;
                fully_replicated = false;
              };
            client_done = false;
          }
        in
        Proc.spawn env ~name:"client" (ring_client h r st);
        Some st
  in
  invariant_watch h;
  Sim.run ~until:(Time.of_ns cfg.horizon_ns) sim;
  (* [Sim.run ~until] leaves the clock at the horizon even when the queue
     drained early; the last journal line marks when activity actually
     stopped, which is the honest numerator for virtual-time throughput.
     Read it before the trailer below, which is stamped at the horizon. *)
  let active_ns = h.last_activity_ns in
  let virtual_ns = now_ns h in
  (match ring with
  | Some st ->
      if not st.client_done then
        violation h "client did not finish within the virtual horizon"
  | None ->
      (* Hang detection: an unresolved sender is a violation if the queue
         went quiet (a lost wake-up) or its transfer overran the worst-case
         bound. *)
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
      end);
  List.iter (violation h) (Server.Ledger.unmatched h.ledger);
  check_engines h ~what:"invariant at horizon";
  if not (Array.exists Option.is_some h.engines) then
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
  (match ring with
  | None ->
      line h
        "trial end attempted=%d completed=%d rejected=%d failed=%d killed=%d restarts=%d \
         superseded=%d server=%d/%d"
        h.attempted h.completed h.rejected h.failed h.killed h.restarts h.superseded
        h.server_completed h.server_aborted
  | Some { verdict = v; _ } ->
      (* Every recorded blast, put and repair, so blasts = ok + failed. *)
      line h "trial end blasts=%d ok=%d failed=%d quorum=%b repaired=%b actions=%d"
        h.attempted h.completed h.failed v.quorum_met v.fully_replicated v.repair_actions);
  let journal = Buffer.contents h.journal in
  let violations = List.rev !(h.violations) in
  let trial =
    {
      seed = cfg.seed;
      churn = cfg.churn;
      fault_name;
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
      ring = Option.map (fun st -> st.verdict) ring;
    }
  in
  Log.info (fun f ->
      f "seed %d: %d/%d ok, %d violations" cfg.seed trial.completed trial.attempted
        (List.length trial.violations));
  trial

let run_seeds ?jobs cfg ~seeds =
  Exec.Pool.map ?jobs ~f:(fun seed -> run { cfg with seed }) seeds

let pp_trial ppf (t : trial) =
  let verdict =
    match t.violations with
    | [] -> "no violations"
    | vs -> Printf.sprintf "%d VIOLATIONS" (List.length vs)
  in
  let span_s = float_of_int t.virtual_ns /. 1e9 in
  match t.ring with
  | None ->
      Format.fprintf ppf
        "seed %d [%s/%s]: %d attempted, %d ok, %d rejected, %d failed, %d killed; restarts \
         %d, superseded %d; server %d/%d; %d events over %.2f virtual s; %s"
        t.seed (churn_name t.churn) t.fault_name t.attempted t.completed t.rejected t.failed
        t.killed t.restarts t.superseded t.server_completed t.server_aborted t.events span_s
        verdict
  | Some v ->
      Format.fprintf ppf
        "seed %d [%s]: %d blasts (%d ok, %d failed), killed %s, quorum %s, repair %d \
         actions/%d rounds, %s; %d events over %.2f virtual s; %s"
        t.seed t.fault_name t.attempted t.completed t.failed
        (match v.killed_member with Some i -> string_of_int i | None -> "none")
        (if v.quorum_met then "met" else "UNMET")
        v.repair_actions v.repair_rounds
        (if v.fully_replicated then "fully replicated" else "UNDER-REPLICATED")
        t.events span_s verdict
