module Sim = Eventsim.Sim
module Proc = Eventsim.Proc
module Time = Eventsim.Time
module Mailbox = Eventsim.Mailbox
module Net = Memnet.Net

let log = Logs.Src.create "dst.ring" ~doc:"ring transfer deterministic simulation"

module Log = (val Logs.src_log log : Logs.LOG)

type config = {
  seed : int;
  servers : int;
  stripes : int;
  replicas : int;
  quorum : int;
  kill_one : bool;
  faults : Faults.Scenario.t option;
  object_bytes : int;
  packet_bytes : int;
  vnodes : int;
  max_flows : int;
  tuning : Protocol.Tuning.t;
  latency_ns : int;
  horizon_ns : int;
}

let default_config ~seed =
  {
    seed;
    servers = 5;
    stripes = 8;
    replicas = 3;
    quorum = 2;
    kill_one = true;
    faults = None;
    object_bytes = 64 * 1024;
    packet_bytes = 1024;
    vnodes = 32;
    max_flows = 64;
    tuning = Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ~max_attempts:20 ();
    latency_ns = 50_000;
    horizon_ns = 60_000_000_000;
  }

type trial = {
  seed : int;
  fault_name : string;
  killed : int option;
  blasts : int;
  blast_ok : int;
  blast_failed : int;
  quorum_met : bool;  (** surveyed over the live ring, before repair *)
  repair_actions : int;
  repair_rounds : int;
  fully_replicated : bool;  (** surveyed after repair, live ring *)
  violations : string list;
  virtual_ns : int;
  events : int;
  journal : string;
  digest : string;
}

type harness = {
  cfg : config;
  sim : Sim.t;
  net : Net.t;
  journal : Buffer.t;
  violations : string list ref;
  engines : Server.Engine.t option array;
  dead : bool array;
  shutdown : bool ref;
  mutable last_activity_ns : int;
  mutable killed : int option;
  mutable blasts : int;
  mutable blast_ok : int;
  mutable blast_failed : int;
  mutable quorum_met : bool;
  mutable repair_actions : int;
  mutable repair_rounds : int;
  mutable fully_replicated : bool;
  mutable client_done : bool;
}

let base_port = 9_100
let object_id = 77

let now_ns h = Time.to_ns (Sim.now h.sim)
let clock_of h () = now_ns h

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

let outcome_str o = Format.asprintf "%a" Protocol.Action.pp_outcome o
let addr_of server = Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + server)

(* ---------------------------------------------------------------- servers *)

let on_complete h index (e : Server.Engine.completion_event) =
  let c = e.Server.Engine.completion in
  let peer_port =
    match e.Server.Engine.peer with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> 0
  in
  (match (c.Sockets.Flow.outcome, c.Sockets.Flow.integrity) with
  | Protocol.Action.Success, Sockets.Flow.Verified -> ()
  | Protocol.Action.Success, _ ->
      violation h
        (Printf.sprintf "server %d settled a success without CRC verification" index)
  | _ -> ());
  line h "server %d settle peer=%d id=%d outcome=%s bytes=%d" index peer_port
    c.Sockets.Flow.transfer_id (outcome_str c.Sockets.Flow.outcome)
    (String.length c.Sockets.Flow.data)

(* One ring member: engine on its own port, no resurrection — a killed
   member stays dead and the repair pass re-homes its stripes instead. *)
let server_proc h index () =
  let ep = Net.bind ~port:(base_port + index) h.net in
  let transport = Net.transport ep in
  let engine =
    Server.Engine.create ~max_flows:h.cfg.max_flows
      ~ctx:(Sockets.Io_ctx.make ~clock:(clock_of h) ~tuning:h.cfg.tuning ())
      ~on_complete:(on_complete h index)
      ~lane_prefix:(Printf.sprintf "r%d:" index)
      ~transport ()
  in
  h.engines.(index) <- Some engine;
  line h "server %d up port=%d" index (base_port + index);
  (try Server.Engine.run engine
   with exn ->
     violation h
       (Printf.sprintf "server %d raised %s" index (Printexc.to_string exn)));
  h.engines.(index) <- None;
  line h "server %d down manifest=%d %s" index
    (Server.Engine.manifest_size engine)
    (Format.asprintf "%a" Server.Engine.pp_totals (Server.Engine.totals engine));
  Net.close ep

(* ----------------------------------------------------------------- client *)

(* One stripe replica as its own simulated process on its own ephemeral
   endpoint — the DST mirror of Ring.Client.blast. *)
let blast_proc h ~data ~results (job : Ring.Client.job) () =
  let ep = Net.bind h.net in
  let transport = Net.transport ep in
  let stripe =
    {
      Packet.Stripe.object_id;
      index = job.Ring.Client.stripe;
      count = h.cfg.stripes;
    }
  in
  let result =
    Sockets.Peer.send_via
      ~ctx:(Sockets.Io_ctx.make ~clock:(clock_of h) ~tuning:h.cfg.tuning ())
      ~transfer_id:object_id ~packet_bytes:h.cfg.packet_bytes ~stripe ~transport
      ~peer:(addr_of job.Ring.Client.server)
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
      ~data:(String.sub data job.Ring.Client.offset job.Ring.Client.bytes)
      ()
  in
  line h "blast stripe=%d replica=%d server=%d outcome=%s" job.Ring.Client.stripe
    job.Ring.Client.replica job.Ring.Client.server
    (outcome_str result.Sockets.Peer.outcome);
  Net.close ep;
  ignore (Mailbox.try_put results (job, result.Sockets.Peer.outcome))

let run_blasts h ~data jobs =
  let results : (Ring.Client.job * Protocol.Action.outcome) Mailbox.t =
    Mailbox.create ~capacity:max_int
  in
  List.iteri
    (fun i job ->
      Proc.spawn (Proc.env h.sim)
        ~name:(Printf.sprintf "blast-%d" i)
        (blast_proc h ~data ~results job))
    jobs;
  List.map (fun _ -> Mailbox.get results) jobs

(* Survey every live member over the wire — a fresh endpoint per query so a
   straggling reply from one server can never be read as another's. Returns
   the folded manifest plus the live members whose exchange never completed
   (under a hostile wire the survey itself is lossy): a partial survey can
   drive repair — re-blasting a held stripe is idempotent — but must never
   ground a quorum verdict against anyone. *)
let survey h =
  let manifest = Ring.Manifest.create ~object_id ~stripes:h.cfg.stripes in
  let answered = Array.make h.cfg.servers false in
  let remaining () =
    List.init h.cfg.servers Fun.id
    |> List.filter (fun s -> (not h.dead.(s)) && not answered.(s))
  in
  (* Up to three passes over the silent members: a single MREQ/MREP
     exchange can lose every attempt against a perfectly live server, so
     the survey retries before calling anyone unresponsive. *)
  let pass = ref 0 in
  while !pass < 3 && remaining () <> [] do
    incr pass;
    List.iter
      (fun server ->
        let ep = Net.bind h.net in
        let transport = Net.transport ep in
        (match
           Ring.Repair.query_via ~attempts:5
             ~timeout_ns:(4 * Protocol.Tuning.retransmit_ns h.cfg.tuning)
             ~clock:(clock_of h)
             ~transport ~peer:(addr_of server) ~object_id ()
         with
        | Some entries ->
            answered.(server) <- true;
            Ring.Manifest.record manifest ~server entries;
            line h "survey server=%d entries=%d" server (List.length entries)
        | None -> line h "survey server=%d unresponsive (pass %d)" server !pass);
        Net.close ep)
      (remaining ())
  done;
  (manifest, remaining ())

let replication_str counts =
  String.concat "," (List.map string_of_int (Array.to_list counts))

let client_proc h () =
  let cfg = h.cfg in
  let rng = Stats.Rng.derive ~root:cfg.seed ~index:42 in
  (* Let every server come up before the fan-out. *)
  Proc.sleep (Time.span_ns 5_000_000);
  let data = Stats.Rng.string rng cfg.object_bytes in
  let crcs = Ring.Client.stripe_crcs ~data ~stripes:cfg.stripes in
  let placement =
    Ring.Placement.create ~vnodes:cfg.vnodes ~seed:cfg.seed
      (List.init cfg.servers Fun.id)
  in
  let jobs =
    Ring.Client.plan placement ~object_id ~total:cfg.object_bytes
      ~stripes:cfg.stripes ~replicas:cfg.replicas
  in
  h.blasts <- List.length jobs;
  line h "put start object=%d bytes=%d stripes=%d replicas=%d quorum=%d jobs=%d"
    object_id cfg.object_bytes cfg.stripes cfg.replicas cfg.quorum h.blasts;
  (* The kill lands while the fan-out is in flight: one member of the ring
     goes dark mid-transfer, for good. *)
  if cfg.kill_one then begin
    let victim = Stats.Rng.int rng cfg.servers in
    (* A clean fan-out settles within a couple of milliseconds of virtual
       time, so the kill must land inside the first one to be genuinely
       mid-transfer. *)
    let delay_ns = 100_000 + Stats.Rng.int rng 500_000 in
    Proc.spawn (Proc.env h.sim) ~name:"killer" (fun () ->
        Proc.sleep (Time.span_ns delay_ns);
        match h.engines.(victim) with
        | Some engine when not h.dead.(victim) ->
            h.dead.(victim) <- true;
            h.killed <- Some victim;
            line h "churn kill server=%d" victim;
            Server.Engine.stop engine
        | _ -> ())
  end;
  let results = run_blasts h ~data jobs in
  List.iter
    (fun (_, outcome) ->
      if outcome = Protocol.Action.Success then h.blast_ok <- h.blast_ok + 1
      else h.blast_failed <- h.blast_failed + 1)
    results;
  line h "put end ok=%d failed=%d" h.blast_ok h.blast_failed;
  (* The verdict comes from the ring's own answers, not from the blasts'
     view of themselves. The invariant is no {e false durability claim}:
     whenever the put's own outcomes reached the quorum (per stripe,
     [Success] >= W), the survey must confirm it. The converse is allowed —
     under a hostile enough wire a blast at a {e live} server can exhaust
     its attempts and fail cleanly, and then the put itself already
     reported the object not durable. Successes on the killed server do
     not count toward the claim: a replica may land there before the kill,
     and dies with it — which is precisely the gap repair exists to
     close, not a lie anyone told. *)
  let claimed = Array.make cfg.stripes 0 in
  List.iter
    (fun ((job : Ring.Client.job), outcome) ->
      if outcome = Protocol.Action.Success && not h.dead.(job.Ring.Client.server) then
        claimed.(job.Ring.Client.stripe) <- claimed.(job.Ring.Client.stripe) + 1)
    results;
  let put_claimed_quorum = Array.for_all (fun c -> c >= cfg.quorum) claimed in
  let manifest, unanswered = survey h in
  let counts = Ring.Manifest.replication manifest ~crcs in
  line h "replication before repair [%s]" (replication_str counts);
  h.quorum_met <- Ring.Manifest.quorum_met manifest ~quorum:cfg.quorum ~crcs;
  if not h.quorum_met then begin
    line h "write quorum unmet before repair (put claimed it: %b)" put_claimed_quorum;
    if put_claimed_quorum then
      if unanswered = [] then
        violation h
          (Printf.sprintf
             "false durability claim: put reached quorum but the survey says [%s]"
             (replication_str counts))
      else
        (* A partial survey reads a silent live server's holdings as zero;
           it can drive repair (re-blasting a held stripe is idempotent)
           but must never ground a quorum verdict against anyone. *)
        line h "survey partial (unanswered [%s]); quorum verdict skipped"
          (String.concat "," (List.map string_of_int unanswered))
  end;
  (* Read-repair on the live ring, to convergence (bounded rounds). *)
  let live =
    List.init cfg.servers Fun.id |> List.filter (fun i -> not h.dead.(i))
  in
  let live_placement =
    Ring.Placement.create ~vnodes:cfg.vnodes ~seed:cfg.seed live
  in
  let target_replicas = min cfg.replicas (List.length live) in
  let rec repair_rounds round (manifest, unanswered) =
    let actions =
      Ring.Repair.plan ~placement:live_placement ~object_id
        ~replicas:target_replicas ~crcs manifest
    in
    if actions = [] then (manifest, unanswered)
    else if round > 3 then begin
      (if unanswered = [] then
         violation h
           (Printf.sprintf
              "repair did not converge after 3 rounds (%d actions left)"
              (List.length actions))
       else
         line h "repair rounds exhausted on a partial survey (unanswered [%s])"
           (String.concat "," (List.map string_of_int unanswered)));
      (manifest, unanswered)
    end
    else begin
      h.repair_rounds <- round;
      h.repair_actions <- h.repair_actions + List.length actions;
      List.iter (fun a -> line h "repair %s" (Format.asprintf "%a" Ring.Repair.pp_action a)) actions;
      let jobs =
        List.map
          (fun (a : Ring.Repair.action) ->
            let offset, bytes =
              Ring.Client.stripe_bounds ~total:cfg.object_bytes
                ~stripes:cfg.stripes ~index:a.Ring.Repair.stripe
            in
            {
              Ring.Client.stripe = a.Ring.Repair.stripe;
              replica = -1;
              server = a.Ring.Repair.server;
              offset;
              bytes;
            })
          actions
      in
      let results = run_blasts h ~data jobs in
      List.iter
        (fun (_, outcome) ->
          if outcome = Protocol.Action.Success then h.blast_ok <- h.blast_ok + 1
          else h.blast_failed <- h.blast_failed + 1)
        results;
      repair_rounds (round + 1) (survey h)
    end
  in
  let manifest, unanswered = repair_rounds 1 (manifest, unanswered) in
  let counts = Ring.Manifest.replication manifest ~crcs in
  line h "replication after repair [%s]" (replication_str counts);
  h.fully_replicated <- Array.for_all (fun n -> n >= target_replicas) counts;
  if not h.fully_replicated then
    if unanswered = [] then
      violation h
        (Printf.sprintf
           "repair left the object under-replicated: [%s] (target %d)"
           (replication_str counts) target_replicas)
    else
      line h "under-replication verdict skipped: survey partial (unanswered [%s])"
        (String.concat "," (List.map string_of_int unanswered));
  h.client_done <- true;
  h.shutdown := true;
  line h "client done; stopping ring";
  Array.iter (function Some e -> Server.Engine.stop e | None -> ()) h.engines

let invariant_watch h =
  let rec tick () =
    Array.iteri
      (fun index e ->
        match e with
        | Some engine ->
            List.iter
              (fun v -> violation h (Printf.sprintf "server %d invariant: %s" index v))
              (Server.Engine.invariant_violations engine)
        | None -> ())
      h.engines;
    if not !(h.shutdown) then
      ignore (Sim.schedule_after h.sim (Time.span_ns 25_000_000) tick : Sim.handle)
  in
  ignore (Sim.schedule_after h.sim (Time.span_ns 25_000_000) tick : Sim.handle)

(* ------------------------------------------------------------------ trial *)

let run cfg =
  if cfg.servers <= 1 then invalid_arg "Dst.Ring: need at least 2 servers";
  if cfg.stripes <= 0 then invalid_arg "Dst.Ring: stripes must be positive";
  if cfg.replicas <= 0 || cfg.replicas > cfg.servers then
    invalid_arg "Dst.Ring: need 0 < replicas <= servers";
  if cfg.quorum <= 0 || cfg.quorum > cfg.replicas then
    invalid_arg "Dst.Ring: need 0 < quorum <= replicas";
  if cfg.kill_one && cfg.quorum > cfg.replicas - 1 then
    invalid_arg "Dst.Ring: quorum must survive one death (quorum <= replicas - 1)";
  if cfg.object_bytes < cfg.stripes then
    invalid_arg "Dst.Ring: fewer bytes than stripes";
  let sim = Sim.create () in
  let net =
    Net.create ~sim ~latency_ns:cfg.latency_ns ?scenario:cfg.faults ~seed:cfg.seed ()
  in
  let h =
    {
      cfg;
      sim;
      net;
      journal = Buffer.create 4096;
      violations = ref [];
      engines = Array.make cfg.servers None;
      dead = Array.make cfg.servers false;
      shutdown = ref false;
      last_activity_ns = 0;
      killed = None;
      blasts = 0;
      blast_ok = 0;
      blast_failed = 0;
      quorum_met = false;
      repair_actions = 0;
      repair_rounds = 0;
      fully_replicated = false;
      client_done = false;
    }
  in
  line h "ring seed=%d servers=%d stripes=%d replicas=%d quorum=%d kill=%b faults=%s"
    cfg.seed cfg.servers cfg.stripes cfg.replicas cfg.quorum cfg.kill_one
    (match cfg.faults with Some s -> Faults.Scenario.name s | None -> "clean");
  let env = Proc.env sim in
  for index = 0 to cfg.servers - 1 do
    Proc.spawn env ~name:(Printf.sprintf "server-%d" index) (server_proc h index)
  done;
  Proc.spawn env ~name:"client" (client_proc h);
  invariant_watch h;
  Sim.run ~until:(Time.of_ns cfg.horizon_ns) sim;
  if not h.client_done then
    violation h "client did not finish within the virtual horizon";
  let stats = Net.stats net in
  line h "net delivered=%d unbound=%d overrun=%d" stats.Net.delivered
    stats.Net.dropped_unbound stats.Net.dropped_overrun;
  line h "trial end blasts=%d ok=%d failed=%d quorum=%b repaired=%b actions=%d"
    h.blasts h.blast_ok h.blast_failed h.quorum_met h.fully_replicated
    h.repair_actions;
  let journal = Buffer.contents h.journal in
  let violations = List.rev !(h.violations) in
  let trial =
    {
      seed = cfg.seed;
      fault_name =
        (match cfg.faults with Some s -> Faults.Scenario.name s | None -> "clean");
      killed = h.killed;
      blasts = h.blasts;
      blast_ok = h.blast_ok;
      blast_failed = h.blast_failed;
      quorum_met = h.quorum_met;
      repair_actions = h.repair_actions;
      repair_rounds = h.repair_rounds;
      fully_replicated = h.fully_replicated;
      violations;
      virtual_ns = h.last_activity_ns;
      events = List.length (String.split_on_char '\n' journal) - 1;
      journal;
      digest = Digest.to_hex (Digest.string journal);
    }
  in
  Log.info (fun f ->
      f "ring seed %d: %d/%d blasts ok, %d violations" cfg.seed trial.blast_ok
        trial.blasts
        (List.length trial.violations));
  trial

let run_seeds ?jobs cfg ~seeds =
  Exec.Pool.map ?jobs ~f:(fun seed -> run { cfg with seed }) seeds

let pp_trial ppf t =
  Format.fprintf ppf
    "seed %d [%s]: %d blasts (%d ok, %d failed), killed %s, quorum %s, repair %d \
     actions/%d rounds, %s; %d events over %.2f virtual s; %s"
    t.seed t.fault_name t.blasts t.blast_ok t.blast_failed
    (match t.killed with Some i -> string_of_int i | None -> "none")
    (if t.quorum_met then "met" else "UNMET")
    t.repair_actions t.repair_rounds
    (if t.fully_replicated then "fully replicated" else "UNDER-REPLICATED")
    t.events
    (float_of_int t.virtual_ns /. 1e9)
    (match t.violations with
    | [] -> "no violations"
    | vs -> Printf.sprintf "%d VIOLATIONS" (List.length vs))
