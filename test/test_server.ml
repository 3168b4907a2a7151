(* The concurrent transfer server: sans-IO flow engine, timer heap, admission
   control, and the 32-sender swarm soak. *)

let scenario name =
  match Faults.Scenario.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

(* ------------------------------------------------------------- timer heap *)

let test_timers_ordering () =
  let heap = Sockets.Timers.create () in
  Alcotest.(check bool) "fresh heap empty" true (Sockets.Timers.is_empty heap);
  List.iter (fun d -> Sockets.Timers.add heap ~deadline:d d) [ 50; 10; 30; 20; 40; 10 ];
  Alcotest.(check (option int)) "peek is min" (Some 10) (Sockets.Timers.peek_deadline heap);
  Alcotest.(check int) "six entries" 6 (Sockets.Timers.length heap);
  let popped = ref [] in
  let rec drain () =
    match Sockets.Timers.pop heap with
    | Some (_, payload) ->
        popped := payload :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted drain" [ 10; 10; 20; 30; 40; 50 ] (List.rev !popped)

let test_timers_pop_due () =
  let heap = Sockets.Timers.create () in
  Sockets.Timers.add heap ~deadline:100 "late";
  Sockets.Timers.add heap ~deadline:10 "due";
  Alcotest.(check (option string)) "due entry pops" (Some "due")
    (Sockets.Timers.pop_due heap ~now:50);
  Alcotest.(check (option string)) "future entry does not" None (Sockets.Timers.pop_due heap ~now:50);
  Alcotest.(check (option string)) "until its time comes" (Some "late")
    (Sockets.Timers.pop_due heap ~now:100)

(* The heap against a naive sorted-list model, under random interleavings of
   insert, cancel, and pop-due — duplicate deadlines and cancel-after-fire
   included. The heap has no cancel operation by design (the engine uses lazy
   invalidation: stale entries pop and are discarded by the caller), so
   cancellation is modelled exactly as the engine does it — a cancelled-id
   set both sides consult on pop. *)
let prop_timers_match_model =
  let op_gen =
    (* (tag, value): tag picks the operation, value the deadline / advance. *)
    QCheck.(list_of_size Gen.(int_range 1 120) (pair (int_bound 5) (int_bound 30)))
  in
  QCheck.Test.make ~name:"timer heap agrees with sorted-list model" ~count:300 op_gen
    (fun ops ->
      let heap = Sockets.Timers.create () in
      let model = ref [] in
      (* Monotone clock: pop_due must never see time move backwards. *)
      let now = ref 0 in
      let next_id = ref 0 in
      let cancelled = Hashtbl.create 16 in
      let model_pop_due () =
        match List.sort compare !model with
        | [] -> None
        | (deadline, _) :: _ when deadline > !now -> None
        | (deadline, _) :: _ ->
            (* Ties are unordered: any payload at the minimal deadline is a
               correct answer, so the model commits to the heap's choice only
               after checking deadline agreement. *)
            Some deadline
      in
      let pop_due_agrees () =
        match (Sockets.Timers.pop_due heap ~now:!now, model_pop_due ()) with
        | None, None -> true
        | Some id, Some deadline ->
            let candidates = List.filter (fun (d, _) -> d = deadline) !model in
            if not (List.exists (fun (_, i) -> i = id) candidates) then false
            else begin
              model := List.filter (fun (_, i) -> i <> id) !model;
              (* A cancelled entry still pops — lazy invalidation — and the
                 caller discards it; agreement is all that matters here. *)
              ignore (Hashtbl.mem cancelled id : bool);
              true
            end
        | Some _, None | None, Some _ -> false
      in
      let step (tag, value) =
        match tag with
        | 0 | 1 | 2 ->
            let id = !next_id in
            next_id := id + 1;
            let deadline = !now + value in
            Sockets.Timers.add heap ~deadline id;
            model := (deadline, id) :: !model;
            true
        | 3 ->
            (* Cancel a random live or already-fired id: firing a cancelled
               entry later must stay harmless on both sides. *)
            if !next_id > 0 then Hashtbl.replace cancelled (value mod !next_id) ();
            true
        | _ ->
            now := !now + value;
            pop_due_agrees ()
      in
      let ok = List.for_all step ops in
      (* Drain: everything left pops in nondecreasing deadline order and the
         two sides agree entry for entry. *)
      now := max_int;
      let rec drain last =
        match Sockets.Timers.pop_due heap ~now:!now with
        | None -> !model = []
        | Some id -> (
            match List.sort compare !model with
            | [] -> false
            | (deadline, _) :: _ ->
                deadline >= last
                && List.mem (deadline, id) (List.filter (fun (d, _) -> d = deadline) !model)
                && begin
                     model := List.filter (fun (_, i) -> i <> id) !model;
                     drain deadline
                   end)
      in
      ok
      && Sockets.Timers.length heap = List.length !model
      && Option.equal ( = )
           (Sockets.Timers.peek_deadline heap)
           (match List.sort compare !model with [] -> None | (d, _) :: _ -> Some d)
      && drain min_int)

(* -------------------------------------------------------- counters merge *)

let test_counters_merge () =
  let a = Protocol.Counters.create () in
  let b = Protocol.Counters.create () in
  a.Protocol.Counters.data_sent <- 3;
  a.Protocol.Counters.acks_sent <- 2;
  b.Protocol.Counters.data_sent <- 4;
  b.Protocol.Counters.retransmitted_data <- 5;
  b.Protocol.Counters.corrupt_detected <- 1;
  Protocol.Counters.merge ~into:a b;
  Alcotest.(check int) "data_sent summed" 7 a.Protocol.Counters.data_sent;
  Alcotest.(check int) "acks kept" 2 a.Protocol.Counters.acks_sent;
  Alcotest.(check int) "retransmits merged" 5 a.Protocol.Counters.retransmitted_data;
  Alcotest.(check int) "corrupt merged" 1 a.Protocol.Counters.corrupt_detected;
  Alcotest.(check int) "source untouched" 4 b.Protocol.Counters.data_sent;
  let total = Protocol.Counters.sum [ a; b ] in
  Alcotest.(check int) "sum folds all" 11 total.Protocol.Counters.data_sent

(* ------------------------------------------------- sans-IO flow, no sockets *)

let flow_req ~transfer_id ~data ~packet_bytes =
  {
    (Packet.Message.req ~transfer_id
       ~total:((String.length data + packet_bytes - 1) / packet_bytes))
    with
    Packet.Message.payload =
      Sockets.Suite_codec.encode
        ~data_crc:(Packet.Checksum.crc32_string data)
        ~packet_bytes ~total_bytes:(String.length data)
        (Protocol.Suite.Blast Protocol.Blast.Go_back_n);
  }

let make_flow ?(transfer_id = 7) ?(packet_bytes = 256) ~data ~now () =
  let counters = Protocol.Counters.create () in
  let probe = Obs.Probe.create ~lane:"test" ~counters () in
  match
    Sockets.Flow.create
      ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:1_000_000 ~max_attempts:5 ())
      ~probe ~counters ~now
      (flow_req ~transfer_id ~data ~packet_bytes)
  with
  | Ok (flow, actions) -> (flow, actions)
  | Error _ -> Alcotest.fail "flow creation refused a valid REQ"

(* Drive a whole transfer with fabricated messages and a fabricated clock:
   the engine is sans-IO, so the test owns both ends of the contract. *)
let test_flow_pure_transfer () =
  let data = String.init 700 (fun i -> Char.chr (i mod 256)) in
  let packet_bytes = 256 in
  let transfer_id = 7 in
  let flow, actions = make_flow ~transfer_id ~packet_bytes ~data ~now:1_000 () in
  (match actions with
  | Sockets.Flow.Transmit m :: _ ->
      Alcotest.(check bool) "handshake ack first" true
        (m.Packet.Message.kind = Packet.Kind.Ack && m.Packet.Message.seq = 0)
  | [] -> Alcotest.fail "no handshake ack emitted");
  Alcotest.(check int) "transfer id" transfer_id (Sockets.Flow.transfer_id flow);
  (* A duplicate REQ mid-transfer is re-acked, not fed to the machine. *)
  let dup =
    Sockets.Flow.on_message flow ~now:2_000 (flow_req ~transfer_id ~data ~packet_bytes)
  in
  Alcotest.(check int) "duplicate REQ re-acked" 1 (List.length dup);
  let total = 3 in
  for seq = 0 to total - 1 do
    let payload =
      String.sub data (seq * packet_bytes)
        (min packet_bytes (String.length data - (seq * packet_bytes)))
    in
    ignore
      (Sockets.Flow.on_message flow ~now:(3_000 + seq)
         (Packet.Message.data ~transfer_id ~seq ~total ~payload)
        : Sockets.Flow.action list)
  done;
  Alcotest.(check bool) "lingering after last packet" true
    (Sockets.Flow.status flow = `Lingering);
  (* Linger expiry settles the flow; the deadline drives it, not a message. *)
  let deadline =
    match Sockets.Flow.next_deadline flow with
    | Some d -> d
    | None -> Alcotest.fail "lingering flow must expose its deadline"
  in
  ignore (Sockets.Flow.on_tick flow ~now:deadline : Sockets.Flow.action list);
  match Sockets.Flow.status flow with
  | `Done c ->
      Alcotest.(check string) "data reassembled" data c.Sockets.Flow.data;
      Alcotest.(check bool) "crc verified" true
        (c.Sockets.Flow.integrity = Sockets.Flow.Verified);
      Alcotest.(check bool) "outcome success" true
        (c.Sockets.Flow.outcome = Protocol.Action.Success)
  | _ -> Alcotest.fail "flow did not settle after linger expiry"

let test_flow_idle_watchdog () =
  let data = String.make 512 'w' in
  let flow, _ = make_flow ~data ~now:0 () in
  (* No datagrams ever arrive: the watchdog deadline is the next wake-up,
     and ticking at it aborts with the typed outcome. *)
  let deadline = Option.get (Sockets.Flow.next_deadline flow) in
  ignore (Sockets.Flow.on_tick flow ~now:deadline : Sockets.Flow.action list);
  match Sockets.Flow.status flow with
  | `Done c ->
      Alcotest.(check bool) "peer unreachable" true
        (c.Sockets.Flow.outcome = Protocol.Action.Peer_unreachable);
      Alcotest.(check string) "no data" "" c.Sockets.Flow.data
  | _ -> Alcotest.fail "watchdog did not abort the silent flow"

let test_flow_rejects_bad_geometry () =
  let counters = Protocol.Counters.create () in
  let probe = Obs.Probe.create ~lane:"test" ~counters () in
  let make payload =
    Sockets.Flow.create ~probe ~counters ~now:0
      { (Packet.Message.req ~transfer_id:1 ~total:1) with Packet.Message.payload }
  in
  (match make "bogus" with
  | Error `Bad_geometry -> ()
  | _ -> Alcotest.fail "undecodable geometry accepted");
  (* A REQ claiming a huge transfer must not size an allocation. *)
  (match
     make
       (Sockets.Suite_codec.encode ~packet_bytes:1024 ~total_bytes:(1 lsl 40)
          (Protocol.Suite.Blast Protocol.Blast.Go_back_n))
   with
  | Error `Bad_geometry -> ()
  | _ -> Alcotest.fail "oversized geometry accepted");
  match
    Sockets.Flow.create ~probe ~counters ~now:0
      (Packet.Message.data ~transfer_id:1 ~seq:0 ~total:1 ~payload:"x")
  with
  | Error `Not_a_req -> ()
  | _ -> Alcotest.fail "non-REQ accepted"

(* ------------------------------------- sans-IO initiating flow, no sockets *)

(* 700 bytes in 256-byte packets: a three-packet transfer, id 9. *)
let initiate ?rtt ?idle_timeout_ns
    ?(tuning = Protocol.Tuning.fixed ~retransmit_ns:1_000_000 ~max_attempts:6 ()) ~now () =
  let counters = Protocol.Counters.create () in
  let probe = Obs.Probe.create ~lane:"test" ~counters () in
  Sockets.Flow.initiate ?rtt ?idle_timeout_ns ~tuning ~packet_bytes:256
    ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~transfer_id:9 ~probe ~counters
    ~now (String.make 700 'd')

let sent actions = List.map (fun (Sockets.Flow.Transmit m) -> m) actions

let the_req actions =
  match sent actions with
  | [ m ] when m.Packet.Message.kind = Packet.Kind.Req -> m
  | _ -> Alcotest.fail "expected exactly one REQ"

let outcome flow =
  match Sockets.Flow.status flow with
  | `Done c -> Some (Format.asprintf "%a" Protocol.Action.pp_outcome c.Sockets.Flow.outcome)
  | `Running | `Lingering -> None

let outcome_is flow expected =
  Alcotest.(check (option string)) "outcome"
    (Some (Format.asprintf "%a" Protocol.Action.pp_outcome expected))
    (outcome flow)

let handshake_ack ?budget ?(transfer_id = 9) () =
  let ack = Packet.Message.ack ~transfer_id ~seq:0 ~total:3 in
  match budget with Some b -> Packet.Message.with_budget ack b | None -> ack

let test_initiate_silence () =
  let tuning = Protocol.Tuning.adaptive ~retransmit_ns:1_000_000 ~max_attempts:6 () in
  let flow, actions = initiate ~tuning ~now:0 () in
  let v2 actions = Packet.Message.budget (the_req actions) <> None in
  let versions = ref [ v2 actions ] in
  for attempt = 2 to 6 do
    let due = (attempt - 1) * 1_000_000 in
    Alcotest.(check (option int)) "REQ timer" (Some due) (Sockets.Flow.next_deadline flow);
    Alcotest.(check int) "nothing before the timer" 0
      (List.length (Sockets.Flow.on_tick flow ~now:(due - 1)));
    versions := v2 (Sockets.Flow.on_tick flow ~now:due) :: !versions
  done;
  Alcotest.(check (list bool)) "v2 on attempts 1-3 and odd ones, v1 on even ones from 4"
    [ true; true; true; false; true; false ] (List.rev !versions);
  Alcotest.(check int) "no seventh REQ" 0
    (List.length (Sockets.Flow.on_tick flow ~now:6_000_000));
  outcome_is flow Protocol.Action.Peer_unreachable;
  Alcotest.(check (option int)) "settled: no deadline" None (Sockets.Flow.next_deadline flow)

let test_initiate_garbage_and_foreign () =
  let tuning = Protocol.Tuning.fixed ~retransmit_ns:1_000_000 ~max_attempts:4 () in
  let flow, _ = initiate ~tuning ~now:0 () in
  ignore (the_req (Sockets.Flow.on_garbage flow ~now:400 Packet.Codec.Too_short));
  Alcotest.(check (option int)) "garbage resends at once" (Some 1_000_400)
    (Sockets.Flow.next_deadline flow);
  Alcotest.(check int) "garbage counted" 1
    (Sockets.Flow.counters flow).Protocol.Counters.garbage_received;
  ignore (the_req (Sockets.Flow.on_message flow ~now:700 (handshake_ack ~transfer_id:10 ())));
  Alcotest.(check (option int)) "a foreign id resends at once" (Some 1_000_700)
    (Sockets.Flow.next_deadline flow);
  (* Our id, but another transfer's geometry: the ACK of an earlier
     transfer on this address and id. *)
  ignore
    (the_req
       (Sockets.Flow.on_message flow ~now:800
          (Packet.Message.ack ~transfer_id:9 ~seq:0 ~total:5)));
  Alcotest.(check (option int)) "a foreign geometry resends at once" (Some 1_000_800)
    (Sockets.Flow.next_deadline flow);
  Alcotest.(check int) "the fourth attempt was the last" 0
    (List.length (Sockets.Flow.on_garbage flow ~now:900 Packet.Codec.Too_short));
  outcome_is flow Protocol.Action.Peer_unreachable

let test_initiate_rejected () =
  let flow, _ = initiate ~now:0 () in
  Alcotest.(check int) "REJ sends nothing" 0
    (List.length (Sockets.Flow.on_message flow ~now:10 (Packet.Message.rej ~transfer_id:9)));
  outcome_is flow Protocol.Action.Rejected;
  Alcotest.(check int) "no retry" 0 (List.length (Sockets.Flow.on_tick flow ~now:1_000_000))

let test_initiate_ack_settles_regime () =
  let tuning = Protocol.Tuning.adaptive ~retransmit_ns:1_000_000 ~max_attempts:6 () in
  let train ack =
    let flow, _ = initiate ~tuning ~now:0 () in
    let train = sent (Sockets.Flow.on_message flow ~now:50 ack) in
    Alcotest.(check bool) "the ACK starts the blast" true
      (train <> [] && List.for_all (fun m -> m.Packet.Message.kind = Packet.Kind.Data) train);
    Alcotest.(check int) "elapsed starts at the ACK" 50 (Sockets.Flow.started_ns flow);
    (flow, List.exists (fun m -> Packet.Message.budget m <> None) train)
  in
  let flow, solicits_v2 = train (handshake_ack ~budget:16 ()) in
  Alcotest.(check bool) "budget-stamped ACK: adaptive" true (Sockets.Flow.adaptive flow);
  Alcotest.(check bool) "adaptive trains solicit in v2" true solicits_v2;
  let flow, solicits_v2 = train (handshake_ack ()) in
  Alcotest.(check bool) "bare ACK: negotiated down" false (Sockets.Flow.adaptive flow);
  Alcotest.(check bool) "fixed trains stay v1" false solicits_v2

let test_initiate_idle_watchdog () =
  let flow, _ = initiate ~idle_timeout_ns:300_000 ~now:0 () in
  ignore (Sockets.Flow.on_message flow ~now:100 (handshake_ack ()) : Sockets.Flow.action list);
  Alcotest.(check (option int)) "watchdog armed at the ACK" (Some 300_100)
    (Sockets.Flow.next_deadline flow);
  (* Any datagram, even another transfer's, is evidence the peer is alive. *)
  ignore
    (Sockets.Flow.on_message flow ~now:200_000 (handshake_ack ~transfer_id:77 ())
      : Sockets.Flow.action list);
  Alcotest.(check (option int)) "reset by a foreign datagram" (Some 500_000)
    (Sockets.Flow.next_deadline flow);
  ignore (Sockets.Flow.on_tick flow ~now:500_000 : Sockets.Flow.action list);
  outcome_is flow Protocol.Action.Peer_unreachable

let test_initiate_karn () =
  let final = Packet.Message.ack ~transfer_id:9 ~seq:3 ~total:3 in
  let run ~timeout =
    let rtt = Protocol.Rtt.create ~initial_ns:1_000_000 () in
    let flow, _ = initiate ~rtt ~now:0 () in
    ignore (Sockets.Flow.on_message flow ~now:0 (handshake_ack ()) : Sockets.Flow.action list);
    let now =
      if timeout then begin
        let due = Option.get (Sockets.Flow.next_deadline flow) in
        Alcotest.(check bool) "the timeout retransmits" true
          (Sockets.Flow.on_tick flow ~now:due <> []);
        due
      end
      else 0
    in
    ignore (Sockets.Flow.on_message flow ~now:(now + 5_000) final : Sockets.Flow.action list);
    outcome_is flow Protocol.Action.Success;
    Protocol.Rtt.samples rtt
  in
  Alcotest.(check int) "a clean round trip is sampled" 1 (run ~timeout:false);
  Alcotest.(check int) "the ACK after a timeout is not (Karn's rule)" 0 (run ~timeout:true)

(* ------------------------------------------------------- admission control *)

(* Raw REQs against a capped engine: flow N+1 gets a REJ datagram back. *)
let test_admission_rej_reply () =
  let socket, address = Sockets.Udp.create_socket () in
  let engine =
    Server.Engine.create ~max_flows:2 ~transport:(Sockets.Transport.udp ~socket ()) ()
  in
  let domain = Domain.spawn (fun () -> Server.Engine.run engine) in
  let data = String.make 2048 'a' in
  let req id = flow_req ~transfer_id:id ~data ~packet_bytes:1024 in
  let client i =
    let s, _ = Sockets.Udp.create_socket () in
    Fun.protect
      ~finally:(fun () -> Sockets.Udp.close s)
      (fun () ->
        ignore (Sockets.Udp.send_message s address (req i) : Sockets.Udp.send_outcome);
        match Sockets.Udp.recv_message ~timeout_ns:2_000_000_000 s with
        | `Message (m, _) -> Some m.Packet.Message.kind
        | `Timeout | `Garbage _ -> None)
  in
  (* Two flows admitted (handshake ack), they then sit in the table idling. *)
  Alcotest.(check (option (testable Packet.Kind.pp ( = ))))
    "first admitted" (Some Packet.Kind.Ack) (client 1);
  Alcotest.(check (option (testable Packet.Kind.pp ( = ))))
    "second admitted" (Some Packet.Kind.Ack) (client 2);
  Alcotest.(check (option (testable Packet.Kind.pp ( = ))))
    "third refused with REJ" (Some Packet.Kind.Rej) (client 3);
  Server.Engine.stop engine;
  Domain.join domain;
  Sockets.Udp.close socket;
  let totals = Server.Engine.totals engine in
  Alcotest.(check int) "two accepted" 2 totals.Server.Engine.accepted;
  Alcotest.(check int) "one rejected" 1 totals.Server.Engine.rejected;
  Alcotest.(check int) "idle flows force-settled" 2 totals.Server.Engine.aborted

(* A full sender against a zero-capacity server surfaces the clean outcome. *)
let test_admission_sender_outcome () =
  let report = Server.Swarm.run ~flows:2 ~max_flows:0 ~bytes:4096 ~seed:3 () in
  Alcotest.(check int) "every sender rejected" 2 report.Server.Swarm.rejected;
  Alcotest.(check int) "none completed" 0 report.Server.Swarm.completed;
  Alcotest.(check int) "none failed uncleanly" 0 report.Server.Swarm.failed;
  List.iter
    (fun (s : Server.Swarm.sender_report) ->
      Alcotest.(check bool) "typed Rejected outcome" true
        (s.Server.Swarm.outcome = Protocol.Action.Rejected))
    report.Server.Swarm.senders

(* ---------------------------------------------------------- delivery oracle *)

let send_result ?(rounds = 1) outcome =
  let counters = Protocol.Counters.create () in
  counters.Protocol.Counters.rounds <- rounds;
  { Sockets.Peer.outcome; elapsed_ns = 0; counters; adaptive = false }

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let served ?(integrity = Sockets.Flow.Verified) ledger ~port ~id data =
  Server.Ledger.served ledger ~peer:(loopback port)
    {
      Sockets.Flow.data;
      transfer_id = id;
      counters = Protocol.Counters.create ();
      integrity;
      outcome = Protocol.Action.Success;
    }

(* Two packets at five attempts each: a bound of ten rounds. *)
let sent ?rounds ?(outcome = Protocol.Action.Success) ledger ~port ~id data =
  Server.Ledger.sent ledger ~peer:(loopback port) ~transfer_id:id
    ~crc:(Packet.Checksum.crc32_string data) ~max_attempts:5 ~packets:2
    (send_result ?rounds outcome)

let one_breach label ~needle ledger =
  match Server.Ledger.violations ledger with
  | [ v ] ->
      Alcotest.(check bool) (label ^ ": " ^ v) true (Str_exists.contains_substring v needle)
  | vs -> Alcotest.failf "%s: expected one breach, got [%s]" label (String.concat "; " vs)

let test_ledger_reports_each_breach () =
  let ledger = Server.Ledger.create () in
  Alcotest.(check (option string)) "sender success" None (sent ledger ~port:1 ~id:1 "abc");
  Alcotest.(check (option string)) "its verified delivery" None
    (served ledger ~port:1 ~id:1 "abc");
  Alcotest.(check (list string))
    "a matched pair holds" [] (Server.Ledger.violations ledger);
  (* Deliveries of other bytes, or to another port, match nothing; and a
     key that succeeded twice must be served twice. *)
  let ledger = Server.Ledger.create () in
  ignore (sent ledger ~port:1 ~id:1 "abc" : string option);
  ignore (sent ledger ~port:1 ~id:1 "abc" : string option);
  ignore (served ledger ~port:1 ~id:1 "abc" : string option);
  ignore (served ledger ~port:1 ~id:1 "abd" : string option);
  ignore (served ledger ~port:2 ~id:1 "abc" : string option);
  one_breach "unmatched success" ~needle:"sender success without verified server delivery"
    ledger;
  Alcotest.(check (list string)) "unmatched is the only breach"
    (Server.Ledger.violations ledger) (Server.Ledger.unmatched ledger);
  let ledger = Server.Ledger.create () in
  Alcotest.(check bool) "a Mismatch success is reported at once" true
    (served ~integrity:Sockets.Flow.Mismatch ledger ~port:1 ~id:4 "x" <> None);
  one_breach "mismatch" ~needle:"without CRC verification" ledger;
  (* The attempt bound holds for clean failures too. *)
  let ledger = Server.Ledger.create () in
  Alcotest.(check (option string)) "at the bound" None
    (sent ~rounds:10 ~outcome:Protocol.Action.Too_many_attempts ledger ~port:1 ~id:5 "y");
  Alcotest.(check bool) "over the bound" true
    (sent ~rounds:11 ~outcome:Protocol.Action.Too_many_attempts ledger ~port:1 ~id:6 "y"
    <> None);
  one_breach "over the bound" ~needle:"11 rounds > 10" ledger

(* ------------------------------------------------------------- swarm soak *)

(* The tentpole acceptance test: 32 concurrent senders over loopback, seeded
   netem on both sides, one server socket. Every transfer must end in a
   typed outcome (the pool would surface a hang as a timeout-killed CI job),
   and completed flows must be CRC-verified on the server side. *)
let test_swarm_32_under_faults () =
  let report =
    Server.Swarm.run ~flows:32 ~jobs:32 ~bytes:4096 ~packet_bytes:512
      ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:8_000_000 ~max_attempts:40 ())
      ~scenario:(scenario "chaos") ~server_scenario:(scenario "chaos") ~seed:2026 ()
  in
  Alcotest.(check int) "all 32 senders returned" 32
    (List.length report.Server.Swarm.senders);
  List.iter
    (fun (s : Server.Swarm.sender_report) ->
      match s.Server.Swarm.outcome with
      | Protocol.Action.Success | Protocol.Action.Too_many_attempts
      | Protocol.Action.Peer_unreachable | Protocol.Action.Rejected ->
          ())
    report.Server.Swarm.senders;
  (* Under the chaos scenario a few flows may fail cleanly; the soak demands
     a healthy majority actually complete... *)
  Alcotest.(check bool)
    (Printf.sprintf "at least half completed (%d/32)" report.Server.Swarm.completed)
    true
    (report.Server.Swarm.completed >= 16);
  Alcotest.(check (list string)) "delivery oracle holds" [] report.Server.Swarm.violations;
  (* ...and that no completed flow ever delivered corrupt data. *)
  List.iter
    (fun (e : Server.Engine.completion_event) ->
      if e.Server.Engine.completion.Sockets.Flow.outcome = Protocol.Action.Success then
        Alcotest.(check bool) "server-side CRC verified" true
          (e.Server.Engine.completion.Sockets.Flow.integrity = Sockets.Flow.Verified))
    report.Server.Swarm.completions;
  let totals = report.Server.Swarm.server in
  Alcotest.(check int) "server settled every admitted flow"
    totals.Server.Engine.accepted
    (totals.Server.Engine.completed + totals.Server.Engine.aborted);
  (* The roll-up merges per-flow counters: it must see at least one data
     packet per completed flow. *)
  Alcotest.(check bool) "rollup reflects traffic" true
    (report.Server.Swarm.rollup.Protocol.Counters.delivered
    >= report.Server.Swarm.completed)

(* Determinism: the same seed replays the same admission/settlement totals. *)
let test_swarm_deterministic_totals () =
  let run () =
    let r =
      Server.Swarm.run ~flows:6 ~jobs:6 ~bytes:4096 ~packet_bytes:512
        ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:8_000_000 ())
        ~scenario:(scenario "lossy2")
        ~server_scenario:(scenario "lossy2") ~seed:99 ()
    in
    (r.Server.Swarm.completed, r.Server.Swarm.rejected, r.Server.Swarm.failed)
  in
  let a = run () and b = run () in
  Alcotest.(check (triple int int int)) "same outcome counts" a b

let () =
  Alcotest.run "server"
    [
      ( "timers",
        Alcotest.test_case "heap ordering" `Quick test_timers_ordering
        :: Alcotest.test_case "pop_due gating" `Quick test_timers_pop_due
        :: List.map QCheck_alcotest.to_alcotest [ prop_timers_match_model ] );
      ("counters", [ Alcotest.test_case "merge and sum" `Quick test_counters_merge ]);
      ( "flow",
        [
          Alcotest.test_case "pure sans-IO transfer" `Quick test_flow_pure_transfer;
          Alcotest.test_case "idle watchdog aborts" `Quick test_flow_idle_watchdog;
          Alcotest.test_case "bad geometry refused" `Quick test_flow_rejects_bad_geometry;
        ] );
      ( "initiate",
        [
          Alcotest.test_case "silence retries, then unreachable" `Quick test_initiate_silence;
          Alcotest.test_case "garbage and foreign ids cost attempts" `Quick
            test_initiate_garbage_and_foreign;
          Alcotest.test_case "REJ settles Rejected" `Quick test_initiate_rejected;
          Alcotest.test_case "ACK budget settles the regime" `Quick
            test_initiate_ack_settles_regime;
          Alcotest.test_case "idle watchdog once running" `Quick test_initiate_idle_watchdog;
          Alcotest.test_case "Karn's rule" `Quick test_initiate_karn;
        ] );
      ( "admission",
        [
          Alcotest.test_case "REJ past the cap" `Quick test_admission_rej_reply;
          Alcotest.test_case "sender surfaces Rejected" `Quick test_admission_sender_outcome;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "reports each breach" `Quick test_ledger_reports_each_breach;
        ] );
      ( "swarm",
        [
          Alcotest.test_case "32 senders under chaos" `Slow test_swarm_32_under_faults;
          Alcotest.test_case "deterministic totals" `Quick test_swarm_deterministic_totals;
        ] );
    ]
