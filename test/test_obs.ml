(* Tests for the telemetry layer: event journal round-trips, flight-recorder
   ring semantics, the metrics registry, the Chrome trace exporter, and the
   cross-transport agreement between journal events and protocol counters. *)

let event = Alcotest.testable Obs.Event.pp Obs.Event.equal

let sample_events () =
  (* One event of every kind, with and without detail/seq, deterministic. *)
  List.concat
    (List.mapi
       (fun i kind ->
         [
           Obs.Event.make ~ts_ns:(i * 1000) ~lane:"sender" ~kind ();
           Obs.Event.make
             ~ts_ns:((i * 1000) + 500)
             ~lane:"receiver" ~kind ~detail:"data" ~seq:i ();
         ])
       Obs.Event.all_kinds)

(* ------------------------------------------------------------------ JSONL *)

let test_jsonl_round_trip () =
  let events = sample_events () in
  let jsonl = Obs.Export.jsonl_of_events events in
  match Obs.Export.events_of_jsonl jsonl with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok decoded -> Alcotest.(check (list event)) "round trip" events decoded

let test_jsonl_skips_meta_lines () =
  let events = sample_events () in
  let jsonl =
    "{\"postmortem\":\"watchdog\",\"dropped\":3}\n\n" ^ Obs.Export.jsonl_of_events events
  in
  match Obs.Export.events_of_jsonl jsonl with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok decoded -> Alcotest.(check (list event)) "meta skipped" events decoded

let test_jsonl_reports_malformed_line () =
  match Obs.Export.events_of_jsonl "{\"ts\":1,\"lane\":\"a\",\"ev\":\"tx\"}\nnot json\n" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error e ->
      Alcotest.(check bool) "names the line" true (Str_exists.contains_substring e "line 2")

let test_kind_names_round_trip () =
  List.iter
    (fun kind ->
      match Obs.Event.kind_of_string (Obs.Event.kind_to_string kind) with
      | Some k ->
          Alcotest.(check string)
            "kind" (Obs.Event.kind_to_string kind) (Obs.Event.kind_to_string k)
      | None -> Alcotest.failf "kind %s did not parse" (Obs.Event.kind_to_string kind))
    Obs.Event.all_kinds

(* --------------------------------------------------------------- recorder *)

let test_recorder_wraparound () =
  let tick = ref 0 in
  let r =
    Obs.Recorder.create ~capacity:8
      ~now:(fun () ->
        incr tick;
        !tick * 10)
      ()
  in
  for i = 1 to 27 do
    Obs.Recorder.emit r ~lane:"sender" ~kind:Obs.Event.Tx ~seq:i ()
  done;
  Alcotest.(check int) "total counts everything" 27 (Obs.Recorder.total r);
  let events = Obs.Recorder.events r in
  Alcotest.(check int) "ring keeps capacity" 8 (List.length events);
  Alcotest.(check (list int)) "exactly the last 8, oldest first"
    [ 20; 21; 22; 23; 24; 25; 26; 27 ]
    (List.map (fun (e : Obs.Event.t) -> e.Obs.Event.seq) events);
  (* Timestamps are normalized to the first event ever recorded. *)
  List.iter
    (fun (e : Obs.Event.t) -> Alcotest.(check bool) "non-negative ts" true (e.Obs.Event.ts_ns >= 0))
    events;
  Obs.Recorder.clear r;
  Alcotest.(check int) "clear empties the ring" 0 (List.length (Obs.Recorder.events r))

let test_recorder_postmortem_dump () =
  let path = Filename.temp_file "obs_postmortem" ".jsonl" in
  let r = Obs.Recorder.create ~capacity:4 ~postmortem:path () in
  Alcotest.(check (option string)) "empty ring dumps nothing" None
    (Obs.Recorder.postmortem r ~reason:"nothing happened");
  for i = 1 to 6 do
    Obs.Recorder.emit r ~lane:"sender" ~kind:Obs.Event.Rx ~seq:i ()
  done;
  (match Obs.Recorder.postmortem r ~reason:"watchdog" with
  | None -> Alcotest.fail "no dump written"
  | Some written ->
      Alcotest.(check string) "dumps to the configured path" path written;
      let ic = open_in written in
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check bool) "meta line present" true
        (Str_exists.contains_substring contents "\"postmortem\":\"watchdog\"");
      (match Obs.Export.events_of_jsonl contents with
      | Error e -> Alcotest.failf "dump does not parse: %s" e
      | Ok events ->
          Alcotest.(check (list event)) "dump equals the ring" (Obs.Recorder.events r) events));
  Sys.remove path

let first_line path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)

(* A one-transfer endpoint still dumps on failure: a sender whose handshake
   goes unanswered writes the configured path, reason first. *)
let test_send_failure_dumps () =
  let path = Filename.temp_file "obs_send_postmortem" ".jsonl" in
  Sys.remove path;
  let silent, silent_address = Sockets.Udp.create_socket () in
  let socket, _ = Sockets.Udp.create_socket () in
  let recorder = Obs.Recorder.create ~postmortem:path () in
  let ctx =
    Sockets.Io_ctx.make ~recorder
      ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:5_000_000 ~max_attempts:3 ())
      ()
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Sockets.Udp.close socket;
        Sockets.Udp.close silent)
      (fun () ->
        Sockets.Peer.send ~ctx ~socket ~peer:silent_address
          ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~data:"no one listens" ())
  in
  Alcotest.(check bool) "sender gives up" true
    (result.Sockets.Peer.outcome = Protocol.Action.Peer_unreachable);
  Alcotest.(check bool) "dump written" true (Sys.file_exists path);
  let meta = first_line path in
  Sys.remove path;
  Alcotest.(check bool)
    (Printf.sprintf "meta line names the outcome: %s" meta)
    true
    (Str_exists.contains_substring meta "\"postmortem\":\"send: peer unreachable\"")

(* A dump that cannot be written is logged and skipped, never raised: to a
   path under a regular file, and to a fresh temp file when the temp
   directory does not exist. *)
let test_postmortem_unwritable () =
  let file = Filename.temp_file "obs_not_a_dir" ".tmp" in
  let temp_dir = Filename.get_temp_dir_name () in
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name temp_dir;
      Sys.remove file)
    (fun () ->
      let r = Obs.Recorder.create ~postmortem:(Filename.concat file "flight.jsonl") () in
      Obs.Recorder.emit r ~lane:"sender" ~kind:Obs.Event.Tx ~seq:1 ();
      Alcotest.(check (option string)) "unwritable path: no dump" None
        (Obs.Recorder.postmortem r ~reason:"watchdog");
      let r = Obs.Recorder.create () in
      Obs.Recorder.emit r ~lane:"sender" ~kind:Obs.Event.Tx ~seq:1 ();
      Filename.set_temp_dir_name (Filename.concat file "tmp");
      Alcotest.(check (option string)) "unusable temp directory: no dump" None
        (Obs.Recorder.postmortem r ~reason:"watchdog"))

(* ---------------------------------------------------------------- metrics *)

let test_metrics_registry () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m ~labels:[ ("side", "sender") ] "sent" in
  Obs.Metrics.inc c;
  Obs.Metrics.inc ~by:4 c;
  Alcotest.(check int) "counter accumulates" 5 (Obs.Metrics.counter_value c);
  let same = Obs.Metrics.counter m ~labels:[ ("side", "sender") ] "sent" in
  Obs.Metrics.inc same;
  Alcotest.(check int) "same name+labels is the same instrument" 6
    (Obs.Metrics.counter_value c);
  let g = Obs.Metrics.gauge m "elapsed_ms" in
  Obs.Metrics.set_gauge g 12.5;
  Alcotest.(check (float 1e-9)) "gauge holds" 12.5 (Obs.Metrics.gauge_value g);
  Alcotest.check_raises "one name, one instrument type"
    (Invalid_argument "Metrics: \"sent\" is already a counter") (fun () ->
      ignore (Obs.Metrics.gauge m "sent"))

let test_metrics_bridge_and_json () =
  let m = Obs.Metrics.create () in
  let counters = Protocol.Counters.create () in
  counters.Protocol.Counters.data_sent <- 64;
  counters.Protocol.Counters.retransmitted_data <- 3;
  counters.Protocol.Counters.faults_injected <- 7;
  Obs.Metrics.bridge_counters m ~labels:[ ("side", "sender") ] counters;
  let v name =
    Obs.Metrics.counter_value (Obs.Metrics.counter m ~labels:[ ("side", "sender") ] name)
  in
  Alcotest.(check int) "data_sent bridged" 64 (v "protocol_data_sent");
  Alcotest.(check int) "retx bridged" 3 (v "protocol_retransmitted_data");
  Alcotest.(check int) "faults bridged" 7 (v "protocol_faults_injected");
  (* The JSON snapshot is parseable and carries the bridged value. *)
  match Obs.Json.parse (Obs.Json.to_string (Obs.Metrics.to_json m)) with
  | Error e -> Alcotest.failf "snapshot does not parse: %s" e
  | Ok json -> (
      match Obs.Json.to_list json with
      | None -> Alcotest.fail "snapshot is not a list"
      | Some entries ->
          let retx =
            List.find_opt
              (fun e ->
                Option.bind (Obs.Json.member "name" e) Obs.Json.to_str
                = Some "protocol_retransmitted_data")
              entries
          in
          let value =
            Option.bind retx (fun e ->
                Option.bind (Obs.Json.member "value" e) Obs.Json.to_int)
          in
          Alcotest.(check (option int)) "value in snapshot" (Some 3) value)

(* ------------------------------------------------------------------ spans *)

let test_span_trace_round_trip () =
  let trace = Eventsim.Trace.create () in
  let result =
    Simnet.Driver.run ~trace
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
      ~config:(Protocol.Config.make ~total_packets:6 ())
      ()
  in
  Alcotest.(check bool) "transfer completed" true
    (result.Simnet.Driver.outcome = Protocol.Action.Success);
  let round_tripped = Obs.Span.to_trace (Obs.Span.of_trace trace) in
  Alcotest.(check string) "Timeline renders a converted trace identically"
    (Report.Timeline.render ~width:90 trace)
    (Report.Timeline.render ~width:90 round_tripped)

(* ----------------------------------------------------------- chrome export *)

let ph e = Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str

let trace_events json =
  match Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.to_list with
  | Some l -> l
  | None -> Alcotest.fail "no traceEvents array"

let test_chrome_export_valid () =
  let spans =
    [
      { Obs.Span.lane = "wire"; kind = "transmit-data"; start_ns = 2_000; dur_ns = 1_000 };
      { Obs.Span.lane = "cpu"; kind = "copy-data-in"; start_ns = 0; dur_ns = 500 };
    ]
  in
  let events = sample_events () in
  let raw = Obs.Export.chrome_string ~spans ~events () in
  match Obs.Json.parse raw with
  | Error e -> Alcotest.failf "chrome export is not valid JSON: %s" e
  | Ok json ->
      let entries = trace_events json in
      let payload = List.filter (fun e -> ph e <> Some "M") entries in
      Alcotest.(check int) "every span and event exported"
        (List.length spans + List.length events)
        (List.length payload);
      let ts e =
        match Option.bind (Obs.Json.member "ts" e) Obs.Json.to_float with
        | Some v -> v
        | None -> Alcotest.fail "payload entry without ts"
      in
      let rec monotone = function
        | a :: (b :: _ as rest) ->
            Alcotest.(check bool) "ts sorted ascending" true (ts a <= ts b);
            monotone rest
        | _ -> ()
      in
      monotone payload;
      List.iter
        (fun e ->
          Alcotest.(check bool) "ts non-negative" true (ts e >= 0.0);
          match ph e with
          | Some "X" ->
              let dur = Option.bind (Obs.Json.member "dur" e) Obs.Json.to_float in
              Alcotest.(check bool) "dur non-negative" true
                (match dur with Some d -> d >= 0.0 | None -> false)
          | Some "i" -> ()
          | other ->
              Alcotest.failf "unexpected phase %s"
                (Option.value other ~default:"<missing>"))
        payload

(* ------------------------------------- events agree with counters, sim side *)

let count_events kind events =
  List.length (List.filter (fun (e : Obs.Event.t) -> e.Obs.Event.kind = kind) events)

let test_sim_driver_events_match_counters () =
  let recorder = Obs.Recorder.create () in
  let rng = Stats.Rng.create ~seed:7 in
  let result =
    Simnet.Driver.run ~recorder
      ~network_error:(Netmodel.Error_model.iid rng ~loss:0.05)
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
      ~config:(Protocol.Config.make ~total_packets:32 ())
      ()
  in
  let events = Obs.Recorder.events recorder in
  Alcotest.(check bool) "transfer completed" true
    (result.Simnet.Driver.outcome = Protocol.Action.Success);
  Alcotest.(check bool) "the lossy run retransmitted" true
    (result.Simnet.Driver.sender.Protocol.Counters.retransmitted_data > 0);
  Alcotest.(check int) "retransmit events == sender counter"
    result.Simnet.Driver.sender.Protocol.Counters.retransmitted_data
    (count_events Obs.Event.Retransmit events);
  Alcotest.(check int) "duplicate events == receiver counter"
    result.Simnet.Driver.receiver.Protocol.Counters.duplicates_received
    (count_events Obs.Event.Duplicate events);
  Alcotest.(check int) "deliver events == receiver counter"
    result.Simnet.Driver.receiver.Protocol.Counters.delivered
    (count_events Obs.Event.Deliver events)

(* ------------------------------------- events agree with counters, UDP side *)

let test_udp_chaos_events_match_counters () =
  let scenario =
    match Faults.Scenario.find "chaos" with
    | Some s -> s
    | None -> Alcotest.fail "chaos scenario missing"
  in
  (* One go-back-n transfer, Peer.send against Engine.receive_one, each
     endpoint behind chaos (the sender's Netem seeded 7, the receiver's flow
     seeded from 8), 6000 random bytes (seed 38) in 512-byte packets on an
     8 ms / 30-attempt timer. *)
  let recorder = Obs.Recorder.create () in
  let tuning = Protocol.Tuning.fixed ~retransmit_ns:8_000_000 ~max_attempts:30 () in
  let ctx ?faults () = Sockets.Io_ctx.make ~recorder ~tuning ?faults () in
  let rng = Stats.Rng.create ~seed:38 in
  let data = String.init 6_000 (fun _ -> Char.chr (Stats.Rng.int rng 256)) in
  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, sender_address = Sockets.Udp.create_socket () in
  let idle_timeout_ns = 30 * 8_000_000 in
  let received = ref None in
  let receiver =
    Thread.create
      (fun () ->
        received :=
          Server.Engine.receive_one ~ctx:(ctx ()) ~scenario ~seed:8 ~idle_timeout_ns
            ~accept_timeout_ns:((2 * idle_timeout_ns) + 500_000_000)
            ~socket:receiver_socket ())
      ()
  in
  let send =
    Sockets.Peer.send ~ctx:(ctx ~faults:(Faults.Netem.create ~seed:7 scenario) ())
      ~transfer_id:3 ~packet_bytes:512 ~idle_timeout_ns
      ~socket:sender_socket ~peer:receiver_address
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~data ()
  in
  Thread.join receiver;
  Sockets.Udp.close receiver_socket;
  Sockets.Udp.close sender_socket;
  let received =
    match !received with Some r -> r | None -> Alcotest.fail "no flow was admitted"
  in
  (* The delivery oracle the fault harnesses share, over this one pair. *)
  let ledger = Server.Ledger.create () in
  ignore
    (Server.Ledger.sent ledger ~peer:sender_address ~transfer_id:3
       ~crc:(Packet.Checksum.crc32_string data) ~max_attempts:30 ~packets:12 send
      : string option);
  ignore (Server.Ledger.served ledger ~peer:sender_address received : string option);
  Alcotest.(check (list string)) "invariant holds" [] (Server.Ledger.violations ledger);
  if send.Sockets.Peer.outcome = Protocol.Action.Success then
    Alcotest.(check bool) "delivered bytes are the sent bytes" true
      (String.equal received.Sockets.Flow.data data);
  let events = Obs.Recorder.events recorder in
  let faults_injected =
    send.Sockets.Peer.counters.Protocol.Counters.faults_injected
    + received.Sockets.Flow.counters.Protocol.Counters.faults_injected
  in
  Alcotest.(check int) "retransmit events == sender counter"
    send.Sockets.Peer.counters.Protocol.Counters.retransmitted_data
    (count_events Obs.Event.Retransmit events);
  Alcotest.(check int) "fault events == both netems' injections" faults_injected
    (count_events Obs.Event.Fault events);
  (* The same counts must survive the Chrome export: count instants by name
     in the parsed JSON — exactly what the acceptance criterion greps. *)
  match Obs.Json.parse (Obs.Export.chrome_string ~events ()) with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok json ->
      let named name e =
        ph e = Some "i"
        && Option.bind (Obs.Json.member "name" e) Obs.Json.to_str = Some name
      in
      let count name = List.length (List.filter (named name) (trace_events json)) in
      Alcotest.(check int) "exported retransmit instants"
        send.Sockets.Peer.counters.Protocol.Counters.retransmitted_data
        (count "retransmit");
      Alcotest.(check int) "exported fault instants" faults_injected (count "fault")

let () =
  Alcotest.run "obs"
    [
      ( "journal",
        [
          Alcotest.test_case "jsonl round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "jsonl skips meta lines" `Quick test_jsonl_skips_meta_lines;
          Alcotest.test_case "jsonl reports malformed line" `Quick
            test_jsonl_reports_malformed_line;
          Alcotest.test_case "kind names round trip" `Quick test_kind_names_round_trip;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring wraparound keeps last N" `Quick test_recorder_wraparound;
          Alcotest.test_case "postmortem dump" `Quick test_recorder_postmortem_dump;
          Alcotest.test_case "a failed send dumps" `Quick test_send_failure_dumps;
          Alcotest.test_case "unwritable dump is skipped" `Quick test_postmortem_unwritable;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "bridge and json snapshot" `Quick test_metrics_bridge_and_json;
        ] );
      ( "export",
        [
          Alcotest.test_case "span/trace round trip renders identically" `Quick
            test_span_trace_round_trip;
          Alcotest.test_case "chrome trace is valid and monotone" `Quick
            test_chrome_export_valid;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "sim events match counters" `Quick
            test_sim_driver_events_match_counters;
          Alcotest.test_case "udp chaos events match counters" `Quick
            test_udp_chaos_events_match_counters;
        ] );
    ]
