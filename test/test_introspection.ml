(* Live engine introspection: the mergeable histogram, the per-flow lifecycle
   trace, and the queryable stats plane.

   Three layers, matching how the pieces deploy. [Obs.Hist] and
   [Obs.Flowtrace] are tested directly as data structures. The lifecycle
   grammar is then asserted against the whole system: a DST trial stamps the
   trace under virtual time, so the export must replay bit-for-bit at any
   parallelism — the same contract the journal digest carries. Finally the
   stat socket is exercised for real: a UDP round-trip against a polling
   loop, and a query landing mid-run against a live swarm engine, whose
   snapshot must reconcile with the final rollup. *)

let json_path path json =
  List.fold_left (fun acc key -> Option.bind acc (Obs.Json.member key)) (Some json) path

let json_int path json = Option.bind (json_path path json) Obs.Json.to_int
let json_str path json = Option.bind (json_path path json) Obs.Json.to_str

(* ------------------------------------------------------------------- hist *)

let test_hist_quantiles () =
  let h = Obs.Hist.create ~lo:1.0 ~hi:1e6 ~bins:120 () in
  for v = 1 to 1000 do
    Obs.Hist.add h (float_of_int v)
  done;
  let s = Obs.Hist.snapshot h in
  Alcotest.(check int) "count" 1000 s.Obs.Hist.count;
  Alcotest.(check (float 0.0)) "max is exact" 1000.0 s.Obs.Hist.max;
  (* Log-bucketed: quantiles are approximate, but must stay within one
     bucket's relative error (12%% at 120 bins over 6 decades). *)
  let within name expected actual =
    Alcotest.(check bool)
      (Printf.sprintf "%s within bucket error (got %.1f, want ~%.1f)" name actual expected)
      true
      (Float.abs (actual -. expected) /. expected < 0.13)
  in
  within "p50" 500.0 s.Obs.Hist.p50;
  within "p90" 900.0 s.Obs.Hist.p90;
  within "p99" 990.0 s.Obs.Hist.p99;
  within "mean" 500.5 s.Obs.Hist.mean

let test_hist_exact_extremes () =
  (* Quantiles clamp to the observed min and max, so a single-sample
     histogram reports that sample everywhere. *)
  let h = Obs.Hist.create () in
  Obs.Hist.add h 42.0;
  Alcotest.(check (float 0.0)) "p50 of one sample" 42.0 (Obs.Hist.quantile h 0.5);
  Alcotest.(check (float 0.0)) "p99 of one sample" 42.0 (Obs.Hist.quantile h 0.99)

let test_hist_merge () =
  let a = Obs.Hist.create ~lo:1.0 ~hi:1e3 ~bins:60 () in
  let b = Obs.Hist.create ~lo:1.0 ~hi:1e3 ~bins:60 () in
  let whole = Obs.Hist.create ~lo:1.0 ~hi:1e3 ~bins:60 () in
  for v = 1 to 500 do
    Obs.Hist.add a (float_of_int v);
    Obs.Hist.add whole (float_of_int v)
  done;
  for v = 501 to 900 do
    Obs.Hist.add b (float_of_int v);
    Obs.Hist.add whole (float_of_int v)
  done;
  Obs.Hist.merge ~into:a b;
  let merged = Obs.Hist.snapshot a and direct = Obs.Hist.snapshot whole in
  Alcotest.(check int) "merged count" direct.Obs.Hist.count merged.Obs.Hist.count;
  Alcotest.(check (float 0.0)) "merged max" direct.Obs.Hist.max merged.Obs.Hist.max;
  Alcotest.(check (float 0.0)) "merged p50" direct.Obs.Hist.p50 merged.Obs.Hist.p50;
  Alcotest.(check (float 0.0)) "merged p99" direct.Obs.Hist.p99 merged.Obs.Hist.p99

let test_hist_merge_geometry_mismatch () =
  let a = Obs.Hist.create ~lo:1.0 ~hi:1e3 ~bins:60 () in
  let b = Obs.Hist.create ~lo:1.0 ~hi:1e6 ~bins:60 () in
  Alcotest.check_raises "different geometry refuses to merge"
    (Invalid_argument "Hist.merge: mismatched bucket geometry") (fun () ->
      Obs.Hist.merge ~into:a b)

let test_hist_ignores_non_finite () =
  let h = Obs.Hist.create () in
  Obs.Hist.add h Float.nan;
  Obs.Hist.add h 5.0;
  Alcotest.(check int) "nan not counted" 1 (Obs.Hist.count h)

(* -------------------------------------------------------------- flowtrace *)

let lifecycle t ~flow ~at events =
  List.iteri (fun i e -> Obs.Flowtrace.record t ~flow e ~now:(at + (i * 10))) events

let test_flowtrace_valid_lifecycle () =
  let t = Obs.Flowtrace.create () in
  lifecycle t ~flow:"a" ~at:100
    Obs.Flowtrace.
      [ Admitted; First_data; Round; Round; Verify; Terminal Done ];
  lifecycle t ~flow:"b" ~at:105 Obs.Flowtrace.[ Admitted; Terminal Failed ];
  Obs.Flowtrace.record t ~flow:"c" (Obs.Flowtrace.Terminal Obs.Flowtrace.Rejected) ~now:200;
  Alcotest.(check (list string)) "grammar holds" [] (Obs.Flowtrace.validate t)

let test_flowtrace_rejects_bad_grammar () =
  let missing_terminal = Obs.Flowtrace.create () in
  lifecycle missing_terminal ~flow:"x" ~at:0 Obs.Flowtrace.[ Admitted; First_data ];
  Alcotest.(check bool) "missing terminal flagged" true
    (Obs.Flowtrace.validate missing_terminal <> []);
  let two_terminals = Obs.Flowtrace.create () in
  lifecycle two_terminals ~flow:"x" ~at:0
    Obs.Flowtrace.[ Admitted; Terminal Done; Terminal Failed ];
  Alcotest.(check bool) "second terminal flagged" true
    (Obs.Flowtrace.validate two_terminals <> []);
  let after_terminal = Obs.Flowtrace.create () in
  lifecycle after_terminal ~flow:"x" ~at:0
    Obs.Flowtrace.[ Admitted; Terminal Done; Round ];
  Alcotest.(check bool) "event after terminal flagged" true
    (Obs.Flowtrace.validate after_terminal <> [])

let test_flowtrace_spans_nest () =
  let t = Obs.Flowtrace.create () in
  lifecycle t ~flow:"f" ~at:1000
    Obs.Flowtrace.[ Admitted; First_data; Round; Verify; Terminal Done ];
  let spans = Obs.Flowtrace.spans t in
  let find kind =
    match List.find_opt (fun s -> s.Obs.Span.kind = kind) spans with
    | Some s -> s
    | None -> Alcotest.failf "no %S span" kind
  in
  let outer = find "flow" and handshake = find "handshake" and blast = find "blast" in
  let ends s = s.Obs.Span.start_ns + s.Obs.Span.dur_ns in
  Alcotest.(check bool) "handshake starts with flow" true
    (handshake.Obs.Span.start_ns = outer.Obs.Span.start_ns);
  Alcotest.(check bool) "handshake ends before blast begins" true
    (ends handshake = blast.Obs.Span.start_ns);
  Alcotest.(check bool) "blast ends with flow" true (ends blast = ends outer);
  Alcotest.(check bool) "all spans share the flow's lane" true
    (List.for_all (fun s -> s.Obs.Span.lane = "f") spans)

(* -------------------------------------------------- lifecycle, whole-system *)

let dst_config ~seed =
  {
    (Dst.Harness.default_config ~seed) with
    Dst.Harness.churn = Dst.Harness.Mixed;
    faults = Some Faults.Scenario.chaos;
    senders = 6;
    transfers = 2;
  }

let test_dst_trace_grammar_under_chaos () =
  (* A full chaos trial — kills, port reuse, engine restarts — and the
     harness's own horizon check asserts the lifecycle grammar (it runs
     [Obs.Flowtrace.validate] once the engine wound down). The trace must
     also actually cover the run: at least one span per admitted flow. *)
  let t = Dst.Harness.run (dst_config ~seed:29) in
  Alcotest.(check (list string)) "no violations (grammar included)" []
    t.Dst.Harness.violations;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' t.Dst.Harness.flowtrace)
  in
  Alcotest.(check bool) "trace is non-empty" true (List.length lines > 0);
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Error e -> Alcotest.failf "unparseable trace line %S: %s" line e
      | Ok json ->
          Alcotest.(check bool) "record has flow, ev, ts" true
            (json_str [ "flow" ] json <> None
            && json_str [ "ev" ] json <> None
            && json_int [ "ts" ] json <> None))
    lines

let test_dst_trace_identical_across_jobs () =
  let cfg = dst_config ~seed:11 in
  let seeds = [ 11; 12; 13; 14 ] in
  let traces jobs =
    List.map
      (fun (t : Dst.Harness.trial) -> t.Dst.Harness.flowtrace)
      (Dst.Harness.run_seeds ~jobs cfg ~seeds)
  in
  let sequential = traces 1 and parallel = traces 4 in
  Alcotest.(check (list string)) "flowtrace bytes identical at jobs=1 and jobs=4"
    sequential parallel;
  Alcotest.(check bool) "traces carry events" true
    (List.for_all (fun t -> String.length t > 0) sequential)

(* ------------------------------------------------------------- stats plane *)

let test_admin_round_trip () =
  let admin = Server.Admin.create ~port:0 () in
  let port = Server.Admin.port admin in
  let snapshot () =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "lanrepro-stat/1");
        ("active_flows", Obs.Json.Int 3);
      ]
  in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Server.Admin.poll admin ~snapshot;
          Unix.sleepf 0.002
        done)
  in
  let result =
    Server.Admin.query ~timeout_ms:500 ~retries:5
      (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  Atomic.set stop true;
  Domain.join server;
  Server.Admin.close admin;
  match result with
  | Error e -> Alcotest.failf "query failed: %s" e
  | Ok json ->
      Alcotest.(check (option string)) "schema" (Some "lanrepro-stat/1")
        (json_str [ "schema" ] json);
      Alcotest.(check (option int)) "payload round-trips" (Some 3)
        (json_int [ "active_flows" ] json)

let test_admin_parse_address () =
  (match Server.Admin.parse_address "127.0.0.1:9901" with
  | Ok (Unix.ADDR_INET (_, 9901)) -> ()
  | _ -> Alcotest.fail "host:port did not parse");
  (match Server.Admin.parse_address "9901" with
  | Ok (Unix.ADDR_INET (addr, 9901)) ->
      Alcotest.(check string) "bare port defaults to loopback" "127.0.0.1"
        (Unix.string_of_inet_addr addr)
  | _ -> Alcotest.fail "bare port did not parse");
  match Server.Admin.parse_address "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_stat_socket_under_swarm_load () =
  (* The acceptance path: a live engine under swarm load answers a stat
     query mid-run without disturbing the data path, and the final snapshot
     reconciles with the rollup the report carries. *)
  let port = 45_991 in
  let live = ref None in
  (* One query re-sends "stat" every 2 ms from one socket and takes the
     first reply to any of its requests, so a request is pending at the
     stat socket from just after it binds and any service poll during the
     run answers it, however short the run. A single long attempt sent
     before the socket bound is lost, and its retry can come after a fast
     swarm has finished. *)
  let querier =
    Domain.spawn (fun () ->
        let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
        let deadline = Unix.gettimeofday () +. 20.0 in
        let rec loop () =
          if !live = None && Unix.gettimeofday () < deadline then (
            (match Server.Admin.query ~timeout_ms:2 ~retries:2500 addr with
            | Ok json -> live := Some json
            | Error _ -> Unix.sleepf 0.01);
            loop ())
        in
        loop ())
  in
  let flowtrace = Obs.Flowtrace.create () in
  let report =
    Server.Swarm.run ~max_flows:8 ~bytes:(256 * 1024) ~seed:5
      ~ctx:(Sockets.Io_ctx.make ()) ~flowtrace ~admin_port:port ~flows:8 ()
  in
  Domain.join querier;
  Alcotest.(check int) "all flows complete" 8 report.Server.Swarm.completed;
  Alcotest.(check (list string)) "engine invariants held" [] report.Server.Swarm.invariants;
  (* The mid-run snapshot: well-formed, and taken while the engine lived. *)
  (match !live with
  | None -> Alcotest.fail "no snapshot answered during the run"
  | Some json ->
      Alcotest.(check (option string)) "live schema" (Some "lanrepro-stat/1")
        (json_str [ "schema" ] json);
      Alcotest.(check bool) "live snapshot has health" true
        (json_path [ "health"; "ticks" ] json <> None);
      Alcotest.(check bool) "live snapshot has counters" true
        (json_path [ "counters"; "delivered" ] json <> None));
  (* The final snapshot reconciles with the report's own totals. *)
  let final = report.Server.Swarm.engine_snapshot in
  Alcotest.(check (option int)) "snapshot totals match report"
    (Some report.Server.Swarm.server.Server.Engine.completed)
    (json_int [ "totals"; "completed" ] final);
  Alcotest.(check (option int)) "no flows left in the table" (Some 0)
    (json_int [ "active_flows" ] final);
  (match json_int [ "counters"; "delivered" ] final with
  | Some delivered -> Alcotest.(check bool) "rollup carried data" true (delivered > 0)
  | None -> Alcotest.fail "snapshot counters missing");
  (* And the engine's flowtrace closed every lifecycle it opened. *)
  Alcotest.(check (list string)) "swarm flowtrace grammar holds" []
    (Obs.Flowtrace.validate flowtrace)

let () =
  Alcotest.run "introspection"
    [
      ( "hist",
        [
          Alcotest.test_case "quantiles within bucket error" `Quick test_hist_quantiles;
          Alcotest.test_case "extremes are exact" `Quick test_hist_exact_extremes;
          Alcotest.test_case "merge equals direct accumulation" `Quick test_hist_merge;
          Alcotest.test_case "merge refuses mismatched geometry" `Quick
            test_hist_merge_geometry_mismatch;
          Alcotest.test_case "non-finite samples ignored" `Quick test_hist_ignores_non_finite;
        ] );
      ( "flowtrace",
        [
          Alcotest.test_case "valid lifecycles pass" `Quick test_flowtrace_valid_lifecycle;
          Alcotest.test_case "grammar violations caught" `Quick
            test_flowtrace_rejects_bad_grammar;
          Alcotest.test_case "spans are well-nested" `Quick test_flowtrace_spans_nest;
        ] );
      ( "whole-system",
        [
          Alcotest.test_case "chaos trial upholds lifecycle grammar" `Quick
            test_dst_trace_grammar_under_chaos;
          Alcotest.test_case "trace bytes invariant under jobs" `Quick
            test_dst_trace_identical_across_jobs;
        ] );
      ( "stats-plane",
        [
          Alcotest.test_case "admin socket round-trip" `Quick test_admin_round_trip;
          Alcotest.test_case "address parsing" `Quick test_admin_parse_address;
          Alcotest.test_case "stat query under swarm load" `Quick
            test_stat_socket_under_swarm_load;
        ] );
    ]
