(* Tests for the reporting library (tables, charts, timelines, CSV) and the
   workload definitions, plus a smoke pass over every bench experiment so the
   reproduction harness itself is under test. *)

open Eventsim

(* ---------------------------------------------------------------- Table *)

let test_table_renders_aligned () =
  let rendered =
    Report.Table.render ~header:[ "name"; "value" ]
      ~rows:[ [ "x"; "1" ]; [ "longer"; "22" ] ]
      ()
  in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "six lines" 6 (List.length lines);
  let widths = List.map String.length lines in
  List.iter (fun w -> Alcotest.(check int) "constant width" (List.hd widths) w) widths;
  Alcotest.(check bool) "contains header" true
    (List.exists (fun l -> String.length l > 0 && String.contains l 'n') lines)

let test_table_rejects_ragged_rows () =
  Alcotest.check_raises "ragged" (Invalid_argument "Table.render: ragged row") (fun () ->
      ignore (Report.Table.render ~header:[ "a"; "b" ] ~rows:[ [ "only one" ] ] ()))

let test_table_formats () =
  Alcotest.(check string) "ms small" "4.080" (Report.Table.fmt_ms 4.08);
  Alcotest.(check string) "ms mid" "45.63" (Report.Table.fmt_ms 45.63);
  Alcotest.(check string) "ms big" "172.8" (Report.Table.fmt_ms 172.79);
  Alcotest.(check string) "pct" "38.0%" (Report.Table.fmt_pct 0.38)

(* ---------------------------------------------------------------- Chart *)

let test_chart_renders_points () =
  let chart =
    Report.Chart.render ~width:40 ~height:10
      [ { Report.Chart.name = "line"; points = [ (0.0, 0.0); (1.0, 1.0); (2.0, 2.0) ] } ]
  in
  Alcotest.(check bool) "glyph present" true (String.contains chart '*');
  Alcotest.(check bool) "legend present" true
    (String.length chart > 0
    && Str_exists.contains_substring chart "line")

let test_chart_empty () =
  Alcotest.(check string) "no data" "(no data)" (Report.Chart.render [])

let test_chart_log_skips_nonpositive () =
  (* Only the positive point plots; no exception. *)
  let chart =
    Report.Chart.render ~log_x:true
      [ { Report.Chart.name = "s"; points = [ (0.0, 1.0); (10.0, 1.0); (100.0, 2.0) ] } ]
  in
  Alcotest.(check bool) "rendered" true (String.contains chart '*')

(* ------------------------------------------------------------- Timeline *)

let test_timeline_renders_lanes () =
  let trace = Trace.create () in
  Trace.record trace ~lane:"cpu" ~kind:"copy-data-in" ~start:(Time.of_ns 0)
    ~stop:(Time.of_ns 500_000);
  Trace.record trace ~lane:"wire" ~kind:"transmit-data" ~start:(Time.of_ns 500_000)
    ~stop:(Time.of_ns 900_000);
  let rendered = Report.Timeline.render ~width:50 trace in
  Alcotest.(check bool) "cpu lane" true (Str_exists.contains_substring rendered "cpu");
  Alcotest.(check bool) "wire lane" true (Str_exists.contains_substring rendered "wire");
  Alcotest.(check bool) "copy glyph" true (String.contains rendered 'C');
  Alcotest.(check bool) "transmit glyph" true (String.contains rendered 'T')

let test_timeline_empty () =
  Alcotest.(check string) "empty" "(empty trace)" (Report.Timeline.render (Trace.create ()))

let test_timeline_glyphs () =
  Alcotest.(check char) "data copy" 'C' (Report.Timeline.glyph_of_kind "copy-data-in");
  Alcotest.(check char) "ack copy" 'c' (Report.Timeline.glyph_of_kind "copy-ack-out");
  Alcotest.(check char) "data tx" 'T' (Report.Timeline.glyph_of_kind "transmit-data");
  Alcotest.(check char) "ack tx" 't' (Report.Timeline.glyph_of_kind "transmit-ack");
  Alcotest.(check char) "other" '#' (Report.Timeline.glyph_of_kind "busy-wait")

(* ------------------------------------------------------------------ CSV *)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Report.Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Report.Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Report.Csv.escape "a\"b");
  Alcotest.(check string) "line" "a,\"b,c\",d" (Report.Csv.line [ "a"; "b,c"; "d" ])

let test_csv_roundtrip_file () =
  let path = Filename.temp_file "lanrepro" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Report.Csv.to_file path ~header:[ "n"; "ms" ] ~rows:[ [ "1"; "3.93" ]; [ "64"; "140.6" ] ];
      let ic = open_in path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "contents" "n,ms\n1,3.93\n64,140.6\n" contents)

(* ------------------------------------------------------------- Workload *)

let test_workload_ladders () =
  Alcotest.(check (list int)) "packets" [ 1; 2; 4; 8; 16; 32; 64 ]
    Workload.Sizes.paper_ladder_packets;
  Alcotest.(check int) "bytes head" 1024 (List.hd Workload.Sizes.paper_ladder_bytes);
  Alcotest.(check int) "dump" (16 * 1024 * 1024) Workload.Sizes.dump_bytes;
  let ladder = Workload.Sizes.pn_ladder in
  Alcotest.(check bool) "spans decades" true
    (List.hd ladder = 1e-7 && List.exists (fun p -> p = 1e-1) ladder);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (increasing ladder)

let test_workload_file_sizes () =
  let rng = Stats.Rng.create ~seed:81 in
  let sizes = Workload.Sizes.file_sizes rng ~count:500 in
  Alcotest.(check int) "count" 500 (List.length sizes);
  List.iter
    (fun s ->
      if s < 512 || s > 1024 * 1024 then Alcotest.failf "size %d outside range" s)
    sizes;
  (* Log-uniform: both tails should show up in 500 draws. *)
  Alcotest.(check bool) "small files occur" true (List.exists (fun s -> s < 4096) sizes);
  Alcotest.(check bool) "large files occur" true (List.exists (fun s -> s > 262_144) sizes)

(* ---------------------------------------------- experiments smoke tests *)

let run_experiment name =
  match List.assoc_opt name Experiments.all with
  | None -> Alcotest.failf "experiment %s not registered" name
  | Some f ->
      let buffer = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buffer in
      f ppf;
      Format.pp_print_flush ppf ();
      let out = Buffer.contents buffer in
      Alcotest.(check bool) (name ^ " produced output") true (String.length out > 100);
      out

let test_cheap_experiments_run () =
  List.iter
    (fun name -> ignore (run_experiment name))
    [ "fig1"; "table1"; "table2"; "table3"; "fig2"; "fig3"; "fig4"; "intext"; "ablation-buffers";
      "ablation-window"; "ablation-dma"; "ablation-pagesize"; "ablation-overrun" ]

let test_table1_contains_anchor () =
  let out = run_experiment "table1" in
  Alcotest.(check bool) "64 KiB blast value present" true
    (Str_exists.contains_substring out "140.6");
  Alcotest.(check bool) "ratio claim present" true
    (Str_exists.contains_substring out "1.79x")

let test_table3_contains_anchors () =
  let out = run_experiment "table3" in
  Alcotest.(check bool) "To(64)" true (Str_exists.contains_substring out "172.8");
  Alcotest.(check bool) "To(1)" true (Str_exists.contains_substring out "5.890")

let test_experiment_registry_complete () =
  let names = List.map fst Experiments.all in
  List.iter
    (fun required ->
      Alcotest.(check bool) (required ^ " registered") true (List.mem required names))
    [
      "fig1"; "table1"; "table2"; "table3"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "intext";
      "ablation-buffers"; "ablation-window"; "ablation-multiblast"; "ablation-burst";
      "ablation-load"; "ablation-rtt"; "ablation-dma"; "ablation-pagesize";
      "ablation-overrun"; "ablation-pacing";
    ]

let () =
  Alcotest.run "report-workload-experiments"
    [
      ( "table",
        [
          Alcotest.test_case "aligned" `Quick test_table_renders_aligned;
          Alcotest.test_case "ragged rejected" `Quick test_table_rejects_ragged_rows;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "chart",
        [
          Alcotest.test_case "renders points" `Quick test_chart_renders_points;
          Alcotest.test_case "empty" `Quick test_chart_empty;
          Alcotest.test_case "log skips nonpositive" `Quick test_chart_log_skips_nonpositive;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "renders lanes" `Quick test_timeline_renders_lanes;
          Alcotest.test_case "empty" `Quick test_timeline_empty;
          Alcotest.test_case "glyphs" `Quick test_timeline_glyphs;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "file roundtrip" `Quick test_csv_roundtrip_file;
        ] );
      ( "workload",
        [
          Alcotest.test_case "ladders" `Quick test_workload_ladders;
          Alcotest.test_case "file sizes" `Quick test_workload_file_sizes;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "cheap experiments run" `Quick test_cheap_experiments_run;
          Alcotest.test_case "table1 anchors" `Quick test_table1_contains_anchor;
          Alcotest.test_case "table3 anchors" `Quick test_table3_contains_anchors;
          Alcotest.test_case "registry complete" `Quick test_experiment_registry_complete;
        ] );
    ]
