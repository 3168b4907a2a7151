(* Named metrics with units, the result line, and the run stamp. *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(* Every digit the float carries; JSON has no nan or infinity. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

let result_line r =
  let metrics =
    List.map
      (fun x ->
        (* Names and units are plain identifiers: nothing to escape. *)
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (number x.value)
          x.unit)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " metrics)

let print_metrics metrics =
  List.iter (fun x -> Printf.printf "  %-36s %14.4f %s\n" x.name x.value x.unit) metrics

(* Host and configuration behind every number. *)
let stamp ~workload ~seed ~seconds ~trace ~tuning ~extra =
  let env name = Option.value (Sys.getenv_opt name) ~default:"unset" in
  let nproc =
    try
      let ic = Unix.open_process_in "nproc 2>/dev/null" in
      let n = try input_line ic with End_of_file -> "?" in
      ignore (Unix.close_process_in ic : Unix.process_status);
      n
    with Unix.Unix_error _ | Sys_error _ -> "?"
  in
  let epoll =
    let p = Sockets.Poller.create () in
    Fun.protect
      ~finally:(fun () -> Sockets.Poller.close p)
      (fun () -> Sockets.Poller.backend p = `Epoll)
  in
  Printf.printf
    "# workload=%s seed=%d seconds=%d trace=%b nproc=%s recommended_domains=%d ocaml=%s \
     loopback=127.0.0.1 batch=%b (LANREPRO_BATCH=%s, sendmmsg=%b) epoll=%b \
     (LANREPRO_EPOLL=%s) tuning=%s %s\n"
    workload seed seconds trace nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (Sockets.Batch.env_enabled ()) (env "LANREPRO_BATCH")
    (Sockets.Batch.kernel_support ()) epoll (env "LANREPRO_EPOLL")
    (Protocol.Tuning.to_string tuning)
    extra

(* Table 2 of the paper, for one workload: each attributed layer cost per
   op and its share of the measured CPU per op, then what is left. *)
let cost_table ~workload ~cpu_ms_per_op rows ~waits =
  Printf.printf "# cost table (%s): per op, share of cpu_ms_per_op = %.4f ms\n" workload
    cpu_ms_per_op;
  let share v = if cpu_ms_per_op > 0.0 then 100.0 *. v /. cpu_ms_per_op else 0.0 in
  List.iter
    (fun (name, ms) -> Printf.printf "#   %-28s %10.4f ms %6.1f%%\n" name ms (share ms))
    rows;
  let attributed = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 rows in
  let rest = cpu_ms_per_op -. attributed in
  Printf.printf "#   %-28s %10.4f ms %6.1f%%\n" "unattributed" rest (share rest);
  List.iter
    (fun (name, ms) -> Printf.printf "#   %-28s %10.4f ms  (wall, not CPU)\n" name ms)
    waits;
  if cpu_ms_per_op > 0.0 then rest /. cpu_ms_per_op else 0.0
