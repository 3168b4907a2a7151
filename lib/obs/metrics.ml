(* Counters and gauges are lock-free atomics so concurrent domains can
   publish without contending on the registry lock and without losing
   updates; histograms lock themselves ({!Hist}), and summaries mutate
   multi-word state, so each carries its own mutex. *)
type counter = int Atomic.t
type gauge = float Atomic.t
type histogram = Hist.t
type summary = { summary : Stats.Summary.t; summary_lock : Mutex.t }

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Summary of summary

type entry = { name : string; labels : (string * string) list; instrument : instrument }

type t = { table : (string * (string * string) list, entry) Hashtbl.t; lock : Mutex.t }

let create () = { table = Hashtbl.create 64; lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let normalize labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let instrument_type = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Summary _ -> "summary"

let register t ~labels name build =
  let labels = normalize labels in
  locked t (fun () ->
      match Hashtbl.find_opt t.table (name, labels) with
      | Some entry -> entry.instrument
      | None ->
          let instrument = build () in
          (* One name, one instrument type, whatever the labels: mixing a
             counter and a gauge under the same name would make the snapshot
             unreadable. *)
          Hashtbl.iter
            (fun (existing, _) entry ->
              if existing = name && instrument_type entry.instrument <> instrument_type instrument
              then
                invalid_arg
                  (Printf.sprintf "Metrics: %S is already a %s" name
                     (instrument_type entry.instrument)))
            t.table;
          Hashtbl.add t.table (name, labels) { name; labels; instrument };
          instrument)

let counter t ?(labels = []) name =
  match register t ~labels name (fun () -> Counter (Atomic.make 0)) with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a counter" name)

let inc ?(by = 1) c = ignore (Atomic.fetch_and_add c by : int)
let counter_value c = Atomic.get c

let gauge t ?(labels = []) name =
  match register t ~labels name (fun () -> Gauge (Atomic.make 0.0)) with
  | Gauge g -> g
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a gauge" name)

let set_gauge g v = Atomic.set g v
let gauge_value g = Atomic.get g

let histogram t ?(labels = []) name =
  match register t ~labels name (fun () -> Histogram (Hist.create ())) with
  | Histogram h -> h
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a histogram" name)

let observe = Hist.add

let summary t ?(labels = []) name =
  match
    register t ~labels name (fun () ->
        Summary { summary = Stats.Summary.create (); summary_lock = Mutex.create () })
  with
  | Summary s -> s
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a summary" name)

let record s v =
  Mutex.lock s.summary_lock;
  Stats.Summary.add s.summary v;
  Mutex.unlock s.summary_lock

let bridge_counters t ?(labels = []) (c : Protocol.Counters.t) =
  let add name value = inc ~by:value (counter t ~labels ("protocol_" ^ name)) in
  add "data_sent" c.Protocol.Counters.data_sent;
  add "retransmitted_data" c.Protocol.Counters.retransmitted_data;
  add "acks_sent" c.Protocol.Counters.acks_sent;
  add "nacks_sent" c.Protocol.Counters.nacks_sent;
  add "rounds" c.Protocol.Counters.rounds;
  add "timeouts" c.Protocol.Counters.timeouts;
  add "duplicates_received" c.Protocol.Counters.duplicates_received;
  add "delivered" c.Protocol.Counters.delivered;
  add "faults_injected" c.Protocol.Counters.faults_injected;
  add "corrupt_detected" c.Protocol.Counters.corrupt_detected;
  add "garbage_received" c.Protocol.Counters.garbage_received

(* ------------------------------------------------------------- snapshots *)

let sorted_entries t =
  locked t (fun () -> Hashtbl.fold (fun _ entry acc -> entry :: acc) t.table [])
  |> List.sort (fun a b ->
         match String.compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)

let label_string labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
    ^ "}"

let float_repr f = Printf.sprintf "%g" f

let to_table t =
  let rows =
    List.map
      (fun entry ->
        let value =
          match entry.instrument with
          | Counter c -> string_of_int (Atomic.get c)
          | Gauge g -> float_repr (Atomic.get g)
          | Histogram h ->
              let { Hist.count; p50; p99; _ } = Hist.snapshot h in
              Printf.sprintf "count=%d p50=%s p99=%s" count (float_repr p50) (float_repr p99)
          | Summary s ->
              Mutex.lock s.summary_lock;
              Fun.protect ~finally:(fun () -> Mutex.unlock s.summary_lock) (fun () ->
                  Printf.sprintf "count=%d mean=%s min=%s max=%s"
                    (Stats.Summary.count s.summary)
                    (float_repr (Stats.Summary.mean s.summary))
                    (float_repr (Stats.Summary.min s.summary))
                    (float_repr (Stats.Summary.max s.summary)))
        in
        ( entry.name ^ label_string entry.labels,
          instrument_type entry.instrument,
          value ))
      (sorted_entries t)
  in
  let width f = List.fold_left (fun acc row -> max acc (String.length (f row))) 0 rows in
  let name_width = width (fun (n, _, _) -> n) in
  let type_width = width (fun (_, t, _) -> t) in
  String.concat "\n"
    (List.map
       (fun (name, kind, value) ->
         Printf.sprintf "%-*s  %-*s  %s" name_width name type_width kind value)
       rows)

let to_json t =
  let entry_json entry =
    let base =
      [ ("name", Json.String entry.name);
        ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) entry.labels));
        ("type", Json.String (instrument_type entry.instrument)) ]
    in
    let value =
      match entry.instrument with
      | Counter c -> [ ("value", Json.Int (Atomic.get c)) ]
      | Gauge g -> [ ("value", Json.Float (Atomic.get g)) ]
      | Histogram h ->
          let { Hist.count; p50; p90; p99; _ } = Hist.snapshot h in
          [ ("count", Json.Int count); ("p50", Json.Float p50); ("p90", Json.Float p90);
            ("p99", Json.Float p99) ]
      | Summary s ->
          Mutex.lock s.summary_lock;
          Fun.protect ~finally:(fun () -> Mutex.unlock s.summary_lock) (fun () ->
              [ ("count", Json.Int (Stats.Summary.count s.summary));
                ("mean", Json.Float (Stats.Summary.mean s.summary));
                ("stddev", Json.Float (Stats.Summary.stddev s.summary));
                ("min", Json.Float (Stats.Summary.min s.summary));
                ("max", Json.Float (Stats.Summary.max s.summary)) ])
    in
    Json.Obj (base @ value)
  in
  Json.List (List.map entry_json (sorted_entries t))

let pp ppf t = Format.pp_print_string ppf (to_table t)
