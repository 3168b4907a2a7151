(* N engines, one per domain, poller and socket, with merged observability.
   See the interface for the binding rules. *)

type binding = Shared_port | Own_ports

type member = {
  index : int;
  address : Unix.sockaddr;
  socket : Unix.file_descr;
  poller : Sockets.Poller.t;
  engine : Engine.t;
  want_snapshot : bool Atomic.t;
      (** request flag read by the engine's idle hook *)
  snap_cell : Obs.Json.t option Atomic.t;  (** the idle hook's answer slot *)
  finished : bool Atomic.t;  (** set after [Engine.run] returned *)
  mutable domain : unit Domain.t option;
  mutable killed : bool;
}

type t = {
  binding : binding;
  members : member array;
  clock : unit -> int;
  admin : Admin.t option;
  stats_interval_ns : int option;
  on_snapshot : Obs.Json.t -> unit;
  service_stop : bool Atomic.t;
  mutable service : Thread.t option;
  mutable started : bool;
}

let address t index = t.members.(index).address

let port t index =
  match address t index with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0

let alive t =
  Array.to_list t.members
  |> List.filter_map (fun m -> if m.killed then None else Some m.index)

let admin_port t = Option.map Admin.port t.admin

let create ?(address = "127.0.0.1") ?(port = 0) ?max_flows ?idle_timeout_ns ?linger_ns
    ?fallback_suite ?scenario ?(seed = 1) ?ctx ?(on_complete = fun _ -> ())
    ?flowtrace ?admin_port ?stats_interval_ns ?(on_snapshot = fun _ -> ()) ~binding
    ~members () =
  if members <= 0 then invalid_arg "Group.create: members must be positive";
  let ctx = match ctx with Some c -> c | None -> Sockets.Io_ctx.default () in
  (* A group of one on a shared port is the lone engine: no REUSEPORT, so a
     second server cannot bind its port. *)
  let reuseport = binding = Shared_port && members > 1 in
  let bind port = Sockets.Udp.create_socket ~address ~port ~reuseport () in
  (* The first socket fixes a shared port (it may be ephemeral); the rest
     join it. Own ports are [port + i], or all ephemeral. *)
  let socket0, address0 = bind port in
  let port_of index =
    match (binding, address0) with
    | Shared_port, Unix.ADDR_INET (_, p) -> p
    | Shared_port, Unix.ADDR_UNIX _ -> port
    | Own_ports, _ -> if port = 0 then 0 else port + index
  in
  let sockets =
    Array.init members (fun i -> if i = 0 then (socket0, address0) else bind (port_of i))
  in
  let lane_prefix index =
    match binding with
    | Own_ports -> Printf.sprintf "r%d:" index
    | Shared_port when members > 1 -> Printf.sprintf "s%d:" index
    | Shared_port -> ""
  in
  (* Settlement callbacks arrive on N serving domains; serialize them so
     the caller's accounting needs no locking of its own. *)
  let complete_lock = Mutex.create () in
  let on_complete event = Mutex.protect complete_lock (fun () -> on_complete event) in
  let make_member index (socket, address) =
    let poller = Sockets.Poller.create () in
    let transport =
      Sockets.Transport.udp ~batch:ctx.Sockets.Io_ctx.batch ~poller ~socket ()
    in
    let want_snapshot = Atomic.make false in
    let snap_cell = Atomic.make None in
    (* The idle hook runs on the member's serving thread, where a live
       [Engine.snapshot] is legal; the engine value exists only after
       [create], hence the ref. *)
    let engine_ref = ref None in
    let on_idle () =
      if Atomic.get want_snapshot then
        match !engine_ref with
        | None -> ()
        | Some engine ->
            Atomic.set snap_cell (Some (Engine.snapshot engine));
            Atomic.set want_snapshot false
    in
    let engine =
      Engine.create ?max_flows ?idle_timeout_ns ?linger_ns ?fallback_suite ?scenario
        ~seed:(seed + (7919 * index))
        ~ctx ~on_complete ?flowtrace ~on_idle
        ~lane_prefix:(lane_prefix index) ~transport ()
    in
    engine_ref := Some engine;
    {
      index;
      address;
      socket;
      poller;
      engine;
      want_snapshot;
      snap_cell;
      finished = Atomic.make false;
      domain = None;
      killed = false;
    }
  in
  let admin = Option.map (fun port -> Admin.create ~port ()) admin_port in
  {
    binding;
    members = Array.mapi make_member sockets;
    clock = ctx.Sockets.Io_ctx.clock;
    admin;
    stats_interval_ns;
    on_snapshot;
    service_stop = Atomic.make false;
    service = None;
    started = false;
  }

(* ---- Snapshot aggregation -------------------------------------------- *)

let get path json =
  List.fold_left
    (fun acc key -> Option.bind acc (Obs.Json.member key))
    (Some json) path

let get_int path json =
  match get path json with
  | Some j -> Option.value ~default:0 (Obs.Json.to_int j)
  | None -> 0

let sum path snaps = List.fold_left (fun acc s -> acc + get_int path s) 0 snaps

let totals_keys =
  [
    "accepted"; "completed"; "aborted"; "rejected"; "superseded";
    "stray_datagrams"; "garbage"; "send_failures";
  ]

let counters_keys =
  [
    "data_sent"; "retransmitted_data"; "acks_sent"; "nacks_sent"; "rounds";
    "timeouts"; "duplicates_received"; "delivered"; "faults_injected";
    "corrupt_detected"; "garbage_received";
  ]

let sum_section section keys snaps =
  Obs.Json.Obj (List.map (fun key -> (key, Obs.Json.Int (sum [ section; key ] snaps))) keys)

let snapshot_flow_cap = 128

(* One member's answer, fetched without touching its flow table from this
   thread: a running engine serves the request at its next idle point (the
   wake bounds how long that takes); an engine that is not running — not
   yet started, killed, or wound down — is snapshotted directly, which is
   the documented safe case. [None] only if a running member failed to
   answer within the budget. *)
let fetch_snapshot m =
  let running =
    match m.domain with Some _ -> not (Atomic.get m.finished) | None -> false
  in
  if not running then Some (Engine.snapshot m.engine)
  else begin
    Atomic.set m.snap_cell None;
    Atomic.set m.want_snapshot true;
    Engine.wake m.engine;
    let deadline = Unix.gettimeofday () +. 0.25 in
    let rec spin () =
      match Atomic.get m.snap_cell with
      | Some json -> Some json
      | None ->
          if Atomic.get m.finished then Some (Engine.snapshot m.engine)
          else if Unix.gettimeofday () > deadline then None
          else begin
            Thread.delay 0.0005;
            spin ()
          end
    in
    spin ()
  end

let member_snapshots t = Array.to_list (Array.map fetch_snapshot t.members)

(* The binding names a member in every key that counts or lists them. *)
let noun t = match t.binding with Shared_port -> "shard" | Own_ports -> "server"

(* One breakdown row per member. Flow listings stay out of it (they are in
   the merged [flows] list, member-prefixed) so the reply fits one datagram
   at sensible member counts. *)
let member_row t m snap =
  let id = [ (noun t, Obs.Json.Int m.index); ("port", Obs.Json.Int (port t m.index)) ] in
  match snap with
  | None -> Obs.Json.Obj (id @ [ ("unresponsive", Obs.Json.Bool true) ])
  | Some snap ->
      let health key = (key, Obs.Json.Int (get_int [ "health"; key ] snap)) in
      Obs.Json.Obj
        (id
        @ [
            ("alive", Obs.Json.Bool (not m.killed));
            ("active_flows", Obs.Json.Int (get_int [ "active_flows" ] snap));
            ("uptime_ns", Obs.Json.Int (get_int [ "uptime_ns" ] snap));
            ("manifest_stripes", Obs.Json.Int (get_int [ "manifest_stripes" ] snap));
            ("totals", Option.value ~default:Obs.Json.Null (get [ "totals" ] snap));
            ( "health",
              Obs.Json.Obj
                [
                  health "ticks"; health "drain_exhausted"; health "spurious_wakeups";
                  health "timer_heap";
                ] );
          ])

let merged_health_json t snaps =
  let merged = Sockets.Loop.create_health () in
  Array.iter
    (fun m -> Sockets.Loop.merge_health ~into:merged (Engine.health m.engine))
    t.members;
  Obs.Json.Obj
    [
      ("ticks", Obs.Json.Int merged.Engine.ticks);
      ("drain_exhausted", Obs.Json.Int merged.Engine.drain_exhausted);
      ("spurious_wakeups", Obs.Json.Int merged.Engine.spurious_wakeups);
      ("timer_heap", Obs.Json.Int (sum [ "health"; "timer_heap" ] snaps));
      ("tick_duration_ns", Obs.Hist.to_json merged.Engine.tick_duration_ns);
      ("recv_drained", Obs.Hist.to_json merged.Engine.recv_drained);
      ("flush_train", Obs.Hist.to_json merged.Engine.flush_train);
      ("timer_heap_depth", Obs.Hist.to_json merged.Engine.timer_heap_depth);
    ]

let snapshot t =
  let now = t.clock () in
  let snaps = member_snapshots t in
  let answered = List.filter_map Fun.id snaps in
  let flows =
    List.concat_map
      (fun s -> match get [ "flows" ] s with Some (Obs.Json.List l) -> l | _ -> [])
      answered
  in
  let flow_label j =
    match Obs.Json.member "flow" j with Some (Obs.Json.String l) -> l | _ -> ""
  in
  let flows = List.sort (fun a b -> compare (flow_label a) (flow_label b)) flows in
  let shown = List.filteri (fun i _ -> i < snapshot_flow_cap) flows in
  let omitted =
    sum [ "flows_omitted" ] answered + max 0 (List.length flows - snapshot_flow_cap)
  in
  let uptime =
    List.fold_left (fun acc s -> max acc (get_int [ "uptime_ns" ] s)) 0 answered
  in
  let noun = noun t in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "lanrepro-stat/1");
      ("now_ns", Obs.Json.Int now);
      ("uptime_ns", Obs.Json.Int uptime);
      (noun ^ "s", Obs.Json.Int (Array.length t.members));
      (noun ^ "s_alive", Obs.Json.Int (List.length (alive t)));
      (noun ^ "s_unresponsive", Obs.Json.Int (List.length snaps - List.length answered));
      ("max_flows", Obs.Json.Int (sum [ "max_flows" ] answered));
      ("active_flows", Obs.Json.Int (sum [ "active_flows" ] answered));
      ("manifest_stripes", Obs.Json.Int (sum [ "manifest_stripes" ] answered));
      ("flows_omitted", Obs.Json.Int omitted);
      ("totals", sum_section "totals" totals_keys answered);
      ("flows", Obs.Json.List shown);
      ("health", merged_health_json t answered);
      ("counters", sum_section "counters" counters_keys answered);
      ( "per_" ^ noun,
        Obs.Json.List (List.map2 (member_row t) (Array.to_list t.members) snaps) );
    ]

(* ---- Lifecycle ------------------------------------------------------- *)

(* The stat socket and the stats emitter run on the group's own thread —
   engines never see them, so their waits stay purely work-derived.
   [Admin.poll] is non-blocking; the delay is the service cadence. *)
let serve_stats t () =
  let next_stats =
    ref
      (match t.stats_interval_ns with
      | Some interval -> t.clock () + interval
      | None -> max_int)
  in
  while not (Atomic.get t.service_stop) do
    Option.iter (fun admin -> Admin.poll admin ~snapshot:(fun () -> snapshot t)) t.admin;
    (match t.stats_interval_ns with
    | Some interval when t.clock () >= !next_stats ->
        t.on_snapshot (snapshot t);
        next_stats := t.clock () + interval
    | _ -> ());
    Thread.delay 0.02
  done

let start t =
  if t.started then invalid_arg "Group.start: already started";
  t.started <- true;
  Array.iter
    (fun m ->
      if not m.killed then
        m.domain <-
          Some
            (Domain.spawn (fun () ->
                 Engine.run m.engine;
                 Atomic.set m.finished true)))
    t.members;
  if Option.is_some t.admin || Option.is_some t.stats_interval_ns then
    t.service <- Some (Thread.create (serve_stats t) ())

let join_member m =
  match m.domain with
  | None -> ()
  | Some d ->
      Domain.join d;
      m.domain <- None;
      Atomic.set m.finished true

let release m =
  Sockets.Poller.close m.poller;
  Sockets.Udp.close m.socket

(* A killed member is dead for good: engine stopped, domain joined, socket
   closed. Blasts at its own port fail the handshake cleanly and manifest
   surveys time out — exactly the failure the write quorum absorbs and the
   repair pass routes around; on a shared port the survivors take over. *)
let kill t index =
  let m = t.members.(index) in
  if not m.killed then begin
    m.killed <- true;
    Engine.stop m.engine;
    join_member m;
    release m
  end

let stop t = Array.iter (fun m -> if not m.killed then Engine.stop m.engine) t.members

let join t =
  Array.iter join_member t.members;
  Atomic.set t.service_stop true;
  Option.iter Thread.join t.service;
  t.service <- None;
  Option.iter Admin.close t.admin;
  Array.iter (fun m -> if not m.killed then release m) t.members

(* ---- Post-run roll-ups ----------------------------------------------- *)

let totals t =
  let sum = Engine.create_totals () in
  Array.iter
    (fun m ->
      let a = Engine.totals m.engine in
      sum.Engine.accepted <- sum.Engine.accepted + a.Engine.accepted;
      sum.Engine.completed <- sum.Engine.completed + a.Engine.completed;
      sum.Engine.aborted <- sum.Engine.aborted + a.Engine.aborted;
      sum.Engine.rejected <- sum.Engine.rejected + a.Engine.rejected;
      sum.Engine.superseded <- sum.Engine.superseded + a.Engine.superseded;
      sum.Engine.stray_datagrams <- sum.Engine.stray_datagrams + a.Engine.stray_datagrams;
      sum.Engine.garbage <- sum.Engine.garbage + a.Engine.garbage;
      sum.Engine.send_failures <- sum.Engine.send_failures + a.Engine.send_failures)
    t.members;
  sum

let rollup t =
  let total = Protocol.Counters.create () in
  Array.iter (fun m -> Protocol.Counters.merge ~into:total (Engine.rollup m.engine)) t.members;
  total

let invariant_violations t =
  Array.to_list t.members
  |> List.concat_map (fun m ->
         List.map
           (fun v -> Printf.sprintf "%s %d: %s" (noun t) m.index v)
           (Engine.invariant_violations m.engine))
