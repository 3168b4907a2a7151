(* The shard fleet and its merge algebra.

   The qcheck properties pin the algebra the merged observability relies on:
   [Protocol.Counters.merge] and [Obs.Hist.merge] must be associative and
   commutative (with [create ()] as identity), or the aggregated snapshot
   would depend on shard enumeration order. Inputs are small integers so
   float sums are exact and equality is honest.

   The reconciliation tests then run a real [Server.Group] — live and
   post-run — and check the aggregated [lanrepro-stat/1] snapshot is the sum
   of the per-shard snapshots, which is also what the swarm's merged report
   must agree with. The group tests pin its binding rules: a group of one is
   the lone engine (no REUSEPORT, no lane prefix), and [kill] is a group
   operation the survivors absorb. The memnet tests pin explicit
   REUSEPORT-style steering: deterministic placement by source address,
   slots that vacate on close and rebind on restart. Finally the engine-idle tests pin the epoll loop's
   no-busy-wait contract: an idle engine parks instead of ticking, and
   [stop] wakes it promptly. *)

let counters_of_array a =
  let c = Protocol.Counters.create () in
  c.Protocol.Counters.data_sent <- a.(0);
  c.Protocol.Counters.retransmitted_data <- a.(1);
  c.Protocol.Counters.acks_sent <- a.(2);
  c.Protocol.Counters.nacks_sent <- a.(3);
  c.Protocol.Counters.rounds <- a.(4);
  c.Protocol.Counters.timeouts <- a.(5);
  c.Protocol.Counters.duplicates_received <- a.(6);
  c.Protocol.Counters.delivered <- a.(7);
  c.Protocol.Counters.faults_injected <- a.(8);
  c.Protocol.Counters.corrupt_detected <- a.(9);
  c.Protocol.Counters.garbage_received <- a.(10);
  c

let counters_fields c =
  Protocol.Counters.
    [
      c.data_sent; c.retransmitted_data; c.acks_sent; c.nacks_sent; c.rounds;
      c.timeouts; c.duplicates_received; c.delivered; c.faults_injected;
      c.corrupt_detected; c.garbage_received;
    ]

let counters_gen = QCheck.(array_of_size (Gen.return 11) (int_range 0 1000))

let prop_counters_merge_commutative =
  QCheck.Test.make ~name:"Counters.merge is commutative" ~count:200
    QCheck.(pair counters_gen counters_gen)
    (fun (a, b) ->
      let ab = counters_of_array a and ba = counters_of_array b in
      Protocol.Counters.merge ~into:ab (counters_of_array b);
      Protocol.Counters.merge ~into:ba (counters_of_array a);
      counters_fields ab = counters_fields ba)

let prop_counters_merge_associative =
  QCheck.Test.make ~name:"Counters.merge is associative (and create() is identity)"
    ~count:200
    QCheck.(triple counters_gen counters_gen counters_gen)
    (fun (a, b, c) ->
      (* left: (a + b) + c *)
      let left = counters_of_array a in
      Protocol.Counters.merge ~into:left (counters_of_array b);
      Protocol.Counters.merge ~into:left (counters_of_array c);
      (* right: a + (b + c) *)
      let bc = counters_of_array b in
      Protocol.Counters.merge ~into:bc (counters_of_array c);
      let right = counters_of_array a in
      Protocol.Counters.merge ~into:right bc;
      (* identity: folding through a fresh create () changes nothing *)
      let via_zero = Protocol.Counters.create () in
      Protocol.Counters.merge ~into:via_zero left;
      counters_fields left = counters_fields right
      && counters_fields left = counters_fields via_zero)

(* Histograms compare by their JSON summary: count, quantiles, min/max, and
   mean are all exact over small-integer-valued samples, and [to_json] is a
   pure function of the merged bucket state. *)
let hist_of values =
  let h = Obs.Hist.create ~lo:1.0 ~hi:1e6 ~bins:120 () in
  List.iter (fun v -> Obs.Hist.add h (float_of_int v)) values;
  h

let hist_key h = Obs.Json.to_string (Obs.Hist.to_json h)
let values_gen = QCheck.(list_of_size Gen.(int_range 0 50) (int_range 1 100_000))

let prop_hist_merge_commutative =
  QCheck.Test.make ~name:"Hist.merge is commutative" ~count:200
    QCheck.(pair values_gen values_gen)
    (fun (a, b) ->
      let ab = hist_of a and ba = hist_of b in
      Obs.Hist.merge ~into:ab (hist_of b);
      Obs.Hist.merge ~into:ba (hist_of a);
      hist_key ab = hist_key ba)

let prop_hist_merge_associative =
  QCheck.Test.make ~name:"Hist.merge is associative (and an empty hist is identity)"
    ~count:200
    QCheck.(triple values_gen values_gen values_gen)
    (fun (a, b, c) ->
      let left = hist_of a in
      Obs.Hist.merge ~into:left (hist_of b);
      Obs.Hist.merge ~into:left (hist_of c);
      let bc = hist_of b in
      Obs.Hist.merge ~into:bc (hist_of c);
      let right = hist_of a in
      Obs.Hist.merge ~into:right bc;
      let via_zero = hist_of [] in
      Obs.Hist.merge ~into:via_zero left;
      hist_key left = hist_key right && hist_key left = hist_key via_zero)

(* ------------------------------------------------- snapshot reconciliation *)

let json_path path json =
  List.fold_left (fun acc key -> Option.bind acc (Obs.Json.member key)) (Some json) path

let json_int path json =
  Option.value ~default:0 (Option.bind (json_path path json) Obs.Json.to_int)

let totals_keys =
  [
    "accepted"; "completed"; "aborted"; "rejected"; "superseded"; "stray_datagrams";
    "garbage"; "send_failures";
  ]

let counters_keys =
  [
    "data_sent"; "retransmitted_data"; "acks_sent"; "nacks_sent"; "rounds"; "timeouts";
    "duplicates_received"; "delivered"; "faults_injected"; "corrupt_detected";
    "garbage_received";
  ]

(* The aggregated snapshot must be the sum of the per-shard snapshots —
   after a real sharded swarm, where the REUSEPORT hash actually spread
   flows and the group machinery produced both views. *)
let test_sharded_swarm_reconciles () =
  let shards = 3 in
  let report =
    Server.Swarm.run ~flows:8 ~bytes:8192 ~packet_bytes:1024 ~seed:3 ~shards ()
  in
  Alcotest.(check int) "shards recorded" shards report.Server.Swarm.shards;
  Alcotest.(check int) "all flows completed" 8 report.Server.Swarm.completed;
  Alcotest.(check (list string)) "no invariant violations" [] report.Server.Swarm.invariants;
  let agg = report.Server.Swarm.engine_snapshot in
  Alcotest.(check int) "snapshot shard count" shards (json_int [ "shards" ] agg);
  Alcotest.(check int) "no shard unresponsive" 0 (json_int [ "shards_unresponsive" ] agg);
  let per_shard =
    match Option.bind (json_path [ "per_shard" ] agg) Obs.Json.to_list with
    | Some rows -> rows
    | None -> Alcotest.fail "aggregated snapshot has no per_shard breakdown"
  in
  Alcotest.(check int) "one breakdown row per shard" shards (List.length per_shard);
  List.iter
    (fun key ->
      let summed =
        List.fold_left (fun acc row -> acc + json_int [ "totals"; key ] row) 0 per_shard
      in
      Alcotest.(check int)
        (Printf.sprintf "aggregated totals.%s = sum of shards" key)
        summed
        (json_int [ "totals"; key ] agg))
    totals_keys;
  Alcotest.(check int) "aggregated completed = server totals" 8
    (json_int [ "totals"; "completed" ] agg);
  Alcotest.(check int) "server totals agree" report.Server.Swarm.server.Server.Engine.completed
    (json_int [ "totals"; "completed" ] agg);
  List.iter
    (fun key ->
      let ticks_sum =
        List.fold_left (fun acc row -> acc + json_int [ "health"; key ] row) 0 per_shard
      in
      Alcotest.(check int)
        (Printf.sprintf "aggregated health.%s = sum of shards" key)
        ticks_sum
        (json_int [ "health"; key ] agg))
    [ "ticks"; "drain_exhausted"; "spurious_wakeups" ];
  (* The snapshot's counter roll-up and the report's merged roll-up come
     from two different paths (per-shard snapshot sum vs Counters.merge
     over engines); they must agree field for field. *)
  List.iter2
    (fun key field ->
      Alcotest.(check int)
        (Printf.sprintf "snapshot counters.%s = Counters.merge roll-up" key)
        field
        (json_int [ "counters"; key ] agg))
    counters_keys
    (counters_fields report.Server.Swarm.rollup)

(* The live fetch path: a started, idle group answers through each engine's
   idle hook (request flag + wake), so a snapshot costs no data-path time
   and never reports an idle shard unresponsive. *)
let test_live_group_snapshot () =
  let group =
    Server.Group.create ~binding:Server.Group.Shared_port ~members:2 ~seed:9 ()
  in
  Server.Group.start group;
  Fun.protect
    ~finally:(fun () ->
      Server.Group.stop group;
      Server.Group.join group)
    (fun () ->
      let snap = Server.Group.snapshot group in
      Alcotest.(check int) "both shards answered" 0
        (json_int [ "shards_unresponsive" ] snap);
      Alcotest.(check int) "no flows yet" 0 (json_int [ "active_flows" ] snap);
      let answered =
        List.filter Option.is_some (Server.Group.member_snapshots group)
      in
      Alcotest.(check int) "per-shard snapshots all arrive" 2 (List.length answered))

(* ----------------------------------------------------------- group rules *)

let send_one ~peer ~seed =
  let socket, _ = Sockets.Udp.create_socket () in
  Fun.protect
    ~finally:(fun () -> Sockets.Udp.close socket)
    (fun () ->
      let rng = Stats.Rng.create ~seed in
      let data = String.init 8192 (fun _ -> Char.chr (Stats.Rng.int rng 256)) in
      (Sockets.Peer.send
         ~ctx:
           (Sockets.Io_ctx.make
              ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ())
              ())
         ~socket ~peer
         ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
         ~data ())
        .Sockets.Peer.outcome)

let flow_labels flowtrace =
  List.sort_uniq compare
    (List.map (fun r -> r.Obs.Flowtrace.flow) (Obs.Flowtrace.records flowtrace))

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* A group of one is the lone engine: its port is held without
   SO_REUSEPORT, so no second server can join it, and its flows trace on
   unprefixed lanes. *)
let test_group_of_one_is_the_lone_engine () =
  let flowtrace = Obs.Flowtrace.create () in
  let group =
    Server.Group.create ~flowtrace ~binding:Server.Group.Shared_port ~members:1 ()
  in
  Server.Group.start group;
  Fun.protect
    ~finally:(fun () ->
      Server.Group.stop group;
      Server.Group.join group)
    (fun () ->
      let port = Server.Group.port group 0 in
      (match Sockets.Udp.create_socket ~port ~reuseport:true () with
      | socket, _ ->
          Sockets.Udp.close socket;
          Alcotest.fail "a reuseport bind joined a group of one"
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
      Alcotest.(check bool) "a transfer completes" true
        (send_one ~peer:(Server.Group.address group 0) ~seed:1 = Protocol.Action.Success));
  let labels = flow_labels flowtrace in
  Alcotest.(check bool) "the flow was traced" true (labels <> []);
  List.iter
    (fun label ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %s carries no prefix" label)
        true
        (starts_with "127.0.0.1:" label))
    labels

(* Two shards on one port: killing one leaves the port served by the
   survivor, which the kernel's REUSEPORT hash now picks for every flow. *)
let test_shared_port_kill_leaves_survivor () =
  let flowtrace = Obs.Flowtrace.create () in
  let group =
    Server.Group.create ~flowtrace ~binding:Server.Group.Shared_port ~members:2 ()
  in
  Server.Group.start group;
  Fun.protect
    ~finally:(fun () ->
      Server.Group.stop group;
      Server.Group.join group)
    (fun () ->
      Server.Group.kill group 0;
      Alcotest.(check (list int)) "shard 1 alone is alive" [ 1 ] (Server.Group.alive group);
      Alcotest.(check bool) "a fresh send to the port succeeds" true
        (send_one ~peer:(Server.Group.address group 0) ~seed:2 = Protocol.Action.Success));
  Alcotest.(check (list string)) "group invariants" []
    (Server.Group.invariant_violations group);
  List.iter
    (fun label ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %s is the survivor's" label)
        true (starts_with "s1:" label))
    (flow_labels flowtrace)

let test_group_kill_idempotent_start_once () =
  let group = Server.Group.create ~binding:Server.Group.Own_ports ~members:2 () in
  Server.Group.start group;
  Fun.protect
    ~finally:(fun () ->
      Server.Group.stop group;
      Server.Group.join group)
    (fun () ->
      Server.Group.kill group 1;
      (* The socket opened next takes the lowest free descriptor — the one
         the kill released — so a second kill that closed it again would
         break this unrelated socket. *)
      let bystander, _ = Sockets.Udp.create_socket () in
      Server.Group.kill group 1;
      Alcotest.(check bool) "a second kill closes nothing" true
        (match Unix.getsockname bystander with
        | _ -> true
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> false);
      Sockets.Udp.close bystander;
      Alcotest.(check (list int)) "member 0 alone is alive" [ 0 ] (Server.Group.alive group);
      Alcotest.check_raises "a second start raises"
        (Invalid_argument "Group.start: already started") (fun () ->
          Server.Group.start group))

(* ---------------------------------------------------- memnet shard steering *)

module Sim = Eventsim.Sim
module Proc = Eventsim.Proc
module Time = Eventsim.Time
module Net = Memnet.Net

let src_port = function Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> -1

let test_memnet_steering_and_rebind () =
  let landed = Array.make 3 [] in
  let dropped_before = ref 0 and dropped_after = ref 0 in
  let sim = Sim.create () in
  let net = Net.create ~sim ~seed:1 () in
  let env = Proc.env sim in
  let reader index ep () =
    let t = Net.transport ep in
    let rec loop () =
      match t.Sockets.Transport.recv ~timeout_ns:(Some 400_000_000) with
      | `Datagram { Sockets.Transport.from; _ } ->
          landed.(index) <- src_port from :: landed.(index);
          loop ()
      | `Timeout -> ()
    in
    try loop () with Net.Closed _ -> ()
  in
  let spawn_member index =
    let ep = Net.bind_shard net ~port:7000 ~shards:3 ~index ~shard_of:src_port in
    Proc.spawn env (reader index ep);
    ep
  in
  let members = Array.init 3 spawn_member in
  let target = Unix.ADDR_INET (Unix.inet_addr_loopback, 7000) in
  let send_from () =
    let ep = Net.bind net in
    (Net.transport ep).Sockets.Transport.send ~peer:target ~on_outcome:ignore
      (Bytes.of_string "hi");
    Net.port ep
  in
  let sent = ref [] in
  Proc.spawn env (fun () ->
      (* Six distinct source ports, so every residue class is hit. *)
      for _ = 1 to 6 do
        sent := send_from () :: !sent;
        Proc.sleep (Time.span_ns 1_000_000)
      done;
      dropped_before := (Net.stats net).Net.dropped_unbound;
      (* Vacate slot 1: datagrams steered at the gap must drop, the others
         still deliver. *)
      Net.close members.(1);
      let p = send_from () in
      assert (p mod 3 = 1);
      Proc.sleep (Time.span_ns 10_000_000);
      dropped_after := (Net.stats net).Net.dropped_unbound;
      (* A restarted shard rebinds the same slot and receives again. *)
      let again = Net.bind_shard net ~port:7000 ~shards:3 ~index:1 ~shard_of:src_port in
      Proc.spawn env (reader 1 again);
      Proc.sleep (Time.span_ns 1_000_000);
      ignore (send_from () : int));
  Sim.run ~until:(Time.of_ns 2_000_000_000) sim;
  Alcotest.(check int) "nothing dropped while all slots bound" 0 !dropped_before;
  Alcotest.(check int) "gap steering drops as unbound" 1 (!dropped_after - !dropped_before);
  Array.iteri
    (fun index ports ->
      List.iter
        (fun port ->
          Alcotest.(check int)
            (Printf.sprintf "port %d steered by source mod shards" port)
            index (port mod 3))
        ports)
    landed;
  let delivered = Array.fold_left (fun acc l -> acc + List.length l) 0 landed in
  (* 6 before the kill + 1 after the rebind; the one into the gap dropped. *)
  Alcotest.(check int) "all surviving sends delivered" 7 delivered

let test_memnet_steering_is_deterministic () =
  let run () =
    let landed = Array.make 4 [] in
    let sim = Sim.create () in
    let net = Net.create ~sim ~seed:5 () in
    let env = Proc.env sim in
    Array.iteri
      (fun index () ->
        let ep = Net.bind_shard net ~port:7000 ~shards:4 ~index ~shard_of:src_port in
        Proc.spawn env (fun () ->
            let t = Net.transport ep in
            let rec loop () =
              match t.Sockets.Transport.recv ~timeout_ns:(Some 300_000_000) with
              | `Datagram { Sockets.Transport.from; _ } ->
                  landed.(index) <- src_port from :: landed.(index);
                  loop ()
              | `Timeout -> ()
            in
            loop ()))
      (Array.make 4 ());
    Proc.spawn env (fun () ->
        for _ = 1 to 12 do
          let ep = Net.bind net in
          (Net.transport ep).Sockets.Transport.send
            ~peer:(Unix.ADDR_INET (Unix.inet_addr_loopback, 7000))
            ~on_outcome:ignore (Bytes.of_string "x");
          Proc.sleep (Time.span_ns 500_000)
        done);
    Sim.run ~until:(Time.of_ns 1_000_000_000) sim;
    Array.map (List.sort compare) landed
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical placement across runs" true (a = b)

(* ------------------------------------------------------- engine idle cost *)

(* An idle engine on a wakeable transport must park (no 20 Hz tick), and
   [stop] must get it out of that park promptly. Generous bounds: the
   assertions fail on a busy-looping or 50 ms-capped loop, not on a slow CI
   machine. *)
let test_engine_idle_parks_and_stops_promptly () =
  let socket, _ = Sockets.Udp.create_socket () in
  let poller = Sockets.Poller.create () in
  let transport = Sockets.Transport.udp ~poller ~socket () in
  let engine = Server.Engine.create ~transport () in
  let domain = Domain.spawn (fun () -> Server.Engine.run engine) in
  Unix.sleepf 0.3;
  let t0 = Unix.gettimeofday () in
  Server.Engine.stop engine;
  Domain.join domain;
  let stop_s = Unix.gettimeofday () -. t0 in
  Sockets.Poller.close poller;
  Sockets.Udp.close socket;
  let h = Server.Engine.health engine in
  Alcotest.(check bool)
    (Printf.sprintf "stop wakes the idle wait promptly (%.3f s)" stop_s)
    true (stop_s < 1.0);
  (* 0.3 s idle at the old 50 ms cap would be ~6 ticks; parked is O(1). *)
  Alcotest.(check bool)
    (Printf.sprintf "idle engine parks instead of ticking (ticks=%d)" h.Server.Engine.ticks)
    true
    (h.Server.Engine.ticks <= 3)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "shard"
    [
      ( "merge-algebra",
        qcheck
          [
            prop_counters_merge_commutative;
            prop_counters_merge_associative;
            prop_hist_merge_commutative;
            prop_hist_merge_associative;
          ] );
      ( "reconciliation",
        [
          Alcotest.test_case "sharded swarm snapshot reconciles" `Quick
            test_sharded_swarm_reconciles;
          Alcotest.test_case "live group snapshot via idle hook" `Quick
            test_live_group_snapshot;
        ] );
      ( "group",
        [
          Alcotest.test_case "a group of one is the lone engine" `Quick
            test_group_of_one_is_the_lone_engine;
          Alcotest.test_case "shared-port kill leaves the survivor" `Quick
            test_shared_port_kill_leaves_survivor;
          Alcotest.test_case "kill is idempotent; start once" `Quick
            test_group_kill_idempotent_start_once;
        ] );
      ( "memnet-steering",
        [
          Alcotest.test_case "steer, vacate, rebind" `Quick test_memnet_steering_and_rebind;
          Alcotest.test_case "placement is deterministic" `Quick
            test_memnet_steering_is_deterministic;
        ] );
      ( "engine-idle",
        [
          Alcotest.test_case "idle engine parks; stop is prompt" `Quick
            test_engine_idle_parks_and_stops_promptly;
        ] );
    ]
