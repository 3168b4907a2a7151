(* The sendmmsg/recvmmsg packet-train fast path: wire-level round trips,
   per-datagram outcome accounting across partial sends, the ENOSYS/env
   fallback, fault injection upstream of the batch, a batched swarm soak,
   and the GSO/GRO train rule: how a train is grouped into UDP_SEGMENT
   messages, how a GRO receiver cuts it apart, and what a refusal does.
   Every test also passes with LANREPRO_BATCH=0 and =fallback (the CI
   matrix runs the whole suite all three ways). *)

let payload_of i = Bytes.of_string (Printf.sprintf "datagram-%04d" i)

let make_pair () =
  let rx_socket, address = Sockets.Udp.create_socket () in
  Unix.set_nonblock rx_socket;
  let tx_socket, _ = Sockets.Udp.create_socket () in
  (tx_socket, rx_socket, address)

let close_pair tx_socket rx_socket =
  Sockets.Udp.close tx_socket;
  Sockets.Udp.close rx_socket

(* Drain [expected] datagrams from [rx], waiting (bounded) for loopback
   delivery, and return the payload strings in arrival order. *)
let drain_payloads rx rx_socket ~expected =
  let got = ref [] and count = ref 0 in
  let deadline = Unix.gettimeofday () +. 2.0 in
  while !count < expected && Unix.gettimeofday () < deadline do
    let n = Sockets.Batch.recv rx ~limit:expected in
    if n = 0 then ignore (Unix.select [ rx_socket ] [] [] 0.05)
    else
      for i = 0 to n - 1 do
        let buf, pos, len, _from = Sockets.Batch.get rx i in
        got := Bytes.sub_string buf pos len :: !got;
        incr count
      done
  done;
  List.rev !got

let check_round_trip ~force_fallback () =
  let tx_socket, rx_socket, address = make_pair () in
  Fun.protect
    ~finally:(fun () -> close_pair tx_socket rx_socket)
    (fun () ->
      let batch = Sockets.Batch.create ~force_fallback ~socket:tx_socket () in
      let rx = Sockets.Batch.create_rx ~force_fallback ~socket:rx_socket () in
      let n = 64 in
      for i = 0 to n - 1 do
        Sockets.Batch.push batch ~peer:address (payload_of i)
      done;
      Alcotest.(check int) "queued" n (Sockets.Batch.length batch);
      let report = Sockets.Batch.flush batch in
      Alcotest.(check int) "submitted" n report.Sockets.Batch.submitted;
      Alcotest.(check int) "sent" n report.Sockets.Batch.sent;
      Alcotest.(check int) "failed" 0 report.Sockets.Batch.failed;
      (if force_fallback || not (Sockets.Batch.kernel_support ()) then
         Alcotest.(check int) "fallback: one syscall per datagram" n
           report.Sockets.Batch.syscalls
       else
         Alcotest.(check bool) "fast path: far fewer syscalls than datagrams" true
           (report.Sockets.Batch.syscalls <= 1 + (n / 8)));
      let payloads = drain_payloads rx rx_socket ~expected:n in
      Alcotest.(check int) "all delivered" n (List.length payloads);
      (* Loopback preserves order, so arrival order is push order. *)
      List.iteri
        (fun i got ->
          Alcotest.(check string) "payload intact" (Bytes.to_string (payload_of i)) got)
        payloads;
      Alcotest.(check int) "rx counted" n (Sockets.Batch.rx_received rx);
      if not (force_fallback || not (Sockets.Batch.kernel_support ())) then
        Alcotest.(check bool) "rx fast path: fewer syscalls than datagrams" true
          (Sockets.Batch.rx_syscalls rx < n))

let test_round_trip_fast () = check_round_trip ~force_fallback:false ()
let test_round_trip_fallback () = check_round_trip ~force_fallback:true ()

(* An oversized datagram in the middle of a train: the kernel stops the
   sendmmsg short, the batch resolves exactly that entry through the
   one-datagram path (Send_failed EMSGSIZE), and the rest of the train still
   goes out. Outcome callbacks fire once per datagram with the same verdicts
   the unbatched transport would have produced. *)
let check_partial_send ~force_fallback () =
  let tx_socket, rx_socket, address = make_pair () in
  Fun.protect
    ~finally:(fun () -> close_pair tx_socket rx_socket)
    (fun () ->
      let batch = Sockets.Batch.create ~force_fallback ~socket:tx_socket () in
      let rx = Sockets.Batch.create_rx ~force_fallback ~socket:rx_socket () in
      let oversized = 3 in
      let n = 7 in
      let outcomes = Array.make n None in
      for i = 0 to n - 1 do
        let data =
          if i = oversized then Bytes.make 70_000 '!' (* > the 65507 B UDP maximum *)
          else payload_of i
        in
        Sockets.Batch.push batch ~peer:address
          ~on_outcome:(fun o -> outcomes.(i) <- Some o)
          data
      done;
      let report = Sockets.Batch.flush batch in
      Alcotest.(check int) "submitted" n report.Sockets.Batch.submitted;
      Alcotest.(check int) "sent" (n - 1) report.Sockets.Batch.sent;
      Alcotest.(check int) "failed" 1 report.Sockets.Batch.failed;
      Array.iteri
        (fun i outcome ->
          match outcome with
          | None -> Alcotest.failf "no outcome fired for datagram %d" i
          | Some Sockets.Udp.Sent ->
              Alcotest.(check bool) "only the oversized entry fails" true (i <> oversized)
          | Some (Sockets.Udp.Send_failed error) ->
              Alcotest.(check int) "oversized entry" oversized i;
              Alcotest.(check string) "classified as EMSGSIZE" "EMSGSIZE"
                (match error with Unix.EMSGSIZE -> "EMSGSIZE" | e -> Unix.error_message e))
        outcomes;
      let payloads = drain_payloads rx rx_socket ~expected:(n - 1) in
      let expected =
        List.filter_map
          (fun i -> if i = oversized then None else Some (Bytes.to_string (payload_of i)))
          (List.init n Fun.id)
      in
      Alcotest.(check (list string)) "survivors delivered in order" expected payloads)

let test_partial_send_fast () = check_partial_send ~force_fallback:false ()
let test_partial_send_fallback () = check_partial_send ~force_fallback:true ()

(* The LANREPRO_BATCH knob: "0"/"off"/"false" disable batching at the
   Io_ctx layer, "fallback"/"emulate" keep the train API but take the
   one-datagram path — and a batch created under the knob really does. *)
let test_env_knob () =
  let original = Sys.getenv_opt "LANREPRO_BATCH" in
  let restore () =
    Unix.putenv "LANREPRO_BATCH" (match original with Some v -> v | None -> "")
  in
  Fun.protect ~finally:restore (fun () ->
      List.iter
        (fun (value, enabled, fallback) ->
          Unix.putenv "LANREPRO_BATCH" value;
          Alcotest.(check bool) (value ^ " enabled") enabled (Sockets.Batch.env_enabled ());
          Alcotest.(check bool)
            (value ^ " forces fallback")
            fallback
            (Sockets.Batch.env_force_fallback ());
          Alcotest.(check bool)
            (value ^ " reflected in Io_ctx")
            enabled
            (Sockets.Io_ctx.default ()).Sockets.Io_ctx.batch)
        [
          ("0", false, false);
          ("off", false, false);
          ("false", false, false);
          ("1", true, false);
          ("fallback", true, true);
          ("emulate", true, true);
        ];
      (* A batch created under the fallback knob takes the one-datagram
         path end to end — the ENOSYS posture, forced from the outside. *)
      Unix.putenv "LANREPRO_BATCH" "fallback";
      let tx_socket, rx_socket, address = make_pair () in
      Fun.protect
        ~finally:(fun () -> close_pair tx_socket rx_socket)
        (fun () ->
          let batch = Sockets.Batch.create ~socket:tx_socket () in
          Alcotest.(check bool) "fallback honoured" true (Sockets.Batch.using_fallback batch);
          for i = 0 to 9 do
            Sockets.Batch.push batch ~peer:address (payload_of i)
          done;
          let report = Sockets.Batch.flush batch in
          Alcotest.(check int) "one syscall per datagram" 10 report.Sockets.Batch.syscalls;
          Alcotest.(check int) "all sent" 10 report.Sockets.Batch.sent;
          let rx = Sockets.Batch.create_rx ~socket:rx_socket () in
          Alcotest.(check int) "all delivered" 10
            (List.length (drain_payloads rx rx_socket ~expected:10))))

(* The receive ring is sized by demand: one slot at creation, doubling only
   after a drain that filled every slot it had, never past its capacity —
   and the slots of the drain that triggered the growth keep their
   datagrams. Loopback has queued a datagram by the time a short wait
   returns, so each drain's count is exact. *)
let check_rx_ring_growth ~force_fallback () =
  let tx_socket, rx_socket, address = make_pair () in
  Fun.protect
    ~finally:(fun () -> close_pair tx_socket rx_socket)
    (fun () ->
      (* Not a power of two, so the last doubling has to be clamped. *)
      let capacity = 6 in
      let rx = Sockets.Batch.create_rx ~capacity ~force_fallback ~socket:rx_socket () in
      let next = ref 0 in
      let queue k =
        for _ = 1 to k do
          ignore
            (Sockets.Udp.send_bytes tx_socket address (payload_of !next)
              : Sockets.Udp.send_outcome);
          incr next
        done;
        ignore (Unix.select [ rx_socket ] [] [] 1.0);
        Unix.sleepf 0.01
      in
      let received = ref 0 in
      let drain ?(limit = capacity) label ~expect ~slots =
        let n = Sockets.Batch.recv rx ~limit in
        Alcotest.(check int) (label ^ ": drained") expect n;
        for i = 0 to n - 1 do
          let buf, pos, len, _ = Sockets.Batch.get rx i in
          Alcotest.(check string)
            (label ^ ": slot keeps its datagram")
            (Bytes.to_string (payload_of (!received + i)))
            (Bytes.sub_string buf pos len)
        done;
        received := !received + n;
        Alcotest.(check int) (label ^ ": slots after") slots (Sockets.Batch.rx_slots rx)
      in
      Alcotest.(check int) "capacity" capacity (Sockets.Batch.rx_capacity rx);
      Alcotest.(check int) "one slot at creation" 1 (Sockets.Batch.rx_slots rx);
      drain "nothing ready" ~expect:0 ~slots:1;
      queue 1;
      drain "one datagram fills the one slot" ~expect:1 ~slots:2;
      queue 1;
      drain "half-full drain" ~expect:1 ~slots:2;
      queue 3;
      drain ~limit:1 "limit below the slots" ~expect:1 ~slots:2;
      drain "full drain" ~expect:2 ~slots:4;
      queue 20;
      drain "full again, clamped to capacity" ~expect:4 ~slots:6;
      drain "full at capacity" ~expect:6 ~slots:6;
      drain "full at capacity, again" ~expect:6 ~slots:6;
      drain "rest of the backlog" ~expect:4 ~slots:6;
      drain "backlog gone" ~expect:0 ~slots:6;
      Alcotest.(check int) "every datagram drained" !next !received)

let test_rx_ring_growth_fast () = check_rx_ring_growth ~force_fallback:false ()
let test_rx_ring_growth_fallback () = check_rx_ring_growth ~force_fallback:true ()

let with_batch_env value f =
  let original = Sys.getenv_opt "LANREPRO_BATCH" in
  Unix.putenv "LANREPRO_BATCH" value;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "LANREPRO_BATCH" (match original with Some v -> v | None -> ""))
    f

(* What one 64 KiB [Peer.send] allocates on the sending domain, against a
   batching engine serving from its own domain ([Gc.allocated_bytes] counts
   per domain, so the engine's share stays out). A sender reads a few ACKs:
   a server-sized ring (64 slots x 64 KiB) per send would be 4 MiB of
   garbage per transfer, so the demand-sized ring must keep the whole send
   under 1 MiB, on the recvmmsg path and the forced fallback alike. The
   first send is a warm-up: one-off costs are not per-send. *)
let check_send_allocation ~force_fallback () =
  with_batch_env (if force_fallback then "fallback" else "1") (fun () ->
      let server_socket, server_address = Sockets.Udp.create_socket () in
      let poller = Sockets.Poller.create () in
      let transport =
        Sockets.Transport.udp ~batch:true ~poller ~socket:server_socket ()
      in
      let engine = Server.Engine.create ~max_flows:16 ~transport () in
      let server = Domain.spawn (fun () -> Server.Engine.run engine) in
      let sender_socket, _ = Sockets.Udp.create_socket () in
      let data = String.init (64 * 1024) (fun i -> Char.chr ((i * 131) land 0xFF)) in
      let ctx = Sockets.Io_ctx.make ~batch:true () in
      let send transfer_id =
        Sockets.Peer.send ~ctx ~transfer_id ~socket:sender_socket ~peer:server_address
          ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~data ()
      in
      Fun.protect
        ~finally:(fun () ->
          Server.Engine.stop engine;
          Domain.join server;
          Sockets.Poller.close poller;
          Sockets.Udp.close server_socket;
          Sockets.Udp.close sender_socket)
        (fun () ->
          let warm = send 1 in
          Alcotest.(check bool) "warm-up send succeeds" true
            (warm.Sockets.Peer.outcome = Protocol.Action.Success);
          let before = Gc.allocated_bytes () in
          let result = send 2 in
          let allocated = Gc.allocated_bytes () -. before in
          Alcotest.(check bool) "measured send succeeds" true
            (result.Sockets.Peer.outcome = Protocol.Action.Success);
          if allocated >= 1024. *. 1024. then
            Alcotest.failf "one 64 KiB send allocated %.0f KiB (limit 1024 KiB)"
              (allocated /. 1024.)))

let test_send_allocation_fast () = check_send_allocation ~force_fallback:false ()
let test_send_allocation_fallback () = check_send_allocation ~force_fallback:true ()

(* Fault injection happens upstream of the batch, per datagram, so the same
   seeded netem drops the same datagrams whether the survivors then go out
   through sendmmsg trains or one sendto at a time. *)
let test_netem_drop_parity () =
  let scenario = Faults.Scenario.make ~name:"half" [ Faults.Scenario.Drop_iid 0.5 ] in
  let n = 100 in
  let survivors ~batched =
    let tx_socket, rx_socket, address = make_pair () in
    Fun.protect
      ~finally:(fun () -> close_pair tx_socket rx_socket)
      (fun () ->
        let netem = Faults.Netem.create ~seed:77 scenario in
        let batch =
          if batched then Some (Sockets.Batch.create ~socket:tx_socket ()) else None
        in
        let out data =
          match batch with
          | Some b -> Sockets.Batch.push b ~peer:address data
          | None ->
              ignore (Sockets.Udp.send_bytes tx_socket address data : Sockets.Udp.send_outcome)
        in
        for i = 0 to n - 1 do
          List.iter
            (fun { Faults.Netem.delay_ns = _; data } -> out data)
            (Faults.Netem.tx_bytes netem (payload_of i))
        done;
        let emitted =
          match batch with
          | Some b ->
              let report = Sockets.Batch.flush b in
              report.Sockets.Batch.sent
          | None -> n - (Faults.Netem.stats netem).Faults.Netem.dropped
        in
        let rx = Sockets.Batch.create_rx ~socket:rx_socket () in
        let payloads = drain_payloads rx rx_socket ~expected:emitted in
        Alcotest.(check bool) "netem actually dropped some" true
          ((Faults.Netem.stats netem).Faults.Netem.dropped > 0);
        payloads)
  in
  let batched = survivors ~batched:true in
  let unbatched = survivors ~batched:false in
  Alcotest.(check (list string)) "same datagrams survive either path" unbatched batched

(* End-to-end transfer with batching on at both peers: the protocol result
   and the whole-segment CRC must come out exactly as they do unbatched. *)
let test_peer_transfer_batched () =
  let rng = Stats.Rng.create ~seed:21 in
  let data = String.init 100_000 (fun _ -> Char.chr (Stats.Rng.int rng 256)) in
  let ctx = Sockets.Io_ctx.make ~batch:true () in
  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  let received = ref None in
  let thread =
    Thread.create
      (fun () -> received := Server.Engine.receive_one ~ctx ~socket:receiver_socket ())
      ()
  in
  let result =
    Sockets.Peer.send ~ctx ~socket:sender_socket ~peer:receiver_address
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~data ()
  in
  Thread.join thread;
  Sockets.Udp.close receiver_socket;
  Sockets.Udp.close sender_socket;
  Alcotest.(check bool) "success" true (result.Sockets.Peer.outcome = Protocol.Action.Success);
  match !received with
  | Some r ->
      Alcotest.(check bool) "data intact" true (String.equal r.Sockets.Flow.data data);
      Alcotest.(check bool) "CRC verified" true (r.Sockets.Flow.integrity = Sockets.Flow.Verified)
  | None -> Alcotest.fail "nothing received"

(* Same transfer under a seeded drop scenario with batching on: the faults
   bite (drops and retransmissions both happen) and the protocol still
   recovers a byte-perfect, CRC-verified segment. *)
let test_peer_transfer_batched_lossy () =
  let rng = Stats.Rng.create ~seed:22 in
  let data = String.init 60_000 (fun _ -> Char.chr (Stats.Rng.int rng 256)) in
  let scenario = Faults.Scenario.make ~name:"drop15" [ Faults.Scenario.Drop_iid 0.15 ] in
  let netem = Faults.Netem.create ~seed:5 scenario in
  let ctx =
    Sockets.Io_ctx.make ~faults:netem ~batch:true
      ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ()) ()
  in
  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  let received = ref None in
  let thread =
    Thread.create
      (fun () ->
        received :=
          Server.Engine.receive_one
            ~ctx:(Sockets.Io_ctx.make ~batch:true ())
            ~socket:receiver_socket ())
      ()
  in
  let result =
    Sockets.Peer.send ~ctx ~socket:sender_socket
      ~peer:receiver_address
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Selective)
      ~data ()
  in
  Thread.join thread;
  Sockets.Udp.close receiver_socket;
  Sockets.Udp.close sender_socket;
  Alcotest.(check bool) "success" true (result.Sockets.Peer.outcome = Protocol.Action.Success);
  Alcotest.(check bool) "netem dropped datagrams" true
    ((Faults.Netem.stats netem).Faults.Netem.dropped > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (result.Sockets.Peer.counters.Protocol.Counters.retransmitted_data > 0);
  match !received with
  | Some r ->
      Alcotest.(check bool) "data intact" true (String.equal r.Sockets.Flow.data data);
      Alcotest.(check bool) "CRC verified" true (r.Sockets.Flow.integrity = Sockets.Flow.Verified)
  | None -> Alcotest.fail "nothing received"

(* Concurrent soak: a batched engine serving batched senders, every flow
   CRC-verified server-side. *)
let test_swarm_batched () =
  let ctx = Sockets.Io_ctx.make ~batch:true () in
  let report = Server.Swarm.run ~bytes:16_384 ~seed:11 ~ctx ~flows:8 () in
  Alcotest.(check int) "all completed" 8 report.Server.Swarm.completed;
  Alcotest.(check int) "none failed" 0 report.Server.Swarm.failed;
  Alcotest.(check int) "server verified every flow" 8 (Server.Swarm.server_verified report)

(* ------------------------------------------------------ GSO/GRO trains -- *)

external set_no_check : Unix.file_descr -> bool = "lanrepro_test_set_no_check"

(* Datagram [i] of a train, [len] bytes that depend on [i] and on their
   offset: a datagram re-cut, merged or swapped does not compare equal. *)
let stamped i len = Bytes.init len (fun k -> Char.chr (((i * 7) + k) land 0xff))

type receiver = {
  socket : Unix.file_descr;
  address : Unix.sockaddr;
  rx : Sockets.Batch.rx;
}

(* [gro]: the recvmmsg ring, which turns UDP_GRO on; otherwise the forced
   recvfrom fallback, a plain socket the kernel hands single datagrams. *)
let receiver ~gro =
  let socket, address = Sockets.Udp.create_socket () in
  Unix.set_nonblock socket;
  (try Unix.setsockopt_int socket Unix.SO_RCVBUF (4 * 1024 * 1024)
   with Unix.Unix_error _ -> ());
  let rx = Sockets.Batch.create_rx ~capacity:8 ~force_fallback:(not gro) ~socket () in
  { socket; address; rx }

(* Whether trains really leave as GSO messages and arrive coalesced: the
   syscalls, and UDP_GRO (which postdates UDP_SEGMENT), asked on a socket
   of its own so no receiver under test changes kind. *)
let gso_live () =
  Sockets.Batch.kernel_support ()
  &&
  let probe, _ = Sockets.Udp.create_socket () in
  Fun.protect
    ~finally:(fun () -> Sockets.Udp.close probe)
    (fun () -> Sockets.Batch.set_gro probe true)

let skip_check what =
  Printf.printf "SKIP %s: this kernel does not coalesce UDP trains\n%!" what

let settle r =
  ignore (Unix.select [ r.socket ] [] [] 1.0);
  Unix.sleepf 0.01

(* Grow [r]'s ring to [slots] with single datagrams, drained, so that one
   drain of the train under test can fill that many slots and no more. *)
let warm r ~slots =
  let tx, _ = Sockets.Udp.create_socket () in
  let rounds = ref 0 in
  while Sockets.Batch.rx_slots r.rx < slots do
    incr rounds;
    if !rounds > 50 then Alcotest.failf "ring did not grow to %d slots" slots;
    let k = Sockets.Batch.rx_slots r.rx in
    for _ = 1 to k do
      ignore
        (Sockets.Udp.send_bytes tx r.address (Bytes.of_string "warm")
          : Sockets.Udp.send_outcome)
    done;
    settle r;
    ignore (Sockets.Batch.recv r.rx ~limit:k : int)
  done;
  settle r;
  while Sockets.Batch.recv r.rx ~limit:slots > 0 do () done;
  Sockets.Udp.close tx

(* Push [train] — (receiver, length) pairs — through one fast-path batch,
   flush it, and return the report with each receiver's expected
   datagrams in order. *)
let send_train ?outcomes batch receivers train =
  List.iteri
    (fun i (r, len) ->
      let on_outcome =
        Option.map (fun counts o ->
            match o with
            | Sockets.Udp.Sent -> counts.(i) <- counts.(i) + 1
            | Sockets.Udp.Send_failed _ -> Alcotest.failf "datagram %d failed" i)
          outcomes
      in
      Sockets.Batch.push batch ~peer:receivers.(r).address ?on_outcome (stamped i len))
    train;
  let report = Sockets.Batch.flush batch in
  let expected r =
    List.concat
      (List.mapi
         (fun i (r', len) -> if r' = r then [ Bytes.to_string (stamped i len) ] else [])
         train)
  in
  (report, Array.mapi (fun r _ -> expected r) receivers)

let check_delivered label receivers expected =
  Array.iteri
    (fun r recv ->
      let want = expected.(r) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: receiver %d gets every datagram intact, in order" label r)
        want
        (drain_payloads recv.rx recv.socket ~expected:(List.length want)))
    receivers

(* Run [f] on two receivers of one kind and a fast-path sender, closing all
   three after. *)
let with_train_sockets ~gro f =
  let tx, _ = Sockets.Udp.create_socket () in
  let receivers = [| receiver ~gro; receiver ~gro |] in
  Fun.protect
    ~finally:(fun () ->
      Sockets.Udp.close tx;
      Array.iter (fun r -> Sockets.Udp.close r.socket) receivers)
    (fun () ->
      let batch = Sockets.Batch.create ~capacity:256 ~force_fallback:false ~socket:tx () in
      f tx batch receivers)

(* Two interleaved peers; a short datagram mid-train, followed by more of
   the full size, which must start a new group (the kernel would re-cut a
   group at segment boundaries); a short last datagram. *)
let check_mixed_train ~gro () =
  with_train_sockets ~gro (fun _ batch receivers ->
      let run r k len = List.init k (fun _ -> (r, len)) in
      let train =
        run 0 5 1000 @ run 1 3 1000 @ run 0 2 1000 @ [ (0, 300) ] @ run 0 4 1000
        @ [ (1, 1000); (0, 1000); (1, 1000); (0, 1000) ]
        @ run 1 6 800 @ [ (1, 799) ] @ run 1 2 800 @ run 0 3 1000 @ [ (0, 700) ]
      in
      let report, expected = send_train batch receivers train in
      Alcotest.(check int) "all sent" (List.length train) report.Sockets.Batch.sent;
      check_delivered "mixed train" receivers expected)

(* The benchmark's train: 64 DATA datagrams of 1048 bytes. At most 62 of
   them fit the 65507-byte UDP limit, so a GRO receiver must take the
   whole train in two ring slots, from one drain. *)
let check_benchmark_train ~gro () =
  with_train_sockets ~gro (fun _ batch receivers ->
      let r = receivers.(0) in
      let train = List.init 64 (fun _ -> (0, 1048)) in
      if not gro then begin
        let _, expected = send_train batch receivers train in
        check_delivered "64 x 1048" receivers expected
      end
      else if not (gso_live ()) then begin
        skip_check "two-slot train";
        let _, expected = send_train batch receivers train in
        check_delivered "64 x 1048" receivers expected
      end
      else begin
        warm r ~slots:2;
        let report, expected = send_train batch receivers train in
        Alcotest.(check int) "one sendmmsg" 1 report.Sockets.Batch.syscalls;
        settle r;
        let n = Sockets.Batch.recv r.rx ~limit:2 in
        Alcotest.(check int) "64 datagrams out of one two-slot drain" 64 n;
        Alcotest.(check (list string))
          "each cut intact, in order" expected.(0)
          (List.init n (fun i ->
               let buf, pos, len, _ = Sockets.Batch.get r.rx i in
               Bytes.sub_string buf pos len))
      end)

(* 200 small same-size datagrams: more segments than one GSO message may
   carry (64 here; the kernel refuses past 128), so four messages in one
   sendmmsg, reaching a GRO receiver as four slots. *)
let check_segment_cap ~gro () =
  with_train_sockets ~gro (fun _ batch receivers ->
      let r = receivers.(0) in
      let train = List.init 200 (fun _ -> (0, 100)) in
      if gro && gso_live () then begin
        warm r ~slots:4;
        let report, expected = send_train batch receivers train in
        Alcotest.(check int) "one sendmmsg, no refusal" 1 report.Sockets.Batch.syscalls;
        settle r;
        let n = Sockets.Batch.recv r.rx ~limit:4 in
        Alcotest.(check int) "200 datagrams out of one four-slot drain" 200 n;
        Alcotest.(check (list string))
          "each cut intact, in order" expected.(0)
          (List.init n (fun i ->
               let buf, pos, len, _ = Sockets.Batch.get r.rx i in
               Bytes.sub_string buf pos len))
      end
      else begin
        if gro then skip_check "four-slot train";
        let report, expected = send_train batch receivers train in
        Alcotest.(check int) "all sent" 200 report.Sockets.Batch.sent;
        check_delivered "200 x 100" receivers expected
      end)

(* SO_NO_CHECK makes the kernel refuse every GSO message. The refused
   window goes out again ungrouped: every datagram arrives, every outcome
   fires once, and the batch stops grouping, so the next flush is one
   plain sendmmsg with no refusal. *)
let check_refusal ~gro () =
  with_train_sockets ~gro (fun tx batch receivers ->
      if not (gso_live () && set_no_check tx) then skip_check "GSO refusal"
      else begin
        let train = List.init 40 (fun _ -> (0, 500)) @ List.init 40 (fun _ -> (1, 500)) in
        let outcomes = Array.make (List.length train) 0 in
        let report, expected = send_train ~outcomes batch receivers train in
        Alcotest.(check int) "all sent" 80 report.Sockets.Batch.sent;
        Alcotest.(check bool) "refused once, resubmitted once" true
          (report.Sockets.Batch.syscalls <= 2);
        Array.iteri
          (fun i c -> Alcotest.(check int) (Printf.sprintf "outcome %d once" i) 1 c)
          outcomes;
        check_delivered "refused train" receivers expected;
        let report, expected = send_train batch receivers train in
        Alcotest.(check int)
          "later flush: one plain sendmmsg" 1 report.Sockets.Batch.syscalls;
        check_delivered "later train" receivers expected
      end)

let () =
  Alcotest.run "batch"
    [
      ( "round-trip",
        [
          Alcotest.test_case "fast path" `Quick test_round_trip_fast;
          Alcotest.test_case "forced fallback" `Quick test_round_trip_fallback;
        ] );
      ( "partial-send",
        [
          Alcotest.test_case "fast path" `Quick test_partial_send_fast;
          Alcotest.test_case "forced fallback" `Quick test_partial_send_fallback;
        ] );
      ( "rx-ring",
        [
          Alcotest.test_case "grows on full drains, fast path" `Quick
            test_rx_ring_growth_fast;
          Alcotest.test_case "grows on full drains, forced fallback" `Quick
            test_rx_ring_growth_fallback;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "64 KiB send under 1 MiB, recvmmsg" `Quick
            test_send_allocation_fast;
          Alcotest.test_case "64 KiB send under 1 MiB, forced fallback" `Quick
            test_send_allocation_fallback;
        ] );
      ("env-knob", [ Alcotest.test_case "LANREPRO_BATCH" `Quick test_env_knob ]);
      ("netem", [ Alcotest.test_case "drop parity over batch" `Quick test_netem_drop_parity ]);
      ( "peer",
        [
          Alcotest.test_case "batched transfer CRC-verified" `Quick test_peer_transfer_batched;
          Alcotest.test_case "batched lossy transfer recovers" `Quick
            test_peer_transfer_batched_lossy;
        ] );
      ("swarm", [ Alcotest.test_case "batched 8-sender soak" `Quick test_swarm_batched ]);
      ( "gso",
        List.concat_map
          (fun (name, check) ->
            [
              Alcotest.test_case (name ^ ", GRO receiver") `Quick (check ~gro:true);
              Alcotest.test_case (name ^ ", plain receiver") `Quick (check ~gro:false);
            ])
          [
            ("mixed train", check_mixed_train);
            ("64 x 1048 B train", check_benchmark_train);
            ("segment cap", check_segment_cap);
            ("refusal", check_refusal);
          ] );
    ]
