module Sim = Eventsim.Sim
module Proc = Eventsim.Proc
module Time = Eventsim.Time

exception Closed of int

type stats = {
  mutable delivered : int;
  mutable dropped_unbound : int;
  mutable dropped_overrun : int;
}

type endpoint = {
  net : t;
  port : int;
  address : Unix.sockaddr;
  queue : (bytes * Unix.sockaddr) Queue.t;
  scenario : Faults.Scenario.t option;  (** egress faults; [None] = clean wire *)
  links : (int, Faults.Netem.t) Hashtbl.t;
      (** one fault pipeline per destination port: netem's reorder stage holds
          datagrams back and releases them on a later transmission, so a
          pipeline shared across destinations would re-route the held datagram
          to whichever peer the releasing send was addressed to *)
  mutable reader : (unit -> unit) option;  (** parked [recv]'s wake-up, one-shot *)
  mutable closed : bool;
  mutable wake_requested : bool;
      (** transport [wake] latch: the next [recv] returns [`Timeout] *)
  shard_slot : int option;  (** index in a sharded port's member array *)
}

and target =
  | Single of endpoint
  | Sharded of group
      (** memnet's stand-in for [SO_REUSEPORT]: one port, N member
          endpoints, steering explicit and seeded — the kernel's 4-tuple
          hash replaced by a deterministic function of the source address
          so trials replay bit-for-bit *)

and group = { shard_of : Unix.sockaddr -> int; members : endpoint option array }

and t = {
  sim : Sim.t;
  latency_ns : int;
  capacity : int;
  default_scenario : Faults.Scenario.t option;
  seed : int;
  endpoints : (int, target) Hashtbl.t;
  stats : stats;
  mutable next_port : int;
}

let create ~sim ?(latency_ns = 50_000) ?(capacity = 256) ?scenario ~seed () =
  if latency_ns < 0 then invalid_arg "Net.create: negative latency";
  if capacity <= 0 then invalid_arg "Net.create: capacity must be positive";
  {
    sim;
    latency_ns;
    capacity;
    default_scenario =
      (match scenario with Some s when Faults.Scenario.is_clean s -> None | s -> s);
    seed;
    endpoints = Hashtbl.create 64;
    stats = { delivered = 0; dropped_unbound = 0; dropped_overrun = 0 };
    next_port = 40_000;
  }

let stats t = t.stats
let address ep = ep.address
let port ep = ep.port

let dst_port_of = function
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Net: ADDR_UNIX has no port"

let resolve_scenario net scenario =
  match scenario with
  | Some s -> if Faults.Scenario.is_clean s then None else Some s
  | None -> net.default_scenario

let make_endpoint ?shard_slot net ~port scenario =
  {
    net;
    port;
    address = Unix.ADDR_INET (Unix.inet_addr_loopback, port);
    queue = Queue.create ();
    scenario;
    links = Hashtbl.create 8;
    reader = None;
    closed = false;
    wake_requested = false;
    shard_slot;
  }

let bind ?port ?scenario net =
  let port =
    match port with
    | Some p ->
        if Hashtbl.mem net.endpoints p then
          invalid_arg (Printf.sprintf "Net.bind: port %d already bound" p);
        p
    | None ->
        while Hashtbl.mem net.endpoints net.next_port do
          net.next_port <- net.next_port + 1
        done;
        let p = net.next_port in
        net.next_port <- net.next_port + 1;
        p
  in
  let ep = make_endpoint net ~port (resolve_scenario net scenario) in
  Hashtbl.replace net.endpoints port (Single ep);
  ep

(* A sharded port keeps its group entry (and therefore its steering
   function) alive across member close/rebind cycles: a member that dies
   and comes back — the DST engine-restart churn — lands back in the same
   slot and keeps receiving exactly the flows the hash steered to it. *)
let default_shard_of net source =
  Stats.Hash.steer ~seed:net.seed (dst_port_of source)

let bind_shard ?scenario ?shard_of net ~port ~shards ~index =
  if shards <= 0 then invalid_arg "Net.bind_shard: shards must be positive";
  if index < 0 || index >= shards then invalid_arg "Net.bind_shard: index out of range";
  let shard_of = match shard_of with Some f -> f | None -> default_shard_of net in
  let group =
    match Hashtbl.find_opt net.endpoints port with
    | None ->
        let g = { shard_of; members = Array.make shards None } in
        Hashtbl.replace net.endpoints port (Sharded g);
        g
    | Some (Sharded g) when Array.length g.members = shards -> g
    | Some (Sharded _) ->
        invalid_arg (Printf.sprintf "Net.bind_shard: port %d has a different shard count" port)
    | Some (Single _) ->
        invalid_arg (Printf.sprintf "Net.bind_shard: port %d already bound unsharded" port)
  in
  (match group.members.(index) with
  | Some _ ->
      invalid_arg (Printf.sprintf "Net.bind_shard: port %d shard %d already bound" port index)
  | None -> ());
  let ep = make_endpoint ~shard_slot:index net ~port (resolve_scenario net scenario) in
  group.members.(index) <- Some ep;
  ep

let wake_reader ep =
  match ep.reader with
  | None -> ()
  | Some wake -> wake () (* clears [ep.reader] itself; one-shot *)

let close ep =
  if not ep.closed then begin
    ep.closed <- true;
    (match (ep.shard_slot, Hashtbl.find_opt ep.net.endpoints ep.port) with
    | Some i, Some (Sharded g)
      when (match g.members.(i) with Some e -> e == ep | None -> false) ->
        (* Vacate the slot but keep the group: steering survives member
           churn, and datagrams for the gap count as dropped_unbound. *)
        g.members.(i) <- None
    | None, Some (Single e) when e == ep -> Hashtbl.remove ep.net.endpoints ep.port
    | _ -> ());
    Queue.clear ep.queue;
    Hashtbl.reset ep.links;
    (* Held-back (reordered) egress datagrams die with the process; in-flight
       scheduled deliveries do not — they resolve the port when they land. *)
    wake_reader ep
  end

(* Destination resolved now, at delivery time, not at send time: a port
   closed and rebound while the datagram was in flight receives it — the
   address-reuse collision the churn scenarios depend on. *)
let deliver net ~dst_port ~from data =
  let member =
    match Hashtbl.find_opt net.endpoints dst_port with
    | None -> None
    | Some (Single ep) -> Some ep
    | Some (Sharded g) ->
        (* Steered at delivery time by the source address alone — the
           memnet analogue of the kernel's REUSEPORT 4-tuple hash (each
           sender keeps one socket, so source fixes the shard). *)
        let n = Array.length g.members in
        g.members.(((g.shard_of from mod n) + n) mod n)
  in
  match member with
  | None -> net.stats.dropped_unbound <- net.stats.dropped_unbound + 1
  | Some ep ->
      if Queue.length ep.queue >= net.capacity then
        net.stats.dropped_overrun <- net.stats.dropped_overrun + 1
      else begin
        Queue.add (data, from) ep.queue;
        net.stats.delivered <- net.stats.delivered + 1;
        wake_reader ep
      end

(* The (source, destination) link's fault pipeline, created on first use.
   Seeding from (root, src * 2^16 + dst) keeps every link's fault stream
   independent of creation order, and a rebound port replays its
   predecessor's — same address, same wire, which is what replay
   determinism needs. *)
let link_faults ep ~dst_port scenario =
  match Hashtbl.find_opt ep.links dst_port with
  | Some netem -> netem
  | None ->
      let rng = Stats.Rng.derive ~root:ep.net.seed ~index:((ep.port * 65_536) + dst_port) in
      let netem =
        Faults.Netem.create ~seed:(Int64.to_int (Stats.Rng.bits64 rng) land max_int) scenario
      in
      Hashtbl.replace ep.links dst_port netem;
      netem

let send ep ~peer ~on_outcome data =
  if ep.closed then raise (Closed ep.port);
  let dst_port = dst_port_of peer in
  let emit ~delay_ns data =
    ignore
      (Sim.schedule_after ep.net.sim
         (Time.span_ns (ep.net.latency_ns + delay_ns))
         (fun () -> deliver ep.net ~dst_port ~from:ep.address data)
        : Sim.handle)
  in
  (match ep.scenario with
  | None -> emit ~delay_ns:0 (Bytes.copy data)
  | Some scenario ->
      let netem = link_faults ep ~dst_port scenario in
      List.iter
        (fun { Faults.Netem.delay_ns; data } -> emit ~delay_ns data)
        (Faults.Netem.tx_bytes netem data));
  (* The network accepted the datagram; whether it arrives is its business —
     UDP semantics, where loss is silent. *)
  on_outcome Sockets.Udp.Sent

let view (data, from) =
  { Sockets.Transport.buf = data; pos = 0; len = Bytes.length data; from }

let poll ep () =
  match Queue.take_opt ep.queue with
  | Some d -> `Datagram (view d)
  | None ->
      if ep.closed then raise (Closed ep.port);
      `Empty

let recv ep ~timeout_ns =
  let deadline = Option.map (fun ns -> Time.to_ns (Sim.now ep.net.sim) + ns) timeout_ns in
  let rec wait () =
    match Queue.take_opt ep.queue with
    | Some d -> `Datagram (view d)
    | None ->
        if ep.closed then raise (Closed ep.port);
        if ep.wake_requested then begin
          ep.wake_requested <- false;
          `Timeout
        end
        else
        let now = Time.to_ns (Sim.now ep.net.sim) in
        let expired = match deadline with Some d -> d - now <= 0 | None -> false in
        if expired then `Timeout
        else begin
          (* Park until a delivery, the timeout instant, or close — whichever
             fires first wins; the rest are disarmed by the one-shot flag. *)
          Proc.suspend (fun resume ->
              let fired = ref false in
              let wake () =
                if not !fired then begin
                  fired := true;
                  ep.reader <- None;
                  resume ()
                end
              in
              let timeout_event =
                Option.map (fun d -> Sim.schedule_at ep.net.sim (Time.of_ns d) wake) deadline
              in
              ep.reader <-
                Some
                  (fun () ->
                    Option.iter Sim.cancel timeout_event;
                    wake ()));
          wait ()
        end
  in
  wait ()

let transport ep =
  {
    Sockets.Transport.send = (fun ~peer ~on_outcome data -> send ep ~peer ~on_outcome data);
    flush = (fun () -> ());
    recv = (fun ~timeout_ns -> recv ep ~timeout_ns);
    poll = poll ep;
    sleep_ns = (fun ns -> Proc.sleep (Time.span_ns ns));
    wake =
      Some
        (fun () ->
          if not ep.closed then begin
            ep.wake_requested <- true;
            wake_reader ep
          end);
  }
