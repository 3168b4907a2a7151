(* Read-repair: interrogate the ring for what actually survived, then
   re-blast the difference to each stripe's live successors. *)

type action = { stripe : int; server : int }

let pp_action ppf a =
  Format.fprintf ppf "re-blast stripe %d -> server %d" a.stripe a.server

let plan ~placement ~object_id ~replicas ~crcs manifest =
  Manifest.under_replicated manifest ~replicas ~crcs
  |> List.concat_map (fun (stripe, valid) ->
         let needed = replicas - List.length valid in
         Placement.successors placement ~object_id ~stripe
         |> List.filter (fun s -> not (List.mem s valid))
         |> List.filteri (fun i _ -> i < needed)
         |> List.map (fun server -> { stripe; server }))

(* ---- Manifest query ---------------------------------------------------- *)

(* One MREQ/MREP exchange as a client of the one event loop: [due] sends
   the MREQ, or gives up once every attempt has timed out; [receive]
   matches the MREP. Works identically over a real socket and a memnet
   endpoint — which is what lets the DST scenario drive the very same
   repair code under virtual time. *)
let query_via ?(attempts = 5) ?(timeout_ns = 200_000_000) ~clock ~transport ~peer
    ~object_id () =
  let encoded = Packet.Codec.encode (Packet.Stripe.manifest_query ~object_id) in
  let loop = Sockets.Loop.create ~clock transport in
  let left = ref attempts and deadline = ref None and answer = ref None in
  (* Due at the start and at each silent deadline; past the last attempt
     [left] goes negative, which ends the loop. *)
  let due ~now =
    if Option.fold ~none:true ~some:(fun d -> now >= d) !deadline then begin
      decr left;
      deadline := Some (now + timeout_ns);
      if !left >= 0 then Sockets.Loop.send loop ~peer ~on_failed:ignore encoded
    end
  in
  let receive ~now:_ { Sockets.Transport.buf; pos; len; _ } =
    match Packet.Codec.decode_sub buf ~pos ~len with
    | Ok m
      when m.Packet.Message.kind = Packet.Kind.Mrep
           && m.Packet.Message.transfer_id = object_id ->
        answer := Packet.Stripe.decode_manifest m.Packet.Message.payload
    | Ok _ | Error _ ->
        (* Stray traffic on our ephemeral port — late acks of the put, or
           an answer about another object. Keep waiting. *)
        ()
  in
  Sockets.Loop.run loop
    {
      Sockets.Loop.next_deadline = (fun () -> !deadline);
      due;
      receive;
      finished = (fun () -> !answer <> None || !left < 0);
    };
  !answer

let query ?attempts ?timeout_ns ~peer ~object_id () =
  let socket, _ = Sockets.Udp.create_socket () in
  Fun.protect
    ~finally:(fun () -> Sockets.Udp.close socket)
    (fun () ->
      let transport = Sockets.Transport.udp ~batch:false ~socket () in
      query_via ?attempts ?timeout_ns ~clock:Sockets.Udp.now_ns ~transport ~peer
        ~object_id ())

(* ---- Real-UDP driver --------------------------------------------------- *)

type report = {
  answered : (int * int) list;  (** (server, entries) per answering server *)
  unresponsive : int list;
  before : int array;  (** per-stripe valid replicas, as queried *)
  actions : (action * Protocol.Action.outcome) list;
  after : int array;  (** per-stripe valid replicas on re-query *)
  fully_replicated : bool;
  elapsed_ns : int;
}

let survey ?attempts ?timeout_ns ~peer_of ~object_id ~stripes servers =
  let manifest = Manifest.create ~object_id ~stripes in
  let answered = ref [] and unresponsive = ref [] in
  List.iter
    (fun server ->
      match
        query ?attempts ?timeout_ns ~peer:(peer_of server) ~object_id ()
      with
      | Some entries ->
          Manifest.record manifest ~server entries;
          answered := (server, List.length entries) :: !answered
      | None -> unresponsive := server :: !unresponsive)
    servers;
  (manifest, List.rev !answered, List.rev !unresponsive)

let run ?pool ?jobs ?ctx ?packet_bytes ?tuning ?suite
    ?attempts ?timeout_ns ~placement ~peer_of ~object_id ~stripes ~replicas ~data
    () =
  let started = Sockets.Udp.now_ns () in
  let crcs = Client.stripe_crcs ~data ~stripes in
  let servers = Placement.nodes placement in
  let manifest, answered, unresponsive =
    survey ?attempts ?timeout_ns ~peer_of ~object_id ~stripes servers
  in
  let before = Manifest.replication manifest ~crcs in
  let actions = plan ~placement ~object_id ~replicas ~crcs manifest in
  let outcomes =
    Exec.Pool.map ?pool ?jobs
      ~f:(fun a ->
        let offset, bytes =
          Client.stripe_bounds ~total:(String.length data) ~stripes ~index:a.stripe
        in
        let job =
          { Client.stripe = a.stripe; replica = -1; server = a.server; offset; bytes }
        in
        let r =
          Client.blast ?ctx ?packet_bytes ?tuning ?suite
            ~peer_of ~object_id ~stripes ~data job
        in
        (a, r.Client.outcome))
      actions
  in
  (* Trust nothing: the verdict comes from a second survey, not from the
     blasts' own view of themselves. *)
  let manifest', _, _ =
    survey ?attempts ?timeout_ns ~peer_of ~object_id ~stripes servers
  in
  let after = Manifest.replication manifest' ~crcs in
  {
    answered;
    unresponsive;
    before;
    actions = outcomes;
    after;
    fully_replicated = Array.for_all (fun n -> n >= replicas) after;
    elapsed_ns = Sockets.Udp.now_ns () - started;
  }
