(* Striped, replicated put: one large object becomes stripes x replicas
   ordinary blast sub-transfers, all in flight at once on one client loop. *)

type job = { stripe : int; replica : int; server : int; offset : int; bytes : int }

(* Even split, remainder spread over the first stripes — every stripe is
   within one byte of the others, and offsets are a pure function of
   (total, stripes), so sender and repair agree on bounds forever. *)
let stripe_bounds ~total ~stripes ~index =
  if stripes <= 0 then invalid_arg "Client.stripe_bounds: stripes must be positive";
  if total < stripes then
    invalid_arg "Client.stripe_bounds: fewer bytes than stripes";
  if index < 0 || index >= stripes then invalid_arg "Client.stripe_bounds: index out of range";
  let base = total / stripes and rem = total mod stripes in
  let offset = (index * base) + min index rem in
  let len = base + if index < rem then 1 else 0 in
  (offset, len)

let stripe_crcs ~data ~stripes =
  Array.init stripes (fun index ->
      let offset, len = stripe_bounds ~total:(String.length data) ~stripes ~index in
      Packet.Checksum.crc32_string (String.sub data offset len))

let plan placement ~object_id ~total ~stripes ~replicas =
  List.concat
    (List.init stripes (fun stripe ->
         let offset, bytes = stripe_bounds ~total ~stripes ~index:stripe in
         Placement.replicas placement ~object_id ~stripe ~r:replicas
         |> List.mapi (fun replica server -> { stripe; replica; server; offset; bytes })))

(* ---- The put ----------------------------------------------------------- *)

type blast_result = { job : job; transfer_id : int; result : Sockets.Peer.send_result }

type put_result = {
  results : blast_result list;
  acked : int array;
  quorum_met : bool;
  elapsed_ns : int;
}

(* Every job as one go-back-N flow on the caller's transport, job k with
   transfer id [first_id + k]: the ids keep the engines' (address, id) keys
   apart, and the object id travels in the stripe framing. *)
let blast ~ctx ?packet_bytes ~transport ~peer_of ~object_id ~stripes ~data ~first_id jobs =
  let transfer k job =
    {
      Sockets.Peer.peer = peer_of job.server;
      transfer_id = first_id + k;
      stripe = Some { Packet.Stripe.object_id; index = job.stripe; count = stripes };
      suite = Protocol.Suite.Blast Protocol.Blast.Go_back_n;
      data = String.sub data job.offset job.bytes;
    }
  in
  let results = Sockets.Peer.send_all_via ~ctx ?packet_bytes ~transport (List.mapi transfer jobs) in
  List.mapi
    (fun k (job, result) -> { job; transfer_id = first_id + k; result })
    (List.combine jobs results)

let put ?ctx ?packet_bytes ~transport ~placement ~peer_of ~object_id ~stripes ~replicas
    ~quorum ~data () =
  if quorum <= 0 || quorum > replicas then
    invalid_arg "Client.put: need 0 < quorum <= replicas";
  let ctx = match ctx with Some c -> c | None -> Sockets.Io_ctx.default () in
  let started = ctx.Sockets.Io_ctx.clock () in
  let jobs = plan placement ~object_id ~total:(String.length data) ~stripes ~replicas in
  let results =
    blast ~ctx ?packet_bytes ~transport ~peer_of ~object_id ~stripes ~data ~first_id:1 jobs
  in
  let acked = Array.make stripes 0 in
  List.iter
    (fun r ->
      if r.result.Sockets.Peer.outcome = Protocol.Action.Success then
        acked.(r.job.stripe) <- acked.(r.job.stripe) + 1)
    results;
  {
    results;
    acked;
    quorum_met = Array.for_all (fun n -> n >= quorum) acked;
    elapsed_ns = ctx.Sockets.Io_ctx.clock () - started;
  }

let over_udp f =
  let socket, _ = Sockets.Udp.create_socket () in
  Fun.protect
    ~finally:(fun () -> Sockets.Udp.close socket)
    (fun () -> f (Sockets.Transport.udp ~socket ()))

(* Per job the put must send its server a REQ and every DATA packet, unless
   the handshake gives up first; [k] falls within that, so the kill is
   never starved. *)
let kill_mid_put ~draw ~max_attempts ~packet_bytes ~peer_of ~kill jobs
    (transport : Sockets.Transport.t) =
  let targets = List.sort_uniq compare (List.map (fun j -> j.server) jobs) in
  let victim = List.nth targets (draw (List.length targets)) in
  let must_send =
    List.fold_left
      (fun n j ->
        if j.server <> victim then n
        else n + min (1 + ((j.bytes + packet_bytes - 1) / packet_bytes)) max_attempts)
      0 jobs
  in
  let k = 1 + draw must_send and address = peer_of victim and sent = ref 0 in
  let send ~peer ~on_outcome bytes =
    if peer = address then begin
      incr sent;
      if !sent = k then kill victim
    end;
    transport.Sockets.Transport.send ~peer ~on_outcome bytes
  in
  { transport with Sockets.Transport.send }
