(* Read-repair: interrogate the ring for what actually survived, then
   re-blast the difference to each stripe's live successors, to
   convergence. *)

type action = { stripe : int; server : int }

let plan ~placement ~object_id ~replicas ~crcs manifest =
  Manifest.under_replicated manifest ~replicas ~crcs
  |> List.concat_map (fun (stripe, valid) ->
         let needed = replicas - List.length valid in
         Placement.successors placement ~object_id ~stripe
         |> List.filter (fun s -> not (List.mem s valid))
         |> List.filteri (fun i _ -> i < needed)
         |> List.map (fun server -> { stripe; server }))

(* ---- Survey ------------------------------------------------------------ *)

type survey = {
  answered : (int * Packet.Stripe.entry list) list;
  unresponsive : int list;
}

(* Every MREQ out at once as a client of the one event loop, resent to the
   silent servers every four retransmit intervals, [max_attempts] times;
   an MREP counts for the server it came from, once. Stray traffic on the
   transport — late acks of a blast, a duplicate answer — is ignored. *)
let survey ?ctx ~transport ~peer_of ~object_id servers =
  let ctx = match ctx with Some c -> c | None -> Sockets.Io_ctx.default () in
  let tuning = ctx.Sockets.Io_ctx.tuning in
  let resend_ns = 4 * Protocol.Tuning.retransmit_ns tuning in
  let tries = Protocol.Tuning.max_attempts tuning in
  let mreq = Packet.Codec.encode (Packet.Stripe.manifest_query ~object_id) in
  let loop = Sockets.Loop.create ~clock:ctx.Sockets.Io_ctx.clock transport in
  let silent = ref (List.map (fun s -> (s, peer_of s)) servers) and answers = ref [] in
  let sent = ref 0 and deadline = ref None in
  (* Due at the start and at each silent deadline; past the last try
     [sent] exceeds [tries], which ends the loop. *)
  let due ~now =
    if Option.fold ~none:true ~some:(fun d -> d - now <= 0) !deadline then begin
      incr sent;
      deadline := Some (now + resend_ns);
      let ask (_, peer) = Sockets.Loop.send loop ~peer ~on_failed:ignore mreq in
      if !sent <= tries then List.iter ask !silent
    end
  in
  let receive ~now:_ { Sockets.Transport.buf; pos; len; from } =
    match Packet.Codec.decode_sub buf ~pos ~len with
    | Ok ({ Packet.Message.kind = Packet.Kind.Mrep; _ } as m)
      when m.Packet.Message.transfer_id = object_id -> (
        match
          ( List.find_opt (fun (_, peer) -> peer = from) !silent,
            Packet.Stripe.decode_manifest m.Packet.Message.payload )
        with
        | Some (server, _), Some entries ->
            answers := (server, entries) :: !answers;
            silent := List.filter (fun (s, _) -> s <> server) !silent
        | _ -> ())
    | Ok _ | Error _ -> ()
  in
  Sockets.Loop.run loop
    {
      Sockets.Loop.next_deadline = (fun () -> !deadline);
      due;
      receive;
      finished = (fun () -> !silent = [] || !sent > tries);
    };
  let answered s = Option.map (fun entries -> (s, entries)) (List.assoc_opt s !answers) in
  { answered = List.filter_map answered servers; unresponsive = List.map fst !silent }

let manifest_of ~object_id ~stripes s =
  let manifest = Manifest.create ~object_id ~stripes in
  List.iter (fun (server, entries) -> Manifest.record manifest ~server entries) s.answered;
  manifest

(* ---- The pass ---------------------------------------------------------- *)

type report = {
  first : survey;
  before : int array;
  rounds : int;
  reblasts : Client.blast_result list;
  last : survey;
  after : int array;
  target : int;
  fully_replicated : bool;
  elapsed_ns : int;
}

let max_rounds = 3

let run ?ctx ?packet_bytes ~transport ~placement ~peer_of ~object_id ~stripes ~replicas
    ~data () =
  let ctx = match ctx with Some c -> c | None -> Sockets.Io_ctx.default () in
  let started = ctx.Sockets.Io_ctx.clock () in
  let crcs = Client.stripe_crcs ~data ~stripes in
  let target = min replicas (Placement.size placement) in
  let survey () = survey ~ctx ~transport ~peer_of ~object_id (Placement.nodes placement) in
  let replication s = Manifest.replication (manifest_of ~object_id ~stripes s) ~crcs in
  (* Trust nothing: each round's verdict comes from a fresh survey, not
     from the re-blasts' view of themselves. Ids keep counting across
     rounds, so no round reuses an earlier one's (address, id) keys. *)
  let rec rounds round reblasts last =
    let manifest = manifest_of ~object_id ~stripes last in
    match plan ~placement ~object_id ~replicas:target ~crcs manifest with
    | [] -> (round - 1, reblasts, last)
    | _ when round > max_rounds -> (max_rounds, reblasts, last)
    | actions ->
        let jobs =
          List.map
            (fun a ->
              let offset, bytes =
                Client.stripe_bounds ~total:(String.length data) ~stripes ~index:a.stripe
              in
              { Client.stripe = a.stripe; replica = -1; server = a.server; offset; bytes })
            actions
        in
        let results =
          Client.blast ~ctx ?packet_bytes ~transport ~peer_of ~object_id ~stripes ~data
            ~first_id:(List.length reblasts + 1) jobs
        in
        rounds (round + 1) (reblasts @ results) (survey ())
  in
  let first = survey () in
  let rounds, reblasts, last = rounds 1 [] first in
  let after = replication last in
  {
    first;
    before = replication first;
    rounds;
    reblasts;
    last;
    after;
    target;
    fully_replicated = Array.for_all (fun n -> n >= target) after;
    elapsed_ns = ctx.Sockets.Io_ctx.clock () - started;
  }
