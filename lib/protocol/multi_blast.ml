open Action

let chunk_count ~total_packets ~chunk_packets =
  if chunk_packets <= 0 then invalid_arg "Multi_blast: chunk_packets must be positive";
  (total_packets + chunk_packets - 1) / chunk_packets

let chunk_geometry (config : Config.t) ~chunk_packets index =
  let offset = index * chunk_packets in
  let len = min chunk_packets (config.Config.total_packets - offset) in
  (offset, len)

let chunk_config (config : Config.t) ~len =
  { config with Config.total_packets = len }

(* Translate between global wire coordinates and chunk-local machine
   coordinates. [seq] is a packet index for Data/Nack and a cumulative count
   for Ack; both shift by the chunk offset. The Nack bitmap stays chunk-local
   (both ends agree on chunk boundaries). *)
let to_local ~offset ~len (m : Packet.Message.t) =
  { m with Packet.Message.seq = m.Packet.Message.seq - offset; total = len }

let to_global ~offset (config : Config.t) (m : Packet.Message.t) =
  { m with Packet.Message.seq = m.Packet.Message.seq + offset; total = config.Config.total_packets }

let translate_actions ~offset (config : Config.t) actions =
  List.map
    (function
      | Send m -> Send (to_global ~offset config m)
      | Deliver { seq; payload } -> Deliver { seq = seq + offset; payload }
      | (Arm_timer _ | Stop_timer | Complete _) as a -> a)
    actions

let sender ?(counters = Counters.create ()) ~strategy ~chunk_packets (config : Config.t)
    ~payload =
  let chunks = chunk_count ~total_packets:config.Config.total_packets ~chunk_packets in
  let current = ref 0 in
  let outcome = ref None in
  let make_inner index =
    let offset, len = chunk_geometry config ~chunk_packets index in
    let inner_config = chunk_config config ~len in
    let inner_payload local_seq = payload (local_seq + offset) in
    (offset, len, Blast.sender ~counters ~strategy inner_config ~payload:inner_payload)
  in
  let inner = ref (make_inner 0) in
  (* Rewrites an inner machine's completion: intermediate chunks roll over to
     the next blast instead of completing the whole transfer. *)
  let rec absorb actions =
    let offset, _, _ = !inner in
    let translated = translate_actions ~offset config actions in
    let rec scan acc = function
      | [] -> List.rev acc
      | Complete Success :: rest ->
          if !current = chunks - 1 then begin
            outcome := Some Success;
            List.rev acc @ (Complete Success :: rest)
          end
          else begin
            current := !current + 1;
            inner := make_inner !current;
            let _, _, machine = !inner in
            let followup = absorb (machine.Machine.start ()) in
            List.rev acc @ rest @ followup
          end
      | Complete Too_many_attempts :: rest ->
          outcome := Some Too_many_attempts;
          List.rev acc @ (Complete Too_many_attempts :: rest)
      | a :: rest -> scan (a :: acc) rest
    in
    scan [] translated
  in
  let start () =
    let _, _, machine = !inner in
    absorb (machine.Machine.start ())
  in
  let handle event =
    if !outcome <> None then []
    else begin
      let offset, len, machine = !inner in
      let event =
        match event with
        | Message m ->
            (* Only feed messages that belong to the active chunk. An Ack's
               cumulative seq belongs to chunk i when offset < seq <=
               offset+len; a Nack's packet index when offset <= seq <
               offset+len. The wire [total] is checked here, before
               [to_local] replaces it with the chunk length: a foreign total
               is a straggler from an earlier transfer on this address and
               id, which the inner machine could no longer tell apart. *)
            let seq = m.Packet.Message.seq in
            let belongs =
              m.Packet.Message.total = config.Config.total_packets
              &&
              match m.Packet.Message.kind with
              | Packet.Kind.Ack -> seq > offset && seq <= offset + len
              | Packet.Kind.Nack -> seq >= offset && seq < offset + len
              | Packet.Kind.Data | Packet.Kind.Req | Packet.Kind.Rej
              | Packet.Kind.Mreq | Packet.Kind.Mrep ->
                  false
            in
            if belongs then Some (Message (to_local ~offset ~len m)) else None
        | Timeout -> Some Timeout
      in
      match event with
      | None -> []
      | Some event -> absorb (machine.Machine.handle event)
    end
  in
  Machine.make
    ~name:
      (Printf.sprintf "multi-blast sender (%s, %d-packet chunks)"
         (Blast.strategy_name strategy) chunk_packets)
    ~start ~handle
    ~is_complete:(fun () -> !outcome <> None)
    ~outcome:(fun () -> !outcome)
    ~counters

let receiver ?(counters = Counters.create ()) ~strategy ~chunk_packets (config : Config.t) =
  let chunks = chunk_count ~total_packets:config.Config.total_packets ~chunk_packets in
  let machines =
    Array.init chunks (fun index ->
        let offset, len = chunk_geometry config ~chunk_packets index in
        (offset, len, Blast.receiver ~counters ~strategy (chunk_config config ~len)))
  in
  Array.iter (fun (_, _, m) -> ignore (m.Machine.start ())) machines;
  let handle = function
    | Message m when m.Packet.Message.kind = Packet.Kind.Data ->
        let seq = m.Packet.Message.seq in
        if
          seq < 0 || seq >= config.Config.total_packets
          || m.Packet.Message.total <> config.Config.total_packets
        then []
        else begin
          let index = seq / chunk_packets in
          let offset, len, machine = machines.(index) in
          translate_actions ~offset config
            (machine.Machine.handle (Message (to_local ~offset ~len m)))
        end
    | Message _ | Timeout -> []
  in
  let is_complete () =
    Array.for_all (fun (_, _, m) -> m.Machine.is_complete ()) machines
  in
  Machine.make
    ~name:
      (Printf.sprintf "multi-blast receiver (%s, %d-packet chunks)"
         (Blast.strategy_name strategy) chunk_packets)
    ~start:(fun () -> [])
    ~handle ~is_complete
    ~outcome:(fun () -> if is_complete () then Some Success else None)
    ~counters
