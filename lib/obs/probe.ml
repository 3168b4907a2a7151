type t = {
  recorder : Recorder.t option;
  lane : string;
  counters : Protocol.Counters.t;
  mutable seen_retx : int;
  mutable seen_dups : int;
}

let create ?recorder ~lane ~counters () =
  {
    recorder;
    lane;
    counters;
    (* Machines may share one counters record across wrappers (multi-blast);
       start the deltas from wherever the record already is. *)
    seen_retx = counters.Protocol.Counters.retransmitted_data;
    seen_dups = counters.Protocol.Counters.duplicates_received;
  }

let enabled t = t.recorder <> None
let recorder t = t.recorder

let emit t kind ?detail ?seq () =
  match t.recorder with
  | None -> ()
  | Some r -> Recorder.emit r ~lane:t.lane ~kind ?detail ?seq ()

let kind_name (m : Packet.Message.t) =
  match m.Packet.Message.kind with
  | Packet.Kind.Req -> "req"
  | Packet.Kind.Data -> "data"
  | Packet.Kind.Ack -> "ack"
  | Packet.Kind.Nack -> "nack"
  | Packet.Kind.Rej -> "rej"
  | Packet.Kind.Mreq -> "mreq"
  | Packet.Kind.Mrep -> "mrep"

let tx t (m : Packet.Message.t) =
  match t.recorder with
  | None -> ()
  | Some _ ->
      let detail = kind_name m in
      let seq = m.Packet.Message.seq in
      (* The machine bumps [retransmitted_data] while generating the Send
         batch, so by execution time the counter carries one credit per
         retransmitted data packet in the batch. Consuming credits in order
         keeps the journal's retransmit count identical to the counter. *)
      if
        m.Packet.Message.kind = Packet.Kind.Data
        && t.counters.Protocol.Counters.retransmitted_data > t.seen_retx
      then begin
        t.seen_retx <- t.seen_retx + 1;
        emit t Event.Retransmit ~detail ~seq ()
      end
      else emit t Event.Tx ~detail ~seq ()

let rx t (m : Packet.Message.t) =
  emit t Event.Rx ~detail:(kind_name m) ~seq:m.Packet.Message.seq ()

let handled t (m : Packet.Message.t) =
  if t.counters.Protocol.Counters.duplicates_received > t.seen_dups then begin
    t.seen_dups <- t.counters.Protocol.Counters.duplicates_received;
    emit t Event.Duplicate ~detail:(kind_name m) ~seq:m.Packet.Message.seq ()
  end

let timeout t ?detail () = emit t Event.Timeout ?detail ()
let deliver t ~seq = emit t Event.Deliver ~detail:"data" ~seq ()

(* Details that need formatting are built only when a recorder will keep
   them: [complete] and [reject] run on every settle and every garbage
   datagram, recorder or not. *)
let complete t outcome =
  match t.recorder with
  | None -> ()
  | Some _ ->
      emit t Event.Complete ~detail:(Format.asprintf "%a" Protocol.Action.pp_outcome outcome) ()

let drop t dir = emit t Event.Drop ~detail:(match dir with `Tx -> "tx" | `Rx -> "rx") ()

let reject t (err : Packet.Codec.error) =
  match t.recorder with
  | None -> ()
  | Some _ ->
      let detail = Format.asprintf "%a" Packet.Codec.pp_error err in
      (match err with
      | Packet.Codec.Bad_header_checksum | Packet.Codec.Bad_payload_checksum ->
          emit t Event.Corrupt_reject ~detail ()
      | _ -> emit t Event.Garbage ~detail ())

let fault t name = emit t Event.Fault ~detail:name ()

let postmortem t ~reason =
  match t.recorder with None -> None | Some r -> Recorder.postmortem r ~reason
