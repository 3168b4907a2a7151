type error =
  | Too_short
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Bad_header_checksum
  | Bad_payload_checksum
  | Length_mismatch of { declared : int; actual : int }

let pp_error ppf = function
  | Too_short -> Format.pp_print_string ppf "datagram too short"
  | Bad_magic -> Format.pp_print_string ppf "bad magic"
  | Bad_version v -> Format.fprintf ppf "unsupported version %d" v
  | Bad_kind k -> Format.fprintf ppf "unknown packet kind %d" k
  | Bad_header_checksum -> Format.pp_print_string ppf "header checksum mismatch"
  | Bad_payload_checksum -> Format.pp_print_string ppf "payload CRC mismatch"
  | Length_mismatch { declared; actual } ->
      Format.fprintf ppf "declared payload %d bytes, got %d" declared actual

(* v1 is the original 24-byte header. v2 appends a u32 receiver budget at
   offset 24 (payload then starts at 28) and is emitted only for messages
   that carry one, so a fixed-tuning peer never sees bytes it cannot parse
   unless the other end explicitly negotiated adaptive trains. *)
let header_bytes = 24
let header_bytes_v2 = 28
let magic = 0xB1A5
let version = 1
let version_v2 = 2

let encode (m : Message.t) =
  let payload_len = String.length m.Message.payload in
  let header, version, budget =
    match m.Message.budget with
    | None -> (header_bytes, version, 0)
    | Some b -> (header_bytes_v2, version_v2, b)
  in
  let buf = Bytes.create (header + payload_len) in
  Bytes.set_uint16_be buf 0 magic;
  Bytes.set_uint8 buf 2 version;
  Bytes.set_uint8 buf 3 (Kind.to_byte m.Message.kind);
  Bytes.set_int32_be buf 4 (Int32.of_int m.Message.transfer_id);
  Bytes.set_int32_be buf 8 (Int32.of_int m.Message.seq);
  Bytes.set_int32_be buf 12 (Int32.of_int m.Message.total);
  Bytes.set_uint16_be buf 16 payload_len;
  Bytes.set_uint16_be buf 18 0;
  if header > header_bytes then Bytes.set_int32_be buf 24 (Int32.of_int budget);
  Bytes.blit_string m.Message.payload 0 buf header payload_len;
  Bytes.set_int32_be buf 20 (Checksum.crc32 buf ~pos:header ~len:payload_len);
  let sum = Checksum.internet buf ~pos:0 ~len:header in
  Bytes.set_uint16_be buf 18 sum;
  buf

let u32 buf pos = Int32.to_int (Bytes.get_int32_be buf pos) land 0xFFFFFFFF

(* [encode] sums the header with its checksum field (bytes 18-19) zeroed. A
   zero word adds nothing to a ones'-complement sum, so summing the nine
   words before the field and the words after it gives the same value
   without writing to — or copying — the datagram. *)
let header_checksum buf ~pos ~header =
  let before = ref 0 in
  for i = 0 to 8 do
    before := !before + Bytes.get_uint16_be buf (pos + (2 * i))
  done;
  Checksum.internet ~initial:!before buf ~pos:(pos + 20) ~len:(header - 20)

let decode_sub buf ~pos ~len =
  (* Total function over arbitrary byte ranges: a hostile or truncated
     datagram must yield [Error], never an exception. The datagram is read
     where it lies and left untouched; only the payload is copied out. *)
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then Error Too_short
  else if len < header_bytes then Error Too_short
  else if Bytes.get_uint16_be buf pos <> magic then Error Bad_magic
  else begin
    let v = Bytes.get_uint8 buf (pos + 2) in
    if v <> version && v <> version_v2 then Error (Bad_version v)
    else begin
      let header = if v = version then header_bytes else header_bytes_v2 in
      if len < header then Error Too_short
      else begin
        let declared = Bytes.get_uint16_be buf (pos + 16) in
        let actual = len - header in
        if declared <> actual then Error (Length_mismatch { declared; actual })
        else if Bytes.get_uint16_be buf (pos + 18) <> header_checksum buf ~pos ~header then
          Error Bad_header_checksum
        else begin
          match Kind.of_byte (Bytes.get_uint8 buf (pos + 3)) with
          | None -> Error (Bad_kind (Bytes.get_uint8 buf (pos + 3)))
          | Some kind ->
              let stored_crc = Bytes.get_int32_be buf (pos + 20) in
              let crc = Checksum.crc32 buf ~pos:(pos + header) ~len:actual in
              if stored_crc <> crc then Error Bad_payload_checksum
              else
                Ok
                  {
                    Message.kind;
                    transfer_id = u32 buf (pos + 4);
                    seq = u32 buf (pos + 8);
                    total = u32 buf (pos + 12);
                    payload = Bytes.sub_string buf (pos + header) actual;
                    budget = (if v = version then None else Some (u32 buf (pos + 24)));
                  }
        end
      end
    end
  end

let decode buf = decode_sub buf ~pos:0 ~len:(Bytes.length buf)
