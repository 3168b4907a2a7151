(* Tests for the wire format: checksums, bitsets, message codec. *)

(* ------------------------------------------------------------- Checksum *)

let test_internet_known_vector () =
  (* Classic RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 0x220d. *)
  let buf = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "rfc1071" 0x220d (Packet.Checksum.internet buf ~pos:0 ~len:8)

let test_internet_odd_length () =
  let buf = Bytes.of_string "\xab" in
  (* 0xab00 padded -> complement 0x54ff *)
  Alcotest.(check int) "odd pad" 0x54ff (Packet.Checksum.internet buf ~pos:0 ~len:1)

let test_internet_detects_flip () =
  let buf = Bytes.of_string "hello world, 1985" in
  let sum = Packet.Checksum.internet buf ~pos:0 ~len:(Bytes.length buf) in
  Bytes.set buf 3 'L';
  let sum' = Packet.Checksum.internet buf ~pos:0 ~len:(Bytes.length buf) in
  Alcotest.(check bool) "changed" true (sum <> sum')

let test_crc32_known_vectors () =
  Alcotest.(check int32) "check string" 0xCBF43926l (Packet.Checksum.crc32_string "123456789");
  Alcotest.(check int32) "empty" 0l (Packet.Checksum.crc32_string "")

let test_crc32_range () =
  let buf = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int32) "subrange" 0xCBF43926l (Packet.Checksum.crc32 buf ~pos:2 ~len:9)

(* A byte-at-a-time table loop: the reference the slicing-by-8 kernel must
   agree with bit for bit. *)
let reference_crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let reference_crc32 buf ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let index = (!crc lxor Char.code (Bytes.get buf i)) land 0xFF in
    crc := reference_crc_table.(index) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

(* Random bytes, an unaligned window start, and lengths from 0 to 3000 —
   half of them under 24 so the kernel's sub-8-byte tail and its
   one-word bodies are hit as often as the long runs. *)
let prop_crc32_matches_reference =
  let gen =
    let open QCheck.Gen in
    let* len = oneof [ int_range 0 23; int_range 0 3000 ] in
    let* pos = int_range 0 15 in
    let* slack = int_range 0 15 in
    let* bytes = string_size (return (pos + len + slack)) in
    return (Bytes.of_string bytes, pos, len)
  in
  QCheck.Test.make ~name:"crc32 kernel matches the byte-at-a-time reference" ~count:1000
    (QCheck.make
       ~print:(fun (b, pos, len) -> Printf.sprintf "buf %d bytes, pos %d, len %d" (Bytes.length b) pos len)
       gen)
    (fun (buf, pos, len) ->
      Packet.Checksum.crc32 buf ~pos ~len = reference_crc32 buf ~pos ~len)

let test_crc32_rejects_bad_range () =
  let buf = Bytes.make 16 'x' in
  List.iter
    (fun (pos, len) ->
      match Packet.Checksum.crc32 buf ~pos ~len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "crc32 accepted pos %d len %d over 16 bytes" pos len)
    [ (-1, 4); (0, -1); (0, 17); (10, 7); (17, 0); (max_int, 1); (1, max_int) ];
  Alcotest.(check int32) "empty window at the end" 0l (Packet.Checksum.crc32 buf ~pos:16 ~len:0)

(* --------------------------------------------------------------- Bitset *)

let test_bitset_basics () =
  let b = Packet.Bitset.create 10 in
  Alcotest.(check int) "empty count" 0 (Packet.Bitset.count b);
  Packet.Bitset.set b 3;
  Packet.Bitset.set b 9;
  Alcotest.(check bool) "mem 3" true (Packet.Bitset.mem b 3);
  Alcotest.(check bool) "not mem 4" false (Packet.Bitset.mem b 4);
  Alcotest.(check int) "count" 2 (Packet.Bitset.count b);
  Alcotest.(check (option int)) "first missing" (Some 0) (Packet.Bitset.first_missing b);
  Packet.Bitset.clear b 3;
  Alcotest.(check bool) "cleared" false (Packet.Bitset.mem b 3)

let test_bitset_missing () =
  let b = Packet.Bitset.create 5 in
  Packet.Bitset.set b 1;
  Packet.Bitset.set b 3;
  Alcotest.(check (list int)) "missing" [ 0; 2; 4 ] (Packet.Bitset.missing b);
  Packet.Bitset.set_all b;
  Alcotest.(check (list int)) "none missing" [] (Packet.Bitset.missing b);
  Alcotest.(check bool) "full" true (Packet.Bitset.is_full b);
  Alcotest.(check (option int)) "no first missing" None (Packet.Bitset.first_missing b)

let test_bitset_zero_length () =
  let b = Packet.Bitset.create 0 in
  Alcotest.(check bool) "empty set is full" true (Packet.Bitset.is_full b);
  Alcotest.(check (list int)) "no missing" [] (Packet.Bitset.missing b)

let test_bitset_bounds () =
  let b = Packet.Bitset.create 4 in
  Alcotest.check_raises "set out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Packet.Bitset.set b 4)

let test_bitset_roundtrip () =
  let b = Packet.Bitset.create 13 in
  List.iter (Packet.Bitset.set b) [ 0; 5; 7; 12 ];
  match Packet.Bitset.of_bytes (Packet.Bitset.to_bytes b) with
  | None -> Alcotest.fail "roundtrip failed"
  | Some b' ->
      Alcotest.(check int) "length" 13 (Packet.Bitset.length b');
      Alcotest.(check (list int)) "same missing" (Packet.Bitset.missing b)
        (Packet.Bitset.missing b')

let test_bitset_rejects_trailing_bits () =
  let b = Packet.Bitset.create 3 in
  let encoded = Packet.Bitset.to_bytes b in
  (* Set a bit beyond the declared length. *)
  Bytes.set encoded 4 (Char.chr 0b1000);
  Alcotest.(check bool) "rejected" true (Packet.Bitset.of_bytes encoded = None)

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset encode/decode roundtrip" ~count:200
    QCheck.(pair (int_range 0 200) (list small_nat))
    (fun (n, indices) ->
      let b = Packet.Bitset.create n in
      List.iter (fun i -> if i < n then Packet.Bitset.set b i) indices;
      match Packet.Bitset.of_bytes (Packet.Bitset.to_bytes b) with
      | None -> false
      | Some b' ->
          Packet.Bitset.length b' = n && Packet.Bitset.missing b' = Packet.Bitset.missing b)

(* ---------------------------------------------------------------- Codec *)

let sample_messages =
  [
    Packet.Message.req ~transfer_id:7 ~total:64;
    Packet.Message.data ~transfer_id:7 ~seq:0 ~total:64 ~payload:(String.make 1024 'x');
    Packet.Message.data ~transfer_id:7 ~seq:63 ~total:64 ~payload:"last";
    Packet.Message.ack ~transfer_id:7 ~seq:64 ~total:64;
    Packet.Message.nack ~transfer_id:7 ~first_missing:12 ~total:64 ();
    (let received = Packet.Bitset.create 64 in
     List.iter (Packet.Bitset.set received) (List.init 60 Fun.id);
     Packet.Message.nack ~transfer_id:7 ~first_missing:60 ~total:64 ~received ());
  ]

let test_codec_roundtrip_samples () =
  List.iter
    (fun m ->
      match Packet.Codec.decode (Packet.Codec.encode m) with
      | Ok m' ->
          Alcotest.(check bool)
            (Format.asprintf "roundtrip %a" Packet.Message.pp m)
            true (Packet.Message.equal m m')
      | Error e -> Alcotest.failf "decode error: %a" Packet.Codec.pp_error e)
    sample_messages

let test_codec_rejects_truncation () =
  let buf = Packet.Codec.encode (List.nth sample_messages 1) in
  (match Packet.Codec.decode (Bytes.sub buf 0 10) with
  | Error Packet.Codec.Too_short -> ()
  | _ -> Alcotest.fail "expected Too_short");
  match Packet.Codec.decode (Bytes.sub buf 0 (Bytes.length buf - 1)) with
  | Error (Packet.Codec.Length_mismatch _) -> ()
  | _ -> Alcotest.fail "expected Length_mismatch"

let test_codec_rejects_corruption () =
  let check_corrupt pos expected_tag =
    let buf = Packet.Codec.encode (List.nth sample_messages 1) in
    Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor 0xFF));
    match Packet.Codec.decode buf with
    | Error e ->
        let tag =
          match e with
          | Packet.Codec.Bad_magic -> "magic"
          | Packet.Codec.Bad_version _ -> "version"
          | Packet.Codec.Bad_header_checksum -> "header"
          | Packet.Codec.Bad_payload_checksum -> "payload"
          | _ -> "other"
        in
        Alcotest.(check string) (Printf.sprintf "corrupt byte %d" pos) expected_tag tag
    | Ok _ -> Alcotest.failf "corruption at byte %d not detected" pos
  in
  check_corrupt 0 "magic";
  check_corrupt 2 "version";
  check_corrupt 8 "header";
  (* a seq byte: header checksum catches it *)
  check_corrupt 30 "payload"
(* a payload byte: CRC catches it *)

let test_codec_rejects_bad_kind () =
  let buf = Packet.Codec.encode (List.nth sample_messages 0) in
  Bytes.set buf 3 (Char.chr 99);
  (* Re-fix the header checksum so only the kind is wrong. *)
  Bytes.set_uint16_be buf 18 0;
  let sum = Packet.Checksum.internet buf ~pos:0 ~len:Packet.Codec.header_bytes in
  Bytes.set_uint16_be buf 18 sum;
  match Packet.Codec.decode buf with
  | Error (Packet.Codec.Bad_kind 99) -> ()
  | _ -> Alcotest.fail "expected Bad_kind"

let test_codec_decode_sub () =
  let m = List.nth sample_messages 3 in
  let encoded = Packet.Codec.encode m in
  let padded = Bytes.cat (Bytes.of_string "junk") encoded in
  match Packet.Codec.decode_sub padded ~pos:4 ~len:(Bytes.length encoded) with
  | Ok m' -> Alcotest.(check bool) "sub decode" true (Packet.Message.equal m m')
  | Error e -> Alcotest.failf "decode_sub error: %a" Packet.Codec.pp_error e

let test_codec_decode_sub_fuzz () =
  (* Seeded fuzz over the untrusted-input surface: random garbage, truncated
     prefixes, bit-flipped encodings, and out-of-range [pos]/[len] must all
     come back as [Error], never as an exception — and both checksum
     rejection paths must actually fire over the run. *)
  let rng = Stats.Rng.create ~seed:0xF00D in
  let header_rejects = ref 0 in
  let payload_rejects = ref 0 in
  let sample () =
    List.nth sample_messages (Stats.Rng.int rng (List.length sample_messages))
  in
  for _ = 1 to 3_000 do
    let buf, pos, len =
      match Stats.Rng.int rng 4 with
      | 0 ->
          (* arbitrary bytes with arbitrary, possibly invalid, bounds *)
          let n = Stats.Rng.int rng 64 in
          let buf = Bytes.init n (fun _ -> Char.chr (Stats.Rng.int rng 256)) in
          (buf, Stats.Rng.int rng 80 - 8, Stats.Rng.int rng 80 - 8)
      | 1 ->
          (* valid encoding, truncated to a random prefix *)
          let buf = Packet.Codec.encode (sample ()) in
          (buf, 0, Stats.Rng.int rng (Bytes.length buf + 1))
      | 2 ->
          (* valid encoding with a handful of random bit flips *)
          let buf = Packet.Codec.encode (sample ()) in
          for _ = 0 to Stats.Rng.int rng 4 do
            let p = Stats.Rng.int rng (Bytes.length buf) in
            let bit = 1 lsl Stats.Rng.int rng 8 in
            Bytes.set buf p (Char.chr (Char.code (Bytes.get buf p) lxor bit))
          done;
          (buf, 0, Bytes.length buf)
      | _ ->
          (* valid encoding at a random offset inside a larger buffer *)
          let encoded = Packet.Codec.encode (sample ()) in
          let pad = Stats.Rng.int rng 16 in
          let buf = Bytes.cat (Bytes.make pad '\xAA') encoded in
          (buf, pad, Bytes.length encoded)
    in
    match Packet.Codec.decode_sub buf ~pos ~len with
    | Ok _ -> ()
    | Error Packet.Codec.Bad_header_checksum -> incr header_rejects
    | Error Packet.Codec.Bad_payload_checksum -> incr payload_rejects
    | Error _ -> ()
    | exception e -> Alcotest.failf "decode_sub raised %s" (Printexc.to_string e)
  done;
  Alcotest.(check bool) "header checksum path exercised" true (!header_rejects > 0);
  Alcotest.(check bool) "payload checksum path exercised" true (!payload_rejects > 0)

let gen_message =
  let open QCheck.Gen in
  let* kind = oneofl Packet.Kind.all in
  let* transfer_id = int_range 0 0xFFFF in
  let* total = int_range 1 256 in
  match kind with
  | Packet.Kind.Req -> return (Packet.Message.req ~transfer_id ~total)
  | Packet.Kind.Rej -> return (Packet.Message.rej ~transfer_id)
  | Packet.Kind.Data ->
      let* seq = int_range 0 (total - 1) in
      let* payload = string_size (int_range 0 600) in
      return (Packet.Message.data ~transfer_id ~seq ~total ~payload)
  | Packet.Kind.Ack ->
      let* seq = int_range 0 total in
      return (Packet.Message.ack ~transfer_id ~seq ~total)
  | Packet.Kind.Nack ->
      let* first_missing = int_range 0 (total - 1) in
      let* with_set = bool in
      if with_set then begin
        let received = Packet.Bitset.create total in
        let* indices = list_size (int_range 0 total) (int_range 0 (total - 1)) in
        List.iter (Packet.Bitset.set received) indices;
        return (Packet.Message.nack ~transfer_id ~first_missing ~total ~received ())
      end
      else return (Packet.Message.nack ~transfer_id ~first_missing ~total ())
  | Packet.Kind.Mreq -> return (Packet.Stripe.manifest_query ~object_id:transfer_id)
  | Packet.Kind.Mrep ->
      let* entries =
        list_size (int_range 0 8)
          (let* index = int_range 0 15 in
           let* bytes = int_range 0 100_000 in
           let* crc = int_range 0 0xFFFFFF in
           return
             {
               Packet.Stripe.stripe = { object_id = transfer_id; index; count = 16 };
               bytes;
               crc = Int32.of_int crc;
             })
      in
      return (Packet.Stripe.manifest_reply ~object_id:transfer_id entries)

(* Optionally stamp a receiver budget onto a generated message: the v2 wire
   format. [None] keeps the message on the v1 24-byte header. *)
let gen_message_v2 =
  let open QCheck.Gen in
  let* m = gen_message in
  let* b = opt (oneof [ return 0; int_range 1 0xFFFF; return 0xFFFFFFFF ]) in
  return (match b with None -> m | Some b -> Packet.Message.with_budget m b)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip for arbitrary messages" ~count:300
    (QCheck.make gen_message_v2) (fun m ->
      match Packet.Codec.decode (Packet.Codec.encode m) with
      | Ok m' -> Packet.Message.equal m m'
      | Error _ -> false)

let prop_codec_bitflip_detected =
  QCheck.Test.make ~name:"any single bit flip is rejected" ~count:300
    QCheck.(pair (QCheck.make gen_message_v2) (pair small_nat small_nat))
    (fun (m, (byte_pick, bit)) ->
      let buf = Packet.Codec.encode m in
      let pos = byte_pick mod Bytes.length buf in
      let bit = bit mod 8 in
      Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor (1 lsl bit)));
      match Packet.Codec.decode buf with
      | Error _ -> true
      | Ok m' ->
          (* A flip inside the checksum fields themselves must not produce a
             *different* accepted message. *)
          Packet.Message.equal m m')

(* A copying decoder — the window copied out, the checksum field zeroed in
   the copy and summed there — as the reference the in-place decoder must
   match verdict for verdict. *)
let reference_decode_sub buf ~pos ~len =
  let open Packet.Codec in
  let u32 view p = Int32.to_int (Bytes.get_int32_be view p) land 0xFFFFFFFF in
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then Error Too_short
  else if len < header_bytes then Error Too_short
  else begin
    let view = Bytes.sub buf pos len in
    if Bytes.get_uint16_be view 0 <> 0xB1A5 then Error Bad_magic
    else begin
      let v = Bytes.get_uint8 view 2 in
      if v <> 1 && v <> 2 then Error (Bad_version v)
      else begin
        let header = if v = 1 then header_bytes else header_bytes_v2 in
        if len < header then Error Too_short
        else begin
          let declared = Bytes.get_uint16_be view 16 in
          let actual = len - header in
          if declared <> actual then Error (Length_mismatch { declared; actual })
          else begin
            let stored_sum = Bytes.get_uint16_be view 18 in
            Bytes.set_uint16_be view 18 0;
            if stored_sum <> Packet.Checksum.internet view ~pos:0 ~len:header then
              Error Bad_header_checksum
            else
              match Packet.Kind.of_byte (Bytes.get_uint8 view 3) with
              | None -> Error (Bad_kind (Bytes.get_uint8 view 3))
              | Some kind ->
                  if
                    Bytes.get_int32_be view 20
                    <> Packet.Checksum.crc32 view ~pos:header ~len:actual
                  then Error Bad_payload_checksum
                  else
                    Ok
                      {
                        Packet.Message.kind;
                        transfer_id = u32 view 4;
                        seq = u32 view 8;
                        total = u32 view 12;
                        payload = Bytes.sub_string view header actual;
                        budget = (if v = 1 then None else Some (u32 view 24));
                      }
          end
        end
      end
    end
  end

(* How a fuzz case damages an encoding before it is decoded. *)
type mangle =
  | Intact
  | Header_flip of int * int  (** byte, bit — inside the header *)
  | Header_refixed of int * int  (** header flip with the checksum re-fixed *)
  | Payload_flip of int * int
  | Truncated of int  (** bytes cut from the end *)
  | Window_off of int * int  (** pos and len shifted off the datagram *)

let gen_decode_case =
  let open QCheck.Gen in
  let* m = gen_message_v2 in
  let* mangle =
    oneof
      [
        return Intact;
        map2 (fun b i -> Header_flip (b, i)) (int_range 0 27) (int_range 0 7);
        map2 (fun b i -> Header_refixed (b, i)) (int_range 0 27) (int_range 0 7);
        map2 (fun b i -> Payload_flip (b, i)) nat (int_range 0 7);
        map (fun n -> Truncated n) (int_range 1 40);
        map2 (fun a b -> Window_off (a, b)) (int_range (-3) 3) (int_range (-3) 3);
      ]
  in
  let* before = int_range 0 24 in
  let* after = int_range 0 24 in
  let* fill = char in
  return (m, mangle, before, after, fill)

let flip buf p bit = Bytes.set buf p (Char.chr (Char.code (Bytes.get buf p) lxor (1 lsl bit)))

(* Builds the mangled datagram inside a larger buffer — padding on both
   sides, as a receive ring presents it — and returns it with the window. *)
let lay_out (m, mangle, before, after, fill) =
  let encoded = Packet.Codec.encode m in
  let n = Bytes.length encoded in
  let header =
    if Packet.Message.budget m = None then Packet.Codec.header_bytes
    else Packet.Codec.header_bytes_v2
  in
  let len = ref n and shift = ref 0 in
  (match mangle with
  | Intact -> ()
  | Header_flip (b, bit) -> flip encoded (b mod header) bit
  | Header_refixed (b, bit) ->
      let b = b mod header in
      if b <> 18 && b <> 19 then begin
        flip encoded b bit;
        Bytes.set_uint16_be encoded 18 0;
        Bytes.set_uint16_be encoded 18 (Packet.Checksum.internet encoded ~pos:0 ~len:header)
      end
  | Payload_flip (b, bit) -> if n > header then flip encoded (header + (b mod (n - header))) bit
  | Truncated k -> len := max 0 (n - k)
  | Window_off (dp, dl) ->
      shift := dp;
      len := n + dl);
  let buf = Bytes.cat (Bytes.make before fill) (Bytes.cat encoded (Bytes.make after fill)) in
  (buf, before + !shift, !len)

let prop_decode_in_place_matches_reference =
  QCheck.Test.make ~name:"in-place decode_sub matches the copying reference" ~count:3000
    (QCheck.make gen_decode_case) (fun case ->
      let buf, pos, len = lay_out case in
      let untouched = Bytes.copy buf in
      let got = Packet.Codec.decode_sub buf ~pos ~len in
      let expected = reference_decode_sub untouched ~pos ~len in
      let same =
        match (got, expected) with
        | Ok a, Ok b -> Packet.Message.equal a b
        | Error a, Error b -> a = b
        | _ -> false
      in
      same && Bytes.equal buf untouched)

(* Every fuzz family reaches the verdict it was built for, so the property
   above is not passing on one branch alone. *)
let test_decode_in_place_covers_every_verdict () =
  let rng = Random.State.make [| 0xDEC0DE |] in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 3000 do
    let buf, pos, len = lay_out (gen_decode_case rng) in
    let verdict =
      match Packet.Codec.decode_sub buf ~pos ~len with
      | Ok _ -> "ok"
      | Error Packet.Codec.Too_short -> "too-short"
      | Error Packet.Codec.Bad_magic -> "magic"
      | Error (Packet.Codec.Bad_version _) -> "version"
      | Error (Packet.Codec.Bad_kind _) -> "kind"
      | Error Packet.Codec.Bad_header_checksum -> "header"
      | Error Packet.Codec.Bad_payload_checksum -> "payload"
      | Error (Packet.Codec.Length_mismatch _) -> "length"
    in
    Hashtbl.replace seen verdict ()
  done;
  List.iter
    (fun v -> Alcotest.(check bool) ("reached " ^ v) true (Hashtbl.mem seen v))
    [ "ok"; "too-short"; "magic"; "version"; "kind"; "header"; "payload"; "length" ]

let test_codec_budget_wire_compat () =
  (* Budget-less messages stay on the v1 24-byte header: byte-for-byte what
     an old peer emits and expects. *)
  let ack = Packet.Message.ack ~transfer_id:7 ~seq:5 ~total:8 in
  Alcotest.(check int) "v1 ack wire bytes" Packet.Codec.header_bytes
    (Bytes.length (Packet.Codec.encode ack));
  (match Packet.Codec.decode (Packet.Codec.encode ack) with
  | Ok m ->
      Alcotest.(check bool) "no budget on v1" true (Packet.Message.budget m = None);
      Alcotest.(check bool) "v1 roundtrip equal" true (Packet.Message.equal ack m)
  | Error _ -> Alcotest.fail "v1 ack failed to decode");
  (* Stamping a budget grows the header by exactly the u32 field and the
     value survives the roundtrip. *)
  let acked = Packet.Message.with_budget ack 42 in
  let buf = Packet.Codec.encode acked in
  Alcotest.(check int) "v2 ack wire bytes" Packet.Codec.header_bytes_v2 (Bytes.length buf);
  (match Packet.Codec.decode buf with
  | Ok m ->
      Alcotest.(check bool) "budget survives" true (Packet.Message.budget m = Some 42);
      Alcotest.(check bool) "v2 roundtrip equal" true (Packet.Message.equal acked m)
  | Error _ -> Alcotest.fail "v2 ack failed to decode");
  (* budget = 0 is meaningful (handshake marker, solicit stamp, receiver
     throttle) and must be distinguishable from "no budget". *)
  let received = Packet.Bitset.create 8 in
  Packet.Bitset.set received 3;
  let nack =
    Packet.Message.with_budget
      (Packet.Message.nack ~transfer_id:7 ~first_missing:0 ~total:8 ~received ())
      0
  in
  (match Packet.Codec.decode (Packet.Codec.encode nack) with
  | Ok m ->
      Alcotest.(check bool) "zero budget survives" true (Packet.Message.budget m = Some 0);
      Alcotest.(check bool) "bitmap survives v2" true
        (match Packet.Message.received_set m with
        | Some set -> Packet.Bitset.mem set 3 && not (Packet.Bitset.mem set 0)
        | None -> false)
  | Error _ -> Alcotest.fail "v2 nack failed to decode");
  (* Full u32 range. *)
  let wide = Packet.Message.with_budget (Packet.Message.req ~transfer_id:1 ~total:4) 0xFFFFFFFF in
  match Packet.Codec.decode (Packet.Codec.encode wide) with
  | Ok m ->
      Alcotest.(check bool) "u32 budget survives" true
        (Packet.Message.budget m = Some 0xFFFFFFFF)
  | Error _ -> Alcotest.fail "u32 budget failed to decode"

(* -------------------------------------------------------------- Message *)

let test_message_received_set () =
  let received = Packet.Bitset.create 8 in
  Packet.Bitset.set received 0;
  let m = Packet.Message.nack ~transfer_id:1 ~first_missing:1 ~total:8 ~received () in
  (match Packet.Message.received_set m with
  | Some set ->
      Alcotest.(check bool) "bit 0" true (Packet.Bitset.mem set 0);
      Alcotest.(check bool) "bit 1" false (Packet.Bitset.mem set 1)
  | None -> Alcotest.fail "no set");
  let plain = Packet.Message.nack ~transfer_id:1 ~first_missing:1 ~total:8 () in
  Alcotest.(check bool) "plain nack has no set" true (Packet.Message.received_set plain = None)

let test_message_validation () =
  Alcotest.check_raises "seq beyond total" (Invalid_argument "Message.data: seq beyond total")
    (fun () -> ignore (Packet.Message.data ~transfer_id:0 ~seq:5 ~total:5 ~payload:""))

let test_message_wire_bytes () =
  let m = Packet.Message.data ~transfer_id:0 ~seq:0 ~total:1 ~payload:(String.make 100 'a') in
  Alcotest.(check int) "header + payload" 124 (Packet.Message.wire_bytes m);
  Alcotest.(check int) "encode size matches" 124 (Bytes.length (Packet.Codec.encode m))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "packet"
    [
      ( "checksum",
        [
          Alcotest.test_case "internet known vector" `Quick test_internet_known_vector;
          Alcotest.test_case "internet odd length" `Quick test_internet_odd_length;
          Alcotest.test_case "internet detects flip" `Quick test_internet_detects_flip;
          Alcotest.test_case "crc32 known vectors" `Quick test_crc32_known_vectors;
          Alcotest.test_case "crc32 range" `Quick test_crc32_range;
          Alcotest.test_case "crc32 rejects bad range" `Quick test_crc32_rejects_bad_range;
        ]
        @ qcheck [ prop_crc32_matches_reference ] );
      ( "bitset",
        Alcotest.test_case "basics" `Quick test_bitset_basics
        :: Alcotest.test_case "missing" `Quick test_bitset_missing
        :: Alcotest.test_case "zero length" `Quick test_bitset_zero_length
        :: Alcotest.test_case "bounds" `Quick test_bitset_bounds
        :: Alcotest.test_case "roundtrip" `Quick test_bitset_roundtrip
        :: Alcotest.test_case "rejects trailing bits" `Quick test_bitset_rejects_trailing_bits
        :: qcheck [ prop_bitset_roundtrip ] );
      ( "codec",
        Alcotest.test_case "roundtrip samples" `Quick test_codec_roundtrip_samples
        :: Alcotest.test_case "rejects truncation" `Quick test_codec_rejects_truncation
        :: Alcotest.test_case "rejects corruption" `Quick test_codec_rejects_corruption
        :: Alcotest.test_case "rejects bad kind" `Quick test_codec_rejects_bad_kind
        :: Alcotest.test_case "decode_sub" `Quick test_codec_decode_sub
        :: Alcotest.test_case "decode_sub fuzz" `Quick test_codec_decode_sub_fuzz
        :: Alcotest.test_case "budget wire compat" `Quick test_codec_budget_wire_compat
        :: Alcotest.test_case "in-place decode reaches every verdict" `Quick
             test_decode_in_place_covers_every_verdict
        :: qcheck
             [
               prop_codec_roundtrip;
               prop_codec_bitflip_detected;
               prop_decode_in_place_matches_reference;
             ] );
      ( "message",
        [
          Alcotest.test_case "received set" `Quick test_message_received_set;
          Alcotest.test_case "validation" `Quick test_message_validation;
          Alcotest.test_case "wire bytes" `Quick test_message_wire_bytes;
        ] );
    ]
