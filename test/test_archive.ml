(* Tests for the dump/restore archive format: encode/decode, filesystem
   roundtrips, corruption and path-traversal defenses, and a full dump over
   the UDP blast path. *)

let sample_entries =
  [
    Archive.Directory "etc";
    Archive.File { path = "etc/motd"; content = "welcome to 1985\n" };
    Archive.Directory "usr";
    Archive.Directory "usr/bin";
    Archive.File { path = "usr/bin/vkernel"; content = String.make 10_000 '\x7f' };
    Archive.File { path = "empty"; content = "" };
  ]

let entry_equal a b =
  match (a, b) with
  | Archive.Directory p, Archive.Directory q -> p = q
  | ( Archive.File { path = p; content = c },
      Archive.File { path = q; content = d } ) ->
      p = q && c = d
  | _ -> false

let test_encode_decode_roundtrip () =
  match Archive.decode (Archive.encode sample_entries) with
  | Ok decoded ->
      Alcotest.(check int) "count" (List.length sample_entries) (List.length decoded);
      List.iter2
        (fun a b -> Alcotest.(check bool) "entry" true (entry_equal a b))
        sample_entries decoded
  | Error e -> Alcotest.failf "decode: %a" Archive.pp_error e

let test_decode_rejects_corruption () =
  let encoded = Bytes.of_string (Archive.encode sample_entries) in
  Bytes.set encoded 20 (Char.chr (Char.code (Bytes.get encoded 20) lxor 0xFF));
  (match Archive.decode (Bytes.to_string encoded) with
  | Error Archive.Bad_checksum -> ()
  | _ -> Alcotest.fail "expected Bad_checksum");
  match Archive.decode "LD" with
  | Error Archive.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated"

let test_encode_rejects_traversal () =
  Alcotest.(check bool) "absolute" true
    (try
       ignore (Archive.encode [ Archive.Directory "/etc" ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "dotdot" true
    (try
       ignore (Archive.encode [ Archive.File { path = "a/../../b"; content = "" } ]);
       false
     with Invalid_argument _ -> true)

let test_decode_rejects_traversal () =
  (* Hand-build an archive whose path escapes, with a VALID checksum: the
     decoder must still refuse it. *)
  let evil = "../evil" in
  let buffer = Buffer.create 64 in
  Buffer.add_string buffer "LDMP\001";
  let u32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int v);
    Buffer.add_bytes buffer b
  in
  u32 1;
  Buffer.add_uint8 buffer 0;
  let u16 = Bytes.create 2 in
  Bytes.set_uint16_be u16 0 (String.length evil);
  Buffer.add_bytes buffer u16;
  Buffer.add_string buffer evil;
  let body = Buffer.contents buffer in
  let crc = Bytes.create 4 in
  Bytes.set_int32_be crc 0 (Packet.Checksum.crc32_string body);
  match Archive.decode (body ^ Bytes.to_string crc) with
  | Error (Archive.Unsafe_path "../evil") -> ()
  | Ok _ -> Alcotest.fail "traversal accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Archive.pp_error e

let with_temp_dir f =
  let root = Filename.temp_file "lanrepro" ".dir" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f root)

let test_filesystem_roundtrip () =
  with_temp_dir (fun source ->
      with_temp_dir (fun target ->
          ignore (Archive.extract ~root:source sample_entries);
          let walked = Archive.of_directory source in
          let encoded = Archive.encode walked in
          match Archive.decode encoded with
          | Error e -> Alcotest.failf "decode: %a" Archive.pp_error e
          | Ok entries ->
              let written = Archive.extract ~root:target entries in
              Alcotest.(check int) "entries written" (List.length walked) written;
              let read path =
                let ic = open_in_bin (Filename.concat target path) in
                Fun.protect
                  ~finally:(fun () -> close_in ic)
                  (fun () -> really_input_string ic (in_channel_length ic))
              in
              Alcotest.(check string) "motd" "welcome to 1985\n" (read "etc/motd");
              Alcotest.(check int) "big file" 10_000 (String.length (read "usr/bin/vkernel"));
              Alcotest.(check bool) "empty file" true (read "empty" = "")))

let test_of_directory_deterministic () =
  with_temp_dir (fun root ->
      ignore (Archive.extract ~root sample_entries);
      let a = Archive.encode (Archive.of_directory root) in
      let b = Archive.encode (Archive.of_directory root) in
      Alcotest.(check bool) "stable bytes" true (String.equal a b))

let test_dump_over_udp_blast () =
  (* The full pipeline: directory -> archive -> multi-blast over UDP ->
     archive -> directory. *)
  with_temp_dir (fun source ->
      with_temp_dir (fun target ->
          ignore (Archive.extract ~root:source sample_entries);
          let data = Archive.encode (Archive.of_directory source) in
          let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
          let sender_socket, _ = Sockets.Udp.create_socket () in
          let received = ref None in
          let thread =
            Thread.create
              (fun () -> received := Server.Engine.receive_one ~socket:receiver_socket ())
              ()
          in
          let result =
            Sockets.Peer.send
              ~ctx:
                (Sockets.Io_ctx.make
                   ~faults:
                     (Faults.Netem.create ~seed:9
                        (Faults.Scenario.make ~name:"lossy"
                           [ Faults.Scenario.Drop_iid 0.05 ]))
                   ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ()) ())
              ~socket:sender_socket ~peer:receiver_address
              ~suite:(Protocol.Suite.Multi_blast
                        { strategy = Protocol.Blast.Go_back_n; chunk_packets = 4 })
              ~data ()
          in
          Thread.join thread;
          Sockets.Udp.close receiver_socket;
          Sockets.Udp.close sender_socket;
          Alcotest.(check bool) "sent" true (result.Sockets.Peer.outcome = Protocol.Action.Success);
          match !received with
          | None -> Alcotest.fail "nothing received"
          | Some r -> begin
              Alcotest.(check bool) "integrity verified" true
                (r.Sockets.Flow.integrity = Sockets.Flow.Verified);
              match Archive.decode r.Sockets.Flow.data with
              | Error e -> Alcotest.failf "decode after transfer: %a" Archive.pp_error e
              | Ok entries ->
                  ignore (Archive.extract ~root:target entries);
                  let ic = open_in_bin (Filename.concat target "etc/motd") in
                  let motd =
                    Fun.protect
                      ~finally:(fun () -> close_in ic)
                      (fun () -> really_input_string ic (in_channel_length ic))
                  in
                  Alcotest.(check string) "restored" "welcome to 1985\n" motd
            end))

let prop_roundtrip =
  QCheck.Test.make ~name:"archive roundtrips arbitrary entries" ~count:100
    QCheck.(
      list_of_size Gen.(int_range 0 20)
        (pair (string_gen_of_size Gen.(int_range 1 8) Gen.(char_range 'a' 'z')) string))
    (fun files ->
      (* Build unique safe paths from the generated names. *)
      let entries =
        List.mapi
          (fun i (name, content) ->
            Archive.File { path = Printf.sprintf "d%d/%s" i name; content })
          files
      in
      match Archive.decode (Archive.encode entries) with
      | Ok decoded ->
          List.length decoded = List.length entries
          && List.for_all2 entry_equal entries decoded
      | Error _ -> false)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "archive"
    [
      ( "format",
        Alcotest.test_case "roundtrip" `Quick test_encode_decode_roundtrip
        :: Alcotest.test_case "rejects corruption" `Quick test_decode_rejects_corruption
        :: Alcotest.test_case "encode rejects traversal" `Quick test_encode_rejects_traversal
        :: Alcotest.test_case "decode rejects traversal" `Quick test_decode_rejects_traversal
        :: qcheck [ prop_roundtrip ] );
      ( "filesystem",
        [
          Alcotest.test_case "roundtrip" `Quick test_filesystem_roundtrip;
          Alcotest.test_case "deterministic walk" `Quick test_of_directory_deterministic;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "dump over UDP blast" `Quick test_dump_over_udp_blast ] );
    ]
