type t = { socket : Unix.file_descr; port : int; buf : Bytes.t }

(* One datagram each way; replies must fit a single UDP datagram. *)
let max_reply_bytes = 65000

let create ?(address = "127.0.0.1") ~port () =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  (match
     Unix.setsockopt socket Unix.SO_REUSEADDR true;
     Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_of_string address, port))
   with
  | () -> ()
  | exception e ->
      (try Unix.close socket with Unix.Unix_error _ -> ());
      raise e);
  Unix.set_nonblock socket;
  let port =
    match Unix.getsockname socket with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { socket; port; buf = Bytes.create 512 }

let port t = t.port

(* At most this many requests answered per poll: an operator polling at
   human rates needs one; a flood must not starve the live snapshots each
   answer costs the serving loops. *)
let poll_budget = 8

let poll t ~snapshot =
  (* The snapshot is built lazily and at most once per poll — serializing
     the flow table is the expensive part, and most polls find no request. *)
  let reply = ref None in
  let reply_bytes () =
    match !reply with
    | Some r -> r
    | None ->
        let body = Obs.Json.to_string (snapshot ()) in
        let body =
          if String.length body <= max_reply_bytes then body
          else
            Obs.Json.to_string
              (Obs.Json.Obj
                 [
                   ("error", Obs.Json.String "snapshot exceeds one datagram");
                   ("bytes", Obs.Json.Int (String.length body));
                 ])
        in
        let r = Bytes.of_string body in
        reply := Some r;
        r
  in
  let rec loop budget =
    if budget > 0 then
      match Unix.recvfrom t.socket t.buf 0 (Bytes.length t.buf) [] with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop budget
      | exception Unix.Unix_error (_, _, _) ->
          (* e.g. ECONNREFUSED bounced back from a previous reply; drain on. *)
          loop (budget - 1)
      | _, from ->
          (* Any datagram is a stat request; the payload is ignored so old
             and new clients stay compatible. *)
          let r = reply_bytes () in
          (try ignore (Unix.sendto t.socket r 0 (Bytes.length r) [] from)
           with Unix.Unix_error _ -> ());
          loop (budget - 1)
  in
  loop poll_budget

let close t = try Unix.close t.socket with Unix.Unix_error _ -> ()

let parse_address s =
  let host, port_s =
    match String.rindex_opt s ':' with
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> ("127.0.0.1", s)
  in
  let host = if host = "" then "127.0.0.1" else host in
  match int_of_string_opt port_s with
  | None -> Error (Printf.sprintf "%S: expected HOST:PORT" s)
  | Some port -> (
      match Unix.inet_addr_of_string host with
      | addr -> Ok (Unix.ADDR_INET (addr, port))
      | exception Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
              Error (Printf.sprintf "%S: unknown host" host)
          | { Unix.h_addr_list; _ } -> Ok (Unix.ADDR_INET (h_addr_list.(0), port))))

let query ?(timeout_ms = 1000) ?(retries = 3) addr =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let finally () = try Unix.close socket with Unix.Unix_error _ -> () in
  Fun.protect ~finally (fun () ->
      let request = Bytes.of_string "stat" in
      let buf = Bytes.create Sockets.Udp.max_datagram_bytes in
      let rec attempt n last_err =
        if n <= 0 then Error last_err
        else
          match Unix.sendto socket request 0 (Bytes.length request) [] addr with
          | exception Unix.Unix_error (e, _, _) ->
              attempt (n - 1) (Unix.error_message e)
          | _ -> (
              match
                Unix.select [ socket ] [] [] (float_of_int timeout_ms /. 1000.)
              with
              | [], _, _ -> attempt (n - 1) "timed out waiting for snapshot"
              | _ -> (
                  match Unix.recvfrom socket buf 0 (Bytes.length buf) [] with
                  | exception Unix.Unix_error (e, _, _) ->
                      attempt (n - 1) (Unix.error_message e)
                  | len, _ -> (
                      match Obs.Json.parse (Bytes.sub_string buf 0 len) with
                      | Ok json -> Ok json
                      | Error e ->
                          Error (Printf.sprintf "reply is not valid JSON: %s" e))))
      in
      attempt (max 1 retries) "no attempts made")
