(* Packet trains through sendmmsg(2)/recvmmsg(2), with a one-datagram
   fallback that preserves exact per-datagram outcome semantics. See the
   interface for the design contract. *)

external mmsg_supported : unit -> bool = "lanrepro_mmsg_supported"

external raw_sendmmsg :
  Unix.file_descr -> int -> int -> bool -> Bytes.t array -> int array -> int
  = "lanrepro_sendmmsg_byte" "lanrepro_sendmmsg"

external raw_recvmmsg : Unix.file_descr -> int -> Bytes.t array -> int array -> int
  = "lanrepro_recvmmsg"

external udp_segment_supported : Unix.file_descr -> bool
  = "lanrepro_udp_segment_supported"
external set_gro : Unix.file_descr -> bool -> bool = "lanrepro_set_udp_gro"

(* Must match LANREPRO_MMSG_MAX in mmsg_stubs.c. *)
let stub_max = 256

(* A Linux build on a kernel without the syscalls discovers ENOSYS on the
   first real submission; remember it process-wide so every later batch goes
   straight to the fallback. *)
let runtime_enosys = ref false

let kernel_support () = mmsg_supported () && not !runtime_enosys

let env_value () = Sys.getenv_opt "LANREPRO_BATCH"

let env_enabled () =
  match env_value () with
  | Some ("0" | "off" | "false") -> false
  | Some _ | None -> true

let env_force_fallback () =
  match env_value () with Some ("fallback" | "emulate") -> true | _ -> false

type report = { submitted : int; sent : int; failed : int; syscalls : int }

let zero = { submitted = 0; sent = 0; failed = 0; syscalls = 0 }

let add_report a b =
  {
    submitted = a.submitted + b.submitted;
    sent = a.sent + b.sent;
    failed = a.failed + b.failed;
    syscalls = a.syscalls + b.syscalls;
  }

let pp_report ppf r =
  Format.fprintf ppf "%d submitted, %d sent, %d failed, %d syscalls" r.submitted r.sent
    r.failed r.syscalls

(* IPv4 sockaddr -> (host-order address, port); None for anything the wire
   vectors cannot carry (IPv6, unix sockets), which goes out unbatched. *)
let explode_sockaddr = function
  | Unix.ADDR_UNIX _ -> None
  | Unix.ADDR_INET (address, port) -> begin
      match String.split_on_char '.' (Unix.string_of_inet_addr address) with
      | [ a; b; c; d ] -> begin
          match
            (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d)
          with
          | Some a, Some b, Some c, Some d
            when a land 0xff = a && b land 0xff = b && c land 0xff = c && d land 0xff = d ->
              Some (((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d, port))
          | _ -> None
        end
      | _ -> None
    end

(* ------------------------------------------------------------ transmit -- *)

type t = {
  socket : Unix.file_descr;
  tx_capacity : int;
  bufs : Bytes.t array;
  meta : int array;  (** 3 slots per entry: length, address, port *)
  peers : Unix.sockaddr array;  (** original sockaddr, for the fallback path *)
  callbacks : (Udp.send_outcome -> unit) option array;
  forced_fallback : bool;
  addr_cache : (Unix.sockaddr, (int * int) option) Hashtbl.t;
  mutable gso : bool;
      (** group equal-size runs for one peer into one UDP_SEGMENT message;
          cleared for good by the kernel's first refusal *)
  mutable len : int;
  mutable acc : report;  (** cumulative since create *)
}

let create ?(capacity = 128) ?force_fallback ~socket () =
  if capacity <= 0 then invalid_arg "Batch.create: capacity must be positive";
  let capacity = min capacity stub_max in
  let forced_fallback =
    match force_fallback with Some f -> f | None -> env_force_fallback ()
  in
  {
    socket;
    tx_capacity = capacity;
    bufs = Array.make capacity Bytes.empty;
    meta = Array.make (3 * capacity) 0;
    peers = Array.make capacity (Unix.ADDR_UNIX "");
    callbacks = Array.make capacity None;
    forced_fallback;
    addr_cache = Hashtbl.create 8;
    gso = (not forced_fallback) && kernel_support () && udp_segment_supported socket;
    len = 0;
    acc = zero;
  }

let capacity t = t.tx_capacity
let length t = t.len
let using_fallback t = t.forced_fallback || not (kernel_support ())
let totals t = t.acc

let fire_outcome t i outcome =
  match t.callbacks.(i) with None -> () | Some f -> f outcome

(* Resolve one queued entry through the one-datagram path: a bounded-retry
   sendto that classifies transient failures as loss and raises only on
   genuine programming errors — the exact semantics of the unbatched
   transport, which is what keeps batching invisible to the protocol. *)
let resolve_one t i =
  let outcome = Udp.send_bytes t.socket t.peers.(i) t.bufs.(i) in
  fire_outcome t i outcome;
  match outcome with Udp.Sent -> `Sent | Udp.Send_failed _ -> `Failed

let flush t =
  let n = t.len in
  if n = 0 then zero
  else begin
    let sent = ref 0 and failed = ref 0 and syscalls = ref 0 in
    let one i =
      incr syscalls;
      match resolve_one t i with `Sent -> incr sent | `Failed -> incr failed
    in
    let rest_one_at_a_time from = for i = from to n - 1 do one i done in
    (* A one-datagram train pays the same single syscall either way; skip
       the vector submission so batched train length 1 costs exactly what
       the unbatched path does. *)
    if n = 1 || using_fallback t then rest_one_at_a_time 0
    else begin
      let off = ref 0 in
      while !off < n do
        let want = min (n - !off) stub_max in
        let r = raw_sendmmsg t.socket !off want t.gso t.bufs t.meta in
        incr syscalls;
        if r = -3 then
          (* The kernel refused a GSO message at the head (an old kernel, a
             route without checksum offload, a segment above the route MTU)
             and sent none of it: stop grouping for good and resubmit the
             window ungrouped. *)
          t.gso <- false
        else if r = -2 then begin
          (* Runtime ENOSYS: this submission — and every future one,
             process-wide — takes the fallback. *)
          runtime_enosys := true;
          rest_one_at_a_time !off;
          off := n
        end
        else if r <= 0 then begin
          (* The head datagram failed (transient or genuine); resolving it
             one-at-a-time classifies — or raises — exactly as the
             unbatched path would, then the train continues. *)
          one !off;
          incr off
        end
        else begin
          for i = !off to !off + r - 1 do
            fire_outcome t i Udp.Sent
          done;
          sent := !sent + r;
          off := !off + r;
          (* A short count means the kernel stopped at entry [off]: resolve
             that one precisely rather than spinning on resubmission. *)
          if r < want && !off < n then begin
            one !off;
            incr off
          end
        end
      done
    end;
    (* Drop references so flushed payloads do not outlive their train. *)
    Array.fill t.bufs 0 n Bytes.empty;
    Array.fill t.callbacks 0 n None;
    t.len <- 0;
    let report = { submitted = n; sent = !sent; failed = !failed; syscalls = !syscalls } in
    t.acc <- add_report t.acc report;
    report
  end

let resolve_peer t peer =
  match Hashtbl.find_opt t.addr_cache peer with
  | Some cached -> cached
  | None ->
      let exploded = explode_sockaddr peer in
      Hashtbl.replace t.addr_cache peer exploded;
      exploded

let push t ~peer ?on_outcome data =
  match resolve_peer t peer with
  | None ->
      (* Not representable in the IPv4 wire vectors: send it now, alone. *)
      let outcome = Udp.send_bytes t.socket peer data in
      (match on_outcome with None -> () | Some f -> f outcome);
      let report =
        match outcome with
        | Udp.Sent -> { submitted = 1; sent = 1; failed = 0; syscalls = 1 }
        | Udp.Send_failed _ -> { submitted = 1; sent = 0; failed = 1; syscalls = 1 }
      in
      t.acc <- add_report t.acc report
  | Some (address, port) ->
      if t.len >= t.tx_capacity then ignore (flush t : report);
      let i = t.len in
      t.bufs.(i) <- data;
      t.meta.(3 * i) <- Bytes.length data;
      t.meta.((3 * i) + 1) <- address;
      t.meta.((3 * i) + 2) <- port;
      t.peers.(i) <- peer;
      t.callbacks.(i) <- on_outcome;
      t.len <- i + 1

let push_message t ~peer ?on_outcome message =
  push t ~peer ?on_outcome (Packet.Codec.encode message)

(* ------------------------------------------------------------- receive -- *)

type rx = {
  rx_socket : Unix.file_descr;
  rx_cap : int;
  mutable rx_bufs : Bytes.t array;  (** the live slots; doubles up to [rx_cap] *)
  rx_meta : int array;  (** 4 slots per ring slot: length, address, port, segment *)
  rx_froms : Unix.sockaddr array;
  mutable rx_index : int array;
      (** 3 slots per datagram of the last drain: ring slot, offset, length *)
  rx_forced_fallback : bool;
  rx_addr_cache : (int, Unix.sockaddr) Hashtbl.t;
  mutable rx_sys : int;
  mutable rx_count : int;
}

(* Coalescing is only safe where each slot comes with its segment size:
   on the recvmmsg path, never through recvfrom. *)
let arm_rx rx =
  ignore (set_gro rx.rx_socket ((not rx.rx_forced_fallback) && kernel_support ()) : bool)

(* The ring starts at one max-size slot and is sized by demand: a sender
   that only ever reads the odd ACK keeps 64 KiB, not [capacity] x 64 KiB.
   Only the buffers grow; the metadata vectors are a few words per slot and
   are sized for [capacity] up front. *)
let create_rx ?(capacity = 32) ?force_fallback ~socket () =
  if capacity <= 0 then invalid_arg "Batch.create_rx: capacity must be positive";
  let capacity = min capacity stub_max in
  let rx =
    {
      rx_socket = socket;
      rx_cap = capacity;
      rx_bufs = [| Udp.rx_buffer () |];
      rx_meta = Array.make (4 * capacity) 0;
      rx_froms = Array.make capacity (Unix.ADDR_UNIX "");
      rx_index = Array.make (3 * capacity) 0;
      rx_forced_fallback =
        (match force_fallback with Some f -> f | None -> env_force_fallback ());
      rx_addr_cache = Hashtbl.create 64;
      rx_sys = 0;
      rx_count = 0;
    }
  in
  arm_rx rx;
  rx

let rx_capacity rx = rx.rx_cap
let rx_slots rx = Array.length rx.rx_bufs
let rx_syscalls rx = rx.rx_sys
let rx_received rx = rx.rx_count

let sockaddr_of rx address port =
  let key = (address lsl 16) lor (port land 0xffff) in
  match Hashtbl.find_opt rx.rx_addr_cache key with
  | Some sockaddr -> sockaddr
  | None ->
      let dotted =
        Printf.sprintf "%d.%d.%d.%d"
          ((address lsr 24) land 0xff)
          ((address lsr 16) land 0xff)
          ((address lsr 8) land 0xff)
          (address land 0xff)
      in
      let sockaddr = Unix.ADDR_INET (Unix.inet_addr_of_string dotted, port) in
      Hashtbl.replace rx.rx_addr_cache key sockaddr;
      sockaddr

(* One Unix.recvfrom per datagram, same loop the engine ran before batching:
   EAGAIN ends the drain, a pending ICMP error is consumed and skipped. *)
let recv_fallback rx ~want =
  let n = ref 0 in
  (try
     while !n < want do
       rx.rx_sys <- rx.rx_sys + 1;
       match
         Unix.recvfrom rx.rx_socket rx.rx_bufs.(!n) 0 (Bytes.length rx.rx_bufs.(!n)) []
       with
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
           raise Exit
       | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
       | len, from ->
           rx.rx_meta.(4 * !n) <- len;
           rx.rx_meta.((4 * !n) + 3) <- 0;
           rx.rx_froms.(!n) <- from;
           incr n
     done
   with Exit -> ());
  !n

(* Fill up to [want] slots; returns how many. A genuine error raises from
   the stub, exactly as the unbatched loop's recvfrom would. *)
let rec drain rx ~want =
  if rx.rx_forced_fallback || not (kernel_support ()) then recv_fallback rx ~want
  else begin
    let r = raw_recvmmsg rx.rx_socket want rx.rx_bufs rx.rx_meta in
    rx.rx_sys <- rx.rx_sys + 1;
    if r >= 0 then begin
      for i = 0 to r - 1 do
        rx.rx_froms.(i) <-
          sockaddr_of rx rx.rx_meta.((4 * i) + 1) rx.rx_meta.((4 * i) + 2)
      done;
      r
    end
    else if r = -1 then 0
    else if r = -3 then
      (* Consumed a pending ICMP port-unreachable (a sender that already
         closed); no datagram was taken, so drain again. *)
      drain rx ~want
    else begin
      (* Runtime ENOSYS. The recvfrom fallback cannot tell a coalesced train
         from one datagram, so coalescing goes off with the fast path. *)
      runtime_enosys := true;
      ignore (set_gro rx.rx_socket false : bool);
      drain rx ~want
    end
  end

(* A drain that filled every slot found a backlog at least that deep:
   double the ring, up to its capacity, for the next one. The old slots
   carry over at their indices, so the views of the drain being served
   stay valid. *)
let grow_if_full rx n =
  let slots = Array.length rx.rx_bufs in
  if n >= slots && slots < rx.rx_cap then begin
    let old = rx.rx_bufs in
    rx.rx_bufs <-
      Array.init (min rx.rx_cap (2 * slots)) (fun i ->
          if i < slots then old.(i) else Udp.rx_buffer ())
  end

(* Cut each filled slot back into the sender's datagrams. A slot the kernel
   coalesced carries its segment size, and every datagram in it but the
   last is exactly that long (the sender's grouping rule). Returns the
   datagram count. *)
let split rx slots =
  let count = ref 0 in
  for s = 0 to slots - 1 do
    let len = rx.rx_meta.(4 * s) and seg = rx.rx_meta.((4 * s) + 3) in
    let pieces = if seg > 0 && len > seg then (len + seg - 1) / seg else 1 in
    let seg = if pieces = 1 then len else seg in
    let need = 3 * (!count + pieces) in
    if need > Array.length rx.rx_index then begin
      let index = Array.make (max need (2 * Array.length rx.rx_index)) 0 in
      Array.blit rx.rx_index 0 index 0 (3 * !count);
      rx.rx_index <- index
    end;
    for p = 0 to pieces - 1 do
      let k = 3 * (!count + p) in
      rx.rx_index.(k) <- s;
      rx.rx_index.(k + 1) <- p * seg;
      rx.rx_index.(k + 2) <- min seg (len - (p * seg))
    done;
    count := !count + pieces
  done;
  !count

let recv rx ~limit =
  let want = min limit (Array.length rx.rx_bufs) in
  if want <= 0 then 0
  else begin
    let slots = drain rx ~want in
    grow_if_full rx slots;
    let n = split rx slots in
    rx.rx_count <- rx.rx_count + n;
    n
  end

let get rx i =
  let k = 3 * i in
  let slot = rx.rx_index.(k) in
  (rx.rx_bufs.(slot), rx.rx_index.(k + 1), rx.rx_index.(k + 2), rx.rx_froms.(slot))
