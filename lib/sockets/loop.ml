type health = {
  tick_duration_ns : Obs.Hist.t;
  recv_drained : Obs.Hist.t;
  flush_train : Obs.Hist.t;
  timer_heap_depth : Obs.Hist.t;
  mutable ticks : int;
  mutable drain_exhausted : int;
  mutable last_drain_exhausted : int;
      (** [drain_exhausted] at the previous budget advert — a fresh
          exhaustion since then reads as live socket pressure *)
  mutable spurious_wakeups : int;
}

let create_health () =
  {
    tick_duration_ns = Obs.Hist.create ();
    recv_drained = Obs.Hist.create ~lo:1. ~hi:1e6 ~bins:120 ();
    flush_train = Obs.Hist.create ~lo:1. ~hi:1e6 ~bins:120 ();
    timer_heap_depth = Obs.Hist.create ~lo:1. ~hi:1e6 ~bins:120 ();
    ticks = 0;
    drain_exhausted = 0;
    last_drain_exhausted = 0;
    spurious_wakeups = 0;
  }

(* Shard roll-up: histograms merge under their own locks (safe while the
   source engine is still serving), plain counters add. *)
let merge_health ~into src =
  Obs.Hist.merge ~into:into.tick_duration_ns src.tick_duration_ns;
  Obs.Hist.merge ~into:into.recv_drained src.recv_drained;
  Obs.Hist.merge ~into:into.flush_train src.flush_train;
  Obs.Hist.merge ~into:into.timer_heap_depth src.timer_heap_depth;
  into.ticks <- into.ticks + src.ticks;
  into.drain_exhausted <- into.drain_exhausted + src.drain_exhausted;
  into.spurious_wakeups <- into.spurious_wakeups + src.spurious_wakeups

type client = {
  next_deadline : unit -> int option;
  due : now:int -> unit;
  receive : now:int -> Transport.view -> unit;
  finished : unit -> bool;
}

(* A netem-delayed emission: the loop never sleeps inline, it schedules the
   datagram and keeps serving. *)
type delayed = { peer : Unix.sockaddr; data : bytes; on_failed : unit -> unit }

type t = {
  transport : Transport.t;
  clock : unit -> int;
  drain_budget : int;
  health : health option;
  delayed : delayed Timers.t;
  stopped : bool Atomic.t;
  mutable tx_queued : int;  (** sends since the last flush point *)
}

let create ?health ?(drain_budget = 1) ~clock transport =
  {
    transport;
    clock;
    drain_budget;
    health;
    delayed = Timers.create ();
    stopped = Atomic.make false;
    tx_queued = 0;
  }

let pending t = Timers.length t.delayed

(* One datagram out — joining the pending train when the transport batches,
   in its own syscall otherwise. The outcome callback fires per datagram
   either way, so the send-failure accounting is identical batched or not. *)
let send t ~peer ~on_failed data =
  t.tx_queued <- t.tx_queued + 1;
  t.transport.Transport.send ~peer data ~on_outcome:(function
    | Udp.Sent -> ()
    | Udp.Send_failed _ -> on_failed ())

let emit t ~peer ~on_failed { Faults.Netem.delay_ns; data } =
  if delay_ns <= 0 then send t ~peer ~on_failed data
  else Timers.add t.delayed ~deadline:(t.clock () + delay_ns) { peer; data; on_failed }

(* The probe's tx event fires per protocol send, before fault injection, so
   the journal agrees with the machine's counters; a transient send failure
   is loss, journaled as a tx drop. *)
let transmit t ?faults ?(on_failed = ignore) ~probe ~peer message =
  Obs.Probe.tx probe message;
  let on_failed () =
    Obs.Probe.drop probe `Tx;
    on_failed ()
  in
  let encoded = Packet.Codec.encode message in
  match faults with
  | None -> send t ~peer ~on_failed encoded
  | Some netem -> List.iter (emit t ~peer ~on_failed) (Faults.Netem.tx_bytes netem encoded)

(* Flush points bracket every burst, so the queued count at flush time is
   the train a batching transport submits as one sendmmsg — and a useful
   proxy for burst size even on the per-datagram path. *)
let flush t =
  if t.tx_queued > 0 then begin
    (match t.health with
    | Some h -> Obs.Hist.add h.flush_train (float_of_int t.tx_queued)
    | None -> ());
    t.tx_queued <- 0
  end;
  t.transport.Transport.flush ()

let rec send_due t ~now =
  match Timers.pop_due t.delayed ~now with
  | None -> ()
  | Some { peer; data; on_failed } ->
      send t ~peer ~on_failed data;
      send_due t ~now

let next_deadline t client =
  match (client.next_deadline (), Timers.peek_deadline t.delayed) with
  | None, d | d, None -> d
  | Some a, Some b -> Some (min a b)

(* Drain at most [budget] datagrams: the budget is the fairness knob — one
   blast sender saturating the socket cannot starve the other flows'
   timers. A batching transport serves the whole budget out of one or two
   [recvmmsg] rings. Returns how many datagrams it consumed. *)
let rec drain t client budget =
  if budget <= 0 then 0
  else
    match t.transport.Transport.poll () with
    | `Empty -> 0
    | `Datagram view ->
        client.receive ~now:(t.clock ()) view;
        1 + drain t client (budget - 1)

let account t client h ~now ~pre_wait ~resumed ~drained =
  h.ticks <- h.ticks + 1;
  if drained > 0 then Obs.Hist.add h.recv_drained (float_of_int drained);
  if drained >= t.drain_budget then h.drain_exhausted <- h.drain_exhausted + 1;
  (* A wakeup that found no datagram and no due timer did nothing at all. *)
  if drained = 0 then begin
    let timer_due =
      match next_deadline t client with Some d -> d - t.clock () <= 0 | None -> false
    in
    if (not timer_due) && not (Atomic.get t.stopped) then
      h.spurious_wakeups <- h.spurious_wakeups + 1
  end;
  (* Work time only — the blocking wait between [pre_wait] and [resumed]
     is idleness, not load, and would drown the signal at 50 ms a tick. *)
  Obs.Hist.add h.tick_duration_ns (float_of_int (pre_wait - now + (t.clock () - resumed)))

let run t client =
  let finished () = Atomic.get t.stopped || client.finished () in
  while not (finished ()) do
    let now = t.clock () in
    send_due t ~now;
    client.due ~now;
    (* Everything the timers and the previous drain queued goes out as one
       train; acks never wait longer than one loop round. *)
    flush t;
    if not (finished ()) then begin
      (* The wait is derived purely from pending work: the earliest
         deadline, or until traffic or a wake when nothing is pending. *)
      let timeout_ns = Option.map (fun d -> max 0 (d - now)) (next_deadline t client) in
      let pre_wait = t.clock () in
      let resumed, drained =
        match t.transport.Transport.recv ~timeout_ns with
        | `Timeout -> (t.clock (), 0)
        | `Datagram view ->
            let resumed = t.clock () in
            client.receive ~now:resumed view;
            (resumed, 1 + drain t client (t.drain_budget - 1))
      in
      flush t;
      match t.health with
      | Some h -> account t client h ~now ~pre_wait ~resumed ~drained
      | None -> ()
    end
  done

(* Nudge a blocked loop: its next [recv] returns promptly. Safe from any
   thread (the transport's wake is); a no-op on transports without the
   capability. *)
let wake t = Option.iter (fun w -> w ()) t.transport.Transport.wake

let stop t =
  Atomic.set t.stopped true;
  wake t
