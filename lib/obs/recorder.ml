let log = Logs.Src.create "obs.recorder" ~doc:"telemetry flight recorder"

module Log = (val Logs.src_log log : Logs.LOG)

type t = {
  ring : Event.t option array;
  mutable next : int;  (** next write slot *)
  mutable total : int;
  mutable clock : unit -> int;
  mutable origin : int option;  (** raw timestamp of the first event *)
  mutable postmortem_path : string option;
  lock : Mutex.t;
}

let default_clock () =
  (* A logical tick counter: still monotone, so journals recorded without a
     real clock keep their ordering. Atomic because [emit] samples the clock
     outside the ring lock, and recorders are now shared across domains. *)
  let ticks = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add ticks 1 + 1

let create ?(capacity = 4096) ?now ?postmortem () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  {
    ring = Array.make capacity None;
    next = 0;
    total = 0;
    clock = (match now with Some f -> f | None -> default_clock ());
    origin = None;
    postmortem_path = postmortem;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_clock t now = t.clock <- now
let set_postmortem t path = t.postmortem_path <- Some path
let capacity t = Array.length t.ring

let record t event =
  locked t (fun () ->
      t.ring.(t.next) <- Some event;
      t.next <- (t.next + 1) mod Array.length t.ring;
      t.total <- t.total + 1)

let emit t ~lane ~kind ?detail ?seq () =
  let raw = t.clock () in
  locked t (fun () ->
      let origin =
        match t.origin with
        | Some o -> o
        | None ->
            t.origin <- Some raw;
            raw
      in
      (* The clock is monotone on both transports, but normalize defensively:
         the journal contract is non-negative timestamps. *)
      let ts_ns = max 0 (raw - origin) in
      t.ring.(t.next) <- Some (Event.make ~ts_ns ~lane ~kind ?detail ?seq ());
      t.next <- (t.next + 1) mod Array.length t.ring;
      t.total <- t.total + 1)

let events t =
  locked t (fun () ->
      let n = Array.length t.ring in
      let kept = min t.total n in
      let oldest = (t.next - kept + n) mod n in
      List.init kept (fun i ->
          match t.ring.((oldest + i) mod n) with
          | Some e -> e
          | None -> assert false))

let total t = locked t (fun () -> t.total)

let clear t =
  locked t (fun () ->
      Array.fill t.ring 0 (Array.length t.ring) None;
      t.next <- 0;
      t.total <- 0;
      t.origin <- None)

let postmortem t ~reason =
  let recorded = events t in
  if recorded = [] then None
  else begin
    let dropped = total t - List.length recorded in
    let dump () =
      let path =
        match t.postmortem_path with
        | Some p -> p
        | None -> Filename.temp_file "lanrepro-flight" ".jsonl"
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (Json.to_string
               (Json.Obj [ ("postmortem", Json.String reason); ("dropped", Json.Int dropped) ]));
          output_char oc '\n';
          List.iter
            (fun event ->
              output_string oc (Json.to_string (Event.to_json event));
              output_char oc '\n')
            recorded;
          flush oc);
      path
    in
    (* A dump is a diagnostic: a full disk or an unusable temp directory
       must not turn the failure it documents into a crash. *)
    match dump () with
    | path ->
        Log.warn (fun f ->
            f "flight recorder: %d events dumped to %s (%s)" (List.length recorded) path reason);
        Some path
    | exception Sys_error msg ->
        Log.warn (fun f -> f "flight recorder: dump failed (%s): %s" reason msg);
        None
  end
