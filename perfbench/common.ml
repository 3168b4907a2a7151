(* Clocks, resource readings and sample statistics shared by the workloads. *)

let now_ns = Sockets.Udp.now_ns

(* Process user+sys CPU seconds, every domain and thread included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set size in MiB ([VmHWM]); 0 when /proc is unavailable. *)
let peak_rss_mib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> float_of_int kb /. 1024.0
            | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

type gc = { minor : int; major : int; alloc_bytes : float }

(* Collections are program-wide; [alloc_bytes] is the calling domain's. *)
let gc () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
    alloc_bytes = Gc.allocated_bytes ();
  }

(* Linear-interpolated quantile of an unsorted sample; nan when empty. *)
let quantile samples q =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let a = Array.copy samples in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median samples = quantile samples 0.5

(* Quantile [q] of per-op samples in run order, as the median over
   consecutive segments of 1000 ops (the last one takes the remainder), so
   that a segment's p99 still has ten samples beyond it. A host hiccup that
   covers a few segments does not move the result. With fewer than 2000
   ops it is the plain quantile. *)
let segment_quantile samples q =
  let n = Array.length samples in
  let segments = max 1 (n / 1000) in
  let len = n / segments in
  median
    (Array.init segments (fun s ->
         let last = if s = segments - 1 then n else (s + 1) * len in
         quantile (Array.sub samples (s * len) (last - (s * len))) q))

(* Seeded bytes, eight per draw. *)
let payload rng bytes =
  let buf = Bytes.create bytes in
  for i = 0 to (bytes / 8) - 1 do
    Bytes.set_int64_le buf (i * 8) (Stats.Rng.bits64 rng)
  done;
  for i = bytes land lnot 7 to bytes - 1 do
    Bytes.set_uint8 buf i (Stats.Rng.int rng 256)
  done;
  Bytes.unsafe_to_string buf

(* Mean wall time of [f] in ns over [reps] calls, after one untimed call;
   the median of five such means, to shed scheduler hiccups. *)
let micro_ns ~reps f =
  f ();
  let means =
    Array.init 5 (fun _ ->
        let t0 = now_ns () in
        for _ = 1 to reps do
          f ()
        done;
        float_of_int (now_ns () - t0) /. float_of_int reps)
  in
  median means

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* A growable column of per-op samples. A float array holds no pointers, so
   the GC never scans it. On udp_* a major GC cycle runs every few
   transfers; per-op records kept on the heap would add marking work that
   grows with the run and slow its later blocks, a cost of the benchmark,
   not of the program. *)
type column = { mutable data : float array; mutable len : int }

let column () = { data = Array.make 1024 0.0; len = 0 }

let push c v =
  if c.len = Array.length c.data then begin
    let data = Array.make (2 * c.len) 0.0 in
    Array.blit c.data 0 data 0 c.len;
    c.data <- data
  end;
  c.data.(c.len) <- v;
  c.len <- c.len + 1

let values c = Array.sub c.data 0 c.len

(* Rate figures are taken per block of consecutive ops and reported as the
   median over blocks, so a host hiccup that covers a few blocks does not
   move the result. A mark is taken before the first op and after every
   [block] ops; ops after the last mark are in no block. *)
type mark = { ns : int; cpu : float }

let mark () = { ns = now_ns (); cpu = cpu_s () }

(* [(goodput Mbit/s, CPU ms per op)] medians over the marked blocks;
   [bits i] is the verified payload bits of op [i]. *)
let block_rates marks ~block ~bits =
  let blocks = Array.length marks - 1 in
  let goodput = Array.make blocks 0.0 and cpu = Array.make blocks 0.0 in
  for b = 0 to blocks - 1 do
    let total = ref 0.0 in
    for i = b * block to ((b + 1) * block) - 1 do
      total := !total +. bits i
    done;
    let m0 = marks.(b) and m1 = marks.(b + 1) in
    goodput.(b) <- !total /. (float_of_int (m1.ns - m0.ns) /. 1e9) /. 1e6;
    cpu.(b) <- (m1.cpu -. m0.cpu) *. 1e3 /. float_of_int block
  done;
  (median goodput, median cpu)
