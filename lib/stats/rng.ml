(* The four xoshiro256** words live in one 32-byte buffer, read and written
   as raw 64-bit integers, so a draw never boxes a stored word: mutable
   [int64] record fields would box every assignment, 168 bytes per draw. *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_ne t (i * 8)
let[@inline] set t i word = Bytes.set_int64_ne t (i * 8) word

(* splitmix64 is used only to expand the seed into the four xoshiro words; it
   guarantees a non-zero state for any seed. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let expand state =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix64_next state)
  done;
  t

let create ~seed = expand (ref (Int64.of_int seed))

let derive ~root ~index =
  if index < 0 then invalid_arg "Rng.derive: index must be non-negative";
  (* Finalize the root, fold the raw index into the result, and finalize
     again before expanding: both arguments go through a full splitmix64
     avalanche, so adjacent roots or adjacent indices land on unrelated
     xoshiro states. The naive [root * k + index] seeding this replaces
     made trial [i+1] of seed [s] collide with trial [i] of nearby seeds
     and kept derived states linearly related. *)
  let state = ref (Int64.of_int root) in
  let mixed_root = splitmix64_next state in
  let state = ref (Int64.logxor mixed_root (Int64.of_int index)) in
  expand (ref (splitmix64_next state))

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 1 (logxor s1 s2);
  set t 2 (logxor s2 (shift_left s1 17));
  set t 3 (rotl s3 45);
  result

let copy = Bytes.copy

let split t =
  (* Derive a fresh seed from the parent stream and re-expand it; this is the
     standard splitmix-style split and keeps the two streams decorrelated. *)
  let seed = Int64.to_int (bits64 t) land max_int in
  create ~seed

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let nonnegative = Int64.to_int (bits64 t) land max_int in
  nonnegative mod bound

let[@inline] float t =
  (* 53 high-quality bits mapped to [0,1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t ~p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Rng.bernoulli: p outside [0,1]";
  float t < p

let geometric t ~p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Rng.geometric: p outside (0,1]";
  if p = 1.0 then 0
  else
    let u = float t in
    (* Inverse CDF: failures = floor(log(1-u) / log(1-p)). *)
    let failures = Stdlib.log1p (-.u) /. Stdlib.log1p (-.p) in
    int_of_float failures

let exponential t ~mean =
  if not (mean > 0.0) then invalid_arg "Rng.exponential: mean must be positive";
  -.mean *. Stdlib.log1p (-.(float t))

let uniform_float t ~lo ~hi =
  if not (hi > lo) then invalid_arg "Rng.uniform_float: empty interval";
  lo +. ((hi -. lo) *. float t)

let string t n =
  if n < 0 then invalid_arg "Rng.string: negative length";
  let buf = Bytes.create n in
  let full = n / 8 in
  for i = 0 to full - 1 do
    Bytes.set_int64_le buf (i * 8) (bits64 t)
  done;
  if n land 7 <> 0 then begin
    let word = bits64 t in
    for i = full * 8 to n - 1 do
      Bytes.set_uint8 buf i (Int64.to_int (Int64.shift_right_logical word ((i land 7) * 8)) land 0xff)
    done
  end;
  Bytes.unsafe_to_string buf

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
