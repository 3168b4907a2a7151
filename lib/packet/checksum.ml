let internet ?(initial = 0) buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Checksum.internet: range out of bounds";
  let sum = ref initial in
  let i = ref pos in
  let stop = pos + len in
  while !i + 1 < stop do
    sum := !sum + (Char.code (Bytes.get buf !i) lsl 8) + Char.code (Bytes.get buf (!i + 1));
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.get buf !i) lsl 8);
  let folded = ref !sum in
  while !folded > 0xFFFF do
    folded := (!folded land 0xFFFF) + (!folded lsr 16)
  done;
  lnot !folded land 0xFFFF

(* CRC-32 is the per-byte cost of the data path: it runs over every payload
   byte at encode, at decode, and over the whole segment at both ends. The
   kernel is a slicing-by-8 C stub (crc32_stubs.c) whose tables are built
   here, once, at module initialisation — before any domain can race to
   build them. It neither allocates nor raises; the range check stays on
   this side, so a bad range is an [Invalid_argument], never a stray read. *)
external crc32_init : unit -> unit = "lanrepro_crc32_init"
external crc32_kernel : bytes -> int -> int -> int = "lanrepro_crc32" [@@noalloc]

let () = crc32_init ()

let crc32 buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Checksum.crc32: range out of bounds";
  Int32.of_int (crc32_kernel buf pos len)

let crc32_string s = crc32 (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
