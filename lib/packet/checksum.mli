(** Checksums used by the wire format.

    The 16-bit ones'-complement ("Internet") checksum protects the header;
    CRC-32 (IEEE 802.3, the Ethernet polynomial) protects the payload —
    matching the paper's setting where the data link layer CRC is the only
    integrity check. *)

val internet : ?initial:int -> bytes -> pos:int -> len:int -> int
(** Ones'-complement sum over the given range (odd lengths are zero-padded),
    folded to 16 bits and complemented. Result in [0, 0xFFFF]. *)

val crc32 : bytes -> pos:int -> len:int -> int32
(** IEEE CRC-32 (reflected, init/xorout 0xFFFFFFFF) over the range. Raises
    [Invalid_argument] when the range does not lie inside [buf].

    The kernel is slicing-by-8 in C (eight bytes folded into the CRC per
    step through eight 256-entry tables, built once at module
    initialisation), declared [[@@noalloc]]: about seven times faster than
    a byte-at-a-time OCaml table loop on an x86-64 Xeon (0.57 against
    4.1 ns per byte), with the same result. It is safe to call from any
    domain. *)

val crc32_string : string -> int32
