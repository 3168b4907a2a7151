(** Binary wire format.

    Layout (all integers big-endian):
    {v
      0  magic      0xB1A5                    (2 bytes)
      2  version    1 | 2                     (1)
      3  kind                                 (1)
      4  transfer_id                          (4)
      8  seq                                  (4)
      12 total                                (4)
      16 payload length                       (2)
      18 header checksum (Internet, field 0)  (2)
      20 payload CRC-32                       (4)
      24 payload ...                          (v1)
      24 receiver budget                      (4, v2 only)
      28 payload ...                          (v2)
    v}

    A message with [budget = None] encodes as v1 — byte-identical to the
    pre-budget wire format — so old peers interoperate until both ends have
    opted into adaptive trains. [decode] accepts both versions. *)

type error =
  | Too_short
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Bad_header_checksum
  | Bad_payload_checksum
  | Length_mismatch of { declared : int; actual : int }

val pp_error : Format.formatter -> error -> unit

val header_bytes : int
(** v1 header size; also the minimum decodable datagram. *)

val header_bytes_v2 : int

val encode : Message.t -> bytes

val decode : bytes -> (Message.t, error) result
(** Rejects truncated, corrupted or trailing-garbage datagrams. *)

val decode_sub : bytes -> pos:int -> len:int -> (Message.t, error) result
(** {!decode} of the [len] bytes at [pos], read in place: the header
    checksum and the payload CRC are verified without copying or modifying
    [buf], and only the payload is copied out. An out-of-range window is
    [Error Too_short], never an exception. *)
