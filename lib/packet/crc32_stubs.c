/* Slicing-by-8 CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320,
   init and xorout 0xFFFFFFFF).

   Every payload byte is checksummed on each encode and decode, and the
   whole segment once more at each end of a transfer, so this loop runs
   over every byte the system moves four times. A byte-at-a-time table walk
   has a serial dependency through the running CRC on every byte; slicing
   by eight folds eight bytes into it per step through eight derived tables
   (Kounavis & Berry), about seven times faster than the table loop in
   OCaml on an x86-64 Xeon.

   Table k maps a byte to its contribution k bytes further down the
   stream: table[0] is the classic byte table, table[k][n] =
   (table[k-1][n] >> 8) ^ table[0][table[k-1][n] & 0xff]. The tables are
   filled once, by lanrepro_crc32_init at module initialisation (before any
   domain can call the kernel), and are read-only afterwards.

   Words are assembled byte by byte, so the result does not depend on host
   endianness or alignment; compilers fold the shifts into one load where
   the host allows it. The kernel neither allocates nor raises, which is
   what lets the OCaml side declare it [@@noalloc]. Range checks stay on
   the OCaml side. */

#include <caml/mlvalues.h>

#include <stddef.h>
#include <stdint.h>

static uint32_t crc_tables[8][256];

CAMLprim value lanrepro_crc32_init(value unit)
{
  uint32_t n, c;
  int k;
  (void)unit;
  for (n = 0; n < 256; n++) {
    c = n;
    for (k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_tables[0][n] = c;
  }
  for (n = 0; n < 256; n++) {
    c = crc_tables[0][n];
    for (k = 1; k < 8; k++) {
      c = (c >> 8) ^ crc_tables[0][c & 0xff];
      crc_tables[k][n] = c;
    }
  }
  return Val_unit;
}

/* (bytes, pos, len) -> CRC as a non-negative int in [0, 2^32). */
CAMLprim value lanrepro_crc32(value vbuf, value vpos, value vlen)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(vbuf) + Long_val(vpos);
  size_t len = (size_t)Long_val(vlen);
  uint32_t crc = 0xFFFFFFFFu;
  while (len >= 8) {
    uint32_t lo = crc ^ ((uint32_t)p[0] | (uint32_t)p[1] << 8
                         | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24);
    crc = crc_tables[7][lo & 0xff] ^ crc_tables[6][(lo >> 8) & 0xff]
        ^ crc_tables[5][(lo >> 16) & 0xff] ^ crc_tables[4][lo >> 24]
        ^ crc_tables[3][p[4]] ^ crc_tables[2][p[5]]
        ^ crc_tables[1][p[6]] ^ crc_tables[0][p[7]];
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    crc = (crc >> 8) ^ crc_tables[0][(crc ^ *p) & 0xff];
    p++;
    len--;
  }
  return Val_long((long)(crc ^ 0xFFFFFFFFu));
}
