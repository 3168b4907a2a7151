/* Batched datagram I/O: sendmmsg(2) / recvmmsg(2), with UDP GSO on send
   and UDP GRO on receive.

   The blast hot path pays one syscall per datagram through Unix.sendto /
   Unix.recvfrom — the modern analogue of the paper's per-packet "copy into
   the interface" cost. These stubs submit a whole packet train in one
   kernel crossing, and hand the kernel each run of equal-size datagrams
   for one peer as a single UDP message that it segments itself (GSO), so
   the train also traverses the stack once rather than once per datagram.
   A receiving socket with UDP_GRO set gets such a train back as one
   coalesced slot plus its segment size, which the OCaml side cuts apart.

   Portability contract (the OCaml side, Batch, enforces the fallback):
   - compile-time: the syscalls are Linux-only, so everything is gated on
     __linux__ and other platforms get a stub that reports "unsupported";
   - run-time: a Linux build running on a kernel without the syscalls gets
     ENOSYS, which is surfaced as the same "unsupported" code (-2), never an
     exception. A kernel without UDP_SEGMENT/UDP_GRO answers the option
     probes with "no", and one that refuses a GSO message gets -3.

   Both stubs pass MSG_DONTWAIT and therefore never block, which is why they
   can keep the OCaml runtime lock: no GC can move the iovec targets between
   building the vectors and the syscall returning, so the Bytes buffers are
   used in place with zero copies.

   GSO grouping (sendmmsg with gso = true): a message is a run of entries
   that share the first entry's peer and length; one shorter, non-empty
   datagram may close the run (the kernel cuts at segment boundaries, so a
   short one anywhere else would be silently re-cut). A run holds at most
   LANREPRO_GSO_MAX_SEGS segments and LANREPRO_GSO_MAX_BYTES bytes. A run of
   one is sent as a plain datagram, with no control message. Every entry
   keeps its own iovec: nothing is copied.

   Return conventions (negative codes — the OCaml caller resolves errors
   through the one-datagram path so error semantics stay identical to the
   unbatched transport):
     sendmmsg:  n >= 0  datagrams (not messages) accepted by the kernel
                -1      error on the *first* message (caller resolves its
                        first datagram through Unix.sendto and carries on)
                -2      unsupported (non-Linux build, or runtime ENOSYS)
                -3      the kernel refused a GSO message at the head
                        (EINVAL, EIO, ENOPROTOOPT, EOPNOTSUPP): nothing was
                        sent; the caller stops grouping and resubmits
     recvmmsg:  n >= 0  slots filled
                -1      nothing ready (EAGAIN/EWOULDBLOCK/EINTR)
                -2      unsupported
                -3      pending ICMP error consumed (ECONNREFUSED) — retry
                any other error raises Unix.Unix_error, exactly as the
                unbatched Unix.recvfrom would

   Metadata travels in one flat int array. For sendmmsg the OCaml side
   fills 3 slots per datagram:
     meta[3i]   = datagram length (bytes)
     meta[3i+1] = IPv4 address, host byte order
     meta[3i+2] = UDP port, host byte order
   For recvmmsg the stub fills 4 slots per ring slot:
     meta[4i]   = slot length (bytes) — a whole coalesced train under GRO
     meta[4i+1] = IPv4 address, host byte order
     meta[4i+2] = UDP port, host byte order
     meta[4i+3] = segment size from the UDP_GRO control message, or 0 when
                  the slot holds one datagram */

#define _GNU_SOURCE

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <stdint.h>
#include <string.h>

#ifdef __linux__
#include <sys/types.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#ifndef SOL_UDP
#define SOL_UDP 17
#endif
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif
#endif

/* Hard cap on one submission; the OCaml side windows larger batches. Keeps
   the per-call vectors on the stack: 256 * (hdr + iovec + sockaddr + cmsg)
   < 40 KiB. */
#define LANREPRO_MMSG_MAX 256

/* Segments in one GSO message: the UDP_MAX_SEGMENTS of pre-6.x kernels
   (newer ones allow 128; more is EINVAL). */
#define LANREPRO_GSO_MAX_SEGS 64

/* Bytes in one GSO message: the IPv4 UDP payload limit (more is
   EMSGSIZE). */
#define LANREPRO_GSO_MAX_BYTES 65507

CAMLprim value lanrepro_mmsg_supported(value unit)
{
#ifdef __linux__
  (void)unit;
  return Val_true;
#else
  (void)unit;
  return Val_false;
#endif
}

/* (fd) -> whether the kernel knows UDP_SEGMENT. A kernel that predates it
   would ignore the control message and send each group as one oversized
   datagram, so grouping is only ever tried after this says yes. */
CAMLprim value lanrepro_udp_segment_supported(value vfd)
{
#ifdef __linux__
  int v = 0;
  socklen_t len = sizeof(v);
  return Val_bool(getsockopt(Int_val(vfd), SOL_UDP, UDP_SEGMENT, &v, &len) == 0);
#else
  (void)vfd;
  return Val_false;
#endif
}

/* (fd, on) -> whether the kernel took the setting. With UDP_GRO on, a
   train sent with GSO stays one slot on its way into this socket. */
CAMLprim value lanrepro_set_udp_gro(value vfd, value von)
{
#ifdef __linux__
  int on = Bool_val(von);
  return Val_bool(setsockopt(Int_val(vfd), SOL_UDP, UDP_GRO, &on, sizeof(on)) == 0);
#else
  (void)vfd; (void)von;
  return Val_false;
#endif
}

#ifdef __linux__
/* End (exclusive) of the GSO group that starts at entry [i], stopping
   before [end]: see the grouping rule in the header. */
static int gso_group_end(value vmeta, int i, int end)
{
  long seg = Long_val(Field(vmeta, 3 * i));
  long addr = Long_val(Field(vmeta, 3 * i + 1));
  long port = Long_val(Field(vmeta, 3 * i + 2));
  long total = seg;
  int j = i + 1;
  if (seg <= 0) return j;
  while (j < end && j - i < LANREPRO_GSO_MAX_SEGS) {
    long len = Long_val(Field(vmeta, 3 * j));
    if (Long_val(Field(vmeta, 3 * j + 1)) != addr
        || Long_val(Field(vmeta, 3 * j + 2)) != port
        || len <= 0 || len > seg || total + len > LANREPRO_GSO_MAX_BYTES)
      break;
    total += len;
    j++;
    if (len < seg) break; /* a short datagram closes its group */
  }
  return j;
}
#endif

/* (fd, off, n, gso, bufs, meta) -> count or negative code. Sends entries
   [off, off+n) of [bufs]/[meta], grouped for GSO when [gso]. */
CAMLprim value lanrepro_sendmmsg(value vfd, value voff, value vn, value vgso, value vbufs,
                                 value vmeta)
{
#ifdef __linux__
  int off = Int_val(voff);
  int n = Int_val(vn);
  int gso = Bool_val(vgso);
  struct mmsghdr msgs[LANREPRO_MMSG_MAX];
  struct iovec iov[LANREPRO_MMSG_MAX];
  struct sockaddr_in sin[LANREPRO_MMSG_MAX];
  union {
    char buf[CMSG_SPACE(sizeof(uint16_t))];
    struct cmsghdr align;
  } ctrl[LANREPRO_MMSG_MAX];
  int counts[LANREPRO_MMSG_MAX];
  int i, k, m, r, sent;
  if (n <= 0) return Val_int(0);
  if (n > LANREPRO_MMSG_MAX) n = LANREPRO_MMSG_MAX;
  memset(msgs, 0, (size_t)n * sizeof(struct mmsghdr));
  for (i = off, m = 0; i < off + n; m++) {
    int j = gso ? gso_group_end(vmeta, i, off + n) : i + 1;
    memset(&sin[m], 0, sizeof(sin[m]));
    sin[m].sin_family = AF_INET;
    sin[m].sin_addr.s_addr = htonl((uint32_t)Long_val(Field(vmeta, 3 * i + 1)));
    sin[m].sin_port = htons((uint16_t)Long_val(Field(vmeta, 3 * i + 2)));
    for (k = i; k < j; k++) {
      iov[k - off].iov_base = Bytes_val(Field(vbufs, k));
      iov[k - off].iov_len = (size_t)Long_val(Field(vmeta, 3 * k));
    }
    msgs[m].msg_hdr.msg_name = &sin[m];
    msgs[m].msg_hdr.msg_namelen = sizeof(sin[m]);
    msgs[m].msg_hdr.msg_iov = &iov[i - off];
    msgs[m].msg_hdr.msg_iovlen = (size_t)(j - i);
    if (j - i > 1) {
      uint16_t seg = (uint16_t)Long_val(Field(vmeta, 3 * i));
      struct cmsghdr *cm;
      msgs[m].msg_hdr.msg_control = ctrl[m].buf;
      msgs[m].msg_hdr.msg_controllen = sizeof(ctrl[m].buf);
      cm = CMSG_FIRSTHDR(&msgs[m].msg_hdr);
      cm->cmsg_level = SOL_UDP;
      cm->cmsg_type = UDP_SEGMENT;
      cm->cmsg_len = CMSG_LEN(sizeof(seg));
      memcpy(CMSG_DATA(cm), &seg, sizeof(seg));
    }
    counts[m] = j - i;
    i = j;
  }
  r = sendmmsg(Int_val(vfd), msgs, (unsigned int)m, MSG_DONTWAIT);
  if (r < 0) {
    if (errno == ENOSYS) return Val_int(-2);
    if (counts[0] > 1
        && (errno == EINVAL || errno == EIO || errno == ENOPROTOOPT || errno == EOPNOTSUPP))
      return Val_int(-3);
    return Val_int(-1);
  }
  for (sent = 0, k = 0; k < r; k++) sent += counts[k];
  return Val_int(sent);
#else
  (void)vfd; (void)voff; (void)vn; (void)vgso; (void)vbufs; (void)vmeta;
  return Val_int(-2);
#endif
}

CAMLprim value lanrepro_sendmmsg_byte(value *argv, int argn)
{
  (void)argn;
  return lanrepro_sendmmsg(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* (fd, n, bufs, meta) -> count or negative code. Fills slots [0, n) of
   [bufs] and the matching [meta] quadruples. Every buffer must be
   max-datagram-sized; a larger datagram would otherwise be silently
   truncated (MSG_TRUNC), which the wire codec would then misreport. A
   coalesced train is at most 64 KiB too, so the same holds under GRO. */
CAMLprim value lanrepro_recvmmsg(value vfd, value vn, value vbufs, value vmeta)
{
#ifdef __linux__
  int n = Int_val(vn);
  struct mmsghdr msgs[LANREPRO_MMSG_MAX];
  struct iovec iov[LANREPRO_MMSG_MAX];
  struct sockaddr_in sin[LANREPRO_MMSG_MAX];
  union {
    char buf[CMSG_SPACE(sizeof(int))];
    struct cmsghdr align;
  } ctrl[LANREPRO_MMSG_MAX];
  int i, r;
  if (n <= 0) return Val_int(0);
  if (n > LANREPRO_MMSG_MAX) n = LANREPRO_MMSG_MAX;
  memset(msgs, 0, (size_t)n * sizeof(struct mmsghdr));
  for (i = 0; i < n; i++) {
    iov[i].iov_base = Bytes_val(Field(vbufs, i));
    iov[i].iov_len = caml_string_length(Field(vbufs, i));
    msgs[i].msg_hdr.msg_name = &sin[i];
    msgs[i].msg_hdr.msg_namelen = sizeof(sin[i]);
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_control = ctrl[i].buf;
    msgs[i].msg_hdr.msg_controllen = sizeof(ctrl[i].buf);
  }
  r = recvmmsg(Int_val(vfd), msgs, (unsigned int)n, MSG_DONTWAIT, NULL);
  if (r < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return Val_int(-1);
    if (errno == ECONNREFUSED) return Val_int(-3);
    if (errno == ENOSYS) return Val_int(-2);
    caml_uerror("recvmmsg", Nothing);
  }
  for (i = 0; i < r; i++) {
    long addr = 0, port = 0;
    int seg = 0;
    struct cmsghdr *cm;
    if (msgs[i].msg_hdr.msg_namelen >= sizeof(struct sockaddr_in)
        && sin[i].sin_family == AF_INET) {
      addr = (long)ntohl(sin[i].sin_addr.s_addr);
      port = (long)ntohs(sin[i].sin_port);
    }
    for (cm = CMSG_FIRSTHDR(&msgs[i].msg_hdr); cm != NULL;
         cm = CMSG_NXTHDR(&msgs[i].msg_hdr, cm))
      if (cm->cmsg_level == SOL_UDP && cm->cmsg_type == UDP_GRO)
        memcpy(&seg, CMSG_DATA(cm), sizeof(seg));
    /* Immediates only: no write barrier needed on an int array. */
    Field(vmeta, 4 * i) = Val_long((long)msgs[i].msg_len);
    Field(vmeta, 4 * i + 1) = Val_long(addr);
    Field(vmeta, 4 * i + 2) = Val_long(port);
    Field(vmeta, 4 * i + 3) = Val_long((long)seg);
  }
  return Val_int(r);
#else
  (void)vfd; (void)vn; (void)vbufs; (void)vmeta;
  return Val_int(-2);
#endif
}
