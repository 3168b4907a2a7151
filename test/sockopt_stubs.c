/* Socket options the tests need and OCaml's Unix module cannot set.

   SO_NO_CHECK sends UDP without checksums, which makes Linux refuse every
   GSO (UDP_SEGMENT) message with EINVAL: the way the batch tests drive the
   refusal path on a kernel that otherwise supports GSO. */

#include <caml/mlvalues.h>

#ifdef __linux__
#include <sys/socket.h>
#endif

/* (fd) -> whether the kernel took SO_NO_CHECK. */
CAMLprim value lanrepro_test_set_no_check(value vfd)
{
#ifdef __linux__
  int on = 1;
  return Val_bool(setsockopt(Int_val(vfd), SOL_SOCKET, SO_NO_CHECK, &on, sizeof(on)) == 0);
#else
  (void)vfd;
  return Val_false;
#endif
}
