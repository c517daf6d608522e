/* System calls the OCaml Unix library does not expose: wait4(2), and a
   nanosecond monotonic clock. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* [perfbench_wait4 pid] blocks until [pid] ends and returns
   (exit code, or minus the signal number; peak RSS in KiB). */
/* A short-lived `uload open` child's peak resident set is only
   observable from its rusage. */
value perfbench_wait4(value v_pid)
{
  CAMLparam1(v_pid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  do {
    caml_enter_blocking_section();
    r = wait4(Int_val(v_pid), &status, 0, &ru);
    caml_leave_blocking_section();
  } while (r < 0 && errno == EINTR);
  if (r < 0) uerror("wait4", Nothing);
  res = caml_alloc_tuple(2);
  if (WIFEXITED(status))
    Store_field(res, 0, Val_int(WEXITSTATUS(status)));
  else if (WIFSIGNALED(status))
    Store_field(res, 0, Val_int(-WTERMSIG(status)));
  else
    Store_field(res, 0, Val_int(-255));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* CLOCK_MONOTONIC in nanoseconds: gettimeofday's microseconds, stored
   as float seconds since the epoch, quantize the sub-10us layer spans. */
value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

