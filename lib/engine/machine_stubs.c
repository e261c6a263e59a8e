/* CPU time of the calling thread.  Each OCaml 5 domain runs on its own
   system thread, so this charges a computation only for the cycles of
   the domain that ran it; the process clock behind Sys.time also counts
   every other domain running at the same time. */

#define _POSIX_C_SOURCE 199309L
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double hypart_thread_cpu_seconds_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
    return (double)clock() / CLOCKS_PER_SEC;
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value hypart_thread_cpu_seconds(value unit)
{
  return caml_copy_double(hypart_thread_cpu_seconds_unboxed(unit));
}
