/* Child-process accounting and a nanosecond clock for the benchmark.

   OCaml's Unix library reaps children with waitpid, which discards the
   kernel's per-child resource usage.  wait4 returns it: user and system
   CPU time and the peak resident set of the reaped child.  On Linux the
   usage of a reaped child includes the children it reaped itself, so a
   daemon's figures cover its pool workers too. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

static double tv_seconds(struct timeval tv) {
  return (double)tv.tv_sec + (double)tv.tv_usec / 1e6;
}

/* [bench_wait4 pid nohang] returns
   (pid, status, user_s, sys_s, maxrss_kib).  [pid] is 0 when [nohang]
   is set and the child is still running.  [status] is the exit code
   for a normal exit and minus the signal number for a killed child. */
CAMLprim value bench_wait4(value vpid, value vnohang) {
  CAMLparam2(vpid, vnohang);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t pid;
  int flags = Bool_val(vnohang) ? WNOHANG : 0;
  caml_enter_blocking_section();
  do {
    pid = wait4(Int_val(vpid), &status, flags, &ru);
  } while (pid < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (pid < 0) uerror("wait4", Nothing);
  res = caml_alloc_tuple(5);
  Store_field(res, 0, Val_int(pid));
  if (pid == 0) {
    Store_field(res, 1, Val_int(0));
    Store_field(res, 2, caml_copy_double(0.));
    Store_field(res, 3, caml_copy_double(0.));
    Store_field(res, 4, Val_int(0));
    CAMLreturn(res);
  }
  int code = WIFEXITED(status)     ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? -WTERMSIG(status)
                                   : -255;
  Store_field(res, 1, Val_int(code));
  Store_field(res, 2, caml_copy_double(tv_seconds(ru.ru_utime)));
  Store_field(res, 3, caml_copy_double(tv_seconds(ru.ru_stime)));
  Store_field(res, 4, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* Monotonic clock in nanoseconds (fits OCaml's 63-bit int for
   centuries of uptime). */
CAMLprim value bench_clock_ns(value unit) {
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* Make this process the reaper of its orphaned descendants, so a pool
   worker that outlives its daemon becomes our child and can be found.
   Returns false where the platform has no such facility. */
CAMLprim value bench_set_subreaper(value unit) {
  (void)unit;
#if defined(__linux__) && defined(PR_SET_CHILD_SUBREAPER)
  return Val_bool(prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0);
#else
  return Val_false;
#endif
}

/* [bench_allowed_cpus ()] is the CPUs this process may run on, in
   increasing order; empty where the platform has no affinity call. */
CAMLprim value bench_allowed_cpus(value unit) {
  CAMLparam1(unit);
  CAMLlocal1(res);
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    res = caml_alloc_tuple(CPU_COUNT(&set));
    int k = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
      if (CPU_ISSET(cpu, &set)) Store_field(res, k++, Val_int(cpu));
    CAMLreturn(res);
  }
#endif
  CAMLreturn(Atom(0));
}

/* [bench_set_cpus cpus] confines this process, and the children it
   starts afterwards, to [cpus].  False where that fails. */
CAMLprim value bench_set_cpus(value vcpus) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(vcpus); i++) {
    int cpu = Int_val(Field(vcpus, i));
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  return Val_bool(CPU_COUNT(&set) > 0 && sched_setaffinity(0, sizeof set, &set) == 0);
#else
  (void)vcpus;
  return Val_false;
#endif
}
