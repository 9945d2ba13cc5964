/* sampler.c: an LD_PRELOAD CPU sampler for wall-time profiles.
 *
 * Every ITIMER_PROF tick (process CPU time) the SIGPROF handler records the
 * interrupted instruction pointer and, on the main thread, the return
 * addresses found by walking the frame-pointer chain.  At exit the samples
 * and a copy of /proc/self/maps go to one text file, which resolve.py turns
 * into leaf-function and per-layer tables.  Unlike gprof it adds no code to
 * each call, and it sees time spent in libc and libstdc++.
 *
 * Build (outside the project build):
 *   cc -O2 -shared -fPIC -Wl,-z,now -o libsampler.so tools/profile/sampler.c
 * Run a binary built with -fno-omit-frame-pointer:
 *   SAMPLER_OUT=prof.txt LD_PRELOAD=$PWD/libsampler.so ./perfbench ...
 *
 * File format: the lines of /proc/self/maps, a line "samples dropped N",
 * then one line per sample: hex addresses, leaf first.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxDepth = 64 };
enum { kHz = 1000 };  /* asked-for rate; the kernel may tick slower */
static const size_t kMaxWords = 8u << 20;  /* sample buffer, in words */

static uint64_t* words;        /* [depth, pc0, pc1, ...] per sample */
static volatile size_t used;   /* words written */
static volatile size_t dropped;
static uintptr_t stack_lo;     /* lowest address the main stack may reach */
static uintptr_t stack_top;    /* end of the main thread's stack mapping */

/* End address of the mapping named "[stack]", or 0. */
static uintptr_t find_stack_top(void) {
  FILE* f = fopen("/proc/self/maps", "r");
  if (f == NULL) return 0;
  char line[512];
  uintptr_t top = 0;
  while (fgets(line, sizeof line, f) != NULL) {
    if (strstr(line, "[stack]") != NULL) {
      unsigned long lo, hi;
      if (sscanf(line, "%lx-%lx", &lo, &hi) == 2) top = hi;
      break;
    }
  }
  fclose(f);
  return top;
}

static void on_prof(int sig, siginfo_t* info, void* uc_void) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)uc_void;
  uint64_t pcs[kMaxDepth];
  size_t depth = 0;
  pcs[depth++] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
  /* Only the main thread's stack bounds are known, so only a stack pointer
   * inside them is walked.  Each frame must lie above the last and inside
   * the stack.  The handler calls no function: a lazily bound symbol would
   * enter the dynamic linker from a signal. */
  uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
  if (sp >= stack_lo && sp < stack_top) {
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    while (depth < kMaxDepth && fp >= sp && fp % 8 == 0 &&
           fp + 16 <= stack_top) {
      const uintptr_t* frame = (const uintptr_t*)fp;
      const uintptr_t ret = frame[1];
      if (ret < 4096) break;
      pcs[depth++] = ret;
      if (frame[0] <= fp) break;
      sp = fp;
      fp = frame[0];
    }
  }
  const size_t at = used;
  if (at + depth + 1 > kMaxWords) {
    ++dropped;
    return;
  }
  words[at] = depth;
  for (size_t i = 0; i < depth; ++i) words[at + 1 + i] = pcs[i];
  used = at + depth + 1;
}

static void copy_maps(FILE* out) {
  FILE* f = fopen("/proc/self/maps", "r");
  if (f == NULL) return;
  char line[4096];
  while (fgets(line, sizeof line, f) != NULL) fputs(line, out);
  fclose(f);
}

__attribute__((constructor)) static void sampler_start(void) {
  const char* out = getenv("SAMPLER_OUT");
  if (out == NULL || *out == '\0') return;
  /* Untouched pages of the mapping cost no resident memory. */
  void* mem = mmap(NULL, kMaxWords * sizeof(uint64_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return;
  words = (uint64_t*)mem;
  stack_top = find_stack_top();
  struct rlimit lim;
  uintptr_t reach = 8u << 20;
  if (getrlimit(RLIMIT_STACK, &lim) == 0 && lim.rlim_cur != RLIM_INFINITY &&
      lim.rlim_cur < stack_top) {
    reach = lim.rlim_cur;
  }
  stack_lo = stack_top - reach;

  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = 1000000 / kHz;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
  if (words == NULL) return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  FILE* f = fopen(getenv("SAMPLER_OUT"), "w");
  if (f == NULL) return;
  copy_maps(f);
  fprintf(f, "samples dropped %zu\n", (size_t)dropped);
  size_t n = 0;
  for (size_t at = 0; at < used; at += words[at] + 1, ++n) {
    for (uint64_t i = 1; i <= words[at]; ++i) {
      fprintf(f, i == 1 ? "%lx" : " %lx", (unsigned long)words[at + i]);
    }
    fputc('\n', f);
  }
  fclose(f);
  fprintf(stderr, "sampler: %zu samples (%zu dropped) -> %s\n", n,
          (size_t)dropped, getenv("SAMPLER_OUT"));
}
