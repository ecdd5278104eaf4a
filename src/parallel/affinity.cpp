#include "parallel/affinity.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

#include "fault/fault.h"

namespace bwfft {

bool pin_current_thread(int cpu) {
  // Fault site "pin": simulate the container / cpuset EINVAL the paper's
  // affinity scheme hits on restricted hosts. Callers must treat a false
  // return as "run unpinned", never as fatal.
  if (BWFFT_FAULT_POINT(fault::kSitePin)) return false;
#if defined(__linux__)
  const long ncpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (cpu < 0 || cpu >= ncpus) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace bwfft
