#pragma once
// Machine fingerprint and explicit thread placement.

#include <sys/types.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The CPUs this process may run on (sched_getaffinity), ascending.
std::vector<int> AllowedCpus();

/// The CPU that thread role `slot` runs on: slot i takes the i-th allowed
/// CPU, wrapping when fewer CPUs are allowed than roles exist. Placement is
/// fixed by role, never left to the scheduler.
int CpuForSlot(int slot);

/// Pins thread `tid` (0: the calling thread) to the given CPUs. Threads the
/// pinned thread creates afterwards inherit the mask.
bool PinThread(pid_t tid, const std::vector<int>& cpus);
inline bool PinSelf(int cpu) { return PinThread(0, {cpu}); }

/// Thread ids of this process (/proc/self/task), ascending.
std::vector<pid_t> ThreadIds();

/// Ids in `after` that are not in `before` (both ascending): the threads a
/// library call spawned, in creation order.
std::vector<pid_t> NewThreads(const std::vector<pid_t>& before, const std::vector<pid_t>& after);

/// Runs `spawn`, a library call that starts threads, so that the threads
/// it starts run on `cpus`, one CPU each in creation order (threads beyond
/// the last CPU share it), then pins the caller to `self_cpu`. New threads
/// inherit the caller's mask, so none runs outside `cpus` even briefly.
/// The ids of the threads started are stored in `*spawned` when given.
template <typename Spawn>
auto SpawnPinned(const std::vector<int>& cpus, int self_cpu, Spawn&& spawn,
                 std::vector<pid_t>* spawned = nullptr) {
  PinThread(0, cpus);
  const std::vector<pid_t> before = ThreadIds();
  auto result = spawn();
  const std::vector<pid_t> ids = NewThreads(before, ThreadIds());
  for (size_t i = 0; i < ids.size(); ++i) {
    PinThread(ids[i], {cpus[std::min(i, cpus.size() - 1)]});
  }
  PinSelf(self_cpu);
  if (spawned != nullptr) *spawned = ids;
  return result;
}

/// Process peak resident set size in MiB (getrusage ru_maxrss).
double PeakRssMb();

/// CPU time consumed by the calling thread, in seconds.
double ThreadCpuSeconds();

/// CPU time consumed by all threads of this process, exited ones included,
/// in seconds.
double ProcessCpuSeconds();

/// CPU time consumed by thread `tid` of this process, in seconds
/// (/proc/self/task/<tid>/schedstat); 0 when the thread is gone.
double TaskCpuSeconds(pid_t tid);

// CPU times come from the scheduler's per-task runtime. Where the kernel
// accounts paravirtual steal time (CONFIG_PARAVIRT_TIME_ACCOUNTING), time
// the hypervisor gave a virtual CPU to another tenant is not in them, which
// is what makes the per-CPU-second throughputs steadier than wall-clock
// ones on a shared machine.

/// One-line JSON object: nproc, CPU model, ISA, active SIMD kernel, load
/// average at start, and the seed.
std::string FingerprintJson(uint64_t seed);

}  // namespace perfbench
