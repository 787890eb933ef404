// Host and build context recorded beside every result, and the process
// counters (CPU time, peak memory) the end-to-end metrics read.
#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Aggregate /proc/stat CPU ticks (all CPUs), for the steal share of a run.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks read_cpu_ticks();

/// User + system CPU seconds of this process, summed over all its threads.
double process_cpu_seconds();

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

/// Moves the calling thread to the next CPU of its affinity set at each
/// step(), and restores the original set when destroyed. A one-thread
/// workload otherwise stays on whichever vCPU the scheduler picked, and on a
/// shared host one vCPU can be slower than another for a whole run; stepping
/// every window lets each run see every vCPU. Without the permission to pin,
/// step() does nothing.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step();

 private:
  cpu_set_t original_{};
  std::vector<std::size_t> cpus_;
  std::size_t next_ = 0;
};

struct BuildInfo {
  std::string compiler;
  std::string build_type;
  std::string flags;
  bool optimized = false;  ///< built with -O3 and NDEBUG
};
BuildInfo build_info();

/// One JSON object: nproc, CPU model, load average, the steal share between
/// `before` and `after`, and the build.
std::string host_context_json(const CpuTicks& before, const CpuTicks& after);

}  // namespace perfbench
