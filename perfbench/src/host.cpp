#include "host.hpp"

#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "stats.hpp"

namespace perfbench {

namespace {

std::string first_line_with(const char* path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return {};
}

std::string cpu_model() {
  const std::string line = first_line_with("/proc/cpuinfo", "model name");
  const auto colon = line.find(':');
  return colon == std::string::npos ? "unknown" : line.substr(colon + 2);
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

}  // namespace

CpuTicks read_cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  std::istringstream in(first_line_with("/proc/stat", "cpu "));
  std::string label;
  in >> label;
  CpuTicks t;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

CpuRotation::CpuRotation() {
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::step() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_ % cpus_.size()], &one);
  ++next_;
  sched_setaffinity(0, sizeof one, &one);
}

BuildInfo build_info() {
  BuildInfo b;
  b.compiler = PERFBENCH_COMPILER;
  b.build_type = PERFBENCH_BUILD_TYPE;
  b.flags = PERFBENCH_CXX_FLAGS;
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  b.optimized = b.flags.find("-O3") != std::string::npos;
#endif
  return b;
}

std::string host_context_json(const CpuTicks& before, const CpuTicks& after) {
  const BuildInfo b = build_info();
  const double total = static_cast<double>(after.total - before.total);
  const double steal = static_cast<double>(after.steal - before.steal);
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"loadavg\": " << json_string(load_average())
     << ", \"steal_pct\": " << json_number(total > 0 ? 100.0 * steal / total : 0.0)
     << ", \"compiler\": " << json_string(b.compiler)
     << ", \"build_type\": " << json_string(b.build_type)
     << ", \"flags\": " << json_string(b.flags) << "}";
  return os.str();
}

}  // namespace perfbench
