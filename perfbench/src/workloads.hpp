// The benchmark's four workloads and the run that measures one of them.
//
// Every workload is a closed loop driven from this process: the next round
// starts only when the previous one has returned. Inputs come from the
// workload seed alone; their expected outputs are computed before timing by
// the independent schoolbook scheme, and every timed output is compared
// against them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// "handshake", "server_batch", "server_checked", "paper_models".
const std::vector<std::string>& workload_names();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test: corrupt one expected output, so the run must count a failure
  /// and report itself incorrect.
  bool canary = false;
  std::string table1_csv;  ///< the repository's table1.csv (paper cycle counts)
  std::string out_dir;     ///< result and span files go here; empty: none
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;
  /// Context that does not fit the metric schema: tail percentiles and
  /// sample counts, the host and build, per-phase figures. One JSON object.
  std::string details_json;
};

/// Run one workload as `opts` asks. Throws std::invalid_argument for an
/// unknown workload and std::runtime_error when set-up fails.
RunResult run_workload(const Options& opts);

}  // namespace perfbench
