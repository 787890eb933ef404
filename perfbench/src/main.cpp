// perfbench: run one workload of the repository benchmark and print its
// metrics. The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it the run's context (host, build, tails, phases).
// Exit status: 0 correct, 1 a wrong or failed output, 2 bad usage or set-up,
// 3 an unoptimized build.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --table1 <table1.csv> [--out-dir <dir>] [--canary]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " --table1 <table1.csv> [--out-dir <dir>] [--canary]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--canary") {
        opts.canary = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (arg == "--table1") {
        opts.table1_csv = value;
      } else if (arg == "--out-dir") {
        opts.out_dir = value;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_workload) return usage("--workload is required");
  if (opts.table1_csv.empty()) return usage("--table1 is required");
  if (!(opts.seconds > 0 && opts.seconds <= 120)) return usage("--seconds must be in (0, 120]");

  const perfbench::BuildInfo build = perfbench::build_info();
  if (!build.optimized) {
    std::cerr << "perfbench: refusing to time a build without -O3 and NDEBUG (flags: "
              << build.flags << ")\n";
    return 3;
  }

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(opts);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  const std::string result =
      perfbench::result_json(res.correct, res.attempted, res.failed, res.metrics);
  if (!opts.out_dir.empty()) {
    const std::string path = opts.out_dir + "/" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + "-trace" +
                             (opts.trace ? "1" : "0") + ".json";
    std::ofstream(path) << "{\"result\": " << result << ", \"details\": " << res.details_json
                        << "}\n";
  }
  std::cout << res.details_json << "\n" << result << std::endl;
  return res.correct ? 0 : 1;
}
