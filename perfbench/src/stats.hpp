// Sample statistics, metric naming and the result schema of the benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

/// The tail rule: the highest percentile of the ladder 99 / 90 / 75 / 50 that
/// has at least ten samples beyond it (n - rank >= 10 for the nearest-rank
/// position). Below 20 samples no rung qualifies and the median (p50) is
/// used. 1,000 samples give p99, 150 give p90. There is no p99.9 rung: ten
/// samples beyond it would need 10,000 calls, which only handshake reaches,
/// and right at that count the rung would flip between runs.
double tail_percentile(std::size_t n);

struct Tail {
  double percentile = 0;  ///< the rung tail_percentile() chose
  double value = 0;
  std::size_t samples = 0;
};

Tail tail(const std::vector<double>& samples);

/// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a letter
/// or digit. Units: 1-16 characters of [A-Za-z0-9_/%.-].
bool valid_metric_name(std::string_view name);
bool valid_unit(std::string_view unit);

struct Metric {
  double value = 0;
  std::string unit;
};

/// Named metrics in insertion-independent (sorted) order. add() rejects an
/// invalid or repeated name or unit by throwing std::invalid_argument.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// JSON number with every significant digit (non-finite values become 0).
std::string json_number(double v);
std::string json_string(std::string_view s);

/// The benchmark's final stdout line:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const MetricSet& metrics);

}  // namespace perfbench
