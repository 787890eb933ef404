// Tests of the benchmark's own logic: the tail-percentile rule, self time
// over nested and cross-thread spans, metric naming, the result schema and
// the timing decorators' forwarding. That every run prints exactly the
// metrics BENCHMARK.json declares is checked by `run.py --self-test`.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "mult/strategy.hpp"
#include "robust/checked_multiplier.hpp"
#include "stats.hpp"
#include "timed.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // n .. 1
  return v;
}

TEST(TailRule, PicksHighestRungWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(150), 90.0);
  EXPECT_EQ(tail_percentile(100000), 99.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(99), 75.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(39), 50.0);
  EXPECT_EQ(tail_percentile(5), 50.0);
}

TEST(TailRule, ValueIsNearestRankAndRecordsCount) {
  const Tail t = tail(ramp(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);  // ten samples (991..1000) lie beyond it
  EXPECT_EQ(t.samples, 1000u);
  const Tail u = tail(ramp(150));
  EXPECT_EQ(u.percentile, 90.0);
  EXPECT_EQ(u.value, 135.0);
  EXPECT_EQ(median(ramp(5)), 3.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
}

Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start, std::int64_t end,
          std::uint32_t thread = 0) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.thread = thread;
  return s;
}

TEST(SelfTime, NestedChildrenSubtractOnlyFromTheirParent) {
  const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 30),
                                   span(3, 2, 15, 20), span(4, 1, 50, 60)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 20 - 10);
  EXPECT_EQ(self[1], 20 - 5);
  EXPECT_EQ(self[2], 5);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, CrossThreadChildrenCountTheirUnionClippedToTheParent) {
  // Two workers overlap in [30, 50]; a third child outlives the parent.
  const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 50, 1),
                                   span(3, 1, 30, 70, 2), span(4, 1, 90, 120, 3)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - (70 - 10) - (100 - 90));
}

TEST(Tracer, WorkerSpansAttachToTheAmbientParent) {
  Tracer tracer;
  const auto call = tracer.intern("kem.encaps");
  const auto work = tracer.intern("mult.ntt.finalize");
  EXPECT_EQ(tracer.intern("kem.encaps"), call);
  std::uint64_t call_id = 0;
  {
    const SpanScope outer(&tracer, call, 42);
    call_id = outer.id();
    tracer.set_ambient(outer.id(), 42);
    { const SpanScope nested(&tracer, work); }
    std::thread worker([&] { const SpanScope s(&tracer, work); });
    worker.join();
    tracer.set_ambient(0, 0);
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  std::set<std::uint32_t> threads;
  for (const Span& s : spans) {
    EXPECT_EQ(s.request, 42u);
    EXPECT_LE(s.start_ns, s.end_ns);
    if (s.name == work) {
      EXPECT_EQ(s.parent, call_id);
    }
    threads.insert(s.thread);
  }
  EXPECT_EQ(threads.size(), 2u);
  EXPECT_EQ(tracer.names().at(work), "mult.ntt.finalize");
}

TEST(Tracer, NullTracerRecordsNothing) {
  const SpanScope s(nullptr, 0, 1);
  EXPECT_EQ(s.id(), 0u);
}

TEST(MetricNames, OnlyLettersDigitsUnderscoreDotDash) {
  EXPECT_TRUE(valid_metric_name("mult.karatsuba-8.multiply.calls"));
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("9lives"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("-lead"));
  EXPECT_FALSE(valid_metric_name(".lead"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("mult/ntt"));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("mults/session"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("microseconds/op!"));
}

TEST(ResultSchema, ExactKeysAndFullPrecision) {
  MetricSet m;
  m.add("setup_s", 0.1, "s");
  m.add("ops_s", 1234.5, "1/s");
  EXPECT_THROW(m.add("ops_s", 1, "1/s"), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", 1, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("fine", 1, ""), std::invalid_argument);
  EXPECT_EQ(result_json(true, 3, 0, m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"ops_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, "
            "\"setup_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}}");
  EXPECT_EQ(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

TEST(TimedMultiplier, ForwardsResultsNameAndFaultMonitor) {
  Tracer tracer;
  std::shared_ptr<const saber::mult::PolyMultiplier> ntt = saber::mult::make_multiplier("ntt");
  const auto timed = make_timed(ntt, "mult.ntt", tracer);
  EXPECT_EQ(timed->name(), "ntt");
  EXPECT_EQ(timed->max_accumulated_terms(), ntt->max_accumulated_terms());
  EXPECT_EQ(dynamic_cast<const saber::FaultMonitor*>(timed.get()), nullptr);

  saber::ring::Poly a, b;
  saber::ring::SecretPoly s;
  for (std::size_t i = 0; i < saber::ring::kN; ++i) {
    a[i] = static_cast<saber::u16>((i * 7 + 1) & 0x1fff);
    b[i] = static_cast<saber::u16>((i * 3 + 5) & 0x1fff);
    s[i] = static_cast<saber::i8>(static_cast<int>(i % 9) - 4);
  }
  EXPECT_EQ(timed->multiply(a, b, 13), ntt->multiply(a, b, 13));
  auto acc = timed->make_accumulator();
  timed->pointwise_accumulate(acc, timed->prepare_public(a, 13), timed->prepare_secret(s, 13));
  EXPECT_EQ(timed->finalize_witness(acc), ntt->finalize_witness(acc));
  EXPECT_EQ(timed->finalize(acc, 13), ntt->multiply_secret(a, s, 13));
  EXPECT_EQ(tracer.spans().size(), 6u);  // make_accumulator is not timed

  std::shared_ptr<const saber::mult::PolyMultiplier> checked =
      saber::robust::make_checked("ntt");
  const auto timed_checked = make_timed(checked, "robust", tracer);
  const auto* monitor = dynamic_cast<const saber::FaultMonitor*>(timed_checked.get());
  ASSERT_NE(monitor, nullptr);
  timed_checked->multiply(a, b, 13);
  EXPECT_EQ(monitor->fault_counters().checks,
            dynamic_cast<const saber::FaultMonitor&>(*checked).fault_counters().checks);
  EXPECT_GT(monitor->fault_counters().checks, 0u);
}

}  // namespace
}  // namespace perfbench
