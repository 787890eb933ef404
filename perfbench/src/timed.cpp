#include "timed.hpp"

namespace perfbench {

namespace sm = saber::mult;
namespace sr = saber::ring;

namespace {

enum Method : std::size_t {
  kMultiply,
  kPreparePublic,
  kPrepareSecret,
  kPointwise,
  kFinalize,
  kFinalizeWitness
};

class TimedMonitoredMultiplier final : public TimedMultiplier, public saber::FaultMonitor {
 public:
  TimedMonitoredMultiplier(std::shared_ptr<const sm::PolyMultiplier> inner,
                           const std::string& prefix, Tracer& tracer,
                           const saber::FaultMonitor& monitor)
      : TimedMultiplier(std::move(inner), prefix, tracer), monitor_(monitor) {}

  saber::FaultCounters fault_counters() const override { return monitor_.fault_counters(); }

 private:
  const saber::FaultMonitor& monitor_;  ///< the wrapped multiplier, kept alive by inner_
};

}  // namespace

TimedMultiplier::TimedMultiplier(std::shared_ptr<const sm::PolyMultiplier> inner,
                                 const std::string& prefix, Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {
  for (std::size_t i = 0; i < kMultMethods.size(); ++i) {
    names_[i] = tracer_.intern(prefix + "." + kMultMethods[i]);
  }
}

sr::Poly TimedMultiplier::multiply(const sr::Poly& a, const sr::Poly& b,
                                   unsigned qbits) const {
  const SpanScope span(&tracer_, names_[kMultiply]);
  return inner_->multiply(a, b, qbits);
}

sm::Transformed TimedMultiplier::prepare_public(const sr::Poly& a, unsigned qbits) const {
  const SpanScope span(&tracer_, names_[kPreparePublic]);
  return inner_->prepare_public(a, qbits);
}

sm::Transformed TimedMultiplier::prepare_secret(const sr::SecretPoly& s,
                                                unsigned qbits) const {
  const SpanScope span(&tracer_, names_[kPrepareSecret]);
  return inner_->prepare_secret(s, qbits);
}

sm::Transformed TimedMultiplier::make_accumulator() const {
  return inner_->make_accumulator();
}

void TimedMultiplier::pointwise_accumulate(sm::Transformed& acc, const sm::Transformed& a,
                                           const sm::Transformed& s) const {
  const SpanScope span(&tracer_, names_[kPointwise]);
  inner_->pointwise_accumulate(acc, a, s);
}

sr::Poly TimedMultiplier::finalize(const sm::Transformed& acc, unsigned qbits) const {
  const SpanScope span(&tracer_, names_[kFinalize]);
  return inner_->finalize(acc, qbits);
}

std::vector<saber::i64> TimedMultiplier::finalize_witness(const sm::Transformed& acc) const {
  const SpanScope span(&tracer_, names_[kFinalizeWitness]);
  return inner_->finalize_witness(acc);
}

std::size_t TimedMultiplier::max_accumulated_terms() const {
  return inner_->max_accumulated_terms();
}

std::shared_ptr<TimedMultiplier> make_timed(std::shared_ptr<const sm::PolyMultiplier> inner,
                                            const std::string& prefix, Tracer& tracer) {
  if (const auto* monitor = dynamic_cast<const saber::FaultMonitor*>(inner.get())) {
    return std::make_shared<TimedMonitoredMultiplier>(std::move(inner), prefix, tracer,
                                                      *monitor);
  }
  return std::make_shared<TimedMultiplier>(std::move(inner), prefix, tracer);
}

TappedHwMultiplier::TappedHwMultiplier(std::unique_ptr<saber::arch::HwMultiplier> inner,
                                       const std::string& prefix, Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {
  if (tracer_ != nullptr) span_name_ = tracer_->intern(prefix + ".multiply");
}

saber::arch::MultiplierResult TappedHwMultiplier::multiply(const sr::Poly& a,
                                                           const sr::SecretPoly& s,
                                                           const sr::Poly* accumulate) {
  const SpanScope span(tracer_, span_name_);
  auto result = inner_->multiply(a, s, accumulate);
  cycles_.push_back(result.cycles);
  return result;
}

saber::u64 headline_convention_cycles(const saber::arch::HwMultiplier& m,
                                      const saber::hw::CycleStats& c) {
  return m.headline_includes_overhead() ? c.total : c.compute + c.pipeline;
}

}  // namespace perfbench
