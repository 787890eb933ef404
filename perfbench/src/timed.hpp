// Timing decorators for the traced run. Each forwards every virtual of the
// interface it wraps to the wrapped object and records one span per call, so
// the traced run executes the same library code as the untraced one.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/faults.hpp"
#include "hw/mac.hpp"
#include "mult/multiplier.hpp"
#include "multipliers/hw_multiplier.hpp"
#include "trace.hpp"

namespace perfbench {

/// The PolyMultiplier calls that get a span, in metric order.
inline constexpr std::array<const char*, 6> kMultMethods = {
    "multiply", "prepare_public", "prepare_secret", "pointwise_accumulate", "finalize",
    "finalize_witness"};

/// Span-recording PolyMultiplier decorator. Spans are named
/// "<prefix>.<method>", e.g. "mult.ntt.finalize" or "robust.finalize".
/// name() is the wrapped multiplier's, so prepared transforms stay shareable
/// between decorated and undecorated instances of one configuration.
class TimedMultiplier : public saber::mult::PolyMultiplier {
 public:
  TimedMultiplier(std::shared_ptr<const saber::mult::PolyMultiplier> inner,
                  const std::string& prefix, Tracer& tracer);

  std::string_view name() const override { return inner_->name(); }
  saber::ring::Poly multiply(const saber::ring::Poly& a, const saber::ring::Poly& b,
                             unsigned qbits) const override;
  saber::mult::Transformed prepare_public(const saber::ring::Poly& a,
                                          unsigned qbits) const override;
  saber::mult::Transformed prepare_secret(const saber::ring::SecretPoly& s,
                                          unsigned qbits) const override;
  saber::mult::Transformed make_accumulator() const override;
  void pointwise_accumulate(saber::mult::Transformed& acc,
                            const saber::mult::Transformed& a,
                            const saber::mult::Transformed& s) const override;
  saber::ring::Poly finalize(const saber::mult::Transformed& acc,
                             unsigned qbits) const override;
  std::vector<saber::i64> finalize_witness(
      const saber::mult::Transformed& acc) const override;
  std::size_t max_accumulated_terms() const override;

 private:
  std::shared_ptr<const saber::mult::PolyMultiplier> inner_;
  Tracer& tracer_;
  std::array<std::uint32_t, kMultMethods.size()> names_{};
};

/// Wrap `inner` in a TimedMultiplier. When `inner` is a FaultMonitor the
/// result is one too (forwarding fault_counters()), so KemBatch keeps its
/// per-item kRecovered classification; otherwise it is not, so KemBatch
/// takes the same unchecked path as with the bare multiplier.
std::shared_ptr<TimedMultiplier> make_timed(
    std::shared_ptr<const saber::mult::PolyMultiplier> inner, const std::string& prefix,
    Tracer& tracer);

/// HwMultiplier decorator that keeps the CycleStats of every multiplication
/// and, given a tracer, records a "<prefix>.multiply" span per call.
class TappedHwMultiplier final : public saber::arch::HwMultiplier {
 public:
  TappedHwMultiplier(std::unique_ptr<saber::arch::HwMultiplier> inner,
                     const std::string& prefix, Tracer* tracer);

  /// Cycle statistics of every multiplication so far, in call order.
  const std::vector<saber::hw::CycleStats>& cycles() const { return cycles_; }

  std::string_view name() const override { return inner_->name(); }
  saber::arch::MultiplierResult multiply(const saber::ring::Poly& a,
                                         const saber::ring::SecretPoly& s,
                                         const saber::ring::Poly* accumulate) override;
  const saber::hw::AreaLedger& area() const override { return inner_->area(); }
  unsigned logic_depth() const override { return inner_->logic_depth(); }
  saber::u64 headline_cycles() const override { return inner_->headline_cycles(); }
  bool headline_includes_overhead() const override {
    return inner_->headline_includes_overhead();
  }
  void set_fault_hook(saber::hw::FaultHook* hook) override { inner_->set_fault_hook(hook); }

 private:
  std::unique_ptr<saber::arch::HwMultiplier> inner_;
  Tracer* tracer_;
  std::uint32_t span_name_ = 0;
  std::vector<saber::hw::CycleStats> cycles_;
};

/// Cycles of one multiplication in the paper's Table 1 convention, the one
/// headline_cycles() follows: the total when the design's headline includes
/// memory overhead (LW), compute plus pipeline fill otherwise.
saber::u64 headline_convention_cycles(const saber::arch::HwMultiplier& m,
                                      const saber::hw::CycleStats& c);

}  // namespace perfbench
