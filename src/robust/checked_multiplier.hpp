// Runtime-verified multiplier decorators: detect, retry, fail over.
//
// A single stuck-at or transient bit in a MAC, DSP or BRAM silently corrupts
// the product — and through it the KEM shared secret. CheckedMultiplier
// wraps any software PolyMultiplier (CheckedHwMultiplier any cycle-accurate
// HwMultiplier) and verifies every product it returns.
//
// The software decorator has one check: the Freivalds identity
// sum_k a_k(x_r) * s_k(x_r) == w(x_r) over the inner backend's exact-integer
// witness, at a root x_r of x^N + 1 that rotates per check (see
// algebraic_check.hpp). The hardware decorator compares against the
// reference product instead: a product masked to 2^13 has no exact witness.
//
// Both decorators recover through one shared RecoveryLadder. On a mismatch
// it (1) computes the reference product (schoolbook by default), (2)
// recomputes once on the inner backend — a transient fault does not repeat,
// so the retry usually clears it — and (3) if the retry still disagrees,
// fails over to the reference result, re-deriving it a second time so a
// fault inside the reference itself cannot be silently trusted (two
// disagreeing reference runs throw FaultDetectedError). Either way the
// caller receives a correct product: the KEM result survives the fault.
//
// The split-transform path (prepare/accumulate/finalize) is covered too: the
// decorator's Transformed layout appends each raw operand, its modulus and
// its evaluation at every check root to the inner backend's transform, so
// finalize() checks an accumulated row with O(l) modular multiplies and, on
// a mismatch, re-runs the whole inner transform pipeline from the raw
// operands (a fault during prepare/accumulate is caught, not just one during
// finalize). The retained raw operands are the only copy in the stack: the
// supervisor reads them through retained_operands() for lazy re-prepare and
// accumulator replay. Prepared matrices stay instance-independent, so they
// remain shareable across worker threads, as the batch pipeline requires.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/faults.hpp"
#include "mult/multiplier.hpp"
#include "multipliers/hw_multiplier.hpp"

namespace saber::robust {

// Source compatibility for configuration code written against the retired
// policies and check kinds: each enum keeps only the behaviour that remains,
// and the decorators read neither field.
enum class CheckPolicy : u8 { kFull };
enum class CheckKind : u8 { kFreivalds };

struct CheckedConfig {
  CheckPolicy policy = CheckPolicy::kFull;
  CheckKind kind = CheckKind::kFreivalds;
};

/// The detect -> retry -> arbitrate ladder both decorators run, and the fault
/// counters it owns. Every counter update and snapshot synchronizes on an
/// internal mutex, so a monitoring thread may poll counters() while another
/// thread multiplies through the decorator (the supervisor polls status from
/// outside the worker, and the batch pipeline snapshots counters around
/// every item).
class RecoveryLadder {
 public:
  FaultCounters counters() const;

  /// `check()` returns the verified product, or nullopt on a mismatch.
  /// `reference()` and `retry()` each return a fresh product, from the
  /// reference backend and the inner backend respectively.
  template <class Check, class Reference, class Retry>
  ring::Poly run(Check&& check, Reference&& reference, Retry&& retry) const {
    bump(&FaultCounters::checks);
    if (std::optional<ring::Poly> verified = check()) return *verified;
    bump(&FaultCounters::mismatches);
    const ring::Poly expected = reference();
    ring::Poly retried = retry();
    if (retried == expected) {
      bump(&FaultCounters::retry_recoveries);
      return retried;
    }
    if (reference() != expected) {
      throw FaultDetectedError(
          "unrecoverable fault: reference backend is inconsistent with itself");
    }
    bump(&FaultCounters::failovers);
    return expected;
  }

 private:
  void bump(u64 FaultCounters::* field) const;

  mutable std::mutex mu_;
  mutable FaultCounters counters_;  ///< guarded by mu_
};

/// One raw operand a checked transform retains: its kN coefficients (widened
/// to i64) and the modulus it was prepared at.
struct RetainedOperand {
  std::span<const i64> coeffs;
  unsigned qbits = 0;

  ring::Poly public_poly() const;
  ring::SecretPoly secret_poly() const;
};

class CheckedMultiplier final : public mult::PolyMultiplier, public FaultMonitor {
 public:
  /// `fallback == nullptr` uses an independent schoolbook reference. The
  /// fallback must be a different physical instance from `inner` (and for
  /// real fault isolation, a different algorithm).
  explicit CheckedMultiplier(std::unique_ptr<mult::PolyMultiplier> inner,
                             std::unique_ptr<mult::PolyMultiplier> fallback = nullptr);

  std::string_view name() const override { return name_; }
  const mult::PolyMultiplier& inner() const { return *inner_; }

  /// Snapshot of the fault statistics; thread-safe (see RecoveryLadder).
  FaultCounters fault_counters() const override { return ladder_.counters(); }

  /// The raw operands retained by a transform this class produced: one for a
  /// prepared public or secret operand; two per accumulated term (the public
  /// operand, then the secret) for an accumulator. Rejects anything that is
  /// not an intact checked transform.
  static std::vector<RetainedOperand> retained_operands(std::span<const i64> t);

  ring::Poly multiply(const ring::Poly& a, const ring::Poly& b,
                      unsigned qbits) const override;

  mult::Transformed prepare_public(const ring::Poly& a, unsigned qbits) const override;
  mult::Transformed prepare_secret(const ring::SecretPoly& s,
                                   unsigned qbits) const override;
  mult::Transformed make_accumulator() const override;
  void pointwise_accumulate(mult::Transformed& acc, const mult::Transformed& a,
                            const mult::Transformed& s) const override;
  ring::Poly finalize(const mult::Transformed& acc, unsigned qbits) const override;
  std::size_t max_accumulated_terms() const override;

 private:
  /// Point check of one product via the inner split pipeline; nullopt when
  /// the check fails or the corrupted state trips a backend invariant.
  std::optional<ring::Poly> checked_multiply(const ring::Poly& a, const ring::Poly& b,
                                             unsigned qbits) const;
  /// Freivalds check of an accumulated row against its cached evaluations.
  std::optional<ring::Poly> checked_finalize(const mult::Transformed& inner_acc,
                                             std::span<const i64> pairs,
                                             unsigned qbits) const;
  ring::Poly reference_sum(std::span<const RetainedOperand> terms, unsigned qbits) const;
  ring::Poly inner_recompute(std::span<const RetainedOperand> terms,
                             unsigned qbits) const;

  std::unique_ptr<mult::PolyMultiplier> inner_;
  std::unique_ptr<mult::PolyMultiplier> fallback_;
  std::string name_;
  RecoveryLadder ladder_;
};

/// Convenience: checked decorator over a strategy resolved by name.
std::unique_ptr<CheckedMultiplier> make_checked(std::string_view inner_name);

/// Checked decorator over a cycle-accurate architecture model. Every product
/// is compared against an independent software reference (schoolbook by
/// default) at the hardware modulus 2^13 and recovered through the same
/// RecoveryLadder (cycle statistics stay those of the hardware runs).
class CheckedHwMultiplier final : public arch::HwMultiplier, public FaultMonitor {
 public:
  explicit CheckedHwMultiplier(std::unique_ptr<arch::HwMultiplier> inner,
                               std::unique_ptr<mult::PolyMultiplier> reference = nullptr);

  std::string_view name() const override { return name_; }
  /// Snapshot of the fault statistics; thread-safe (see RecoveryLadder).
  FaultCounters fault_counters() const override { return ladder_.counters(); }

  arch::MultiplierResult multiply(const ring::Poly& a, const ring::SecretPoly& s,
                                  const ring::Poly* accumulate = nullptr) override;
  const hw::AreaLedger& area() const override { return inner_->area(); }
  unsigned logic_depth() const override { return inner_->logic_depth(); }
  u64 headline_cycles() const override { return inner_->headline_cycles(); }
  bool headline_includes_overhead() const override {
    return inner_->headline_includes_overhead();
  }
  void set_fault_hook(hw::FaultHook* hook) override { inner_->set_fault_hook(hook); }

  /// Cycle-budget watchdog violations. The architecture FSMs are
  /// data-independent, so every run must (a) match the paper Table 1 budget
  /// (`total` when the headline includes overhead, `compute + pipeline`
  /// otherwise) and (b) take exactly as many total cycles as the first run.
  /// A datapath fault cannot change control flow, so a nonzero count means
  /// the *model* broke its timing contract, not that a fault was injected.
  u64 cycle_violations() const { return cycle_violations_; }

 private:
  void check_cycles(const hw::CycleStats& cycles);

  std::unique_ptr<arch::HwMultiplier> inner_;
  std::unique_ptr<mult::PolyMultiplier> reference_;
  std::string name_;
  RecoveryLadder ladder_;
  u64 baseline_total_ = 0;  ///< first run's total cycle count
  u64 cycle_violations_ = 0;
};

}  // namespace saber::robust
