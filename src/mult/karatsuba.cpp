#include "mult/karatsuba.hpp"

#include "common/check.hpp"

namespace saber::mult {

void karatsuba_conv(std::span<const i64> a, std::span<const i64> b, std::span<i64> out,
                    unsigned levels, OpCounts& ops) {
  karatsuba_conv_g(a, b, out, levels, ops);
}

KaratsubaMultiplier::KaratsubaMultiplier(unsigned levels)
    : levels_(levels), name_("karatsuba-" + std::to_string(levels)) {}

ring::Poly KaratsubaMultiplier::multiply(const ring::Poly& a, const ring::Poly& b,
                                         unsigned qbits) const {
  const auto av = centered_lift(a, qbits);
  const auto bv = centered_lift(b, qbits);
  std::vector<i64> conv(2 * ring::kN - 1);
  karatsuba_conv(av, bv, conv, levels_, ops_);
  return fold_negacyclic<ring::kN>(conv, qbits);
}

void KaratsubaMultiplier::conv_accumulate(std::span<const i64> a, std::span<const i64> s,
                                          std::span<i64> acc) const {
  // The recursion accumulates, so it adds straight into the batch
  // accumulator; the arena is the call's one allocation.
  std::vector<i64> scratch(karatsuba_scratch_len(a.size(), levels_));
  karatsuba_acc_g(a, s, acc, levels_, std::span<i64>(scratch), ops_);
}

}  // namespace saber::mult
