// Recursive Karatsuba linear convolution with configurable recursion depth.
//
// Depth 8 on 256-coefficient operands reaches 1-coefficient base cases — the
// "parallel 8-level Karatsuba" configuration of Zhu et al. [11] that the
// paper compares against in §5.2. Smaller depths model the hybrid
// Karatsuba/schoolbook trade-offs used by software implementations [6].
//
// Scratch arena contract: the recursion never allocates. Every node carves
// its partial products (z0, z2, zm) and operand sums out of one caller-owned
// arena of karatsuba_scratch_len(n, levels) words and hands the remainder to
// its children, which run one after another and so reuse the same tail.
// karatsuba_acc_g takes that arena from the caller (Toom-Cook shares one
// across its point products); karatsuba_conv_g allocates exactly one per
// top-level call.
#pragma once

#include <algorithm>
#include <vector>

#include "mult/multiplier.hpp"
#include "mult/schoolbook.hpp"

namespace saber::mult {

/// Arena words one Karatsuba product of two n-coefficient operands at
/// `levels` needs: a node's own z0/z2/zm (3 x (n-1)) and operand sums
/// (2 x n/2) plus its deepest child's share; a schoolbook leaf needs its
/// 2n-1 product; the straight-line 2-coefficient node needs none.
constexpr std::size_t karatsuba_scratch_len(std::size_t n, unsigned levels) {
  if (levels == 0 || n == 1 || n % 2 != 0) return 2 * n - 1;
  if (n == 2) return 0;
  return 4 * n - 3 + karatsuba_scratch_len(n / 2, levels - 1);
}

namespace detail {

// Results are accumulated into `out` so the recombination can write into
// overlapping regions without scratch copies. `scratch` holds at least
// karatsuba_scratch_len(n, levels) words. The recursion shape depends only on
// operand lengths and `levels` — public values — so the kernel is
// constant-time in the data for any word type.
template <typename W>
void karatsuba_rec_g(std::span<const W> a, std::span<const W> b, std::span<W> out,
                     unsigned levels, std::span<W> scratch, OpCounts& ops) {
  const std::size_t n = a.size();
  if (levels == 0 || n == 1 || n % 2 != 0) {
    const auto tmp = scratch.first(2 * n - 1);
    schoolbook_conv_g(a, b, tmp, ops);
    for (std::size_t i = 0; i < tmp.size(); ++i) out[i] += tmp[i];
    ops.coeff_adds += tmp.size();
    return;
  }

  if (n == 2) {
    // Straight-line form of the node whose three children are 1-coefficient
    // schoolbook leaves: the same three products and the same tallies
    // (per leaf 1 mult + 2 adds, 2 operand sums, 5 recombination adds).
    const W z0 = a[0] * b[0];
    const W z2 = a[1] * b[1];
    const W zm = (a[0] + a[1]) * (b[0] + b[1]);
    out[0] += z0;
    out[1] += zm - z0 - z2;
    out[2] += z2;
    ops.coeff_mults += 3;
    ops.coeff_adds += 3 * 2 + 2 + 5;
    return;
  }

  const std::size_t h = n / 2;
  const std::size_t m = 2 * h - 1;
  const auto a0 = a.first(h), a1 = a.subspan(h);
  const auto b0 = b.first(h), b1 = b.subspan(h);

  // z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)(b0+b1) - z0 - z2.
  const auto z0 = scratch.first(m), z2 = scratch.subspan(m, m),
             zm = scratch.subspan(2 * m, m);
  const auto as = scratch.subspan(3 * m, h), bs = scratch.subspan(3 * m + h, h);
  const auto rest = scratch.subspan(3 * m + 2 * h);
  std::ranges::fill(scratch.first(3 * m), W{0});
  karatsuba_rec_g<W>(a0, b0, z0, levels - 1, rest, ops);
  karatsuba_rec_g<W>(a1, b1, z2, levels - 1, rest, ops);

  for (std::size_t i = 0; i < h; ++i) {
    as[i] = a0[i] + a1[i];
    bs[i] = b0[i] + b1[i];
  }
  ops.coeff_adds += 2 * h;
  karatsuba_rec_g<W>(as, bs, zm, levels - 1, rest, ops);

  for (std::size_t i = 0; i < m; ++i) {
    const W z1 = zm[i] - z0[i] - z2[i];
    out[i] += z0[i];
    out[i + h] += z1;
    out[i + 2 * h] += z2[i];
  }
  ops.coeff_adds += 5 * m;
}

}  // namespace detail

/// Word-generic accumulating form: adds the convolution of a and b,
/// splitting `levels` times (or until operands shrink to a single
/// coefficient), into `acc` (which must already hold the running sum).
/// `scratch` is the caller-owned arena, karatsuba_scratch_len(n, levels)
/// words; its contents on entry are ignored.
template <typename W>
void karatsuba_acc_g(std::span<const W> a, std::span<const W> b, std::span<W> acc,
                     unsigned levels, std::span<W> scratch, OpCounts& ops) {
  SABER_REQUIRE(!a.empty() && b.size() == a.size(), "operands must have equal length");
  SABER_REQUIRE(acc.size() >= 2 * a.size() - 1, "output length mismatch");
  SABER_REQUIRE(scratch.size() >= karatsuba_scratch_len(a.size(), levels),
                "Karatsuba scratch arena too small");
  detail::karatsuba_rec_g<W>(a, b, acc, levels, scratch, ops);
}

/// Word-generic Karatsuba linear convolution into `out` (overwritten), with
/// one scratch arena for the whole product.
template <typename W>
void karatsuba_conv_g(std::span<const W> a, std::span<const W> b, std::span<W> out,
                      unsigned levels, OpCounts& ops) {
  SABER_REQUIRE(out.size() == a.size() + b.size() - 1, "output length mismatch");
  std::ranges::fill(out, W{0});
  std::vector<W> scratch(karatsuba_scratch_len(a.size(), levels));
  karatsuba_acc_g<W>(a, b, out, levels, std::span<W>(scratch), ops);
}

class KaratsubaMultiplier final : public PolyMultiplier {
 public:
  /// `levels`: number of splitting levels before falling back to schoolbook.
  explicit KaratsubaMultiplier(unsigned levels = 8);

  std::string_view name() const override { return name_; }
  unsigned levels() const { return levels_; }

  ring::Poly multiply(const ring::Poly& a, const ring::Poly& b,
                      unsigned qbits) const override;

 protected:
  /// Split-transform hook: the Karatsuba product is added straight into the
  /// accumulator, with one scratch arena per call (keeps the batched path
  /// subquadratic).
  void conv_accumulate(std::span<const i64> a, std::span<const i64> s,
                       std::span<i64> acc) const override;

 private:
  unsigned levels_;
  std::string name_;
};

/// Signed integer linear convolution by Karatsuba, splitting `levels` times
/// (or until operands shrink to a single coefficient).
void karatsuba_conv(std::span<const i64> a, std::span<const i64> b, std::span<i64> out,
                    unsigned levels, OpCounts& ops);

}  // namespace saber::mult
