// Toom-Cook linear convolution, generic over the splitting order.
//
// Toom-4 is the algorithm used by Saber's original software implementation
// [3] and the M4 implementation [6] (which layer Karatsuba under the seven
// size-64 sub-multiplications); Toom-3 is provided as the intermediate
// design point between Karatsuba (= Toom-2) and Toom-4.
//
// Interpolation uses an exact rational inverse of the evaluation matrix over
// small integer points. The per-row denominator divisions are exact over Z,
// which lets them be computed without a division instruction: divide out the
// trailing power of two with an arithmetic shift, then multiply by the odd
// part's inverse mod 2^64 (a bijection on odd residues). That keeps the
// interpolation constant-time in the data, so the same kernel runs over
// plain i64 in production and ct::Tainted<i64> under the secret-independence
// audit; plain builds additionally verify exactness by re-multiplication
// (multiply-only — no data-dependent division anywhere).
#pragma once

#include <array>
#include <vector>

#include "mult/karatsuba.hpp"
#include "mult/multiplier.hpp"

namespace saber::mult {

/// Exact division by a known constant, division-free. For den = s * 2^k * o
/// (o odd), an exact quotient v/den equals ((v >> k) * inv) mod 2^64 where
/// inv is the mod-2^64 inverse of the signed odd part s*o.
struct ExactDiv {
  i64 den = 1;
  unsigned shift = 0;  ///< trailing zero bits of den
  u64 inv_odd = 1;     ///< inverse of (den >> shift) mod 2^64
};

/// Precompute the shift/inverse pair for a nonzero denominator.
ExactDiv make_exact_div(i64 den);

/// Exact quotient v / d.den for v known to be divisible by d.den. The
/// arithmetic shift and wrapping multiply are branch-free; plain builds
/// verify exactness by re-multiplying (no division instruction either way).
template <typename W>
constexpr W exact_div_g(const W& v, const ExactDiv& d) {
  const auto q =
      ct::cast<i64>(ct::cast<u64>(ct::cast<i64>(v) >> d.shift) * d.inv_odd);
  if constexpr (!ct::is_tainted_v<W>) {
    SABER_ENSURE(q * d.den == v, "Toom-Cook interpolation not exact");
  }
  return q;
}

/// All constants of one Toom-Cook order: evaluation points, the row-scaled
/// exact inverse of the evaluation matrix, per-row exact-division data, and
/// the derived split-transform accumulation cap.
struct ToomTables {
  unsigned parts = 0;
  unsigned points = 0;
  std::vector<i64> eval_points;               ///< finite points; last row is infinity
  std::vector<std::vector<i64>> interp_num;   ///< row-scaled exact inverse
  std::vector<ExactDiv> interp_div;           ///< per-row denominator
  std::size_t max_terms = 0;                  ///< see max_accumulated_terms()
  std::size_t padded_len = 0;                 ///< kN padded to a multiple of parts
  std::size_t part_len = 0;                   ///< padded_len / parts
};

/// Highest supported splitting order.
inline constexpr unsigned kMaxToomParts = 4;

/// Karatsuba depth under each point product: deep enough to reach
/// 1-coefficient leaves for any part length the supported orders produce.
inline constexpr unsigned kToomPointLevels = 32;

/// Build (and cache) the tables for order 3 or 4.
const ToomTables& toom_tables(unsigned parts);

/// Evaluate the `parts` limbs of p (length t.padded_len * (len/padded_len);
/// any length divisible by parts) at every point; returns the flattened
/// points x part matrix. Horner over public points — constant-time in the
/// data for any word type.
template <typename W>
std::vector<W> toom_evaluate_g(std::span<const W> p, const ToomTables& t,
                               OpCounts& ops) {
  const std::size_t part = p.size() / t.parts;
  SABER_REQUIRE(p.size() % t.parts == 0, "operand length not divisible by order");
  SABER_REQUIRE(t.parts <= kMaxToomParts, "supported Toom-Cook orders: 3, 4");
  std::vector<W> evals(static_cast<std::size_t>(t.points) * part, W{0});
  std::array<W, kMaxToomParts> limbs{};
  for (std::size_t k = 0; k < part; ++k) {
    for (unsigned l = 0; l < t.parts; ++l) limbs[l] = p[l * part + k];
    for (std::size_t i = 0; i < t.eval_points.size(); ++i) {
      const i64 x = t.eval_points[i];
      W acc = limbs[t.parts - 1];
      for (unsigned l = t.parts - 1; l > 0; --l) {
        acc = ct::cast<i64>(acc * x + limbs[l - 1]);
      }
      evals[i * part + k] = acc;
    }
    evals[static_cast<std::size_t>(t.points - 1) * part + k] =
        limbs[t.parts - 1];  // infinity
  }
  ops.coeff_mults += (t.parts - 1) * t.eval_points.size() * part;
  ops.coeff_adds += (t.parts - 1) * t.eval_points.size() * part;
  return evals;
}

/// Interpolate the accumulated per-point limb products (points segments of
/// length 2*part-1 each) and add the recombination at x^part into `out`
/// (length >= (points-1)*part + 2*part-1).
template <typename W>
void toom_interpolate_acc_g(std::span<const W> prods, std::size_t part,
                            const ToomTables& t, std::span<W> out, OpCounts& ops) {
  SABER_REQUIRE(prods.size() == static_cast<std::size_t>(t.points) * (2 * part - 1),
                "accumulator not in this Toom-Cook transform domain");
  for (unsigned j = 0; j < t.points; ++j) {
    for (std::size_t k = 0; k < 2 * part - 1; ++k) {
      W acc{0};
      for (unsigned i = 0; i < t.points; ++i) {
        acc += t.interp_num[j][i] *
               prods[static_cast<std::size_t>(i) * (2 * part - 1) + k];
      }
      out[static_cast<std::size_t>(j) * part + k] +=
          exact_div_g(acc, t.interp_div[j]);
    }
  }
  ops.coeff_mults += static_cast<u64>(t.points) * t.points * (2 * part - 1);
  ops.coeff_adds += static_cast<u64>(t.points) * t.points * (2 * part - 1);
}

class ToomCookMultiplier : public PolyMultiplier {
 public:
  /// `parts`: splitting order k (3 or 4); operand length must be divisible
  /// by k. Evaluation points: {0, ±1, ±2, ..., ∞} (2k-1 points).
  explicit ToomCookMultiplier(unsigned parts);

  std::string_view name() const override { return name_; }
  unsigned parts() const { return tables_.parts; }

  ring::Poly multiply(const ring::Poly& a, const ring::Poly& b,
                      unsigned qbits) const override;

  /// Signed integer linear convolution; length divisible by `parts`.
  void conv(std::span<const i64> a, std::span<const i64> b, std::span<i64> out) const;

  // Split-transform API: the cached transform is the per-point limb
  // evaluation (the E step of E-M-I); pointwise products and accumulation
  // happen point-wise, and one interpolation per accumulator replaces one
  // per product. Linearity of interpolation keeps the exact-division
  // property for sums of products.
  Transformed prepare_public(const ring::Poly& a, unsigned qbits) const override;
  Transformed prepare_secret(const ring::SecretPoly& s, unsigned qbits) const override;
  Transformed make_accumulator() const override;
  void pointwise_accumulate(Transformed& acc, const Transformed& a,
                            const Transformed& s) const override;
  ring::Poly finalize(const Transformed& acc, unsigned qbits) const override;

  /// The interpolated (pre-fold) linear convolution, length 2N-1.
  std::vector<i64> finalize_witness(const Transformed& acc) const override;

  /// Derived from the actual evaluation amplification and interpolation
  /// constants: the largest T for which the interpolation dot product over T
  /// accumulated worst-case point products (qbits <= 16, |s| <= 127)
  /// provably stays inside i64.
  std::size_t max_accumulated_terms() const override { return tables_.max_terms; }

 private:
  std::size_t padded_len() const { return tables_.padded_len; }
  std::size_t part_len() const { return tables_.part_len; }

  /// Adds the pointwise products of two evaluated operands (points x part
  /// limbs each) into the per-point segments of `acc`.
  void accumulate_point_products(std::span<const i64> ea, std::span<const i64> eb,
                                 std::span<i64> acc) const;

  const ToomTables& tables_;
  std::string name_;
};

/// The paper-lineage configuration ([3]/[6]): Toom-Cook-4.
class ToomCook4Multiplier final : public ToomCookMultiplier {
 public:
  ToomCook4Multiplier() : ToomCookMultiplier(4) {}
};

/// Intermediate design point.
class ToomCook3Multiplier final : public ToomCookMultiplier {
 public:
  ToomCook3Multiplier() : ToomCookMultiplier(3) {}
};

}  // namespace saber::mult
