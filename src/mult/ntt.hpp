// NTT-based negacyclic multiplication over an NTT-friendly prime.
//
// Saber's power-of-two moduli rule out a direct NTT; the workaround used by
// Chung et al. [14] (the paper's §5.1 software comparison) multiplies over a
// prime p' large enough that the integer result can be recovered exactly and
// then reduces mod 2^qbits. We use the 42-bit prime p' = 2^41 + 10241
// (= 4294967316 * 512 + 1, so 512th roots of unity exist) and the negacyclic
// psi-twisted NTT; centered operand lifting keeps every true coefficient of
// the integer product below p'/2 in magnitude, making the lift exact.
//
// The butterflies are word-generic and use the division-free mod-p'
// primitives from modmath.hpp (twiddle indices and stage structure are
// public; only the lane values carry secrets), so the identical kernel runs
// over plain u64 residues in production and ct::Tainted<u64> under the
// secret-independence audit.
//
// Every twiddle product is a Shoup product (ntt_mul_shoup_g) against the
// companions in NttTables, and the butterflies are lazy in Harvey's style:
// no conditional subtract inside a stage. Shoup's precondition is only that
// the twiddle is canonical; the multiplicand may be any u64, and the product
// comes back below 2p'. With canonical inputs (< p'):
//
//  * forward: each Cooley-Tukey stage maps lanes < B to lanes < B + 2p'
//    (X + T and X - T + 2p' with T < 2p'), so after the 8 stages every lane
//    is < 17p' < 2^46; one ntt_fold_g + ntt_condsub_g per lane canonicalizes.
//  * inverse: stage s (len = 2^s) takes lanes < B_s = 2^s p'; the sum lane
//    doubles the bound, and the difference lane X - Y + B_s in (0, 2B_s)
//    goes through a Shoup product back below 2p'. Lanes stay below
//    2^8 p' < 2^50, and the closing n^-1 Shoup product plus one conditional
//    subtract canonicalizes.
//
// Both transforms therefore return canonical residues in [0, p'), the same
// values a fully reduced butterfly produces.
#pragma once

#include <array>

#include "mult/modmath.hpp"
#include "mult/multiplier.hpp"

namespace saber::mult {

/// Twiddle factors in the order consumed by the Cooley-Tukey / Gentleman-
/// Sande butterflies (powers of psi in bit-reversed order), each with its
/// Shoup companion ntt_shoup(w) = floor(w * 2^64 / p'). Public data.
struct NttTables {
  std::array<u64, ring::kN> zetas{};
  std::array<u64, ring::kN> zetas_shoup{};
  std::array<u64, ring::kN> zetas_inv{};
  std::array<u64, ring::kN> zetas_inv_shoup{};
  u64 n_inv = 0;
  u64 n_inv_shoup = 0;
};

/// Build (once) and return the twiddle tables for kPrime / kGenerator.
const NttTables& ntt_tables();

/// Forward negacyclic NTT (psi-twisted, bit-reversed output) in place.
/// Inputs must be canonical (< p'); outputs are canonical.
template <typename W>
void ntt_forward_g(std::array<W, ring::kN>& v, const NttTables& t, OpCounts& ops) {
  constexpr std::size_t n = ring::kN;
  std::size_t k = 1;
  for (std::size_t len = n / 2; len >= 1; len >>= 1) {
    for (std::size_t start = 0; start < n; start += 2 * len, ++k) {
      const u64 zeta = t.zetas[k];
      const u64 zeta_shoup = t.zetas_shoup[k];
      for (std::size_t j = start; j < start + len; ++j) {
        const W tw = ntt_mul_shoup_g(v[j + len], zeta, zeta_shoup);
        v[j + len] = ct::cast<u64>(v[j] + 2 * kNttPrime - tw);
        v[j] = ct::cast<u64>(v[j] + tw);
      }
    }
  }
  for (auto& x : v) x = ntt_condsub_g(ntt_fold_g(x));
  ops.coeff_mults += n / 2 * 8;
  ops.coeff_adds += n * 8;
}

/// Inverse negacyclic NTT (bit-reversed input) in place. Inputs must be
/// canonical (< p'); outputs are canonical.
template <typename W>
void ntt_inverse_g(std::array<W, ring::kN>& v, const NttTables& t, OpCounts& ops) {
  constexpr std::size_t n = ring::kN;
  u64 bound = kNttPrime;  // every lane is < bound entering the stage
  for (std::size_t len = 1; len < n; len <<= 1, bound <<= 1) {
    // Mirror the forward stage exactly: the forward pass gave the g-th group
    // of the stage with this `len` the twiddle index N/(2*len) + g.
    const std::size_t k_base = n / (2 * len);
    std::size_t g = 0;
    for (std::size_t start = 0; start < n; start += 2 * len, ++g) {
      const u64 zeta_inv = t.zetas_inv[k_base + g];
      const u64 zeta_inv_shoup = t.zetas_inv_shoup[k_base + g];
      for (std::size_t j = start; j < start + len; ++j) {
        const W x = v[j];
        v[j] = ct::cast<u64>(x + v[j + len]);
        v[j + len] = ntt_mul_shoup_g(ct::cast<u64>(x + bound - v[j + len]), zeta_inv,
                                     zeta_inv_shoup);
      }
    }
  }
  for (auto& x : v) x = ntt_condsub_g(ntt_mul_shoup_g(x, t.n_inv, t.n_inv_shoup));
  ops.coeff_mults += n / 2 * 8 + n;
  ops.coeff_adds += n * 8;
}

class NttMultiplier final : public PolyMultiplier {
 public:
  static constexpr u64 kPrime = kNttPrime;  // 2^41 + 10241
  static constexpr u64 kGenerator = 5;
  static constexpr std::size_t kN = ring::kN;  // 256

  NttMultiplier();

  std::string_view name() const override { return "ntt"; }

  ring::Poly multiply(const ring::Poly& a, const ring::Poly& b,
                      unsigned qbits) const override;

  // Split-transform API: the cached transform is the forward NTT spectrum
  // over p'; accumulation is pointwise mod-p' multiply-add, and finalize is
  // the single inverse NTT plus the exact centered lift. Exactness of the
  // lift bounds the batch size: the accumulated integer coefficients must
  // stay below p'/2 = 2^40 in magnitude (see max_accumulated_terms).
  Transformed prepare_public(const ring::Poly& a, unsigned qbits) const override;
  Transformed prepare_secret(const ring::SecretPoly& s, unsigned qbits) const override;
  Transformed make_accumulator() const override;
  void pointwise_accumulate(Transformed& acc, const Transformed& a,
                            const Transformed& s) const override;
  ring::Poly finalize(const Transformed& acc, unsigned qbits) const override;

  /// Exact integer negacyclic remainder (inverse NTT + centered lift,
  /// no modular mask), length N.
  std::vector<i64> finalize_witness(const Transformed& acc) const override;

  /// One negacyclic product coefficient is bounded by N * (q/2) * |s|_max
  /// <= 2^8 * 2^15 * 2^7 = 2^30, so 2^10 accumulated products stay below the
  /// p'/2 = 2^40 centered-lift headroom even for worst-case i8 secrets
  /// (Saber's |s| <= 5 leaves far more room).
  std::size_t max_accumulated_terms() const override {
    return std::size_t{1} << 10;
  }

  /// Forward negacyclic NTT (psi-twisted, bit-reversed output) in place.
  void forward(std::array<u64, kN>& v) const;

  /// Inverse negacyclic NTT (bit-reversed input) in place.
  void inverse(std::array<u64, kN>& v) const;
};

}  // namespace saber::mult
