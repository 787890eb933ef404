// Naive O(N^2) negacyclic transforms over p' = 2^41 + 10241, built only from
// the public-data powmod/mulmod helpers: the independent reference the lazy
// Shoup-butterfly kernel in mult/ntt.hpp is checked against, bit for bit.
//
// Output slot i of the forward transform holds a(psi^(2*brv8(i)+1)), the
// evaluation at the odd power of the primitive 512th root psi that the
// bit-reversed Cooley-Tukey ordering puts there; the inverse interpolates
// from that layout and scales by N^-1.
#pragma once

#include <array>

#include "mult/modmath.hpp"
#include "mult/ntt.hpp"

namespace saber::ntt_ref {

using Vec = std::array<u64, ring::kN>;

inline constexpr u64 kP = mult::NttMultiplier::kPrime;
inline constexpr std::size_t kTwoN = 2 * ring::kN;  // order of psi

inline unsigned brv8(unsigned x) {
  unsigned r = 0;
  for (int i = 0; i < 8; ++i) r = (r << 1) | ((x >> i) & 1u);
  return r;
}

/// psi^e for e in [0, 2N).
inline const std::array<u64, kTwoN>& psi_powers() {
  static const std::array<u64, kTwoN> pw = [] {
    std::array<u64, kTwoN> t{};
    const u64 psi =
        mult::powmod(mult::NttMultiplier::kGenerator, (kP - 1) / kTwoN, kP);
    for (std::size_t e = 0; e < kTwoN; ++e) t[e] = mult::powmod(psi, e, kP);
    return t;
  }();
  return pw;
}

inline Vec forward(const Vec& a) {
  const auto& pw = psi_powers();
  Vec out{};
  for (unsigned i = 0; i < ring::kN; ++i) {
    const std::size_t root = 2 * brv8(i) + 1;
    u64 acc = 0;
    for (std::size_t j = 0; j < ring::kN; ++j) {
      acc = mult::addmod(acc, mult::mulmod(a[j], pw[(root * j) % kTwoN], kP), kP);
    }
    out[i] = acc;
  }
  return out;
}

inline Vec inverse(const Vec& spectrum) {
  const auto& pw = psi_powers();
  const u64 n_inv = mult::invmod_prime(ring::kN, kP);
  Vec out{};
  for (std::size_t j = 0; j < ring::kN; ++j) {
    u64 acc = 0;
    for (unsigned i = 0; i < ring::kN; ++i) {
      const std::size_t root = 2 * brv8(i) + 1;
      // psi^(-root*j) = psi^(2N - (root*j mod 2N)).
      const std::size_t e = (kTwoN - (root * j) % kTwoN) % kTwoN;
      acc = mult::addmod(acc, mult::mulmod(spectrum[i], pw[e], kP), kP);
    }
    out[j] = mult::mulmod(acc, n_inv, kP);
  }
  return out;
}

}  // namespace saber::ntt_ref
