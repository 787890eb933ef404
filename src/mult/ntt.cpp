#include "mult/ntt.hpp"

#include "common/check.hpp"

namespace saber::mult {

namespace {

// Bit-reversal of an 8-bit index (N = 256 = 2^8).
constexpr unsigned brv8(unsigned x) {
  unsigned r = 0;
  for (int i = 0; i < 8; ++i) {
    r = (r << 1) | ((x >> i) & 1u);
  }
  return r;
}

NttTables make_ntt_tables() {
  constexpr u64 p = kNttPrime;
  constexpr std::size_t n = ring::kN;
  SABER_ENSURE((p - 1) % (2 * n) == 0, "prime does not support 2N-th roots");
  const u64 psi = powmod(NttMultiplier::kGenerator, (p - 1) / (2 * n), p);
  SABER_ENSURE(powmod(psi, n, p) == p - 1, "psi is not a primitive 2N-th root");
  const u64 psi_inv = invmod_prime(psi, p);
  NttTables t;
  for (unsigned i = 0; i < n; ++i) {
    t.zetas[i] = powmod(psi, brv8(i), p);
    t.zetas_shoup[i] = ntt_shoup(t.zetas[i]);
    t.zetas_inv[i] = powmod(psi_inv, brv8(i), p);
    t.zetas_inv_shoup[i] = ntt_shoup(t.zetas_inv[i]);
  }
  t.n_inv = invmod_prime(n, p);
  t.n_inv_shoup = ntt_shoup(t.n_inv);
  return t;
}

}  // namespace

const NttTables& ntt_tables() {
  static const NttTables t = make_ntt_tables();
  return t;
}

NttMultiplier::NttMultiplier() { (void)ntt_tables(); }

void NttMultiplier::forward(std::array<u64, kN>& v) const {
  ntt_forward_g(v, ntt_tables(), ops_);
}

void NttMultiplier::inverse(std::array<u64, kN>& v) const {
  ntt_inverse_g(v, ntt_tables(), ops_);
}

Transformed NttMultiplier::prepare_public(const ring::Poly& a, unsigned qbits) const {
  std::array<u64, kN> v{};
  for (std::size_t i = 0; i < kN; ++i) {
    v[i] = ntt_to_residue_g(static_cast<i64>(ring::centered(a[i], qbits)));
  }
  forward(v);
  return Transformed(v.begin(), v.end());
}

Transformed NttMultiplier::prepare_secret(const ring::SecretPoly& s,
                                          unsigned qbits) const {
  (void)qbits;  // small signed secrets embed directly; no centering needed
  std::array<u64, kN> v{};
  for (std::size_t i = 0; i < kN; ++i) v[i] = ntt_to_residue_g(i64{s[i]});
  forward(v);
  return Transformed(v.begin(), v.end());
}

Transformed NttMultiplier::make_accumulator() const { return Transformed(kN, 0); }

void NttMultiplier::pointwise_accumulate(Transformed& acc, const Transformed& a,
                                         const Transformed& s) const {
  SABER_REQUIRE(acc.size() == kN && a.size() == kN && s.size() == kN,
                "operand not in the NTT transform domain");
  for (std::size_t i = 0; i < kN; ++i) {
    const u64 prod = ntt_mulmod_g(static_cast<u64>(a[i]), static_cast<u64>(s[i]));
    acc[i] = static_cast<i64>(ntt_addmod_g(static_cast<u64>(acc[i]), prod));
  }
  ops_.coeff_mults += kN;
  ops_.coeff_adds += kN;
}

std::vector<i64> NttMultiplier::finalize_witness(const Transformed& acc) const {
  SABER_REQUIRE(acc.size() == kN, "accumulator not in the NTT transform domain");
  std::array<u64, kN> v{};
  for (std::size_t i = 0; i < kN; ++i) v[i] = static_cast<u64>(acc[i]);
  inverse(v);
  // Centered lift without the two's-complement mask: as long as the true
  // accumulated coefficients stay inside (-p'/2, p'/2) (the same headroom
  // finalize needs for exactness) this IS the exact integer negacyclic
  // remainder, length N.
  std::vector<i64> w(kN);
  for (std::size_t i = 0; i < kN; ++i) w[i] = ntt_from_residue_g(v[i]);
  return w;
}

ring::Poly NttMultiplier::finalize(const Transformed& acc, unsigned qbits) const {
  const auto w = finalize_witness(acc);
  ring::Poly r;
  for (std::size_t i = 0; i < kN; ++i) {
    r[i] = static_cast<u16>(to_twos_complement(w[i], qbits));
  }
  return r;
}

ring::Poly NttMultiplier::multiply(const ring::Poly& a, const ring::Poly& b,
                                   unsigned qbits) const {
  // Centered lift keeps the true integer product coefficients below
  // N * (q/2)^2 = 2^36 in magnitude, far inside (-p'/2, p'/2).
  std::array<u64, kN> va{}, vb{};
  for (std::size_t i = 0; i < kN; ++i) {
    va[i] = ntt_to_residue_g(static_cast<i64>(ring::centered(a[i], qbits)));
    vb[i] = ntt_to_residue_g(static_cast<i64>(ring::centered(b[i], qbits)));
  }
  forward(va);
  forward(vb);
  for (std::size_t i = 0; i < kN; ++i) va[i] = ntt_mulmod_g(va[i], vb[i]);
  ops_.coeff_mults += kN;
  inverse(va);

  ring::Poly r;
  for (std::size_t i = 0; i < kN; ++i) {
    // Exact centered lift back to Z, then reduce mod 2^qbits.
    r[i] = static_cast<u16>(to_twos_complement(ntt_from_residue_g(va[i]), qbits));
  }
  return r;
}

}  // namespace saber::mult
