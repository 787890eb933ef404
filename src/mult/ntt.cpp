#include "mult/ntt.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "mult/ntt_avx512.hpp"

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
    t.zetas_shoup52[i] = ntt_shoup52(t.zetas[i]);
    t.zetas_inv_shoup52[i] = ntt_shoup52(t.zetas_inv[i]);
  }
  t.n_inv = invmod_prime(n, p);
  t.n_inv_shoup = ntt_shoup(t.n_inv);
  t.n_inv_shoup52 = ntt_shoup52(t.n_inv);
  for (std::size_t s = 0; s < 3; ++s) {
    const std::size_t len = std::size_t{4} >> s;
    for (std::size_t m = 0; m < n / 2; ++m) {
      // The forward pass gives the g-th group of stage len twiddle index
      // N/(2*len) + g, and the inverse mirrors it.
      const std::size_t k = n / (2 * len) + m / len;
      const std::size_t e = s * n / 2 + m;
      t.fwd_lane_zetas[e] = t.zetas[k];
      t.fwd_lane_shoup52[e] = t.zetas_shoup52[k];
      t.inv_lane_zetas[e] = t.zetas_inv[k];
      t.inv_lane_shoup52[e] = t.zetas_inv_shoup52[k];
    }
  }
  t.ifma = cpu_has_ifma();
  return t;
}

u64* lanes(Transformed& t) { return reinterpret_cast<u64*>(t.data()); }
const u64* lanes(const Transformed& t) { return reinterpret_cast<const u64*>(t.data()); }

// The forward transform of the N lanes at v, in place, on this process's
// kernel, with ntt_forward_g's tally. prepare_public/_secret transform inside
// the Transformed they return; the scalar kernel takes a std::array, so on a
// CPU without IFMA their lanes are copied through one.
void forward_lanes(u64* v, OpCounts& ops) {
  const auto& t = ntt_tables();
  if (t.ifma) {
    ntt_forward_ifma(v, t);
    ops.coeff_mults += ring::kN / 2 * 8;
    ops.coeff_adds += ring::kN * 8;
    return;
  }
  std::array<u64, ring::kN> a{};
  std::copy_n(v, ring::kN, a.begin());
  ntt_forward_g(a, t, ops);
  std::copy_n(a.begin(), ring::kN, v);
}

/// The inverse transform of an accumulator; finalize and finalize_witness
/// lift straight from it.
std::array<u64, ring::kN> inverse_of(const NttMultiplier& m, const Transformed& acc) {
  SABER_REQUIRE(acc.size() == ring::kN, "accumulator not in the NTT transform domain");
  std::array<u64, ring::kN> v{};
  std::copy_n(lanes(acc), ring::kN, v.begin());
  m.inverse(v);
  return v;
}

}  // namespace

const NttTables& ntt_tables() {
  static const NttTables t = make_ntt_tables();
  return t;
}

NttMultiplier::NttMultiplier() { (void)ntt_tables(); }

void NttMultiplier::forward(std::array<u64, kN>& v) const {
  const auto& t = ntt_tables();
  if (!t.ifma) return ntt_forward_g(v, t, ops_);
  forward_lanes(v.data(), ops_);
}

void NttMultiplier::inverse(std::array<u64, kN>& v) const {
  const auto& t = ntt_tables();
  if (!t.ifma) return ntt_inverse_g(v, t, ops_);
  ntt_inverse_ifma(v.data(), t);
  ops_.coeff_mults += kN / 2 * 8 + kN;  // as ntt_inverse_g tallies
  ops_.coeff_adds += kN * 8;
}

Transformed NttMultiplier::prepare_public(const ring::Poly& a, unsigned qbits) const {
  Transformed out(kN);
  u64* v = lanes(out);
  for (std::size_t i = 0; i < kN; ++i) {
    v[i] = ntt_to_residue_g(static_cast<i64>(ring::centered(a[i], qbits)));
  }
  forward_lanes(v, ops_);
  return out;
}

Transformed NttMultiplier::prepare_secret(const ring::SecretPoly& s,
                                          unsigned qbits) const {
  (void)qbits;  // small signed secrets embed directly; no centering needed
  Transformed out(kN);
  u64* v = lanes(out);
  for (std::size_t i = 0; i < kN; ++i) v[i] = ntt_to_residue_g(i64{s[i]});
  forward_lanes(v, ops_);
  return out;
}

Transformed NttMultiplier::make_accumulator() const { return Transformed(kN, 0); }

void NttMultiplier::pointwise_accumulate(Transformed& acc, const Transformed& a,
                                         const Transformed& s) const {
  SABER_REQUIRE(acc.size() == kN && a.size() == kN && s.size() == kN,
                "operand not in the NTT transform domain");
  if (ntt_tables().ifma) {
    ntt_pointwise_accumulate_ifma(lanes(acc), lanes(a), lanes(s));
  } else {
    for (std::size_t i = 0; i < kN; ++i) {
      const u64 prod = ntt_mulmod_g(static_cast<u64>(a[i]), static_cast<u64>(s[i]));
      acc[i] = static_cast<i64>(ntt_addmod_g(static_cast<u64>(acc[i]), prod));
    }
  }
  ops_.coeff_mults += kN;
  ops_.coeff_adds += kN;
}

std::vector<i64> NttMultiplier::finalize_witness(const Transformed& acc) const {
  const auto v = inverse_of(*this, acc);
  // Centered lift without the two's-complement mask: as long as the true
  // accumulated coefficients stay inside (-p'/2, p'/2) (the same headroom
  // finalize needs for exactness) this IS the exact integer negacyclic
  // remainder, length N.
  std::vector<i64> w(kN);
  for (std::size_t i = 0; i < kN; ++i) w[i] = ntt_from_residue_g(v[i]);
  return w;
}

ring::Poly NttMultiplier::finalize(const Transformed& acc, unsigned qbits) const {
  const auto v = inverse_of(*this, acc);
  ring::Poly r;
  for (std::size_t i = 0; i < kN; ++i) {
    r[i] = static_cast<u16>(to_twos_complement(ntt_from_residue_g(v[i]), qbits));
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
