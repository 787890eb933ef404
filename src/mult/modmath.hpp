// Modular arithmetic over word-sized primes, used by the NTT multiplier.
//
// Two families live here:
//
//  * the mulmod/powmod/invmod helpers, used only on PUBLIC data (twiddle-
//    table construction, primality testing) — these may divide;
//  * word-generic, division-free arithmetic specialized to the Saber NTT
//    prime p' = 2^41 + 10241, used on secret-dependent residues. The
//    butterflies run these in production (plain u64) and under the ct_audit
//    taint analysis (ct::Tainted<u64>), so they must never branch, divide,
//    or index on the data. Products are native 64x64->128 multiplies (the
//    high half through ct::mul_shr_g); reduction folds the identity
//    2^41 ≡ -10241 (mod p') and finishes with a sign-mask conditional
//    subtract. A product by a PUBLIC twiddle w uses Shoup's precomputed
//    companion floor(w * 2^64 / p') instead (ntt_mul_shoup_g), which accepts
//    any u64 input; that is what lets the butterflies run lazily on
//    unreduced values (bounds in ntt.hpp).
#pragma once

#include "common/bits.hpp"
#include "ct/tainted.hpp"

namespace saber::mult {

/// (a * b) mod m for m < 2^63. PUBLIC data only (hardware division).
constexpr u64 mulmod(u64 a, u64 b, u64 m) {
  return static_cast<u64>((static_cast<u128>(a) * b) % m);
}

constexpr u64 addmod(u64 a, u64 b, u64 m) {
  const u64 s = a + b;
  return s >= m ? s - m : s;
}

constexpr u64 submod(u64 a, u64 b, u64 m) { return a >= b ? a - b : a + m - b; }

/// a^e mod m by square-and-multiply. PUBLIC data only.
u64 powmod(u64 a, u64 e, u64 m);

/// Modular inverse modulo a prime (via Fermat). PUBLIC data only.
u64 invmod_prime(u64 a, u64 p);

/// Deterministic Miller-Rabin, valid for all 64-bit inputs.
bool is_prime_u64(u64 n);

// --- division-free arithmetic mod p' = 2^41 + 10241 ------------------------

inline constexpr u64 kNttPrime = 2199023265793ULL;  // 2^41 + 10241
inline constexpr u64 kNttPrimeC = 10241;            // p' - 2^41

/// Conditional subtract: x - p' if x >= p', else x. Requires x < 2p'.
/// Branch-free: the borrow's sign bit selects whether p' is added back.
template <typename W>
constexpr W ntt_condsub_g(const W& x) {
  const auto d = x - kNttPrime;
  return ct::cast<u64>(d + (ct::sign_mask_g(d) & kNttPrime));
}

/// One reduction fold of the identity 2^41 ≡ -10241 (mod p'): for any
/// x < 2^64 returns a value < 2^41 + p' < 2p' congruent to x mod p'.
/// (lo + p' - c*hi is non-negative because c*hi < 2^14 * 2^23 = 2^37 < p'.)
template <typename W>
constexpr W ntt_fold_g(const W& x) {
  return ct::cast<u64>((x & mask64(41)) + kNttPrime - kNttPrimeC * (x >> 41));
}

/// (a + b) mod p' for a, b < p'.
template <typename W>
constexpr W ntt_addmod_g(const W& a, const W& b) {
  return ntt_condsub_g(ct::cast<u64>(a + b));
}

/// (a * b) mod p' for a, b < p'. One wide product a*b < 2^84, split at
/// 2^41 into lo < 2^41 and hi < 2^43, folds to lo + 2^16 p' - c*hi with
/// c = 10241: the offset 2^16 p' > 2^57 > c*hi keeps it a non-negative u64
/// below 2^58, and one more fold plus a conditional subtract canonicalize.
template <typename W>
constexpr W ntt_mulmod_g(const W& a, const W& b) {
  const auto lo = ct::cast<u64>((a * b) & mask64(41));
  const auto hi = ct::mul_shr_g(a, b, 41);
  return ntt_condsub_g(
      ntt_fold_g(ct::cast<u64>(lo + (kNttPrime << 16) - kNttPrimeC * hi)));
}

/// Shoup companion of a PUBLIC constant w < p': floor(w * 2^64 / p').
constexpr u64 ntt_shoup(u64 w) {
  return static_cast<u64>((static_cast<u128>(w) << 64) / kNttPrime);
}

/// x * w mod p', lazily: a value < 2p' congruent to x * w, for ANY u64 x and
/// a PUBLIC w < p' with w_shoup = ntt_shoup(w). The quotient estimate
/// q = floor(x * w_shoup / 2^64) undershoots floor(x * w / p') by at most
/// one, so x * w - q * p' (computed mod 2^64) lands in [0, 2p').
template <typename W>
constexpr W ntt_mul_shoup_g(const W& x, u64 w, u64 w_shoup) {
  const auto q = ct::mul_shr_g(x, w_shoup, 64);
  return ct::cast<u64>(x * w - q * kNttPrime);
}

/// Lift a centered value c (|c| < p'/2), given as the i64 analog of W, into
/// [0, p'). Branch-free: the u64 wrap of a negative c is c + 2^64, and adding
/// the sign-masked p' yields exactly c + p' after the 2^64 wraps away.
template <typename W>
constexpr ct::rebind_t<W, u64> ntt_to_residue_g(const W& c) {
  return ct::cast<u64>(ct::cast<u64>(c) + (ct::sign_mask_g(c) & kNttPrime));
}

/// Exact centered lift back to Z: v in [0, p') to the representative in
/// (-p'/2, p'/2]. Branch-free: subtract the sign-mask-selected p'.
template <typename W>
constexpr ct::rebind_t<W, i64> ntt_from_residue_g(const W& v) {
  const auto m = ct::sign_mask_g(static_cast<i64>(kNttPrime / 2) - ct::cast<i64>(v));
  return ct::cast<i64>(v - (m & kNttPrime));
}

}  // namespace saber::mult
