#include "mult/ntt_avx512.hpp"

#include <immintrin.h>

namespace saber::mult {

namespace {

// Every function that touches a vector is compiled for the kernel's target,
// including the helpers, so that they inline into the kernels. GCC 12's
// unmasked _mm512_{srli,slli}_epi64 / _mm512_min_epu64 trip -Wuninitialized
// in its own header; their maskz forms with every lane selected do not.
#define SABER_IFMA [[gnu::target("avx512f,avx512vl,avx512ifma")]]

constexpr std::size_t kN = ring::kN;
constexpr __mmask8 kAll = 0xFF;

SABER_IFMA __m512i bcast(u64 x) { return _mm512_set1_epi64(static_cast<long long>(x)); }
SABER_IFMA __m512i load(const u64* p) { return _mm512_loadu_si512(p); }
SABER_IFMA void store(u64* p, __m512i x) { _mm512_storeu_si512(p, x); }

SABER_IFMA __m512i mul52lo(__m512i a, __m512i b) {
  return _mm512_madd52lo_epu64(_mm512_setzero_si512(), a, b);
}
SABER_IFMA __m512i mul52hi(__m512i a, __m512i b) {
  return _mm512_madd52hi_epu64(_mm512_setzero_si512(), a, b);
}

/// ntt_condsub_g for x < 2p': when x < p' the subtraction wraps past x.
SABER_IFMA __m512i condsub(__m512i x) {
  return _mm512_maskz_min_epu64(kAll, x, _mm512_sub_epi64(x, bcast(kNttPrime)));
}

/// ntt_fold_g for x < 2^58 (so x >> 41 < 2^17 fits one 52-bit product).
SABER_IFMA __m512i fold(__m512i x) {
  const __m512i lo = _mm512_and_si512(x, bcast(mask64(41)));
  const __m512i c_hi = mul52lo(_mm512_maskz_srli_epi64(kAll, x, 41), bcast(kNttPrimeC));
  return _mm512_sub_epi64(_mm512_add_epi64(lo, bcast(kNttPrime)), c_hi);
}

/// y * w mod p' lazily, in [0, 2p'), for y < 2^52 and a public w < p' with
/// ws = floor(w * 2^52 / p'): the 52-bit form of ntt_mul_shoup_g. The true
/// y * w - q * p' is below 2p' < 2^52, so it equals the difference of the
/// two low halves mod 2^52.
SABER_IFMA __m512i mul_shoup(__m512i y, __m512i w, __m512i ws) {
  const __m512i q = mul52hi(y, ws);
  const __m512i r = _mm512_sub_epi64(mul52lo(y, w), mul52lo(q, bcast(kNttPrime)));
  return _mm512_and_si512(r, bcast(mask64(52)));
}

/// ntt_mulmod_g: a * b < 2^84 as lo + 2^52 hi splits at 2^41 into
/// l < 2^41 and h < 2^43; c * h < 2^57 is exact as two 52-bit halves.
SABER_IFMA __m512i mulmod(__m512i a, __m512i b) {
  const __m512i lo = mul52lo(a, b);
  const __m512i hi = mul52hi(a, b);
  const __m512i l = _mm512_and_si512(lo, bcast(mask64(41)));
  const __m512i h = _mm512_or_si512(_mm512_maskz_slli_epi64(kAll, hi, 11),
                                    _mm512_maskz_srli_epi64(kAll, lo, 41));
  const __m512i c = bcast(kNttPrimeC);
  const __m512i c_h =
      _mm512_add_epi64(mul52lo(h, c), _mm512_maskz_slli_epi64(kAll, mul52hi(h, c), 52));
  return condsub(
      fold(_mm512_sub_epi64(_mm512_add_epi64(l, bcast(kNttPrime << 16)), c_h)));
}

/// The lazy Cooley-Tukey butterfly of ntt_forward_g.
SABER_IFMA void ct_butterfly(__m512i& x, __m512i& y, __m512i w, __m512i ws) {
  const __m512i t = mul_shoup(y, w, ws);
  y = _mm512_sub_epi64(_mm512_add_epi64(x, bcast(2 * kNttPrime)), t);
  x = _mm512_add_epi64(x, t);
}

/// The lazy Gentleman-Sande butterfly of ntt_inverse_g; lanes < bound.
SABER_IFMA void gs_butterfly(__m512i& x, __m512i& y, __m512i w, __m512i ws, u64 bound) {
  const __m512i d = _mm512_sub_epi64(_mm512_add_epi64(x, bcast(bound)), y);
  x = _mm512_add_epi64(x, y);
  y = mul_shoup(d, w, ws);
}

// The len = 4, 2, 1 stages run per block of 16 coefficients held in two
// vectors (x, y). Stage len pairs coefficient e with e + len for each e whose
// bit `len` is clear; the kernel holds x = those eight e in increasing order
// and y = their partners, so the butterflies are lane-wise, and one constant
// two-vector permutation moves between layouts: lane i of the new x takes
// slot lo[i] of the 16 slots (old x, old y), lane i of the new y slot hi[i].
struct alignas(64) Permutation {
  u64 lo[8];
  u64 hi[8];
};
// Natural <-> len 4, len 4 <-> len 2 and len 2 <-> len 1 are involutions.
constexpr Permutation kNaturalLen4{{0, 1, 2, 3, 8, 9, 10, 11}, {4, 5, 6, 7, 12, 13, 14, 15}};
constexpr Permutation kLen4Len2{{0, 1, 8, 9, 4, 5, 12, 13}, {2, 3, 10, 11, 6, 7, 14, 15}};
constexpr Permutation kLen2Len1{{0, 8, 2, 10, 4, 12, 6, 14}, {1, 9, 3, 11, 5, 13, 7, 15}};
constexpr Permutation kNaturalToLen1{{0, 2, 4, 6, 8, 10, 12, 14}, {1, 3, 5, 7, 9, 11, 13, 15}};
constexpr Permutation kLen1ToNatural{{0, 8, 1, 9, 2, 10, 3, 11}, {4, 12, 5, 13, 6, 14, 7, 15}};

SABER_IFMA void permute(__m512i& x, __m512i& y, const Permutation& p) {
  const __m512i nx = _mm512_permutex2var_epi64(x, load(p.lo), y);
  y = _mm512_permutex2var_epi64(x, load(p.hi), y);
  x = nx;
}

/// The lane twiddles of stage s (len = 4 >> s) for the block at b.
constexpr std::size_t lane_row(std::size_t s, std::size_t b) { return s * kN / 2 + b / 2; }

}  // namespace

bool cpu_has_ifma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512ifma");
}

SABER_IFMA void ntt_forward_ifma(u64* v, const NttTables& t) {
  std::size_t k = 1;
  for (std::size_t len = kN / 2; len >= 8; len >>= 1) {
    for (std::size_t start = 0; start < kN; start += 2 * len, ++k) {
      const __m512i w = bcast(t.zetas[k]);
      const __m512i ws = bcast(t.zetas_shoup52[k]);
      for (std::size_t j = start; j < start + len; j += 8) {
        __m512i x = load(v + j);
        __m512i y = load(v + j + len);
        ct_butterfly(x, y, w, ws);
        store(v + j, x);
        store(v + j + len, y);
      }
    }
  }
  const u64* w = t.fwd_lane_zetas.data();
  const u64* ws = t.fwd_lane_shoup52.data();
  for (std::size_t b = 0; b < kN; b += 16) {
    __m512i x = load(v + b);
    __m512i y = load(v + b + 8);
    permute(x, y, kNaturalLen4);
    ct_butterfly(x, y, load(w + lane_row(0, b)), load(ws + lane_row(0, b)));
    permute(x, y, kLen4Len2);
    ct_butterfly(x, y, load(w + lane_row(1, b)), load(ws + lane_row(1, b)));
    permute(x, y, kLen2Len1);
    ct_butterfly(x, y, load(w + lane_row(2, b)), load(ws + lane_row(2, b)));
    x = condsub(fold(x));
    y = condsub(fold(y));
    permute(x, y, kLen1ToNatural);
    store(v + b, x);
    store(v + b + 8, y);
  }
}

SABER_IFMA void ntt_inverse_ifma(u64* v, const NttTables& t) {
  const u64* w = t.inv_lane_zetas.data();
  const u64* ws = t.inv_lane_shoup52.data();
  for (std::size_t b = 0; b < kN; b += 16) {
    __m512i x = load(v + b);
    __m512i y = load(v + b + 8);
    permute(x, y, kNaturalToLen1);
    gs_butterfly(x, y, load(w + lane_row(2, b)), load(ws + lane_row(2, b)), kNttPrime);
    permute(x, y, kLen2Len1);
    gs_butterfly(x, y, load(w + lane_row(1, b)), load(ws + lane_row(1, b)), 2 * kNttPrime);
    permute(x, y, kLen4Len2);
    gs_butterfly(x, y, load(w + lane_row(0, b)), load(ws + lane_row(0, b)), 4 * kNttPrime);
    permute(x, y, kNaturalLen4);
    store(v + b, x);
    store(v + b + 8, y);
  }
  u64 bound = 8 * kNttPrime;
  for (std::size_t len = 8; len < kN; len <<= 1, bound <<= 1) {
    const std::size_t k_base = kN / (2 * len);
    std::size_t g = 0;
    for (std::size_t start = 0; start < kN; start += 2 * len, ++g) {
      const __m512i wg = bcast(t.zetas_inv[k_base + g]);
      const __m512i wgs = bcast(t.zetas_inv_shoup52[k_base + g]);
      for (std::size_t j = start; j < start + len; j += 8) {
        __m512i x = load(v + j);
        __m512i y = load(v + j + len);
        gs_butterfly(x, y, wg, wgs, bound);
        store(v + j, x);
        store(v + j + len, y);
      }
    }
  }
  const __m512i n_inv = bcast(t.n_inv);
  const __m512i n_inv_s = bcast(t.n_inv_shoup52);
  for (std::size_t j = 0; j < kN; j += 8) store(v + j, condsub(mul_shoup(load(v + j), n_inv, n_inv_s)));
}

SABER_IFMA void ntt_pointwise_accumulate_ifma(u64* acc, const u64* a, const u64* b) {
  for (std::size_t i = 0; i < kN; i += 8) {
    const __m512i prod = mulmod(load(a + i), load(b + i));
    store(acc + i, condsub(_mm512_add_epi64(load(acc + i), prod)));
  }
}

}  // namespace saber::mult
