// Cross-algorithm agreement and unit tests for the software multipliers.
// The schoolbook algorithm is the reference; Karatsuba (all depths),
// Toom-Cook-4 and the NTT must agree with it bit-for-bit on every modulus.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "mult/karatsuba.hpp"
#include "mult/modmath.hpp"
#include "mult/ntt.hpp"
#include "mult/schoolbook.hpp"
#include "mult/strategy.hpp"
#include "mult/toomcook.hpp"
#include "ntt_reference.hpp"

namespace saber::mult {
namespace {

using ring::kN;
using ring::Poly;
using ring::SecretPoly;

// ---------------------------------------------------------------- agreement

class Agreement
    : public ::testing::TestWithParam<std::tuple<std::string_view, unsigned>> {
 protected:
  std::unique_ptr<PolyMultiplier> algo_ = make_multiplier(std::get<0>(GetParam()));
  unsigned qbits_ = std::get<1>(GetParam());
  SchoolbookMultiplier ref_;
};

TEST_P(Agreement, RandomOperands) {
  Xoshiro256StarStar rng(1234);
  for (int iter = 0; iter < 10; ++iter) {
    const auto a = Poly::random(rng, qbits_);
    const auto b = Poly::random(rng, qbits_);
    EXPECT_EQ(algo_->multiply(a, b, qbits_), ref_.multiply(a, b, qbits_))
        << algo_->name() << " iter " << iter;
  }
}

TEST_P(Agreement, SaberShapedOperands) {
  Xoshiro256StarStar rng(99);
  for (unsigned bound : {1u, 4u, 5u}) {
    const auto a = Poly::random(rng, qbits_);
    const auto s = SecretPoly::random(rng, bound);
    EXPECT_EQ(algo_->multiply_secret(a, s, qbits_), ref_.multiply_secret(a, s, qbits_));
  }
}

TEST_P(Agreement, AdversarialOperands) {
  const auto qmax = static_cast<u16>(mask64(qbits_));
  const auto all_max = Poly::constant(qmax);
  const Poly zero{};
  Poly one{};
  one[0] = 1;
  Poly x255{};
  x255[255] = 1;
  const Poly cases[] = {zero, one, x255, all_max};
  for (const auto& a : cases) {
    for (const auto& b : cases) {
      EXPECT_EQ(algo_->multiply(a, b, qbits_), ref_.multiply(a, b, qbits_));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllModuli, Agreement,
    ::testing::Combine(::testing::Values(std::string_view("karatsuba-1"),
                                         std::string_view("karatsuba-4"),
                                         std::string_view("karatsuba-8"),
                                         std::string_view("toom3"),
                                         std::string_view("toom4"),
                                         std::string_view("ntt")),
                       ::testing::Values(10u, 13u)),
    [](const auto& pinfo) {
      auto name = std::string(std::get<0>(pinfo.param));
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_q" + std::to_string(std::get<1>(pinfo.param));
    });

// ------------------------------------------------------------ ring algebra

TEST(Schoolbook, RingAxioms) {
  Xoshiro256StarStar rng(4321);
  SchoolbookMultiplier m;
  const unsigned q = 13;
  const auto a = Poly::random(rng, q);
  const auto b = Poly::random(rng, q);
  const auto c = Poly::random(rng, q);

  // Commutativity.
  EXPECT_EQ(m.multiply(a, b, q), m.multiply(b, a, q));
  // Associativity.
  EXPECT_EQ(m.multiply(m.multiply(a, b, q), c, q),
            m.multiply(a, m.multiply(b, c, q), q));
  // Distributivity.
  EXPECT_EQ(m.multiply(a, ring::add(b, c, q), q),
            ring::add(m.multiply(a, b, q), m.multiply(a, c, q), q));
  // Multiplicative identity.
  Poly one{};
  one[0] = 1;
  EXPECT_EQ(m.multiply(a, one, q), a);
  // x^N == -1 (negacyclic wrap).
  Poly x{};
  x[1] = 1;
  auto ax = a;
  for (int i = 0; i < 256; ++i) ax = m.multiply(ax, x, q);
  EXPECT_EQ(ring::add(ax, a, q), Poly{});
}

TEST(Schoolbook, ConvolutionLengths) {
  OpCounts ops;
  std::vector<i64> a = {1, 2}, b = {3, 4, 5};
  std::vector<i64> out(4);
  schoolbook_conv(a, b, out, ops);
  EXPECT_EQ(out, (std::vector<i64>{3, 10, 13, 10}));
  EXPECT_EQ(ops.coeff_mults, 6u);
  std::vector<i64> bad(5);
  EXPECT_THROW(schoolbook_conv(a, b, bad, ops), ContractViolation);
}

TEST(Karatsuba, HandlesOddLengthsViaBaseCase) {
  OpCounts ops;
  std::vector<i64> a = {1, -2, 3}, b = {4, 5, -6};
  std::vector<i64> kout(5), sout(5);
  karatsuba_conv(a, b, kout, 8, ops);
  schoolbook_conv(a, b, sout, ops);
  EXPECT_EQ(kout, sout);
}

TEST(Karatsuba, DepthZeroIsSchoolbook) {
  KaratsubaMultiplier k0(0);
  SchoolbookMultiplier sb;
  Xoshiro256StarStar rng(5);
  const auto a = Poly::random(rng, 13);
  const auto b = Poly::random(rng, 13);
  EXPECT_EQ(k0.multiply(a, b, 13), sb.multiply(a, b, 13));
  // Same multiplication count as schoolbook.
  EXPECT_EQ(k0.ops().coeff_mults, sb.ops().coeff_mults);
}

TEST(Karatsuba, OpCountShrinksWithDepth) {
  Xoshiro256StarStar rng(6);
  const auto a = Poly::random(rng, 13);
  const auto b = Poly::random(rng, 13);
  u64 prev_mults = ~u64{0};
  for (unsigned levels : {0u, 2u, 4u, 8u}) {
    KaratsubaMultiplier k(levels);
    k.multiply(a, b, 13);
    EXPECT_LT(k.ops().coeff_mults, prev_mults) << "levels=" << levels;
    prev_mults = k.ops().coeff_mults;
  }
  // Full depth: 3^8 one-coefficient base multiplications.
  KaratsubaMultiplier k8(8);
  k8.multiply(a, b, 13);
  EXPECT_EQ(k8.ops().coeff_mults, 6561u);
  EXPECT_EQ(k8.ops().coeff_adds, 72382u);
}

TEST(Karatsuba, ScratchArenaSize) {
  // Leaf: the 2n-1 schoolbook product; straight-line 2-coefficient node:
  // nothing; inner node: 4n-3 of its own plus the deepest child's share.
  EXPECT_EQ(karatsuba_scratch_len(256, 0), 511u);
  EXPECT_EQ(karatsuba_scratch_len(3, 8), 5u);
  EXPECT_EQ(karatsuba_scratch_len(2, 1), 0u);
  EXPECT_EQ(karatsuba_scratch_len(4, 8), 13u);
  EXPECT_EQ(karatsuba_scratch_len(256, 1), 1021u + 255u);
  EXPECT_EQ(karatsuba_scratch_len(256, 8), 1021u + 509u + 253u + 125u + 61u + 29u + 13u);
  // The arena's contents on entry are ignored: a dirty one gives the same sum.
  OpCounts ops;
  Xoshiro256StarStar rng(60);
  std::vector<i64> x(16), y(16), acc(31, 7), ref(31);
  for (auto& v : x) v = rng.uniform_range(-4096, 4095);
  for (auto& v : y) v = rng.uniform_range(-4, 4);
  std::vector<i64> dirty(karatsuba_scratch_len(16, 8), i64{0x5555});
  karatsuba_acc_g(std::span<const i64>(x), std::span<const i64>(y), std::span<i64>(acc), 8,
                  std::span<i64>(dirty), ops);
  schoolbook_conv(x, y, ref, ops);
  for (auto& v : ref) v += 7;
  EXPECT_EQ(acc, ref);
  // An undersized caller-owned arena is a contract violation, not an overrun.
  std::vector<i64> a(8, 1), scratch(karatsuba_scratch_len(8, 3) - 1);
  acc.assign(15, 0);
  EXPECT_THROW(karatsuba_acc_g(std::span<const i64>(a), std::span<const i64>(a),
                               std::span<i64>(acc), 3, std::span<i64>(scratch), ops),
               ContractViolation);
}

// Op counts are data-independent and back the paper comparison (E5/A3), so
// they are pinned exactly for every Karatsuba depth and Toom-Cook order, on
// the one-shot multiply and on the split-transform path (prepare both
// operands, one pointwise_accumulate, finalize).
TEST(OpCounts, PinnedForKaratsubaAndToomCook) {
  struct Pin {
    std::string_view name;
    u64 mults, adds;              // multiply()
    u64 split_mults, split_adds;  // prepare/pointwise_accumulate/finalize
  };
  const Pin pins[] = {
      {"karatsuba-1", 49152, 51448, 49152, 51448},
      {"karatsuba-4", 20736, 35527, 20736, 35527},
      {"karatsuba-8", 6561, 72382, 6561, 72382},
      {"toom3", 33386, 37216, 33386, 38071},
      {"toom4", 13630, 61853, 13630, 62742},
  };
  Xoshiro256StarStar rng(61);
  const auto a = Poly::random(rng, 13);
  const auto b = Poly::random(rng, 13);
  const auto s = SecretPoly::random(rng, 4);
  for (const auto& pin : pins) {
    const auto m = make_multiplier(pin.name);
    m->multiply(a, b, 13);
    EXPECT_EQ(m->ops().coeff_mults, pin.mults) << pin.name;
    EXPECT_EQ(m->ops().coeff_adds, pin.adds) << pin.name;

    m->reset_ops();
    auto acc = m->make_accumulator();
    m->pointwise_accumulate(acc, m->prepare_public(a, 13), m->prepare_secret(s, 13));
    m->finalize(acc, 13);
    EXPECT_EQ(m->ops().coeff_mults, pin.split_mults) << pin.name;
    EXPECT_EQ(m->ops().coeff_adds, pin.split_adds) << pin.name;
  }
}

TEST(ToomCook, ExactOnWorstCase) {
  // All-maximal coefficients maximize the interpolation intermediates; the
  // exact-division invariants inside conv() must hold.
  ToomCook4Multiplier t;
  SchoolbookMultiplier sb;
  const auto a = Poly::constant(8191);
  EXPECT_EQ(t.multiply(a, a, 13), sb.multiply(a, a, 13));
}

TEST(ToomCook, SubMultiplicationCount) {
  // Toom-4 should use 7 size-64 sub-multiplications; with Karatsuba layered
  // below, the count is 7 * 3^6 = 5103 base multiplications.
  ToomCook4Multiplier t;
  Xoshiro256StarStar rng(7);
  const auto a = Poly::random(rng, 13);
  const auto b = Poly::random(rng, 13);
  t.multiply(a, b, 13);
  EXPECT_EQ(t.ops().coeff_mults - 7u * 7u * 127u -  // interpolation weights
                2u * 3u * 6u * 64u,                 // evaluation Horner steps
            5103u);
  EXPECT_EQ(t.ops().coeff_adds, 61853u);
}

TEST(Ntt, PrimeAndRootAreValid) {
  EXPECT_TRUE(is_prime_u64(NttMultiplier::kPrime));
  EXPECT_EQ((NttMultiplier::kPrime - 1) % 512, 0u);
}

TEST(Ntt, ForwardInverseRoundTrip) {
  NttMultiplier ntt;
  Xoshiro256StarStar rng(8);
  std::array<u64, 256> v{}, orig{};
  for (auto& x : v) x = rng.uniform(NttMultiplier::kPrime);
  orig = v;
  ntt.forward(v);
  EXPECT_NE(v, orig);  // transform moved the data
  ntt.inverse(v);
  EXPECT_EQ(v, orig);
}

// The lazy Shoup butterflies must reproduce the naive O(N^2) transform bit
// for bit, canonical outputs included, on random lanes and on the inputs that
// drive the lazy bounds hardest: every lane p'-1, 0/p'-1 alternating, and a
// first stage whose Shoup products land in [p', 2p') against X = 0 lanes
// (the case the forward butterfly's 2p' offset exists for).
std::vector<std::array<u64, kN>> ntt_reference_inputs() {
  constexpr u64 p = NttMultiplier::kPrime;
  std::vector<std::array<u64, kN>> ins;
  Xoshiro256StarStar rng(2501);
  for (int r = 0; r < 3; ++r) {
    std::array<u64, kN> v{};
    for (auto& x : v) x = rng.uniform(p);
    ins.push_back(v);
  }
  // Shoup's quotient estimate undershoots (T >= p') exactly when y * zeta
  // mod p' is small against y; search y = r * zeta^-1 over small residues r.
  const auto& t = ntt_tables();
  const u64 zeta_inv = invmod_prime(t.zetas[1], p);
  u64 y = 0;
  for (u64 r = 1; r < 4096 && y == 0; ++r) {
    const u64 cand = mulmod(r, zeta_inv, p);
    if (ntt_mul_shoup_g(cand, t.zetas[1], t.zetas_shoup[1]) >= p) y = cand;
  }
  EXPECT_NE(y, 0u) << "no first-stage lane with a Shoup product >= p'";
  std::array<u64, kN> top{}, alt{}, wide{};
  for (std::size_t i = 0; i < kN; ++i) {
    top[i] = p - 1;
    alt[i] = i % 2 == 0 ? 0 : p - 1;
    wide[i] = i < kN / 2 ? 0 : y;
  }
  ins.push_back(top);
  ins.push_back(alt);
  ins.push_back(wide);
  return ins;
}

TEST(Ntt, ForwardMatchesNaiveTransform) {
  NttMultiplier ntt;
  for (const auto& in : ntt_reference_inputs()) {
    auto v = in;
    ntt.forward(v);
    EXPECT_EQ(v, ntt_ref::forward(in));
    for (const u64 x : v) EXPECT_LT(x, NttMultiplier::kPrime);
  }
}

TEST(Ntt, InverseMatchesNaiveTransform) {
  NttMultiplier ntt;
  for (const auto& in : ntt_reference_inputs()) {
    auto v = in;
    ntt.inverse(v);
    EXPECT_EQ(v, ntt_ref::inverse(in));
    for (const u64 x : v) EXPECT_LT(x, NttMultiplier::kPrime);
  }
}

TEST(Ntt, MulmodMatchesPublicMulmod) {
  constexpr u64 p = NttMultiplier::kPrime;
  const u64 edges[] = {0, 1, (u64{1} << 21) - 1, u64{1} << 21, (u64{1} << 41) - 1,
                       u64{1} << 41, p - 2, p - 1};
  for (const u64 a : edges) {
    for (const u64 b : edges) {
      EXPECT_EQ(ntt_mulmod_g(a, b), mulmod(a, b, p)) << a << " * " << b;
    }
  }
  Xoshiro256StarStar rng(41);
  for (int i = 0; i < 100000; ++i) {
    const u64 a = rng.uniform(p);
    const u64 b = rng.uniform(p);
    ASSERT_EQ(ntt_mulmod_g(a, b), mulmod(a, b, p)) << a << " * " << b;
  }
}

TEST(Ntt, ShoupCompanionsAreFloorOfScaledTwiddle) {
  // w_shoup = floor(w * 2^b / p') iff w_shoup * p' <= w * 2^b < (w_shoup+1) * p',
  // for the scalar kernel's b = 64 and the IFMA kernel's b = 52.
  constexpr u64 p = NttMultiplier::kPrime;
  const auto is_companion = [](u64 w, u64 w_shoup, unsigned b) {
    const u128 scaled = static_cast<u128>(w) << b;
    const u128 lo = static_cast<u128>(w_shoup) * p;
    return w < p && lo <= scaled && scaled - lo < p;
  };
  const auto& t = ntt_tables();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(is_companion(t.zetas[i], t.zetas_shoup[i], 64)) << "zetas " << i;
    EXPECT_TRUE(is_companion(t.zetas_inv[i], t.zetas_inv_shoup[i], 64)) << "zetas_inv " << i;
    EXPECT_TRUE(is_companion(t.zetas[i], t.zetas_shoup52[i], 52)) << "zetas " << i;
    EXPECT_TRUE(is_companion(t.zetas_inv[i], t.zetas_inv_shoup52[i], 52)) << "zetas_inv " << i;
  }
  for (std::size_t e = 0; e < kNttLaneTwiddles; ++e) {
    EXPECT_TRUE(is_companion(t.fwd_lane_zetas[e], t.fwd_lane_shoup52[e], 52)) << "fwd lane " << e;
    EXPECT_TRUE(is_companion(t.inv_lane_zetas[e], t.inv_lane_shoup52[e], 52)) << "inv lane " << e;
  }
  EXPECT_TRUE(is_companion(t.n_inv, t.n_inv_shoup, 64));
  EXPECT_TRUE(is_companion(t.n_inv, t.n_inv_shoup52, 52));
}

TEST(Ntt, OpCountsPinnedPerTransform) {
  std::array<u64, kN> v{};
  NttMultiplier ntt;
  ntt.forward(v);
  EXPECT_EQ(ntt.ops().coeff_mults, 1024u);
  EXPECT_EQ(ntt.ops().coeff_adds, 2048u);
  ntt.reset_ops();
  ntt.inverse(v);
  EXPECT_EQ(ntt.ops().coeff_mults, 1280u);
  EXPECT_EQ(ntt.ops().coeff_adds, 2048u);
}

// On a CPU with AVX-512 IFMA, NttMultiplier runs the vector kernel of
// mult/ntt_avx512.hpp. It must equal the scalar word-generic kernel (the body
// the ct audit runs) bit for bit, and tally the same OpCounts, on the naive-
// reference inputs and on random lanes mixed with the lazy-bound extremes.
TEST(Ntt, VectorKernelMatchesScalarKernel) {
  const auto& t = ntt_tables();
  if (!t.ifma) GTEST_SKIP() << "CPU lacks AVX-512 F/VL/IFMA: only the scalar kernel runs";
  constexpr u64 p = NttMultiplier::kPrime;
  NttMultiplier ntt;
  Xoshiro256StarStar rng(52);
  const auto lane = [&] {
    const u64 pick = rng.uniform(8);
    return pick == 0 ? 0 : pick == 1 ? p - 1 : rng.uniform(p);
  };
  const auto reference = ntt_reference_inputs();
  for (std::size_t r = 0; r < reference.size() + 10000; ++r) {
    std::array<u64, kN> in{};
    if (r < reference.size()) {
      in = reference[r];
    } else {
      for (auto& x : in) x = lane();
    }
    auto fwd = in, fwd_ref = in, inv = in, inv_ref = in;
    OpCounts ref_ops;
    ntt.reset_ops();
    ntt.forward(fwd);
    ntt.inverse(inv);
    ntt_forward_g<u64>(fwd_ref, t, ref_ops);
    ntt_inverse_g<u64>(inv_ref, t, ref_ops);
    ASSERT_EQ(fwd, fwd_ref) << "input " << r;
    ASSERT_EQ(inv, inv_ref) << "input " << r;
    ASSERT_EQ(ntt.ops().coeff_mults, ref_ops.coeff_mults);
    ASSERT_EQ(ntt.ops().coeff_adds, ref_ops.coeff_adds);
  }

  // pointwise_accumulate: the edge grid over (a, b, acc), 216 lanes of the
  // first call, then random lanes.
  const u64 edges[] = {0, 1, (u64{1} << 41) - 1, u64{1} << 41, p - 2, p - 1};
  for (int call = 0; call < 100; ++call) {
    Transformed a(kN), b(kN), acc(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      const bool grid = call == 0 && i < 216;
      a[i] = static_cast<i64>(grid ? edges[i % 6] : lane());
      b[i] = static_cast<i64>(grid ? edges[i / 6 % 6] : lane());
      acc[i] = static_cast<i64>(grid ? edges[i / 36] : lane());
    }
    const Transformed before = acc;
    ntt.reset_ops();
    ntt.pointwise_accumulate(acc, a, b);
    for (std::size_t i = 0; i < kN; ++i) {
      const u64 prod = ntt_mulmod_g(static_cast<u64>(a[i]), static_cast<u64>(b[i]));
      ASSERT_EQ(static_cast<u64>(acc[i]), ntt_addmod_g(static_cast<u64>(before[i]), prod))
          << a[i] << " * " << b[i] << " + " << before[i];
    }
    ASSERT_EQ(ntt.ops().coeff_mults, kN);
    ASSERT_EQ(ntt.ops().coeff_adds, kN);
  }
}

TEST(Modmath, PowAndInverse) {
  constexpr u64 p = NttMultiplier::kPrime;
  EXPECT_EQ(powmod(2, 10, 1000), 24u);
  const u64 x = 123456789;
  EXPECT_EQ(mulmod(x, invmod_prime(x, p), p), 1u);
}

TEST(Modmath, MillerRabin) {
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(7919));
  EXPECT_TRUE(is_prime_u64(0xFFFFFFFFFFFFFFC5ULL));  // largest 64-bit prime
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_FALSE(is_prime_u64(561));      // Carmichael
  EXPECT_FALSE(is_prime_u64(3215031751ULL));  // strong pseudoprime to 2,3,5,7
}

TEST(Strategy, FactoryKnowsAllNames) {
  for (const auto name : multiplier_names()) {
    const auto m = make_multiplier(name);
    EXPECT_EQ(m->name(), name);
  }
  EXPECT_THROW(make_multiplier("fft"), ContractViolation);
  EXPECT_THROW(make_multiplier("karatsuba-x"), ContractViolation);
}

TEST(Strategy, UnknownNameErrorListsRegisteredMultipliers) {
  try {
    make_multiplier("fft");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown multiplier name: fft"), std::string::npos) << msg;
    for (const auto name : multiplier_names()) {
      EXPECT_NE(msg.find(std::string(name)), std::string::npos)
          << "missing " << name << " in: " << msg;
    }
  }
}

TEST(Strategy, PolyMulAdapter) {
  SchoolbookMultiplier sb;
  const auto fn = as_poly_mul(sb);
  Xoshiro256StarStar rng(9);
  const auto a = Poly::random(rng, 13);
  const auto s = SecretPoly::random(rng, 4);
  EXPECT_EQ(fn(a, s, 13), sb.multiply_secret(a, s, 13));
}

// ------------------------------------------- exact-integer product witnesses

// finalize_witness() is the foundation of the algebraic result checkers in
// src/robust/: its reduce must agree with finalize() for every backend, and
// its length must be one of the two documented forms.
TEST(Witness, ReducesToFinalizeForEveryBackendAndModulus) {
  Xoshiro256StarStar rng(777);
  for (const auto name : {"schoolbook", "karatsuba-8", "toom3", "toom4", "ntt"}) {
    const auto algo = make_multiplier(name);
    for (const unsigned qbits : {10u, 13u}) {
      const auto a = Poly::random(rng, qbits);
      const auto s = SecretPoly::random(rng, 4);
      auto acc = algo->make_accumulator();
      algo->pointwise_accumulate(acc, algo->prepare_public(a, qbits),
                                 algo->prepare_secret(s, qbits));
      const auto w = algo->finalize_witness(acc);
      EXPECT_TRUE(w.size() == 2 * kN - 1 || w.size() == kN)
          << name << " witness length " << w.size();
      EXPECT_EQ(reduce_witness<kN>(std::span<const i64>(w), qbits),
                algo->finalize(acc, qbits))
          << name << " q=" << qbits;
    }
  }
}

TEST(Witness, AccumulatedMatvecRowWitnessIsExact) {
  // An l = 3 accumulated row, the shape Saber's matrix-vector product builds.
  Xoshiro256StarStar rng(778);
  SchoolbookMultiplier ref;
  for (const auto name : {"toom4", "ntt", "karatsuba-4"}) {
    const auto algo = make_multiplier(name);
    Poly expect{};
    auto acc = algo->make_accumulator();
    for (int j = 0; j < 3; ++j) {
      const auto a = Poly::random(rng, 13);
      const auto s = SecretPoly::random(rng, 4);
      algo->pointwise_accumulate(acc, algo->prepare_public(a, 13),
                                 algo->prepare_secret(s, 13));
      ring::add_inplace(expect, ref.multiply_secret(a, s, 13), 13);
    }
    const auto w = algo->finalize_witness(acc);
    EXPECT_EQ(reduce_witness<kN>(std::span<const i64>(w), 13), expect) << name;
  }
}

}  // namespace
}  // namespace saber::mult
