// Coprocessor integration tests: executing the Saber programs on the
// instruction-set coprocessor model (with any multiplier architecture) must
// produce byte-identical results to the pure-software implementation.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "coproc/programs.hpp"
#include "mult/strategy.hpp"
#include "multipliers/high_speed.hpp"
#include "saber/kem.hpp"

namespace saber::coproc {
namespace {

using kem::kFireSaber;
using kem::kSaber;

SaberCoproc::Seed seed_of(u8 fill) {
  SaberCoproc::Seed s{};
  s.fill(fill);
  return s;
}

// Software reference KEM for byte-for-byte comparison.
kem::SaberKemScheme sw_scheme(const kem::SaberParams& p) {
  static const auto algo = mult::make_multiplier("schoolbook");
  return kem::SaberKemScheme(p, mult::as_poly_mul(*algo));
}

// Reconstruct the software KEM keypair from the same seeds the coprocessor
// uses (keygen(rng) consumes seed_a then seed_s then z in order).
class FixedSeedSource final : public RandomSource {
 public:
  explicit FixedSeedSource(std::vector<u8> stream) : stream_(std::move(stream)) {}
  void fill(std::span<u8> out) override {
    SABER_REQUIRE(pos_ + out.size() <= stream_.size(), "seed stream exhausted");
    std::copy_n(stream_.begin() + static_cast<std::ptrdiff_t>(pos_), out.size(),
                out.begin());
    pos_ += out.size();
  }

 private:
  std::vector<u8> stream_;
  std::size_t pos_ = 0;
};

class CoprocE2E : public ::testing::TestWithParam<std::string_view> {
 protected:
  std::unique_ptr<arch::HwMultiplier> mult_ = arch::make_architecture(GetParam());
};

TEST_P(CoprocE2E, KeygenMatchesSoftwareByteForByte) {
  SaberCoproc cp(kSaber, *mult_);
  const auto sa = seed_of(0x11), ss = seed_of(0x22), z = seed_of(0x33);
  const auto hw = cp.keygen(sa, ss, z);

  std::vector<u8> stream;
  stream.insert(stream.end(), sa.begin(), sa.end());
  stream.insert(stream.end(), ss.begin(), ss.end());
  stream.insert(stream.end(), z.begin(), z.end());
  FixedSeedSource rng(stream);
  const auto sw = sw_scheme(kSaber).keygen(rng);

  EXPECT_EQ(hw.pk, sw.pk);
  EXPECT_EQ(hw.sk, sw.sk);
}

TEST_P(CoprocE2E, EncapsDecapsMatchSoftware) {
  SaberCoproc cp(kSaber, *mult_);
  const auto keys = cp.keygen(seed_of(1), seed_of(2), seed_of(3));
  const auto m_raw = seed_of(0x44);

  const auto hw_enc = cp.encaps(keys.pk, m_raw);
  const auto scheme = sw_scheme(kSaber);
  kem::Message m{};
  std::copy(m_raw.begin(), m_raw.end(), m.begin());
  const auto sw_enc = scheme.encaps_deterministic(keys.pk, m);
  EXPECT_EQ(hw_enc.ct, sw_enc.ct);
  EXPECT_EQ(hw_enc.key, sw_enc.key);

  const auto hw_dec = cp.decaps(hw_enc.ct, keys.sk);
  EXPECT_EQ(hw_dec.key, hw_enc.key);
}

TEST_P(CoprocE2E, ImplicitRejectionMatchesSoftware) {
  SaberCoproc cp(kSaber, *mult_);
  const auto keys = cp.keygen(seed_of(5), seed_of(6), seed_of(7));
  const auto enc = cp.encaps(keys.pk, seed_of(8));
  auto tampered = enc.ct;
  tampered[10] ^= 0x04;
  const auto hw = cp.decaps(tampered, keys.sk);
  EXPECT_NE(hw.key, enc.key);
  const auto sw = sw_scheme(kSaber).decaps(tampered, keys.sk);
  EXPECT_EQ(std::vector<u8>(hw.key.begin(), hw.key.end()),
            std::vector<u8>(sw.begin(), sw.end()));
}

INSTANTIATE_TEST_SUITE_P(Architectures, CoprocE2E,
                         ::testing::Values("hs1-256", "hs1-512", "hs2", "hs2-wide",
                                           "lw4", "lw8", "lw16", "baseline-256",
                                           "karatsuba-hw", "ntt-hw"),
                         [](const auto& pinfo) {
                           std::string n(pinfo.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(Coproc, FireSaberWorksToo) {
  const auto mult = arch::make_architecture("hs1-256");
  SaberCoproc cp(kFireSaber, *mult);
  const auto keys = cp.keygen(seed_of(9), seed_of(10), seed_of(11));
  const auto enc = cp.encaps(keys.pk, seed_of(12));
  EXPECT_EQ(cp.decaps(enc.ct, keys.sk).key, enc.key);
}

TEST(Coproc, LightSaberNeedsMag5Multiplier) {
  // LightSaber secrets reach |s| = 5: the Saber-range architectures reject
  // them, the max_mag=5 configurations handle them.
  arch::HighSpeedMultiplier m5(arch::HighSpeedConfig{256, true, 5});
  SaberCoproc cp(kem::kLightSaber, m5);
  const auto keys = cp.keygen(seed_of(13), seed_of(14), seed_of(15));
  const auto enc = cp.encaps(keys.pk, seed_of(16));
  EXPECT_EQ(cp.decaps(enc.ct, keys.sk).key, enc.key);
}

TEST(Coproc, CycleLedgerBreakdownIsComplete) {
  const auto mult = arch::make_architecture("hs1-256");
  SaberCoproc cp(kSaber, *mult);
  const auto keys = cp.keygen(seed_of(17), seed_of(18), seed_of(19));
  const auto& c = keys.cycles;
  EXPECT_GT(c.multiplier, 0u);
  EXPECT_GT(c.hash, 0u);
  EXPECT_GT(c.sampler, 0u);
  EXPECT_GT(c.data, 0u);
  EXPECT_GT(c.control, 0u);
  EXPECT_EQ(c.total(), c.multiplier + c.hash + c.sampler + c.data + c.control);
  EXPECT_NE(c.to_string().find("mult share"), std::string::npos);
}

// Cycle ledgers of one executed keygen -> encaps -> decaps run of `params` on
// `mult`, seeded from `seed` upwards; decaps must recover the encapsulated key.
struct KemLedgers {
  CycleLedger keygen, encaps, decaps;

  CycleLedger all() const {
    CycleLedger sum = keygen;
    sum += encaps;
    sum += decaps;
    return sum;
  }
};

KemLedgers run_kem(arch::HwMultiplier& mult, u8 seed, const kem::SaberParams& params) {
  SaberCoproc cp(params, mult);
  const auto keys =
      cp.keygen(seed_of(seed), seed_of(static_cast<u8>(seed + 1)),
                seed_of(static_cast<u8>(seed + 2)));
  const auto enc = cp.encaps(keys.pk, seed_of(static_cast<u8>(seed + 3)));
  const auto dec = cp.decaps(enc.ct, keys.sk);
  EXPECT_EQ(dec.key, enc.key) << mult.name() << " " << params.name;
  return {keys.cycles, enc.cycles, dec.cycles};
}

KemLedgers run_kem(std::string_view arch_name, u8 seed) {
  const auto mult = arch::make_architecture(arch_name);
  return run_kem(*mult, seed, kSaber);
}

TEST(Coproc, MultShareNearPaperClaim) {
  // §1: multiplication takes "up to 56%" of the KEM time on the [10]-class
  // design; the executed ledgers must land in that neighbourhood.
  const auto r = run_kem("baseline-256", 20);
  EXPECT_GT(r.all().mult_share(), 0.45);
  EXPECT_LT(r.all().mult_share(), 0.70);
}

TEST(Profile, HighSpeedMultShareNearPaper) {
  // The same claim per operation: encapsulation on its own stays in the
  // neighbourhood of 56%, and no operation exceeds the whole-KEM bound.
  const auto r = run_kem("baseline-256", 20);
  EXPECT_GT(r.encaps.mult_share(), 0.45);
  EXPECT_LT(r.encaps.mult_share(), 0.65);
  for (const auto* op : {&r.keygen, &r.encaps, &r.decaps}) {
    EXPECT_GT(op->mult_share(), 0.45);
    EXPECT_LT(op->mult_share(), 0.70);
  }
}

TEST(Coproc, FasterMultiplierLowersShare) {
  const auto slow = run_kem("hs1-256", 28);
  const auto fast = run_kem("hs1-512", 28);
  EXPECT_LT(fast.all().mult_share(), slow.all().mult_share());
  EXPECT_LT(fast.all().total(), slow.all().total());
}

TEST(Coproc, LightweightIsMultiplicationBound) {
  EXPECT_GT(run_kem("lw4", 32).all().mult_share(), 0.95);
}

TEST(Coproc, DecapsIsTheMostExpensiveOperation) {
  // decaps = decrypt + full re-encryption: always the most expensive phase.
  const auto r = run_kem("hs1-256", 24);
  EXPECT_GT(r.decaps.total(), r.encaps.total());
  EXPECT_GT(r.encaps.total(), r.keygen.total());
}

TEST(Profile, DecapsCostsMoreThanKeygen) {
  // The ordering holds on every parameter set, not only on Saber (LightSaber's
  // |s| = 5 secrets need the max_mag = 5 configuration of HS-I-256).
  u8 seed = 40;
  for (const auto& params : kem::kAllParams) {
    arch::HighSpeedMultiplier mult(
        arch::HighSpeedConfig{256, true, params.secret_bound() > 4 ? 5u : 4u});
    const auto r = run_kem(mult, seed, params);
    seed = static_cast<u8>(seed + 4);
    EXPECT_GT(r.decaps.total(), r.encaps.total()) << params.name;
    EXPECT_GT(r.encaps.total(), r.keygen.total()) << params.name;
  }
}

TEST(Coproc, InstructionLevelErrors) {
  const auto mult = arch::make_architecture("hs1-256");
  Coprocessor cp(*mult, 1024);
  CycleLedger ledger;
  // Store without any product.
  EXPECT_THROW(cp.execute(OpStoreAccRound{{0, 320}, 4, 13, 3, 10}, ledger),
               ContractViolation);
  // Accumulate without a first product.
  EXPECT_THROW(cp.execute(OpPolyMulAcc{{0, 416}, {416, 128}, false}, ledger),
               ContractViolation);
  // Out-of-bounds region.
  EXPECT_THROW(cp.execute(OpCopy{{0, 2048}, {0, 2048}}, ledger), ContractViolation);
}

TEST(Coproc, MnemonicsForTracing) {
  EXPECT_EQ(mnemonic(OpShake128{}), "shake128");
  EXPECT_EQ(mnemonic(OpPolyMulAcc{}), "poly.mulacc");
  EXPECT_EQ(mnemonic(OpCMov{}), "cmov");
}

TEST(Units, SpongeCycleModel) {
  UnitCosts c;
  // 32-byte input, 32-byte output through SHAKE-128: one permutation.
  EXPECT_EQ(sponge_cycles(c, 32, 32, 168), 2u + 4u + 24u + 4u);
  // Squeezing 336 bytes = 2 extra permutations beyond the first block.
  EXPECT_EQ(sponge_cycles(c, 32, 336, 168), 2u + 4u + 24u * 2u + 42u);
}

TEST(Units, StreamAndSamplerModels) {
  UnitCosts c;
  EXPECT_EQ(stream_cycles(c, 416), 2u + 52u);
  EXPECT_EQ(sampler_cycles(c, 256), 2u + 64u);
}

}  // namespace
}  // namespace saber::coproc
