// Tests for the transform-cached batch backend (mult/batch.hpp), the
// split-transform PolyMultiplier API, the prepared-key fast paths in
// SaberPke/SaberKemScheme, and the multithreaded KEM pipeline (saber/batch).
//
// The load-bearing property throughout: the batched/cached paths are
// BIT-IDENTICAL to the scalar per-product reference for every registered
// strategy, every Saber modulus, and any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "common/rng.hpp"
#include "mult/batch.hpp"
#include "mult/strategy.hpp"
#include "saber/batch.hpp"
#include "saber/kem.hpp"

namespace saber {
namespace {

using mult::PolyMultiplier;

ring::PolyMatrix random_matrix(std::size_t l, RandomSource& rng, unsigned qbits) {
  ring::PolyMatrix a(l, l);
  for (std::size_t r = 0; r < l; ++r) {
    for (std::size_t c = 0; c < l; ++c) a.at(r, c) = ring::Poly::random(rng, qbits);
  }
  return a;
}

ring::SecretVec random_secrets(std::size_t l, RandomSource& rng, unsigned bound) {
  ring::SecretVec s(l);
  for (auto& sp : s) sp = ring::SecretPoly::random(rng, bound);
  return s;
}

// (strategy name, qbits): the batched backend must agree with the scalar
// reference for every strategy and every modulus Saber touches.
class BatchDifferential
    : public ::testing::TestWithParam<std::tuple<std::string_view, unsigned>> {
 protected:
  std::unique_ptr<PolyMultiplier> algo_ = mult::make_multiplier(std::get<0>(GetParam()));
  unsigned qbits_ = std::get<1>(GetParam());
};

TEST_P(BatchDifferential, SplitTransformMatchesMultiply) {
  Xoshiro256StarStar rng(901);
  for (int iter = 0; iter < 4; ++iter) {
    const auto a = ring::Poly::random(rng, qbits_);
    const auto s = ring::SecretPoly::random(rng, 5);
    auto acc = algo_->make_accumulator();
    algo_->pointwise_accumulate(acc, algo_->prepare_public(a, qbits_),
                                algo_->prepare_secret(s, qbits_));
    EXPECT_EQ(algo_->finalize(acc, qbits_), algo_->multiply_secret(a, s, qbits_));
  }
}

TEST_P(BatchDifferential, SplitTransformAccumulationMatchesSum) {
  Xoshiro256StarStar rng(902);
  const std::size_t l = 4;  // FireSaber rank, the worst case for headroom
  auto acc = algo_->make_accumulator();
  ring::Poly expect{};
  for (std::size_t i = 0; i < l; ++i) {
    const auto a = ring::Poly::random(rng, qbits_);
    const auto s = ring::SecretPoly::random(rng, 5);
    algo_->pointwise_accumulate(acc, algo_->prepare_public(a, qbits_),
                                algo_->prepare_secret(s, qbits_));
    ring::add_inplace(expect, algo_->multiply_secret(a, s, qbits_), qbits_);
  }
  EXPECT_EQ(algo_->finalize(acc, qbits_), expect);
}

TEST_P(BatchDifferential, MatrixVectorMatchesScalarReference) {
  Xoshiro256StarStar rng(903);
  const auto fn = mult::as_poly_mul(*algo_);
  for (const std::size_t l : {2u, 3u, 4u}) {
    const auto a = random_matrix(l, rng, qbits_);
    const auto s = random_secrets(l, rng, 4);
    for (const bool transpose : {false, true}) {
      const auto ref = ring::matrix_vector_mul(a, s, fn, qbits_, transpose);
      const auto got = mult::matrix_vector_mul(a, s, *algo_, qbits_, transpose);
      EXPECT_EQ(got, ref) << algo_->name() << " qbits=" << qbits_ << " l=" << l
                          << " transpose=" << transpose;
    }
  }
}

TEST_P(BatchDifferential, InnerProductMatchesScalarReference) {
  Xoshiro256StarStar rng(904);
  const auto fn = mult::as_poly_mul(*algo_);
  for (const std::size_t l : {2u, 3u, 4u}) {
    ring::PolyVec b(l);
    for (auto& p : b) p = ring::Poly::random(rng, qbits_);
    const auto s = random_secrets(l, rng, 4);
    EXPECT_EQ(mult::inner_product(b, s, *algo_, qbits_),
              ring::inner_product(b, s, fn, qbits_))
        << algo_->name() << " qbits=" << qbits_ << " l=" << l;
  }
}

TEST_P(BatchDifferential, SecretTransformSharedAcrossModuli) {
  // prepare_secret is qbits-independent, so one prepare_secrets() result must
  // serve products at different moduli — SaberPke::encrypt relies on this to
  // share the ephemeral secret transform between the mod-q matrix product
  // and the mod-p inner product.
  Xoshiro256StarStar rng(910);
  const std::size_t l = 3;
  const auto a = random_matrix(l, rng, qbits_);
  ring::PolyVec b(l);
  for (auto& p : b) p = ring::Poly::random(rng, 10);
  const auto s = random_secrets(l, rng, 4);
  const auto ts = mult::prepare_secrets(s, *algo_, qbits_);
  EXPECT_EQ(mult::matrix_vector_mul(a, ts, *algo_, qbits_, false),
            mult::matrix_vector_mul(a, s, *algo_, qbits_, false));
  EXPECT_EQ(mult::inner_product(b, ts, *algo_, 10),
            mult::inner_product(b, s, *algo_, 10));
}

TEST_P(BatchDifferential, AccumulationCapCoversSaber) {
  // Every backend must accept at least FireSaber's rank (l = 4); the batch
  // helpers reject anything beyond the backend's proven exactness headroom.
  EXPECT_GE(algo_->max_accumulated_terms(), 4u) << algo_->name();
}

TEST_P(BatchDifferential, PreparedOperandsAreReusable) {
  // One PreparedMatrix consumed by several secrets must equal per-call
  // results (the encaps_many usage pattern).
  Xoshiro256StarStar rng(905);
  const std::size_t l = 3;
  const auto a = random_matrix(l, rng, qbits_);
  const mult::PreparedMatrix prep(a, *algo_, qbits_);
  for (int iter = 0; iter < 3; ++iter) {
    const auto s = random_secrets(l, rng, 4);
    EXPECT_EQ(mult::matrix_vector_mul(prep, s, *algo_, false),
              mult::matrix_vector_mul(a, s, *algo_, qbits_, false));
  }
}

std::vector<std::tuple<std::string_view, unsigned>> batch_cases() {
  std::vector<std::tuple<std::string_view, unsigned>> cases;
  for (const auto name : mult::multiplier_names()) {
    for (const unsigned qbits : {10u, 13u, 16u}) cases.emplace_back(name, qbits);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, BatchDifferential,
                         ::testing::ValuesIn(batch_cases()),
                         [](const auto& param_info) {
                           std::string n(std::get<0>(param_info.param));
                           std::ranges::replace(n, '-', '_');
                           return n + "_q" + std::to_string(std::get<1>(param_info.param));
                         });

// --- Saber fast path ------------------------------------------------------

TEST(SaberFastPath, MatchesGenericPathForAllStrategies) {
  // The batched scheme (owned multiplier) must produce byte-identical keys
  // and ciphertexts to the per-product PolyMulFn path over the same strategy.
  for (const auto name : mult::multiplier_names()) {
    const auto algo = mult::make_multiplier(name);
    kem::SaberPke generic(kem::kSaber, mult::as_poly_mul(*algo));
    kem::SaberPke fast(kem::kSaber, name);

    kem::Seed sa{}, ss{}, sp{};
    sa.fill(0x21);
    ss.fill(0x42);
    sp.fill(0x63);
    const auto kg = generic.keygen(sa, ss);
    const auto kf = fast.keygen(sa, ss);
    EXPECT_EQ(kf.pk, kg.pk) << name;
    EXPECT_EQ(kf.sk, kg.sk) << name;

    kem::Message m{};
    m.fill(0x5a);
    const auto ct_g = generic.encrypt(m, sp, kg.pk);
    const auto ct_f = fast.encrypt(m, sp, kf.pk);
    EXPECT_EQ(ct_f, ct_g) << name;
    EXPECT_EQ(fast.decrypt(ct_f, kf.sk), m) << name;
  }
}

TEST(SaberFastPath, PreparedPkEncryptionIsIdentical) {
  kem::SaberPke pke(kem::kSaber, "ntt");
  kem::Seed sa{}, ss{};
  sa.fill(1);
  ss.fill(2);
  const auto keys = pke.keygen(sa, ss);
  const auto prep = pke.prepare_pk(keys.pk);
  Xoshiro256StarStar rng(906);
  for (int iter = 0; iter < 4; ++iter) {
    kem::Message m{};
    kem::Seed seed_sp{};
    rng.fill(m);
    rng.fill(seed_sp);
    EXPECT_EQ(pke.encrypt(m, seed_sp, prep), pke.encrypt(m, seed_sp, keys.pk));
  }
}

TEST(SaberFastPath, KemRoundTripAllParamSets) {
  for (const auto& p : kem::kAllParams) {
    kem::SaberKemScheme scheme(p, "toom4");
    Xoshiro256StarStar rng(907);
    const auto keys = scheme.keygen(rng);
    const auto enc = scheme.encaps(keys.pk, rng);
    EXPECT_EQ(scheme.decaps(enc.ct, keys.sk), enc.key) << p.name;
  }
}

// --- multithreaded batch pipeline ----------------------------------------

std::vector<batch::KeygenRequest> keygen_requests(std::size_t n) {
  std::vector<batch::KeygenRequest> reqs(n);
  Xoshiro256StarStar rng(908);
  for (auto& r : reqs) {
    rng.fill(r.seed_a);
    rng.fill(r.seed_s);
    rng.fill(r.z);
  }
  return reqs;
}

std::vector<kem::Message> message_batch(std::size_t n) {
  std::vector<kem::Message> msgs(n);
  Xoshiro256StarStar rng(909);
  for (auto& m : msgs) rng.fill(m);
  return msgs;
}

TEST(KemBatch, DeterministicAcrossThreadCounts) {
  // Same seeds => same keys, ciphertexts and shared secrets for any thread
  // count (the pipeline's scheduling must not leak into results).
  const auto reqs = keygen_requests(6);
  const auto msgs = message_batch(6);

  batch::KemBatch ref_batch(kem::kSaber, "toom4", 1);
  const auto ref_keys = ref_batch.keygen_many(reqs);
  const auto ref_enc = ref_batch.encaps_many(ref_keys[0].value.pk, msgs);

  for (const unsigned threads : {2u, 3u, 5u}) {
    batch::KemBatch b(kem::kSaber, "toom4", threads);
    EXPECT_EQ(b.threads(), threads);
    const auto keys = b.keygen_many(reqs);
    ASSERT_EQ(keys.size(), ref_keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(keys[i].status, batch::ItemStatus::kOk);
      EXPECT_EQ(keys[i].value.pk, ref_keys[i].value.pk)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(keys[i].value.sk, ref_keys[i].value.sk)
          << "threads=" << threads << " i=" << i;
    }
    const auto enc = b.encaps_many(keys[0].value.pk, msgs);
    ASSERT_EQ(enc.size(), ref_enc.size());
    for (std::size_t i = 0; i < enc.size(); ++i) {
      EXPECT_EQ(enc[i].value.ct, ref_enc[i].value.ct)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(enc[i].value.key, ref_enc[i].value.key)
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(KemBatch, MatchesSingleOperationScheme) {
  // The pipeline must be bit-identical to one-at-a-time operation on a
  // plain scheme with the same strategy.
  kem::SaberKemScheme scheme(kem::kSaber, "ntt");
  batch::KemBatch b(kem::kSaber, "ntt", 3);

  const auto reqs = keygen_requests(3);
  const auto keys = b.keygen_many(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto ref = scheme.keygen_deterministic(reqs[i].seed_a, reqs[i].seed_s,
                                                 reqs[i].z);
    EXPECT_EQ(keys[i].value.pk, ref.pk);
    EXPECT_EQ(keys[i].value.sk, ref.sk);
  }

  const auto msgs = message_batch(4);
  const auto enc = b.encaps_many(keys[0].value.pk, msgs);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const auto ref = scheme.encaps_deterministic(keys[0].value.pk, msgs[i]);
    EXPECT_EQ(enc[i].value.ct, ref.ct);
    EXPECT_EQ(enc[i].value.key, ref.key);
  }
}

TEST(KemBatch, EndToEndRoundTrip) {
  batch::KemBatch b(kem::kFireSaber, "karatsuba-8", 4);
  const auto reqs = keygen_requests(2);
  const auto keys = b.keygen_many(reqs);

  const auto msgs = message_batch(8);
  const auto enc = b.encaps_many(keys[1].value.pk, msgs);

  std::vector<std::vector<u8>> cts;
  cts.reserve(enc.size());
  for (const auto& e : enc) cts.push_back(e.value.ct);
  const auto shared = b.decaps_many(keys[1].value.sk, cts);
  ASSERT_EQ(shared.size(), enc.size());
  for (std::size_t i = 0; i < shared.size(); ++i) {
    EXPECT_EQ(shared[i].status, batch::ItemStatus::kOk);
    EXPECT_EQ(shared[i].value, enc[i].value.key) << i;
  }

  // Implicit rejection still works through the pipeline.
  auto tampered = cts;
  tampered[0][0] ^= 1;
  const auto rejected = b.decaps_many(keys[1].value.sk, tampered);
  EXPECT_NE(rejected[0].value, enc[0].value.key);
  EXPECT_EQ(rejected[1].value, enc[1].value.key);
}

TEST(KemBatch, MalformedSecretKeyFailsEveryItemAlone) {
  // The secret key is prepared once per call, but a bad one must still fail
  // item by item with the preparation's diagnostic, never throw out of the
  // call.
  batch::KemBatch b(kem::kSaber, "ntt", 3);
  const auto keys = b.keygen_many(keygen_requests(1));
  const auto enc = b.encaps_many(keys[0].value.pk, message_batch(4));
  std::vector<std::vector<u8>> cts;
  for (const auto& e : enc) cts.push_back(e.value.ct);
  auto sk = keys[0].value.sk;
  sk.pop_back();

  std::vector<batch::Outcome<kem::SharedSecret>> got;
  ASSERT_NO_THROW(got = b.decaps_many(sk, cts));
  ASSERT_EQ(got.size(), cts.size());
  for (const auto& o : got) {
    EXPECT_EQ(o.status, batch::ItemStatus::kFailed);
    EXPECT_NE(o.error.find("bad KEM secret key length"), std::string::npos) << o.error;
    EXPECT_TRUE(std::ranges::all_of(o.value, [](u8 v) { return v == 0; }));
  }
}

TEST(KemBatch, MalformedPublicKeyFailsEveryItemAlone) {
  batch::KemBatch b(kem::kSaber, "ntt", 3);
  const auto keys = b.keygen_many(keygen_requests(1));
  auto pk = keys[0].value.pk;
  pk.resize(pk.size() / 2);

  std::vector<batch::Outcome<kem::EncapsResult>> got;
  ASSERT_NO_THROW(got = b.encaps_many(pk, message_batch(4)));
  ASSERT_EQ(got.size(), 4u);
  for (const auto& o : got) {
    EXPECT_EQ(o.status, batch::ItemStatus::kFailed);
    EXPECT_NE(o.error.find("bad public key length"), std::string::npos) << o.error;
    EXPECT_TRUE(o.value.ct.empty());
  }
}

// --- prepared secret key --------------------------------------------------

static_assert(std::is_nothrow_move_constructible_v<kem::PreparedSecretKey>);
static_assert(std::is_nothrow_move_assignable_v<kem::PreparedSecretKey>);
static_assert(!std::is_copy_constructible_v<kem::PreparedSecretKey>);
static_assert(!std::is_copy_assignable_v<kem::PreparedSecretKey>);

std::size_t nonzero_words(const kem::PreparedSecretKey& prep) {
  std::size_t n = 0;
  for (const auto& t : prep.s()) {
    n += static_cast<std::size_t>(std::ranges::count_if(t, [](i64 w) { return w != 0; }));
  }
  return n;
}

TEST(PreparedSecretKey, WipeLeavesNoNonZeroWord) {
  for (const auto name : {"ntt", "schoolbook"}) {
    kem::SaberKemScheme scheme(kem::kSaber, name);
    const auto reqs = keygen_requests(1);
    const auto keys = scheme.keygen_deterministic(reqs[0].seed_a, reqs[0].seed_s,
                                                  reqs[0].z);
    auto prep = scheme.prepare_sk(keys.sk);
    ASSERT_EQ(prep.s().size(), kem::kSaber.l) << name;
    EXPECT_GT(nonzero_words(prep), 0u) << name;
    prep.wipe();
    EXPECT_EQ(nonzero_words(prep), 0u) << name;
  }
}

TEST(PreparedSecretKey, MovedKeyStillDecapsulates) {
  kem::SaberKemScheme scheme(kem::kLightSaber, "ntt");
  Xoshiro256StarStar rng(912);
  const auto keys = scheme.keygen(rng);
  const auto enc = scheme.encaps(keys.pk, rng);
  auto first = scheme.prepare_sk(keys.sk);
  kem::PreparedSecretKey moved(std::move(first));
  EXPECT_EQ(scheme.decaps(enc.ct, keys.sk, moved), enc.key);
  auto other = scheme.prepare_sk(scheme.keygen(rng).sk);
  other = std::move(moved);
  EXPECT_EQ(scheme.decaps(enc.ct, keys.sk, other), enc.key);
}

// (kAllParams index, strategy): decaps_many over the shared prepared key must
// equal per-item SaberKemScheme::decaps, for honest and tampered ciphertexts
// and any thread count; the prepared decaps overload must equal the plain one.
class DecapsManyDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::string_view>> {};

TEST_P(DecapsManyDifferential, MatchesPerItemDecaps) {
  const auto& params = kem::kAllParams[std::get<0>(GetParam())];
  const auto name = std::get<1>(GetParam());
  kem::SaberKemScheme scheme(params, name);
  Xoshiro256StarStar rng(911);
  const auto keys = scheme.keygen(rng);
  std::vector<kem::EncapsResult> enc;
  std::vector<std::vector<u8>> cts;
  for (int i = 0; i < 4; ++i) {
    enc.push_back(scheme.encaps(keys.pk, rng));
    cts.push_back(enc.back().ct);
  }
  cts[1][0] ^= 0x01;       // tampered b' part
  cts[3].back() ^= 0x80;   // tampered compressed message part

  const auto prep = scheme.prepare_sk(keys.sk);
  std::vector<kem::SharedSecret> expect;
  for (const auto& ct : cts) {
    expect.push_back(scheme.decaps(ct, keys.sk));
    EXPECT_EQ(scheme.decaps(ct, keys.sk, prep), expect.back());
  }
  EXPECT_EQ(expect[0], enc[0].key);
  EXPECT_NE(expect[1], enc[1].key);  // implicit rejection
  EXPECT_EQ(expect[2], enc[2].key);
  EXPECT_NE(expect[3], enc[3].key);

  for (const unsigned threads : {1u, 2u, 3u, 5u}) {
    batch::KemBatch b(params, name, threads);
    const auto got = b.decaps_many(keys.sk, cts);
    ASSERT_EQ(got.size(), cts.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].status, batch::ItemStatus::kOk) << "threads=" << threads;
      EXPECT_EQ(got[i].value, expect[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

std::vector<std::tuple<std::size_t, std::string_view>> decaps_cases() {
  std::vector<std::tuple<std::size_t, std::string_view>> cases;
  for (std::size_t p = 0; p < std::size(kem::kAllParams); ++p) {
    for (const std::string_view name : {"ntt", "toom4", "karatsuba-8", "schoolbook"}) {
      cases.emplace_back(p, name);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllParamsAndStrategies, DecapsManyDifferential,
                         ::testing::ValuesIn(decaps_cases()),
                         [](const auto& param_info) {
                           std::string n(std::get<1>(param_info.param));
                           std::ranges::replace(n, '-', '_');
                           return std::string(
                                      kem::kAllParams[std::get<0>(param_info.param)].name) +
                                  "_" + n;
                         });

}  // namespace
}  // namespace saber
