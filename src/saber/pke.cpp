#include "saber/pke.hpp"

#include "common/check.hpp"
#include "mult/strategy.hpp"
#include "saber/flows.hpp"
#include "saber/gen.hpp"

namespace saber::kem {

namespace {

constexpr unsigned kEq = SaberParams::eq;
constexpr unsigned kEp = SaberParams::ep;

}  // namespace

SaberPke::SaberPke(const SaberParams& params, ring::PolyMulFn mul)
    : params_(params), mul_(std::move(mul)) {
  SABER_REQUIRE(static_cast<bool>(mul_), "multiplier required");
}

SaberPke::SaberPke(const SaberParams& params,
                   std::shared_ptr<const mult::PolyMultiplier> algo)
    : params_(params), algo_(std::move(algo)) {
  SABER_REQUIRE(static_cast<bool>(algo_), "multiplier required");
}

SaberPke::SaberPke(const SaberParams& params, std::string_view mult_name)
    : SaberPke(params, std::shared_ptr<const mult::PolyMultiplier>(
                           mult::make_multiplier(mult_name))) {}

ring::PolyVec SaberPke::mat_vec(const ring::PolyMatrix& a, const ring::SecretVec& s,
                                bool transpose) const {
  if (algo_) return mult::matrix_vector_mul(a, s, *algo_, kEq, transpose);
  return ring::matrix_vector_mul(a, s, mul_, kEq, transpose);
}

ring::Poly SaberPke::inner(const ring::PolyVec& b, const ring::SecretVec& s,
                           unsigned qbits) const {
  if (algo_) return mult::inner_product(b, s, *algo_, qbits);
  return ring::inner_product(b, s, mul_, qbits);
}

std::vector<u8> SaberPke::pack_secret(const ring::SecretVec& s) const {
  return flows::pack_secret_g(s, params_);
}

ring::SecretVec SaberPke::unpack_secret(std::span<const u8> sk) const {
  return flows::unpack_secret_g(sk, params_);
}

std::vector<u8> SaberPke::pack_pk(const ring::PolyVec& b, const Seed& seed_a) const {
  return flows::pack_pk_g(b, seed_a, params_);
}

void SaberPke::unpack_pk(std::span<const u8> pk, ring::PolyVec& b, Seed& seed_a) const {
  flows::unpack_pk_g(pk, b, seed_a, params_);
}

PkeKeyPair SaberPke::keygen(const Seed& seed_a_in, const Seed& seed_s) const {
  auto out = flows::keygen_flow(
      seed_a_in, std::span<const u8>(seed_s), params_,
      [this](const ring::PolyMatrix& a, const ring::SecretVec& s, bool transpose) {
        return mat_vec(a, s, transpose);
      });
  return PkeKeyPair{std::move(out.pk), std::move(out.sk)};
}

PkeKeyPair SaberPke::keygen(RandomSource& rng) const {
  Seed seed_a{}, seed_s{};
  rng.fill(seed_a);
  rng.fill(seed_s);
  return keygen(seed_a, seed_s);
}

std::vector<u8> SaberPke::encrypt(const Message& m, const Seed& seed_sp,
                                  std::span<const u8> pk) const {
  return flows::encrypt_flow(
      m, std::span<const u8>(seed_sp), pk, params_,
      [this](const ring::PolyMatrix& a, const ring::PolyVec& b,
             const ring::SecretVec& sp) {
        if (algo_) {
          // One secret transform serves both the mod-q matrix product and
          // the mod-p inner product (prepare_secret is qbits-independent).
          const auto tsp = mult::prepare_secrets(sp, *algo_, kEq);
          auto bp = mult::matrix_vector_mul(a, tsp, *algo_, kEq, /*transpose=*/false);
          auto vp = mult::inner_product(b, tsp, *algo_, kEp);
          return std::pair{std::move(bp), std::move(vp)};
        }
        return std::pair{ring::matrix_vector_mul(a, sp, mul_, kEq, /*transpose=*/false),
                         ring::inner_product(b, sp, mul_, kEp)};
      });
}

PreparedPublicKey SaberPke::prepare_pk(std::span<const u8> pk) const {
  SABER_REQUIRE(static_cast<bool>(algo_),
                "prepare_pk requires an owned multiplier (fast path)");
  ring::PolyVec b;
  Seed seed_a{};
  unpack_pk(pk, b, seed_a);
  const auto a = gen_matrix(seed_a, params_);
  return PreparedPublicKey{mult::PreparedMatrix(a, *algo_, kEq),
                           mult::PreparedVector(b, *algo_, kEp)};
}

std::vector<u8> SaberPke::encrypt(const Message& m, const Seed& seed_sp,
                                  const PreparedPublicKey& pk) const {
  SABER_REQUIRE(static_cast<bool>(algo_),
                "prepared encryption requires an owned multiplier (fast path)");
  auto sp = gen_secret(seed_sp, params_);
  flows::SecretVecGuardT<i8> guard_sp{sp};
  // As in the unprepared path: transform the ephemeral secret once and share
  // it between A s' and <b, s'>.
  const auto tsp = mult::prepare_secrets(sp, *algo_, kEq);
  auto bp = mult::matrix_vector_mul(pk.a, tsp, *algo_, /*transpose=*/false);
  const auto vp = mult::inner_product(pk.b, tsp, *algo_);
  return flows::encrypt_seal_g(m, std::move(bp), vp, params_);
}

Message SaberPke::decrypt(std::span<const u8> ct, std::span<const u8> sk) const {
  auto s = unpack_secret(sk);
  flows::SecretVecGuardT<i8> guard_s{s};
  return flows::decrypt_flow<u8>(
      ct, params_, [&](const ring::PolyVec& bp) { return inner(bp, s, kEp); });
}

Message SaberPke::decrypt(std::span<const u8> ct,
                          std::span<const mult::Transformed> ts) const {
  SABER_REQUIRE(static_cast<bool>(algo_),
                "prepared decryption requires an owned multiplier (fast path)");
  return flows::decrypt_flow<u8>(ct, params_, [&](const ring::PolyVec& bp) {
    return mult::inner_product(bp, ts, *algo_, kEp);
  });
}

}  // namespace saber::kem
