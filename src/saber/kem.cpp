#include "saber/kem.hpp"

#include "common/check.hpp"
#include "common/zeroize.hpp"
#include "saber/flows.hpp"

namespace saber::kem {

SaberKemScheme::SaberKemScheme(const SaberParams& params, ring::PolyMulFn mul)
    : pke_(params, std::move(mul)) {}

SaberKemScheme::SaberKemScheme(const SaberParams& params,
                               std::shared_ptr<const mult::PolyMultiplier> algo)
    : pke_(params, std::move(algo)) {}

SaberKemScheme::SaberKemScheme(const SaberParams& params, std::string_view mult_name)
    : pke_(params, mult_name) {}

namespace {

KemKeyPair assemble_kem_keys(PkeKeyPair pke_keys, const SharedSecret& z,
                             const SaberParams& params) {
  auto kp = flows::kem_assemble_flow(
      flows::PkeKeyBytes<u8>{std::move(pke_keys.pk), std::move(pke_keys.sk)},
      std::span<const u8>(z), params);
  return KemKeyPair{std::move(kp.pk), std::move(kp.sk)};
}

}  // namespace

KemKeyPair SaberKemScheme::keygen(RandomSource& rng) const {
  auto pke_keys = pke_.keygen(rng);
  SharedSecret z{};
  rng.fill(z);
  return assemble_kem_keys(std::move(pke_keys), z, params());
}

KemKeyPair SaberKemScheme::keygen_deterministic(const Seed& seed_a, const Seed& seed_s,
                                                const SharedSecret& z) const {
  return assemble_kem_keys(pke_.keygen(seed_a, seed_s), z, params());
}

EncapsResult SaberKemScheme::encaps_with(std::span<const u8> pk,
                                         const PreparedPublicKey* prep,
                                         const Message& m_raw) const {
  auto out = flows::encaps_flow(pk, m_raw, [&](const Message& m, const Seed& r) {
    return prep ? pke_.encrypt(m, r, *prep) : pke_.encrypt(m, r, pk);
  });
  return EncapsResult{std::move(out.ct), out.key};
}

EncapsResult SaberKemScheme::encaps_deterministic(std::span<const u8> pk,
                                                  const Message& m_raw) const {
  return encaps_with(pk, nullptr, m_raw);
}

EncapsResult SaberKemScheme::encaps_deterministic(std::span<const u8> pk,
                                                  const PreparedPublicKey& prep,
                                                  const Message& m_raw) const {
  return encaps_with(pk, &prep, m_raw);
}

EncapsResult SaberKemScheme::encaps(std::span<const u8> pk, RandomSource& rng) const {
  Message m_raw{};
  rng.fill(m_raw);
  return encaps_deterministic(pk, m_raw);
}

PreparedSecretKey& PreparedSecretKey::operator=(PreparedSecretKey&& other) noexcept {
  if (this != &other) {
    wipe();
    s_ = std::move(other.s_);
    pk_ = std::move(other.pk_);
  }
  return *this;
}

void PreparedSecretKey::wipe() noexcept {
  for (auto& t : s_) secure_zeroize(std::span<i64>(t));
}

PreparedSecretKey SaberKemScheme::prepare_sk(std::span<const u8> sk) const {
  const auto& p = params();
  SABER_REQUIRE(sk.size() == p.kem_sk_bytes(), "bad KEM secret key length");
  const mult::PolyMultiplier* algo = pke_.multiplier();
  SABER_REQUIRE(algo != nullptr, "prepare_sk requires an owned multiplier (fast path)");
  // The embedded public key first: once the secret transforms exist, nothing
  // may throw before they are owned by the wiping PreparedSecretKey.
  auto pk = pke_.prepare_pk(sk.subspan(p.pke_sk_bytes(), p.pk_bytes()));
  auto s = pke_.unpack_secret(sk.first(p.pke_sk_bytes()));
  flows::SecretVecGuardT<i8> guard_s{s};
  return PreparedSecretKey(mult::prepare_secrets(s, *algo, SaberParams::eq),
                           std::move(pk));
}

SharedSecret SaberKemScheme::decaps_with(std::span<const u8> ct, std::span<const u8> sk,
                                         const PreparedSecretKey* prep) const {
  return flows::decaps_flow(
      ct, sk, params(),
      [&](std::span<const u8> c, std::span<const u8> pke_sk) {
        return prep ? pke_.decrypt(c, prep->s()) : pke_.decrypt(c, pke_sk);
      },
      [&](const Message& m, const Seed& r, std::span<const u8> pk) {
        return prep ? pke_.encrypt(m, r, prep->pk()) : pke_.encrypt(m, r, pk);
      });
}

SharedSecret SaberKemScheme::decaps(std::span<const u8> ct, std::span<const u8> sk) const {
  return decaps_with(ct, sk, nullptr);
}

SharedSecret SaberKemScheme::decaps(std::span<const u8> ct, std::span<const u8> sk,
                                    const PreparedSecretKey& prep) const {
  return decaps_with(ct, sk, &prep);
}

}  // namespace saber::kem
