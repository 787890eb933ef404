// Saber IND-CPA public-key encryption (round-3 spec, algorithms
// Saber.PKE.KeyGen / Enc / Dec), with the polynomial multiplier injected so
// the scheme can run on any software algorithm or simulated hardware
// multiplier.
//
// Two injection forms exist:
//  * a `mult::PolyMultiplier` instance (owned, resolved once) — the fast
//    path: matrix products run through the transform-cached batch backend
//    (mult/batch.hpp), and public keys can be pre-transformed with
//    prepare_pk() to amortize A-expansion and forward transforms across many
//    encryptions (and a secret key's transforms shared across many
//    decryptions, see kem::PreparedSecretKey);
//  * a raw `ring::PolyMulFn` — the generic path used by the cycle-accurate
//    hardware models, which multiply one product at a time by design.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "mult/batch.hpp"
#include "ring/polyvec.hpp"
#include "saber/params.hpp"

namespace saber::kem {

struct PkeKeyPair {
  std::vector<u8> pk;  ///< packed b (l * 320 bytes) || seed_A (32 bytes)
  std::vector<u8> sk;  ///< packed s, 13-bit two's complement (l * 416 bytes)
};

using Message = std::array<u8, SaberParams::key_bytes>;
using Seed = std::array<u8, SaberParams::seed_bytes>;

/// A public key with the expensive per-key work done once: A expanded from
/// its seed and forward-transformed, b forward-transformed. Reusable across
/// any number of encrypt() calls on the SaberPke that produced it (or any
/// SaberPke over the same parameters and multiplier strategy).
struct PreparedPublicKey {
  mult::PreparedMatrix a;   ///< transforms of A, mod q
  mult::PreparedVector b;   ///< transforms of b, mod p
};

class SaberPke {
 public:
  /// Generic path: any PolyMulFn (hardware models, custom closures).
  SaberPke(const SaberParams& params, ring::PolyMulFn mul);

  /// Fast path: an owned software multiplier; matrix products use the
  /// transform-cached batch backend.
  SaberPke(const SaberParams& params,
           std::shared_ptr<const mult::PolyMultiplier> algo);

  /// Thin wrapper: resolve a strategy name once (see multiplier_names()).
  SaberPke(const SaberParams& params, std::string_view mult_name);

  const SaberParams& params() const { return params_; }

  /// The owned multiplier, or nullptr on the generic PolyMulFn path.
  const mult::PolyMultiplier* multiplier() const { return algo_.get(); }

  /// Key generation from explicit seeds (deterministic; the KEM layer and
  /// tests use this). seed_a is re-hashed through SHAKE-128 as in the
  /// reference implementation before expanding A.
  PkeKeyPair keygen(const Seed& seed_a, const Seed& seed_s) const;

  /// Randomized key generation.
  PkeKeyPair keygen(RandomSource& rng) const;

  /// Encrypt a 256-bit message under randomness seed `seed_sp`.
  std::vector<u8> encrypt(const Message& m, const Seed& seed_sp,
                          std::span<const u8> pk) const;

  /// One-time per-key preparation for batched encryption (fast path only).
  PreparedPublicKey prepare_pk(std::span<const u8> pk) const;

  /// Encrypt against a prepared public key (fast path only).
  std::vector<u8> encrypt(const Message& m, const Seed& seed_sp,
                          const PreparedPublicKey& pk) const;

  /// Decrypt.
  Message decrypt(std::span<const u8> ct, std::span<const u8> sk) const;

  /// Decrypt with the secret already transformed (mult::prepare_secrets over
  /// the unpacked sk, any modulus; fast path only). Bit-identical to the
  /// overload above.
  Message decrypt(std::span<const u8> ct, std::span<const mult::Transformed> ts) const;

  // --- encoding helpers (exposed for tests and the hardware-backed KEM) ---
  std::vector<u8> pack_secret(const ring::SecretVec& s) const;
  ring::SecretVec unpack_secret(std::span<const u8> sk) const;
  std::vector<u8> pack_pk(const ring::PolyVec& b, const Seed& seed_a) const;
  void unpack_pk(std::span<const u8> pk, ring::PolyVec& b, Seed& seed_a) const;

 private:
  ring::PolyVec mat_vec(const ring::PolyMatrix& a, const ring::SecretVec& s,
                        bool transpose) const;
  ring::Poly inner(const ring::PolyVec& b, const ring::SecretVec& s,
                   unsigned qbits) const;

  SaberParams params_;
  std::shared_ptr<const mult::PolyMultiplier> algo_;  ///< fast path when set
  ring::PolyMulFn mul_;                               ///< generic path otherwise
};

}  // namespace saber::kem
