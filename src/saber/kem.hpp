// Saber CCA-secure KEM: the Fujisaki-Okamoto transform with implicit
// rejection wrapped around SaberPke, following the round-3 reference flow
// (SHA3-256 / SHA3-512 for hashing, constant-time ciphertext comparison).
#pragma once

#include <array>
#include <span>
#include <utility>
#include <vector>

#include "saber/pke.hpp"

namespace saber::kem {

using SharedSecret = std::array<u8, SaberParams::key_bytes>;

struct KemKeyPair {
  std::vector<u8> pk;
  std::vector<u8> sk;  ///< pke_sk || pk || SHA3-256(pk) || z
};

struct EncapsResult {
  std::vector<u8> ct;
  SharedSecret key;
};

/// A KEM secret key with the per-key work of decapsulation done once: the
/// secret s forward-transformed (prepare_secret does not depend on the
/// modulus, so the same images serve the mod-p decryption product) and the
/// public key embedded in the blob prepared for the FO re-encryption. The
/// mirror of PreparedPublicKey: read-only once built, so any number of
/// threads may decapsulate against one instance concurrently, on any
/// SaberKemScheme over the same parameters and multiplier configuration.
///
/// The transforms of s are secret-derived (under a supervised multiplier they
/// also retain the raw secret coefficients), so they are wiped on
/// destruction and the type is move-only.
class PreparedSecretKey {
 public:
  PreparedSecretKey(std::vector<mult::Transformed> s, PreparedPublicKey pk) noexcept
      : s_(std::move(s)), pk_(std::move(pk)) {}
  ~PreparedSecretKey() { wipe(); }

  PreparedSecretKey(PreparedSecretKey&&) noexcept = default;
  PreparedSecretKey& operator=(PreparedSecretKey&& other) noexcept;
  PreparedSecretKey(const PreparedSecretKey&) = delete;
  PreparedSecretKey& operator=(const PreparedSecretKey&) = delete;

  std::span<const mult::Transformed> s() const { return s_; }
  const PreparedPublicKey& pk() const { return pk_; }

  /// Zeroize every transform of s in place (the destructor's wipe).
  void wipe() noexcept;

 private:
  std::vector<mult::Transformed> s_;
  PreparedPublicKey pk_;
};

class SaberKemScheme {
 public:
  /// Generic path: any PolyMulFn (hardware models, custom closures).
  SaberKemScheme(const SaberParams& params, ring::PolyMulFn mul);

  /// Fast path: an owned software multiplier (transform-cached batch backend).
  SaberKemScheme(const SaberParams& params,
                 std::shared_ptr<const mult::PolyMultiplier> algo);

  /// Thin wrapper: resolve a strategy name once.
  SaberKemScheme(const SaberParams& params, std::string_view mult_name);

  const SaberParams& params() const { return pke_.params(); }
  const SaberPke& pke() const { return pke_; }

  KemKeyPair keygen(RandomSource& rng) const;

  /// Deterministic key generation from explicit seeds and implicit-rejection
  /// secret `z` (exposed for reproducible tests and the batch pipeline).
  KemKeyPair keygen_deterministic(const Seed& seed_a, const Seed& seed_s,
                                  const SharedSecret& z) const;

  EncapsResult encaps(std::span<const u8> pk, RandomSource& rng) const;

  /// Deterministic encapsulation from an explicit pre-hash message seed
  /// (exposed for reproducible tests).
  EncapsResult encaps_deterministic(std::span<const u8> pk, const Message& m_raw) const;

  /// Deterministic encapsulation against a prepared public key (fast path).
  /// `pk` must be the exact byte string the preparation came from: it still
  /// enters the hash H(pk) binding the shared secret to the key.
  EncapsResult encaps_deterministic(std::span<const u8> pk,
                                    const PreparedPublicKey& prep,
                                    const Message& m_raw) const;

  /// Decapsulation with implicit rejection: always returns a key; on a
  /// tampered ciphertext the key is derived from the secret z instead.
  SharedSecret decaps(std::span<const u8> ct, std::span<const u8> sk) const;

  /// One-time per-key preparation for batched decapsulation (fast path only).
  PreparedSecretKey prepare_sk(std::span<const u8> sk) const;

  /// Decapsulation against a prepared secret key (fast path). `sk` must be
  /// the exact byte string the preparation came from: the pk hash and the
  /// rejection secret z are still read from it.
  SharedSecret decaps(std::span<const u8> ct, std::span<const u8> sk,
                      const PreparedSecretKey& prep) const;

 private:
  EncapsResult encaps_with(std::span<const u8> pk, const PreparedPublicKey* prep,
                           const Message& m_raw) const;
  SharedSecret decaps_with(std::span<const u8> ct, std::span<const u8> sk,
                           const PreparedSecretKey* prep) const;

  SaberPke pke_;
};

}  // namespace saber::kem
