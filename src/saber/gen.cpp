#include "saber/gen.hpp"

#include "common/check.hpp"
#include "ring/packing.hpp"
#include "saber/sampler.hpp"
#include "sha3/sha3.hpp"

namespace saber::kem {

ring::PolyMatrix gen_matrix(std::span<const u8> seed, const SaberParams& params) {
  SABER_REQUIRE(seed.size() == SaberParams::seed_bytes, "bad seed length");
  const std::size_t l = params.l;
  const std::size_t poly_bytes = params.poly_q_bytes();
  const auto buf = sha3::Shake128::hash(seed, l * l * poly_bytes);
  ring::PolyMatrix a(l, l);
  for (std::size_t r = 0; r < l; ++r) {
    for (std::size_t c = 0; c < l; ++c) {
      const auto slice =
          std::span<const u8>(buf).subspan((r * l + c) * poly_bytes, poly_bytes);
      ring::unpack_bits(slice, SaberParams::eq, a.at(r, c).c);
    }
  }
  return a;
}

ring::SecretVec gen_secret(std::span<const u8> seed, const SaberParams& params) {
  return gen_secret_g(seed, params);
}

}  // namespace saber::kem
