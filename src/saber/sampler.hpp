// Centered-binomial secret sampling (beta_mu in the Saber spec).
//
// Each coefficient is HW(x) - HW(y) for independent (mu/2)-bit strings x, y
// taken LSB-first from a SHAKE-128 output stream, giving values in
// [-mu/2, mu/2] — the "smallness" every architecture in the paper exploits.
//
// The kernel is templated over the byte word type: the SHAKE output derives
// from the secret seed, so under the ct_audit build the whole stream is
// ct::Tainted<u8> and the sampled coefficients come out tainted. The stream
// is read as 2n fields of mu/2 bits by the grouped codec of ring/packing.hpp
// (8 fields per mu/2 bytes, public shifts), and the popcount iterates over
// the public field width, so nothing branches on or indexes by the data.
#pragma once

#include <array>
#include <span>

#include "ct/tainted.hpp"
#include "ring/packing.hpp"
#include "ring/poly.hpp"
#include "saber/params.hpp"

namespace saber::kem {

/// Word-generic sampler core. Consumes n*mu bits (= n*mu/8 bytes) from
/// `buf`; `buf` must be exactly that long.
template <typename B>
ring::SecretPolyT<ring::kN, ct::rebind_t<B, i8>> cbd_sample_g(std::span<const B> buf,
                                                              unsigned mu) {
  SABER_REQUIRE(mu % 2 == 0 && mu >= 2 && mu <= 10, "unsupported binomial parameter");
  SABER_REQUIRE(buf.size() == ring::kN * mu / 8, "sampler input length mismatch");
  const unsigned half = mu / 2;
  using F = ct::rebind_t<B, u16>;
  std::array<F, 2 * ring::kN> fields{};
  ring::unpack_bits_g(buf, half, std::span<F>(fields));
  ring::SecretPolyT<ring::kN, ct::rebind_t<B, i8>> s;
  for (std::size_t i = 0; i < ring::kN; ++i) {
    s[i] = ct::cast<i8>(ct::cast<i32>(ct::popcount_low_g(fields[2 * i], half)) -
                        ct::cast<i32>(ct::popcount_low_g(fields[2 * i + 1], half)));
  }
  return s;
}

/// Sample one secret polynomial from a plain bit stream (production API).
ring::SecretPoly cbd_sample(std::span<const u8> buf, unsigned mu);

}  // namespace saber::kem
