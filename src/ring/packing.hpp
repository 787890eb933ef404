// Bit-packing codecs.
//
// Saber serializes polynomials by packing k-bit coefficients LSB-first into a
// little-endian bit stream (the reference implementation's BS2POL/POL2BS
// family). The hardware models view the same stream as little-endian 64-bit
// memory words, matching the paper's 64-bit data bus (§2.2), and the sampler
// reads its binomial fields from it.
//
// One grouped codec body (pack_bits_g / unpack_bits_g) serves every stream.
// Its invariant: 8 consecutive values of `bits` bits (1..16) occupy exactly
// `bits` bytes, assembled in two u64 lanes; a stream ends in at most one
// partial group. Every shift amount derives from the public width and the
// position in the group, and nothing is indexed or branched on by value, so
// the same body runs over ct::Tainted words in the audit (secret keys pass
// through it). The codec packs the low `bits` bits of each value, so signed
// values pack as two's complement.
#pragma once

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "ct/tainted.hpp"
#include "ring/poly.hpp"

namespace saber::ring {

/// Words needed to store `count` coefficients of `bits` bits each.
constexpr std::size_t words_for(std::size_t count, unsigned bits) {
  return ceil_div<std::size_t>(count * bits, 64);
}

/// Bytes needed to store `count` coefficients of `bits` bits each.
constexpr std::size_t bytes_for(std::size_t count, unsigned bits) {
  return ceil_div<std::size_t>(count * bits, 8);
}

/// Pack the low `bits` bits of each value LSB-first into `out`, which must
/// hold exactly bytes_for(values.size(), bits) bytes.
template <typename W, typename B>
void pack_bits_g(std::span<const W> values, unsigned bits, std::span<B> out) {
  static_assert(ct::is_tainted_v<B> == ct::is_tainted_v<W>,
                "byte and value words must share a taint mode");
  SABER_REQUIRE(bits >= 1 && bits <= 16, "bit width out of range");
  SABER_REQUIRE(out.size() == bytes_for(values.size(), bits), "output size mismatch");
  for (std::size_t g = 0; g < values.size(); g += 8) {
    const std::size_t n = std::min<std::size_t>(8, values.size() - g);
    ct::rebind_t<W, u64> lo{0}, hi{0};
    for (unsigned j = 0; j < n; ++j) {
      const auto v = ct::low_bits_g(values[g + j], bits);
      const unsigned off = j * bits;
      if (off < 64) {
        lo = lo | (v << off);
        if (off + bits > 64) hi = hi | (v >> (64 - off));
      } else {
        hi = hi | (v << (off - 64));
      }
    }
    const std::size_t base = g / 8 * bits;
    for (std::size_t k = 0; k < bytes_for(n, bits); ++k) {
      out[base + k] = ct::cast<u8>((k < 8 ? lo : hi) >> (8 * (k % 8)));
    }
  }
}

/// Inverse of pack_bits_g. `data` must hold at least values.size()*bits
/// bits; bits past the last value are ignored.
template <typename B, typename W>
void unpack_bits_g(std::span<const B> data, unsigned bits, std::span<W> values) {
  static_assert(ct::is_tainted_v<B> == ct::is_tainted_v<W>,
                "byte and value words must share a taint mode");
  SABER_REQUIRE(bits >= 1 && bits <= 16, "bit width out of range");
  SABER_REQUIRE(data.size() >= bytes_for(values.size(), bits), "input too short");
  const u64 mask = mask64(bits);
  for (std::size_t g = 0; g < values.size(); g += 8) {
    const std::size_t n = std::min<std::size_t>(8, values.size() - g);
    const std::size_t base = g / 8 * bits;
    ct::rebind_t<B, u64> lo{0}, hi{0};
    for (std::size_t k = 0; k < bytes_for(n, bits); ++k) {
      auto& lane = k < 8 ? lo : hi;
      lane = lane | (ct::cast<u64>(data[base + k]) << (8 * (k % 8)));
    }
    for (unsigned j = 0; j < n; ++j) {
      const unsigned off = j * bits;
      auto v = off >= 64 ? hi >> (off - 64) : lo >> off;
      if (off < 64 && off + bits > 64) v = v | (hi << (64 - off));
      values[g + j] = ct::cast<ct::raw_t<W>>(v & mask);
    }
  }
}

/// Plain-word entry points. Packing rejects a value that does not fit in
/// `bits` bits.
void pack_bits(std::span<const u16> values, unsigned bits, std::span<u8> out);
std::vector<u8> pack_bits(std::span<const u16> values, unsigned bits);
void unpack_bits(std::span<const u8> data, unsigned bits, std::span<u16> values);

/// Unpack two's-complement fields, sign-extended into the signed words of
/// `values` (the inverse of pack_bits_g over signed values).
template <typename S>
void unpack_signed(std::span<const u8> data, unsigned bits, std::span<S> values) {
  unpack_bits_g(data, bits, values);
  for (auto& v : values) v = static_cast<S>(sign_extend(static_cast<u64>(v), bits));
}

/// The byte stream under an array of 64-bit memory words: byte i is bits
/// [8(i mod 8), 8(i mod 8) + 8) of word i/8. On a little-endian host that is
/// the array's object representation, so the codec reads and writes words in
/// place.
static_assert(std::endian::native == std::endian::little,
              "the memory-word view assumes a little-endian host");
inline std::span<u8> byte_view(std::vector<u64>& words) {
  return {reinterpret_cast<u8*>(words.data()), words.size() * sizeof(u64)};
}
inline std::span<const u8> byte_view(std::span<const u64> words) {
  return {reinterpret_cast<const u8*>(words.data()), words.size() * sizeof(u64)};
}

/// Pack values into little-endian 64-bit memory words (the layout the
/// multiplier architectures stream from BRAM): the word view of pack_bits.
std::vector<u64> pack_words(std::span<const u16> values, unsigned bits);

/// Inverse of pack_words.
void unpack_words(std::span<const u64> words, unsigned bits, std::span<u16> values);

/// Pack a polynomial's low `bits` bits per coefficient.
template <std::size_t N, typename C>
std::vector<ct::rebind_t<C, u8>> pack_poly(const PolyT<N, C>& p, unsigned bits) {
  std::vector<ct::rebind_t<C, u8>> out(bytes_for(N, bits));
  pack_bits_g(std::span<const C>(p.c), bits, std::span(out));
  return out;
}

/// Pack each polynomial of `v` (public or secret) into consecutive
/// bytes_for(N, bits)-byte slices of `out`, which must hold exactly all of
/// them.
template <typename P, typename B>
void pack_vec(const std::vector<P>& v, unsigned bits, std::span<B> out) {
  using C = typename decltype(P::c)::value_type;
  const std::size_t n = bytes_for(P::size(), bits);
  SABER_REQUIRE(out.size() == v.size() * n, "packed vector size mismatch");
  for (std::size_t i = 0; i < v.size(); ++i) {
    pack_bits_g(std::span<const C>(v[i].c), bits, out.subspan(i * n, n));
  }
}

/// Convenience: unpack a polynomial (coefficients end up reduced mod 2^bits).
template <std::size_t N, typename B>
PolyT<N, ct::rebind_t<B, u16>> unpack_poly(std::span<const B> data, unsigned bits) {
  PolyT<N, ct::rebind_t<B, u16>> p;
  unpack_bits_g(data, bits, std::span<ct::rebind_t<B, u16>>(p.c));
  return p;
}

/// Plain-byte overload so callers can pass vectors/subspans directly (the
/// word-generic template above requires an exact std::span match to deduce).
template <std::size_t N>
PolyT<N> unpack_poly(std::span<const u8> data, unsigned bits) {
  return unpack_poly<N, u8>(data, bits);
}

/// Secret polynomials as memory words: the two's-complement low `bits` bits
/// of each coefficient, sixteen 4-bit coefficients per 64-bit word for Saber
/// (§2.2: "we pack 16 coefficients of a secret polynomial in a 64-bit
/// memory-word").
template <std::size_t N>
std::vector<u64> pack_secret_words(const SecretPolyT<N>& s, unsigned bits) {
  std::vector<u64> words(words_for(N, bits), 0);
  pack_bits_g(std::span<const i8>(s.c), bits,
              byte_view(words).first(bytes_for(N, bits)));
  return words;
}

template <std::size_t N>
SecretPolyT<N> unpack_secret_words(std::span<const u64> words, unsigned bits) {
  SecretPolyT<N> s;
  unpack_signed(byte_view(words), bits, std::span<i8>(s.c));
  return s;
}

}  // namespace saber::ring
