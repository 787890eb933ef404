// Tests for the bit-packing codecs (byte streams and 64-bit memory words).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ring/packing.hpp"

namespace saber::ring {
namespace {

class PackingRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(PackingRoundTrip, Bytes) {
  const unsigned bits = GetParam();
  Xoshiro256StarStar rng(bits);
  std::vector<u16> vals(kN);
  for (auto& v : vals) v = static_cast<u16>(rng.uniform(u64{1} << bits));
  const auto bytes = pack_bits(vals, bits);
  EXPECT_EQ(bytes.size(), bytes_for(kN, bits));
  std::vector<u16> back(kN);
  unpack_bits(bytes, bits, back);
  EXPECT_EQ(back, vals);
}

TEST_P(PackingRoundTrip, Words) {
  const unsigned bits = GetParam();
  Xoshiro256StarStar rng(bits + 100);
  std::vector<u16> vals(kN);
  for (auto& v : vals) v = static_cast<u16>(rng.uniform(u64{1} << bits));
  const auto words = pack_words(vals, bits);
  EXPECT_EQ(words.size(), words_for(kN, bits));
  std::vector<u16> back(kN);
  unpack_words(words, bits, back);
  EXPECT_EQ(back, vals);
}

TEST_P(PackingRoundTrip, ByteAndWordViewsAgree) {
  // The word stream must be the little-endian view of the byte stream —
  // that is what lets the hardware models and the serialized keys share one
  // layout.
  const unsigned bits = GetParam();
  Xoshiro256StarStar rng(bits + 200);
  std::vector<u16> vals(kN);
  for (auto& v : vals) v = static_cast<u16>(rng.uniform(u64{1} << bits));
  const auto bytes = pack_bits(vals, bits);
  const auto words = pack_words(vals, bits);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(bytes[i], static_cast<u8>(words[i / 8] >> (8 * (i % 8)))) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PackingRoundTrip,
                         ::testing::Values(1u, 3u, 4u, 6u, 10u, 13u, 16u));

// Bit-serial reference codec: bit b of value i is stream bit i*bits + b, and
// stream bit k is bit k%8 of byte k/8.
std::vector<u8> reference_pack(std::span<const u16> vals, unsigned bits) {
  std::vector<u8> out(bytes_for(vals.size(), bits), 0);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    for (unsigned b = 0; b < bits; ++b) {
      const std::size_t k = i * bits + b;
      const unsigned bit = (static_cast<unsigned>(vals[i]) >> b) & 1u;
      out[k / 8] = static_cast<u8>(out[k / 8] | (bit << (k % 8)));
    }
  }
  return out;
}

std::vector<u16> reference_unpack(std::span<const u8> data, unsigned bits,
                                  std::size_t count) {
  std::vector<u16> out(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    for (unsigned b = 0; b < bits; ++b) {
      const std::size_t k = i * bits + b;
      const unsigned bit = (static_cast<unsigned>(data[k / 8]) >> (k % 8)) & 1u;
      out[i] = static_cast<u16>(out[i] | (bit << b));
    }
  }
  return out;
}

TEST(Packing, GroupedCodecMatchesBitSerialReference) {
  // Every width, and every count up to five groups of 8, so each possible
  // partial last group is exercised.
  Xoshiro256StarStar rng(15);
  for (unsigned bits = 1; bits <= 16; ++bits) {
    for (std::size_t count = 0; count <= 40; ++count) {
      SCOPED_TRACE(::testing::Message() << "bits=" << bits << " count=" << count);
      std::vector<u16> vals(count);
      for (auto& v : vals) v = static_cast<u16>(rng.uniform(u64{1} << bits));

      const auto bytes = pack_bits(vals, bits);
      ASSERT_EQ(bytes, reference_pack(vals, bits));
      const auto words = pack_words(vals, bits);
      ASSERT_EQ(words.size(), words_for(count, bits));
      for (std::size_t i = 0; i < 8 * words.size(); ++i) {
        const u8 expect = i < bytes.size() ? bytes[i] : 0;  // zero-padded word
        ASSERT_EQ(static_cast<u8>(words[i / 8] >> (8 * (i % 8))), expect) << "i=" << i;
      }

      // Unpacking an arbitrary stream agrees with the reference.
      std::vector<u8> noise(bytes.size() + 3);
      for (auto& b : noise) b = static_cast<u8>(rng.uniform(256));
      std::vector<u16> got(count);
      unpack_bits(noise, bits, got);
      ASSERT_EQ(got, reference_unpack(noise, bits, count));

      // Set padding bits after the last value do not change what unpacks,
      // in the byte stream or its word view.
      std::vector<u8> padded(8 * words.size() + 8, 0xff);
      std::copy(bytes.begin(), bytes.end(), padded.begin());
      for (std::size_t k = count * bits; k < 8 * bytes.size(); ++k) {
        padded[k / 8] = static_cast<u8>(padded[k / 8] | (1u << (k % 8)));
      }
      unpack_bits(padded, bits, got);
      ASSERT_EQ(got, vals);
      std::vector<u64> padded_words(padded.size() / 8, 0);
      for (std::size_t i = 0; i < padded.size(); ++i) {
        padded_words[i / 8] |= u64{padded[i]} << (8 * (i % 8));
      }
      unpack_words(padded_words, bits, got);
      ASSERT_EQ(got, vals);
    }
  }
}

TEST(Packing, KnownLayout13Bit) {
  // Coefficients c0 = 1, c1 = 2: bit 0 set and bit 14 set.
  std::vector<u16> vals = {1, 2};
  const auto bytes = pack_bits(vals, 13);
  ASSERT_EQ(bytes.size(), 4u);  // ceil(26 / 8)
  EXPECT_EQ(bytes[0], 0x01);    // c0 bit0
  EXPECT_EQ(bytes[1], 0x40);    // c1 bit1 -> stream bit 14
  EXPECT_EQ(bytes[2], 0x00);
  EXPECT_EQ(bytes[3], 0x00);
}

TEST(Packing, RejectsOutOfRangeValues) {
  std::vector<u16> vals = {8};  // needs 4 bits
  EXPECT_THROW(pack_bits(vals, 3), ContractViolation);
  EXPECT_THROW(pack_words(vals, 3), ContractViolation);
}

TEST(Packing, RejectsShortInput) {
  std::vector<u8> data(2);
  std::vector<u16> out(3);
  EXPECT_THROW(unpack_bits(data, 13, out), ContractViolation);
}

TEST(Packing, PolyConvenienceRoundTrip) {
  Xoshiro256StarStar rng(5);
  const auto p = Poly::random(rng, 10);
  const auto bytes = pack_poly(p, 10);
  EXPECT_EQ(bytes.size(), 320u);  // Saber's b polynomial
  EXPECT_EQ(unpack_poly<kN>(bytes, 10), p);
}

TEST(Packing, SecretWordsRoundTrip) {
  Xoshiro256StarStar rng(6);
  for (unsigned bound : {4u, 5u}) {
    const auto s = SecretPoly::random(rng, bound);
    const auto words = pack_secret_words(s, 4);
    // Saber: 256 coefficients * 4 bits = 16 words of 64 bits (§2.2).
    EXPECT_EQ(words.size(), 16u);
    if (bound <= 4) {  // 4-bit two's complement holds [-8, 7]
      EXPECT_EQ(unpack_secret_words<kN>(words, 4), s);
    }
  }
}

TEST(Packing, SecretWordsSixteenCoefficientsPerWord) {
  SecretPoly s{};
  s[0] = 1;
  s[15] = -1;
  s[16] = 2;
  const auto words = pack_secret_words(s, 4);
  EXPECT_EQ(words[0] & 0xf, 1u);
  EXPECT_EQ((words[0] >> 60) & 0xf, 0xfu);  // -1 in 4-bit two's complement
  EXPECT_EQ(words[1] & 0xf, 2u);
}

TEST(Packing, PublicPolyOccupies52Words) {
  // 256 coefficients x 13 bits = 3328 bits = 52 words: the paper's loading
  // arithmetic (thirteen 64-bit blocks per 64 coefficients) depends on this.
  EXPECT_EQ(words_for(256, 13), 52u);
  EXPECT_EQ(words_for(64, 13), 13u);
}

}  // namespace
}  // namespace saber::ring
