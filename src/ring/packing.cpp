#include "ring/packing.hpp"

#include "common/check.hpp"

namespace saber::ring {

void pack_bits(std::span<const u16> values, unsigned bits, std::span<u8> out) {
  for (u16 v : values) SABER_REQUIRE(v <= mask64(bits), "value exceeds bit width");
  pack_bits_g(values, bits, out);
}

std::vector<u8> pack_bits(std::span<const u16> values, unsigned bits) {
  std::vector<u8> out(bytes_for(values.size(), bits));
  pack_bits(values, bits, out);
  return out;
}

void unpack_bits(std::span<const u8> data, unsigned bits, std::span<u16> values) {
  unpack_bits_g(data, bits, values);
}

std::vector<u64> pack_words(std::span<const u16> values, unsigned bits) {
  std::vector<u64> words(words_for(values.size(), bits), 0);
  pack_bits(values, bits, byte_view(words).first(bytes_for(values.size(), bits)));
  return words;
}

void unpack_words(std::span<const u64> words, unsigned bits, std::span<u16> values) {
  unpack_bits(byte_view(words), bits, values);
}

}  // namespace saber::ring
