#include "hw/bram.hpp"

#include "common/check.hpp"

namespace saber::hw {

Bram64::Bram64(std::size_t words, unsigned ports) : mem_(words, 0), ports_(ports) {
  SABER_REQUIRE(ports >= 1 && ports <= kMaxPorts, "modeled BRAM banks: 1..4");
}

u64 Bram64::peek(std::size_t addr) const {
  SABER_REQUIRE(addr < mem_.size(), "BRAM peek out of range");
  return mem_[addr];
}

void Bram64::poke(std::size_t addr, u64 value) {
  SABER_REQUIRE(addr < mem_.size(), "BRAM poke out of range");
  mem_[addr] = value;
}

}  // namespace saber::hw
