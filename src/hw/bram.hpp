// Cycle-accurate model of the 64-bit memory the paper's multipliers attach to
// (§2.2: "we implement all polynomial multiplier architectures considering a
// 64-bit memory ... the multipliers have 64-bit data exchange ports").
//
// The model enforces the structural constraints the lightweight architecture
// is built around (§4.1: "a single BRAM with only one read and one write
// port"): at most `ports` reads and `ports` writes may be issued per cycle —
// one more is a ContractViolation, making schedule bugs hard failures in
// tests. Reads have one cycle of latency, as in a real synchronous BRAM.
//
// `ports > 1` models the §4.2 trade-off of "increasing the amount of data
// that can be stored to BRAM per cycle ... by working with more BRAMs in
// parallel" for the 8- and 16-MAC lightweight variants.
#pragma once

#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/fixed_list.hpp"
#include "hw/fault_hook.hpp"

namespace saber::hw {

class Bram64 {
 public:
  explicit Bram64(std::size_t words, unsigned ports = 1);

  std::size_t size() const { return mem_.size(); }
  unsigned ports() const { return ports_; }

  // The per-cycle port operations below are inline: every architecture model
  // issues them on each simulated cycle.

  /// Issue a read of `addr`; data is visible via read_data() after tick().
  void read(std::size_t addr) {
    SABER_REQUIRE(pending_reads_.size() < ports_,
                  "BRAM read-port conflict: too many reads in one cycle");
    SABER_REQUIRE(addr < mem_.size(), "BRAM read out of range");
    pending_reads_.push_back(addr);
    ++reads_;
    if (tracing_) trace_.push_back({cycle_, Access::Kind::kRead, addr});
  }

  /// Issue a write; committed at tick().
  void write(std::size_t addr, u64 value) {
    SABER_REQUIRE(pending_writes_.size() < ports_,
                  "BRAM write-port conflict: too many writes in one cycle");
    SABER_REQUIRE(addr < mem_.size(), "BRAM write out of range");
    for (const auto& w : pending_writes_) {
      SABER_REQUIRE(w.addr != addr, "BRAM write-port conflict: same address twice");
    }
    pending_writes_.push_back({addr, value});
    ++writes_;
    if (tracing_) trace_.push_back({cycle_, Access::Kind::kWrite, addr});
  }

  std::size_t reads_issued() const { return pending_reads_.size(); }
  std::size_t writes_issued() const { return pending_writes_.size(); }

  /// Advance one clock edge: commit pending writes, latch read data.
  /// Reads see pre-write contents (read-first mode). The fault hook sits on
  /// the data paths: read data before latching, write data before commit.
  void tick() {
    latched_.clear();
    latched_xor_.clear();
    for (const auto addr : pending_reads_) {
      u64 v = mem_[addr];
      if (fault_hook_) v = fault_hook_->on_bram_read(addr, v);
      latched_.push_back(v);
      latched_xor_.push_back(v ^ mem_[addr]);
    }
    for (const auto& w : pending_writes_) {
      u64 v = w.value;
      if (fault_hook_) v = fault_hook_->on_bram_write(w.addr, v);
      mem_[w.addr] = v;
    }
    pending_reads_.clear();
    pending_writes_.clear();
    ++cycle_;
  }

  /// Data of the i-th read issued in the previous cycle.
  u64 read_data(std::size_t i = 0) const {
    SABER_REQUIRE(i < latched_.size(), "BRAM read_data with no such read last cycle");
    return latched_[i];
  }
  std::size_t reads_completed() const { return latched_.size(); }

  /// Bits the fault hook flipped in the i-th read latched last cycle (zero
  /// when no hook is attached or the hook left the word intact). Lets an
  /// architecture with a memory-resident accumulator apply a read upset to
  /// its internal mirror exactly: fault-free this is all-zero, so mirroring
  /// the XOR is provably a no-op.
  u64 read_fault_xor(std::size_t i = 0) const {
    SABER_REQUIRE(i < latched_xor_.size(),
                  "BRAM read_fault_xor with no such read last cycle");
    return latched_xor_[i];
  }

  // Backdoor access for test setup and result extraction (not cycle-counted,
  // does not use the ports).
  u64 peek(std::size_t addr) const;
  void poke(std::size_t addr, u64 value);

  // Access statistics (the paper's low-power argument is about minimizing
  // these; the power proxy reads them).
  u64 reads() const { return reads_; }
  u64 writes() const { return writes_; }

  /// Address trace for side-channel analysis: when enabled, every issued
  /// access is recorded as (cycle, kind, address) — deliberately *without*
  /// data values, so comparing two traces checks exactly the property a
  /// constant-time design must have (§3.1): the memory-access pattern does
  /// not depend on the processed secrets.
  struct Access {
    u64 cycle;
    enum class Kind : u8 { kRead, kWrite } kind;
    std::size_t addr;

    bool operator==(const Access&) const = default;
  };
  void enable_trace() { tracing_ = true; }
  const std::vector<Access>& trace() const { return trace_; }

  /// Install a fault hook on the data paths (read data before latching,
  /// write data before commit). Null disables injection; the caller owns the
  /// hook's lifetime. Backdoor peek/poke bypass the hook, so test setup and
  /// result extraction stay fault-free.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }

 private:
  /// Modeled banks, hence the per-cycle port queues' capacity.
  static constexpr unsigned kMaxPorts = 4;

  struct Write {
    std::size_t addr;
    u64 value;
  };
  std::vector<u64> mem_;
  unsigned ports_;
  FixedList<std::size_t, kMaxPorts> pending_reads_;
  FixedList<Write, kMaxPorts> pending_writes_;
  FixedList<u64, kMaxPorts> latched_;
  FixedList<u64, kMaxPorts> latched_xor_;
  u64 reads_ = 0;
  u64 writes_ = 0;
  u64 cycle_ = 0;
  bool tracing_ = false;
  std::vector<Access> trace_;
  FaultHook* fault_hook_ = nullptr;
};

}  // namespace saber::hw
