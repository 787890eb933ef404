#include "multipliers/lightweight.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"
#include "common/fixed_list.hpp"
#include "ring/packing.hpp"

namespace saber::arch {

namespace {

constexpr unsigned kQ = MemoryMap::kQBits;
constexpr std::size_t kNn = ring::kN;

/// Accumulator words one public coefficient's window can touch, for every
/// MAC count (the window is always one 16-coefficient secret block).
/// Contiguous, the 16 x 13 = 208-bit window spans ceil(208/64) = 4 words,
/// plus 1 when it does not start on a word boundary. The negacyclic wrap
/// splits it into two runs, one ending at the top of the accumulator and one
/// starting at bit 0; allow one more word for that split. (The accumulator is
/// 256 x 13 = 3,328 bits = 52 whole words, so the wrap is word-aligned and 5
/// is the tight bound; the spare slot keeps the capacity independent of it.)
constexpr std::size_t kMaxWindowWords = (16 * kQ + 63) / 64 + 2;

}  // namespace

LightweightMultiplier::LightweightMultiplier(const LightweightConfig& cfg) : cfg_(cfg) {
  SABER_REQUIRE(cfg.macs == 4 || cfg.macs == 8 || cfg.macs == 16,
                "lightweight variants: 4, 8 or 16 MACs (§4.2)");
  SABER_REQUIRE(cfg.max_mag == 4 || cfg.max_mag == 5,
                "supported secret magnitude ranges: 4 or 5");
  name_ = "lw" + std::to_string(cfg.macs);
  build_area();
  // Measure the schedule once: the cycle count is data-independent.
  const ring::Poly zero{};
  const ring::SecretPoly zs{};
  headline_ = multiply(zero, zs).cycles.total;
}

MultiplierResult LightweightMultiplier::multiply(const ring::Poly& a,
                                                 const ring::SecretPoly& s,
                                                 const ring::Poly* accumulate) {
  SABER_REQUIRE(s.max_magnitude() <= cfg_.max_mag,
                "secret magnitude exceeds the configured multiplier range");
  MultiplierResult res;
  // §4.2: the 8/16-MAC variants bank 2/4 BRAMs to widen the accumulator bus.
  const unsigned banks = cfg_.macs / 4;
  hw::Bram64 mem(MemoryMap::kTotalWords, banks);
  load_operands(mem, a, s);
  if (trace_memory_) mem.enable_trace();

  // The accumulator lives in memory. A mirror keeps the functional value; the
  // schedule below issues the real word reads/writes so the port discipline
  // and access counts are exact.
  std::array<u16, kNn> acc{};
  if (accumulate != nullptr) {
    SABER_REQUIRE(accumulate->reduced(kQ), "accumulator must be reduced mod q");
    for (std::size_t j = 0; j < kNn; ++j) acc[j] = (*accumulate)[j];
    store_accumulator(mem, *accumulate);
  }

  mem.set_fault_hook(fault_hook_);

  auto& st = res.cycles;
  auto run_cycle = [&] {
    mem.tick();
    ++st.total;
  };

  // Decode a secret coefficient from a latched 64-bit secret block word. A
  // corrupted nibble can decode outside the configured range; the select mux
  // saturates at max_mag (cannot happen fault-free).
  auto decode_secret = [&](u64 word, unsigned m) -> i8 {
    const unsigned bits = MemoryMap::kSecretBits;
    const u64 v = (word >> (m * bits)) & mask64(bits);
    i64 sv = v >= (u64{1} << (bits - 1)) ? static_cast<i64>(v) - (i64{1} << bits)
                                         : static_cast<i64>(v);
    const i64 cap = static_cast<i64>(cfg_.max_mag);
    if (sv > cap) sv = cap;
    if (sv < -cap) sv = -cap;
    return static_cast<i8>(sv);
  };

  // Apply the bits a hooked read upset flipped in accumulator word `w` to the
  // mirror coefficients overlapping that word. Fault-free the XOR is zero, so
  // this is provably a no-op; with a fault it makes the mirror track what the
  // real datapath would have accumulated on top of the upset word.
  auto apply_read_xor = [&](std::size_t w, u64 x) {
    if (x == 0) return;
    const std::size_t first = (64 * w) / kQ;
    const std::size_t last = std::min<std::size_t>(kNn - 1, (64 * w + 63) / kQ);
    for (std::size_t c = first; c <= last; ++c) {
      const i64 shift = static_cast<i64>(c * kQ) - static_cast<i64>(64 * w);
      const u64 bits = shift >= 0 ? (x >> shift) : (x << -shift);
      acc[c] = static_cast<u16>((acc[c] ^ bits) & mask64(kQ));
    }
  };

  // Packed view of the accumulator word `w` from the mirror.
  auto acc_word = [&](std::size_t w) {
    u64 v = 0;
    // Coefficients overlapping bits [64w, 64w+64).
    const std::size_t first = (64 * w) / kQ;
    const std::size_t last = std::min<std::size_t>(kNn - 1, (64 * w + 63) / kQ);
    for (std::size_t c = first; c <= last; ++c) {
      const std::size_t bit = c * kQ;
      const i64 shift = static_cast<i64>(bit) - static_cast<i64>(64 * w);
      const u64 val = acc[c];
      if (shift >= 0) {
        if (shift < 64) v |= val << shift;
      } else {
        v |= val >> (-shift);
      }
    }
    return v;
  };

  // ------------------------------------------------------------------ run
  // Prologue (§4.1): load the first and the last secret block so negacyclic
  // negation during shifting is possible from the start.
  mem.read(MemoryMap::kSecretBase + 0);
  run_cycle();
  u64 sec_word = mem.read_data();  // block 0's latched secret word
  mem.read(MemoryMap::kSecretBase + 15);
  run_cycle();
  run_cycle();  // read latency of the second word
  st.preload += 3;

  for (std::size_t block = 0; block < 16; ++block) {
    if (block > 0) {
      // Fetch this pass's secret block; the MAC pipeline is paused.
      mem.read(MemoryMap::kSecretBase + block);
      run_cycle();
      sec_word = mem.read_data();
      run_cycle();
      st.stall_secret_load += 2;
    }
    // This pass consumes the 16 coefficients of the latched block word.
    std::array<i8, 16> sblk;
    for (unsigned m = 0; m < 16; ++m) sblk[m] = decode_secret(sec_word, m);
    // Preload the first two public words of the pass.
    FixedList<u64, MemoryMap::kPublicWords> pub_words;
    mem.read(MemoryMap::kPublicBase + 0);
    run_cycle();
    pub_words.push_back(mem.read_data());
    mem.read(MemoryMap::kPublicBase + 1);
    run_cycle();
    pub_words.push_back(mem.read_data());
    run_cycle();
    st.preload += 3;
    auto pub_coeff = [&](std::size_t i) -> u16 {
      const std::size_t bit = i * kQ;
      SABER_ENSURE((bit + kQ + 63) / 64 <= pub_words.size(), "public stream underrun");
      const std::size_t w = bit / 64, off = bit % 64;
      u64 v = pub_words[w] >> off;
      if (off + kQ > 64) v |= pub_words[w + 1] << (64 - off);
      return static_cast<u16>(v & mask64(kQ));
    };

    unsigned buffer_bits = 128;
    std::size_t next_public_word = 2;
    // §4.2 retention-buffer state (banked 8/16-MAC variants only).
    std::vector<std::size_t> resident, pending_reads, pending_writes;

    for (std::size_t i = 0; i < kNn; ++i) {
      // ---- functional update: a[i] times the 16 coefficients of the block.
      // Operands come from the latched memory reads (see high_speed.cpp):
      // fault-free this is the exact pack/unpack roundtrip.
      const hw::MultipleSet multiples(pub_coeff(i), kQ, cfg_.max_mag);
      for (unsigned m = 0; m < 16; ++m) {
        const std::size_t c = i + 16 * block + m;
        const std::size_t idx = c % kNn;
        const bool negate = c >= kNn;  // negacyclic wrap (c < 2N always)
        const i8 sj = sblk[m];
        const unsigned mag = static_cast<unsigned>(sj < 0 ? -sj : sj);
        // The shift-and-add product leaves the small multiplier before the
        // MAC adder consumes it — the LW analogue of HS-II's DSP output site.
        u16 multiple = multiples.select(mag);
        if (fault_hook_ != nullptr) {
          multiple = static_cast<u16>(
              low_bits(fault_hook_->on_small_mult(multiple, kQ), kQ));
        }
        acc[idx] = hw::mac_accumulate(acc[idx], multiple,
                                      negate != (sj < 0), kQ, fault_hook_);
      }

      // ---- accumulator word list for this coefficient's window.
      FixedList<std::size_t, kMaxWindowWords> words;
      for (unsigned m = 0; m < 16; ++m) {
        const std::size_t idx = (i + 16 * block + m) % kNn;
        const std::size_t w0 = (idx * kQ) / 64;
        const std::size_t w1 = (idx * kQ + kQ - 1) / 64;
        for (std::size_t w = w0; w <= w1; ++w) {
          if (std::ranges::find(words, w) == words.end()) words.push_back(w);
        }
      }

      // ---- schedule.
      const unsigned compute = 16 / cfg_.macs;
      if (cfg_.macs == 4) {
        // 4-MAC flow (§4.1): the accumulator streams straight through the
        // single port pair. Every word the window touches is re-read and
        // re-written each public coefficient; when the 208-bit window spans
        // five words instead of four (or wraps negacyclically), the extra
        // word costs one stall cycle.
        const unsigned cycles_i =
            std::max(compute, static_cast<unsigned>(words.size()));
        std::size_t wpos = 0;
        for (unsigned cyc = 0; cyc < cycles_i; ++cyc) {
          bool issued = false;
          std::size_t issued_word = 0;
          if (wpos < words.size()) {
            issued = true;
            issued_word = words[wpos];
            mem.read(MemoryMap::kAccBase + issued_word);
            mem.write(MemoryMap::kAccBase + issued_word, acc_word(issued_word));
            ++wpos;
          }
          run_cycle();
          if (issued) apply_read_xor(issued_word, mem.read_fault_xor(0));
        }
        st.compute += compute;
        st.stall_accumulator += cycles_i - compute;
      } else {
        // 8/16-MAC trade-off (§4.2): a small retention buffer keeps the
        // words of the current window resident, so only the words newly
        // entering the window are read and only retired words are written —
        // traffic the wider banked bus absorbs without stalling.
        for (const auto w : words) {
          if (std::ranges::find(resident, w) == resident.end()) {
            resident.push_back(w);
            pending_reads.push_back(w);
          }
        }
        while (resident.size() > words.size()) {
          // Words that dropped out of the window retire (write back).
          pending_writes.push_back(resident.front());
          resident.erase(resident.begin());
        }
        for (unsigned cyc = 0; cyc < compute; ++cyc) {
          FixedList<std::size_t, 4> issued;  // one read per bank, <= 4 banks
          for (unsigned p = 0; p < banks; ++p) {
            if (!pending_reads.empty()) {
              issued.push_back(pending_reads.front());
              mem.read(MemoryMap::kAccBase + pending_reads.front());
              pending_reads.erase(pending_reads.begin());
            }
            if (!pending_writes.empty()) {
              mem.write(MemoryMap::kAccBase + pending_writes.front(),
                        acc_word(pending_writes.front()));
              pending_writes.erase(pending_writes.begin());
            }
          }
          run_cycle();
          for (std::size_t k = 0; k < issued.size(); ++k) {
            apply_read_xor(issued[k], mem.read_fault_xor(k));
          }
        }
        st.compute += compute;
      }
      res.power.ff_toggles += cfg_.macs * kQ * compute;

      // ---- public buffer: 13 bits consumed; refill when >= 64 bits free
      // (§4.1). With one port pair the refill pauses the accumulator stream
      // (one cycle for the word plus one to re-prime the read-ahead); the
      // banked variants hide the re-prime in the spare port slots.
      buffer_bits -= kQ;
      if (buffer_bits <= 64 && next_public_word < MemoryMap::kPublicWords) {
        mem.read(MemoryMap::kPublicBase + next_public_word);
        ++next_public_word;
        buffer_bits += 64;
        run_cycle();
        pub_words.push_back(mem.read_data());
        st.stall_public_load += 1;
        if (cfg_.macs == 4) {
          run_cycle();
          st.stall_public_load += 1;
        }
      }
    }
    // Flush the retention buffer (banked variants) and drain the lagging
    // write of the last updated word(s).
    for (const auto w : resident) pending_writes.push_back(w);
    resident.clear();
    while (!pending_writes.empty()) {
      for (unsigned p = 0; p < banks && !pending_writes.empty(); ++p) {
        mem.write(MemoryMap::kAccBase + pending_writes.front(),
                  acc_word(pending_writes.front()));
        pending_writes.erase(pending_writes.begin());
      }
      run_cycle();
      ++st.readout;
    }
    run_cycle();
    run_cycle();
    st.readout += 2;
  }

  ring::Poly out;
  for (std::size_t j = 0; j < kNn; ++j) out[j] = acc[j];
  res.power.ff_bits = area_.total().ff;
  res.power.bram_reads = mem.reads();
  res.power.bram_writes = mem.writes();
  // The defining LW property: the result is already in memory when the FSM
  // stops — no separate readout phase exists.
  if (trace_memory_) res.mem_trace = mem.trace();
  if (fault_hook_ != nullptr) {
    // A write-port fault legitimately desyncs the mirror from the memory
    // image; the product is what a consumer would read back.
    res.product = read_result(mem);
  } else {
    res.product = out;
    SABER_ENSURE(read_result(mem) == out, "memory-resident accumulator mismatch");
  }
  return res;
}

void LightweightMultiplier::build_area() {
  using namespace hw;
  const unsigned macs = cfg_.macs;
  const AreaCost multiple_gen =
      cfg_.max_mag == 5 ? adder(kQ) + adder(kQ) : adder(kQ);
  // Centralized-multiplier optimization reused from §3.1 (the paper: "it also
  // employs the centralized-multiplier optimization").
  area_.add("central multiple generator (3a adder)", 1, multiple_gen);
  area_.add("MAC: multiple select mux (5:1 x 13b)", macs, mux(cfg_.max_mag + 1, kQ));
  area_.add("MAC: accumulator add/sub", macs, add_sub(kQ));
  area_.add("secret block buffers (2 x 64b)", 1, reg(128));
  area_.add("secret shift + wrap negate", 1, mux(2, 64) + cond_negate(4));
  area_.add("public double buffer (2 x 64b)", 1, reg(128));
  area_.add("public 24b window extract mux (13 offsets)", 1, mux(16, kQ) + glue_lut(10));
  area_.add("public buffer load mux", 1, mux(2, 64));
  area_.add("accumulator stream align (13b/step incremental)", cfg_.macs / 4,
            glue_lut(90));
  area_.add("accumulator write-back merge (partial word)", cfg_.macs / 4, glue_lut(40));
  if (macs > 4) {
    // §4.2: "using a buffer to temporarily store a part of the accumulator".
    area_.add("accumulator retention buffer", macs / 4, reg(128) + glue_lut(20));
  }
  area_.add("address generators (3 regions)", 1, glue_lut(27) + reg(12));
  area_.add("control FSM + counters", 1,
            counter(8) + counter(4) + counter(3) + glue_lut(52) + reg(18));
  area_.add("memory interface", cfg_.macs / 4, glue_lut(12) + reg(3));
}

}  // namespace saber::arch
