#include "coproc/coprocessor.hpp"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <sstream>

#include "common/check.hpp"
#include "ring/packing.hpp"
#include "saber/sampler.hpp"
#include "sha3/sha3.hpp"

namespace saber::coproc {

namespace {

constexpr std::size_t kNn = ring::kN;
constexpr unsigned kQ = 13;

std::string mnemonic_impl(const Instruction& ins) {
  struct Visitor {
    std::string operator()(const OpShake128&) const { return "shake128"; }
    std::string operator()(const OpSha3_256&) const { return "sha3-256"; }
    std::string operator()(const OpSha3_512&) const { return "sha3-512"; }
    std::string operator()(const OpSampleCbd&) const { return "sample.cbd"; }
    std::string operator()(const OpPolyMulAcc&) const { return "poly.mulacc"; }
    std::string operator()(const OpStoreAccRound&) const { return "acc.round"; }
    std::string operator()(const OpStoreAccEncode&) const { return "acc.encode"; }
    std::string operator()(const OpStoreAccDecode&) const { return "acc.decode"; }
    std::string operator()(const OpRepack&) const { return "repack"; }
    std::string operator()(const OpRepackSigned&) const { return "repack.s"; }
    std::string operator()(const OpCopy&) const { return "copy"; }
    std::string operator()(const OpVerify&) const { return "verify"; }
    std::string operator()(const OpCMov&) const { return "cmov"; }
  };
  return std::visit(Visitor{}, ins);
}

}  // namespace

std::string mnemonic(const Instruction& ins) { return mnemonic_impl(ins); }

namespace {

std::string reg_str(const Region& r) {
  std::ostringstream os;
  os << "[0x" << std::hex << r.addr << std::dec << "+" << r.bytes << "]";
  return os.str();
}

}  // namespace

std::string disassemble(const Instruction& ins) {
  struct Visitor {
    std::string operator()(const OpShake128& op) const {
      return "shake128    " + reg_str(op.in) + " -> " + reg_str(op.out);
    }
    std::string operator()(const OpSha3_256& op) const {
      return "sha3-256    " + reg_str(op.in) + " -> " + reg_str(op.out);
    }
    std::string operator()(const OpSha3_512& op) const {
      return "sha3-512    " + reg_str(op.in) + " -> " + reg_str(op.out);
    }
    std::string operator()(const OpSampleCbd& op) const {
      return "sample.cbd  " + reg_str(op.in) + " -> " + reg_str(op.out) +
             " mu=" + std::to_string(op.mu);
    }
    std::string operator()(const OpPolyMulAcc& op) const {
      return std::string("poly.mulacc ") + (op.first ? "(clear) " : "(+=)    ") +
             reg_str(op.pub) + " x " + reg_str(op.sec);
    }
    std::string operator()(const OpStoreAccRound& op) const {
      return "acc.round   +" + std::to_string(op.add_const) + " >>" +
             std::to_string(op.shift) + " -> " + reg_str(op.out) + " (" +
             std::to_string(op.out_bits) + "b)";
    }
    std::string operator()(const OpStoreAccEncode& op) const {
      return "acc.encode  msg=" + reg_str(op.msg) + " -> " + reg_str(op.out);
    }
    std::string operator()(const OpStoreAccDecode& op) const {
      return "acc.decode  cm=" + reg_str(op.cm) + " -> " + reg_str(op.out);
    }
    std::string operator()(const OpRepack& op) const {
      return "repack      " + reg_str(op.in) + " (" + std::to_string(op.in_bits) +
             "b) -> " + reg_str(op.out) + " (" + std::to_string(op.out_bits) + "b)";
    }
    std::string operator()(const OpRepackSigned& op) const {
      return "repack.s    " + reg_str(op.in) + " (" + std::to_string(op.in_bits) +
             "b) -> " + reg_str(op.out) + " (" + std::to_string(op.out_bits) + "b)";
    }
    std::string operator()(const OpCopy& op) const {
      return "copy        " + reg_str(op.src) + " -> " + reg_str(op.dst);
    }
    std::string operator()(const OpVerify& op) const {
      return "verify      " + reg_str(op.a) + " == " + reg_str(op.b);
    }
    std::string operator()(const OpCMov& op) const {
      return "cmov        " + reg_str(op.src) + " -> " + reg_str(op.dst) + " if fail";
    }
  };
  return std::visit(Visitor{}, ins);
}

std::string disassemble(const Program& program) {
  std::ostringstream os;
  for (std::size_t i = 0; i < program.size(); ++i) {
    os << std::setw(4) << i << ": " << disassemble(program[i]) << "\n";
  }
  return os.str();
}

std::string CycleLedger::to_string() const {
  std::ostringstream os;
  os << "total=" << total() << " (mult=" << multiplier << ", hash=" << hash
     << ", sampler=" << sampler << ", data=" << data << ", control=" << control
     << "; mult share " << static_cast<int>(100.0 * mult_share() + 0.5) << "%)";
  return os.str();
}

Coprocessor::Coprocessor(arch::HwMultiplier& mult, std::size_t mem_bytes,
                         const UnitCosts& costs)
    : mult_(mult), costs_(costs), mem_(mem_bytes, 0) {}

std::span<const u8> Coprocessor::view(const Region& r) const {
  SABER_REQUIRE(r.addr + r.bytes <= mem_.size(), "region out of memory bounds");
  return {mem_.data() + r.addr, r.bytes};
}

std::span<u8> Coprocessor::view_mut(const Region& r) {
  SABER_REQUIRE(r.addr + r.bytes <= mem_.size(), "region out of memory bounds");
  return {mem_.data() + r.addr, r.bytes};
}

void Coprocessor::write_bytes(const Region& r, std::span<const u8> data) {
  SABER_REQUIRE(data.size() == r.bytes, "host write size mismatch");
  std::ranges::copy(data, view_mut(r).begin());
}

std::vector<u8> Coprocessor::read_bytes(const Region& r) const {
  const auto v = view(r);
  return {v.begin(), v.end()};
}

CycleLedger Coprocessor::run(const Program& program) {
  CycleLedger ledger;
  fail_ = false;
  acc_valid_ = false;
  for (const auto& ins : program) {
    execute(ins, ledger);
    ledger.control += costs_.dispatch_cycles;
  }
  return ledger;
}

void Coprocessor::execute(const Instruction& ins, CycleLedger& ledger) {
  struct Visitor {
    Coprocessor& cp;
    CycleLedger& ledger;

    void operator()(const OpShake128& op) const {
      auto out = sha3::Shake128::hash(cp.view(op.in), op.out.bytes);
      std::ranges::copy(out, cp.view_mut(op.out).begin());
      ledger.hash += sponge_cycles(cp.costs_, op.in.bytes, op.out.bytes, 168);
    }

    void operator()(const OpSha3_256& op) const {
      SABER_REQUIRE(op.out.bytes == 32, "sha3-256 output must be 32 bytes");
      const auto d = sha3::Sha3_256::hash(cp.view(op.in));
      std::ranges::copy(d, cp.view_mut(op.out).begin());
      ledger.hash += sponge_cycles(cp.costs_, op.in.bytes, 32, 136);
    }

    void operator()(const OpSha3_512& op) const {
      SABER_REQUIRE(op.out.bytes == 64, "sha3-512 output must be 64 bytes");
      const auto d = sha3::Sha3_512::hash(cp.view(op.in));
      std::ranges::copy(d, cp.view_mut(op.out).begin());
      ledger.hash += sponge_cycles(cp.costs_, op.in.bytes, 64, 72);
    }

    void operator()(const OpSampleCbd& op) const {
      const auto s = kem::cbd_sample(cp.view(op.in), op.mu);
      SABER_REQUIRE(ring::bytes_for(kNn, 4) == op.out.bytes,
                    "sampler output size mismatch");
      ring::pack_bits_g(std::span<const i8>(s.c), 4, cp.view_mut(op.out));
      ledger.sampler += sampler_cycles(cp.costs_, kNn);
    }

    void operator()(const OpPolyMulAcc& op) const {
      SABER_REQUIRE(op.pub.bytes == ring::bytes_for(kNn, kQ), "bad operand size");
      SABER_REQUIRE(op.sec.bytes == ring::bytes_for(kNn, 4), "bad secret size");
      const auto pub = ring::unpack_poly<kNn>(cp.view(op.pub), kQ);
      ring::SecretPoly sec;
      ring::unpack_signed(cp.view(op.sec), 4, std::span<i8>(sec.c));
      SABER_REQUIRE(op.first || cp.acc_valid_, "accumulation without a prior product");
      const auto res = cp.mult_.multiply(pub, sec, op.first ? nullptr : &cp.acc_);
      cp.acc_ = res.product;
      cp.acc_valid_ = true;
      // The result stays resident in the multiplier (MAC mode); the readout
      // is charged when the accumulator is stored. LW's accumulator lives in
      // memory, so its total already is the full cost.
      const u64 readout =
          cp.mult_.headline_includes_overhead() ? 0 : res.cycles.readout;
      ledger.multiplier += res.cycles.total - readout;
    }

    void store_acc(const Region& out, unsigned out_bits,
                   const std::function<u16(std::size_t, u16)>& f) const {
      SABER_REQUIRE(cp.acc_valid_, "store of an empty accumulator");
      SABER_REQUIRE(ring::bytes_for(kNn, out_bits) == out.bytes,
                    "store output size mismatch");
      std::array<u16, kNn> vals{};
      for (std::size_t i = 0; i < kNn; ++i) vals[i] = f(i, cp.acc_[i]);
      ring::pack_bits(vals, out_bits, cp.view_mut(out));
      // The store streams the accumulator out of the multiplier while packing
      // to memory: bounded by the larger of the two streams.
      ledger.data += stream_cycles(
          cp.costs_, std::max<std::size_t>(ring::bytes_for(kNn, kQ), out.bytes));
    }

    void operator()(const OpStoreAccRound& op) const {
      store_acc(op.out, op.out_bits, [&](std::size_t, u16 a) {
        const u32 v = static_cast<u32>(low_bits(a + op.add_const, op.in_bits));
        return static_cast<u16>(v >> op.shift);
      });
    }

    void operator()(const OpStoreAccEncode& op) const {
      const auto msg = cp.view(op.msg);
      store_acc(op.out, op.et, [&](std::size_t i, u16 a) {
        const u32 m = (static_cast<u32>(msg[i / 8]) >> (i % 8)) & 1u;
        const u32 v = static_cast<u32>(a) + op.h1 + (u32{1} << op.ep) -
                      (m << (op.ep - 1));
        return static_cast<u16>(low_bits(v, op.ep) >> (op.ep - op.et));
      });
    }

    void operator()(const OpStoreAccDecode& op) const {
      std::array<u16, kNn> cm{};
      ring::unpack_bits(cp.view(op.cm), op.et, cm);
      store_acc(op.out, 1, [&](std::size_t i, u16 a) {
        const u32 v = static_cast<u32>(a) + op.h2 + (u32{1} << op.ep) -
                      (static_cast<u32>(cm[i]) << (op.ep - op.et));
        return static_cast<u16>(low_bits(v, op.ep) >> (op.ep - 1));
      });
    }

    void operator()(const OpRepack& op) const {
      SABER_REQUIRE(ring::bytes_for(kNn, op.out_bits) == op.out.bytes,
                    "repack output size mismatch");
      std::array<u16, kNn> vals{};
      ring::unpack_bits(cp.view(op.in), op.in_bits, vals);
      ring::pack_bits(vals, op.out_bits, cp.view_mut(op.out));
      ledger.data +=
          stream_cycles(cp.costs_, std::max<std::size_t>(op.in.bytes, op.out.bytes));
    }

    void operator()(const OpRepackSigned& op) const {
      SABER_REQUIRE(ring::bytes_for(kNn, op.out_bits) == op.out.bytes,
                    "repack output size mismatch");
      std::array<i64, kNn> vals{};
      ring::unpack_signed(cp.view(op.in), op.in_bits, std::span<i64>(vals));
      ring::pack_bits_g(std::span<const i64>(vals), op.out_bits, cp.view_mut(op.out));
      ledger.data +=
          stream_cycles(cp.costs_, std::max<std::size_t>(op.in.bytes, op.out.bytes));
    }

    void operator()(const OpCopy& op) const {
      SABER_REQUIRE(op.src.bytes == op.dst.bytes, "copy size mismatch");
      const auto src = cp.read_bytes(op.src);  // tolerate overlap
      std::ranges::copy(src, cp.view_mut(op.dst).begin());
      ledger.data += stream_cycles(cp.costs_, op.src.bytes);
    }

    void operator()(const OpVerify& op) const {
      SABER_REQUIRE(op.a.bytes == op.b.bytes, "verify size mismatch");
      const auto a = cp.view(op.a);
      const auto b = cp.view(op.b);
      u8 diff = 0;
      for (std::size_t i = 0; i < a.size(); ++i) diff |= static_cast<u8>(a[i] ^ b[i]);
      cp.fail_ = cp.fail_ || diff != 0;
      ledger.data += stream_cycles(cp.costs_, op.a.bytes);
    }

    void operator()(const OpCMov& op) const {
      SABER_REQUIRE(op.src.bytes == op.dst.bytes, "cmov size mismatch");
      const u8 mask = cp.fail_ ? 0xff : 0x00;
      const auto src = cp.view(op.src);
      auto dst = cp.view_mut(op.dst);
      for (std::size_t i = 0; i < dst.size(); ++i) {
        dst[i] = static_cast<u8>(dst[i] ^ (mask & (dst[i] ^ src[i])));
      }
      ledger.data += stream_cycles(cp.costs_, op.src.bytes);
    }
  };
  std::visit(Visitor{*this, ledger}, ins);
}

}  // namespace saber::coproc
