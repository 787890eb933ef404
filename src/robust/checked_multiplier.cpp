#include "robust/checked_multiplier.hpp"

#include "common/check.hpp"
#include "mult/schoolbook.hpp"
#include "mult/strategy.hpp"
#include "multipliers/memory_map.hpp"
#include "ring/polyvec.hpp"
#include "robust/algebraic_check.hpp"

namespace saber::robust {

namespace {

// Footer magics marking a Transformed as produced by a CheckedMultiplier.
// They catch the one mixing mistake the type system cannot: feeding a raw
// backend's transform into a checked instance (or vice versa — the distinct
// name() already keys PreparedMatrix compatibility, this is defense in depth).
constexpr i64 kPubMagic = 0x5ABE'C4EC'0000'0001LL;
constexpr i64 kSecMagic = 0x5ABE'C4EC'0000'0002LL;
constexpr i64 kAccMagic = 0x5ABE'C4EC'0000'0003LL;

constexpr std::size_t kNn = ring::kN;
/// Evaluations cached per operand: one per rotation root of the shared
/// checker, so a finalize check stays cache-only whichever root it draws.
constexpr std::size_t kRoots = PointChecker::kNumSharedRoots;
/// Retained record of one raw operand: kN coefficients | its evaluation at
/// every shared check root | the qbits it was prepared at.
constexpr std::size_t kRecordLen = kNn + kRoots + 1;
constexpr std::size_t kEvalAt = kNn;
constexpr std::size_t kQBitsAt = kNn + kRoots;
/// Footer of a prepared operand: its record and the magic.
constexpr std::size_t kOperandTail = kRecordLen + 1;
/// One accumulated term: the public operand's record, then the secret's.
constexpr std::size_t kPairLen = 2 * kRecordLen;

/// Split a checked accumulator into (inner prefix length, embedded pairs).
struct AccView {
  std::size_t inner_len;
  std::span<const i64> pairs;  ///< n_pairs * kPairLen values
};

AccView parse_acc(std::span<const i64> acc) {
  SABER_REQUIRE(acc.size() >= 2 && acc.back() == kAccMagic,
                "not a checked-multiplier accumulator");
  const auto n = static_cast<std::size_t>(acc[acc.size() - 2]);
  const std::size_t tail = 2 + n * kPairLen;
  SABER_REQUIRE(acc.size() >= tail, "corrupt checked accumulator header");
  const std::size_t inner_len = acc.size() - tail;
  return {inner_len, acc.subspan(inner_len, n * kPairLen)};
}

std::span<const i64> operand_prefix(const mult::Transformed& t, i64 magic,
                                    const char* what) {
  SABER_REQUIRE(t.size() >= kOperandTail && t.back() == magic, what);
  return std::span(t).first(t.size() - kOperandTail);
}

/// Append an operand's footer: raw coefficients, per-root evaluations,
/// qbits and the magic.
template <class P, class Eval>
void append_footer(mult::Transformed& t, const P& p, unsigned qbits, Eval eval,
                   i64 magic) {
  t.reserve(t.size() + kOperandTail);
  for (std::size_t i = 0; i < kNn; ++i) t.push_back(p[i]);
  for (std::size_t r = 0; r < kRoots; ++r) t.push_back(static_cast<i64>(eval(r)));
  t.push_back(static_cast<i64>(qbits));
  t.push_back(magic);
}

}  // namespace

FaultCounters RecoveryLadder::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void RecoveryLadder::bump(u64 FaultCounters::* field) const {
  const std::lock_guard<std::mutex> lock(mu_);
  ++(counters_.*field);
}

ring::Poly RetainedOperand::public_poly() const {
  ring::Poly a;
  for (std::size_t i = 0; i < kNn; ++i) a[i] = static_cast<u16>(coeffs[i]);
  return a;
}

ring::SecretPoly RetainedOperand::secret_poly() const {
  ring::SecretPoly s;
  for (std::size_t i = 0; i < kNn; ++i) s[i] = static_cast<i8>(coeffs[i]);
  return s;
}

CheckedMultiplier::CheckedMultiplier(std::unique_ptr<mult::PolyMultiplier> inner,
                                     std::unique_ptr<mult::PolyMultiplier> fallback)
    : inner_(std::move(inner)),
      fallback_(fallback ? std::move(fallback)
                         : std::make_unique<mult::SchoolbookMultiplier>()) {
  SABER_REQUIRE(static_cast<bool>(inner_), "inner multiplier required");
  name_ = "checked(" + std::string(inner_->name()) + ")";
}

std::vector<RetainedOperand> CheckedMultiplier::retained_operands(
    std::span<const i64> t) {
  SABER_REQUIRE(!t.empty(), "not a checked transform");
  std::span<const i64> records;
  if (t.back() == kAccMagic) {
    records = parse_acc(t).pairs;
  } else {
    SABER_REQUIRE(t.size() >= kOperandTail &&
                      (t.back() == kPubMagic || t.back() == kSecMagic),
                  "not a checked transform");
    records = t.last(kOperandTail).first(kRecordLen);
  }
  std::vector<RetainedOperand> out;
  out.reserve(records.size() / kRecordLen);
  for (std::size_t off = 0; off < records.size(); off += kRecordLen) {
    const i64 qbits = records[off + kQBitsAt];
    SABER_REQUIRE(qbits >= 1 && qbits <= 16, "checked transform qbits corrupt");
    out.push_back({records.subspan(off, kNn), static_cast<unsigned>(qbits)});
  }
  return out;
}

std::optional<ring::Poly> CheckedMultiplier::checked_multiply(const ring::Poly& a,
                                                              const ring::Poly& b,
                                                              unsigned qbits) const {
  const auto& pc = shared_point_checker();
  // Rotating per-check root: an adversarial defect tuned to one published
  // evaluation point does not know which root this check lands on.
  const std::size_t root = pc.draw_root();
  try {
    // The split pipeline instead of multiply(): same work, but it ends on the
    // exact-integer witness the point check needs. The verified witness then
    // folds to the product, so nothing is computed twice.
    auto acc = inner_->make_accumulator();
    inner_->pointwise_accumulate(acc, inner_->prepare_public(a, qbits),
                                 inner_->prepare_public(b, qbits));
    const auto w = inner_->finalize_witness(acc);
    if (!pc.verify(pc.eval_public(a, qbits, root), pc.eval_public(b, qbits, root),
                   pc.eval_witness(w, root))) {
      return std::nullopt;
    }
    return mult::reduce_witness<ring::kN>(std::span<const i64>(w), qbits);
  } catch (const ContractViolation&) {
    // Corrupted transform state can trip a backend invariant (e.g. Toom-Cook's
    // exact-division ENSURE) before a witness exists; that is a detection.
    return std::nullopt;
  }
}

ring::Poly CheckedMultiplier::multiply(const ring::Poly& a, const ring::Poly& b,
                                       unsigned qbits) const {
  return ladder_.run([&] { return checked_multiply(a, b, qbits); },
                     [&] { return fallback_->multiply(a, b, qbits); },
                     [&] { return inner_->multiply(a, b, qbits); });
}

mult::Transformed CheckedMultiplier::prepare_public(const ring::Poly& a,
                                                    unsigned qbits) const {
  auto t = inner_->prepare_public(a, qbits);
  const auto& pc = shared_point_checker();
  append_footer(t, a, qbits, [&](std::size_t r) { return pc.eval_public(a, qbits, r); },
                kPubMagic);
  return t;
}

mult::Transformed CheckedMultiplier::prepare_secret(const ring::SecretPoly& s,
                                                    unsigned qbits) const {
  auto t = inner_->prepare_secret(s, qbits);
  const auto& pc = shared_point_checker();
  append_footer(t, s, qbits, [&](std::size_t r) { return pc.eval_secret(s, r); },
                kSecMagic);
  return t;
}

mult::Transformed CheckedMultiplier::make_accumulator() const {
  auto acc = inner_->make_accumulator();
  acc.push_back(0);  // n_pairs
  acc.push_back(kAccMagic);
  return acc;
}

void CheckedMultiplier::pointwise_accumulate(mult::Transformed& acc,
                                             const mult::Transformed& a,
                                             const mult::Transformed& s) const {
  const auto view = parse_acc(acc);
  const auto inner_a = operand_prefix(a, kPubMagic, "not a checked public transform");
  const auto inner_s = operand_prefix(s, kSecMagic, "not a checked secret transform");

  // Delegate on the inner slices (the inner backend sees exactly the layout
  // it produced), then rebuild: inner acc | pairs | new pair | n+1 | magic.
  mult::Transformed inner_acc(acc.begin(),
                              acc.begin() + static_cast<std::ptrdiff_t>(view.inner_len));
  inner_->pointwise_accumulate(inner_acc, mult::Transformed(inner_a.begin(), inner_a.end()),
                               mult::Transformed(inner_s.begin(), inner_s.end()));

  mult::Transformed next;
  next.reserve(inner_acc.size() + view.pairs.size() + kPairLen + 2);
  next.insert(next.end(), inner_acc.begin(), inner_acc.end());
  next.insert(next.end(), view.pairs.begin(), view.pairs.end());
  next.insert(next.end(), a.end() - kOperandTail, a.end() - 1);
  next.insert(next.end(), s.end() - kOperandTail, s.end() - 1);
  next.push_back(static_cast<i64>(view.pairs.size() / kPairLen + 1));
  next.push_back(kAccMagic);
  acc = std::move(next);
}

ring::Poly CheckedMultiplier::reference_sum(std::span<const RetainedOperand> terms,
                                            unsigned qbits) const {
  ring::Poly sum{};
  for (std::size_t k = 0; k + 1 < terms.size(); k += 2) {
    ring::add_inplace(sum,
                      fallback_->multiply_secret(terms[k].public_poly(),
                                                 terms[k + 1].secret_poly(), qbits),
                      qbits);
  }
  return sum;
}

ring::Poly CheckedMultiplier::inner_recompute(std::span<const RetainedOperand> terms,
                                              unsigned qbits) const {
  // Full re-derivation on the inner backend: fresh forward transforms, fresh
  // accumulation, fresh inverse transform. A transient during the *original*
  // prepare or accumulate is left behind, not replayed.
  auto acc = inner_->make_accumulator();
  for (std::size_t k = 0; k + 1 < terms.size(); k += 2) {
    inner_->pointwise_accumulate(acc, inner_->prepare_public(terms[k].public_poly(), qbits),
                                 inner_->prepare_secret(terms[k + 1].secret_poly(), qbits));
  }
  return inner_->finalize(acc, qbits);
}

std::optional<ring::Poly> CheckedMultiplier::checked_finalize(
    const mult::Transformed& inner_acc, std::span<const i64> pairs,
    unsigned qbits) const {
  const auto& pc = shared_point_checker();
  // Rotate the evaluation root per check. The rotation costs nothing here:
  // prepare_* cached one evaluation per root, finalize just picks the drawn
  // root's column.
  const std::size_t root = pc.draw_root();
  try {
    const auto w = inner_->finalize_witness(inner_acc);
    // The Freivalds vector check for a matvec row: sum_k a_k(x_r) * s_k(x_r)
    // must equal w(x_r) — O(l) modular multiplies plus one witness
    // evaluation, independent of the backend's transform cost.
    u64 sum = 0;
    for (std::size_t off = 0; off < pairs.size(); off += kPairLen) {
      const auto ea = static_cast<u64>(pairs[off + kEvalAt + root]);
      const auto es = static_cast<u64>(pairs[off + kRecordLen + kEvalAt + root]);
      sum = pc.add(sum, pc.mul(ea, es));
    }
    if (pc.eval_witness(w, root) != sum) return std::nullopt;
    return mult::reduce_witness<ring::kN>(std::span<const i64>(w), qbits);
  } catch (const ContractViolation&) {
    return std::nullopt;
  }
}

ring::Poly CheckedMultiplier::finalize(const mult::Transformed& acc,
                                       unsigned qbits) const {
  const auto view = parse_acc(acc);
  const mult::Transformed inner_acc(
      acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(view.inner_len));
  return ladder_.run(
      [&] { return checked_finalize(inner_acc, view.pairs, qbits); },
      [&] { return reference_sum(retained_operands(acc), qbits); },
      [&] { return inner_recompute(retained_operands(acc), qbits); });
}

std::size_t CheckedMultiplier::max_accumulated_terms() const {
  return inner_->max_accumulated_terms();
}

std::unique_ptr<CheckedMultiplier> make_checked(std::string_view inner_name) {
  return std::make_unique<CheckedMultiplier>(mult::make_multiplier(inner_name));
}

CheckedHwMultiplier::CheckedHwMultiplier(std::unique_ptr<arch::HwMultiplier> inner,
                                         std::unique_ptr<mult::PolyMultiplier> reference)
    : inner_(std::move(inner)),
      reference_(reference ? std::move(reference)
                           : std::make_unique<mult::SchoolbookMultiplier>()) {
  SABER_REQUIRE(static_cast<bool>(inner_), "inner architecture required");
  name_ = "checked(" + std::string(inner_->name()) + ")";
}

void CheckedHwMultiplier::check_cycles(const hw::CycleStats& cycles) {
  // The FSMs are data-independent: the headline budget (paper Table 1) and
  // the first run's total must both be reproduced exactly, fault or no fault.
  const u64 against = inner_->headline_includes_overhead()
                          ? cycles.total
                          : cycles.compute + cycles.pipeline;
  bool violated = against != inner_->headline_cycles();
  if (baseline_total_ == 0) {
    baseline_total_ = cycles.total;
  } else if (cycles.total != baseline_total_) {
    violated = true;
  }
  if (violated) ++cycle_violations_;
}

arch::MultiplierResult CheckedHwMultiplier::multiply(const ring::Poly& a,
                                                     const ring::SecretPoly& s,
                                                     const ring::Poly* accumulate) {
  constexpr unsigned kQ = arch::MemoryMap::kQBits;
  const auto run = [&] {
    auto r = inner_->multiply(a, s, accumulate);
    check_cycles(r.cycles);
    return r;
  };
  const auto reference = [&] {
    auto expected = reference_->multiply_secret(a, s, kQ);
    if (accumulate != nullptr) ring::add_inplace(expected, *accumulate, kQ);
    return expected;
  };
  auto res = run();
  // A product already masked to 2^13 has no exact witness, so the check is
  // equality with the reference. Cycle/power stats stay the hardware runs'.
  const auto product = ladder_.run(
      [&]() -> std::optional<ring::Poly> {
        if (res.product == reference()) return res.product;
        return std::nullopt;
      },
      reference,
      [&] {
        res = run();
        return res.product;
      });
  res.product = product;
  return res;
}

}  // namespace saber::robust
