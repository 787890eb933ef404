#include "robust/supervisor.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "mult/strategy.hpp"

namespace saber::robust {

namespace {

// Magics marking a Transformed as produced by a supervised facade; same
// family as the checked decorator's magics (see checked_multiplier.cpp).
constexpr i64 kSupPubMagic = 0x5ABE'C4EC'0000'0004LL;
constexpr i64 kSupAccMagic = 0x5ABE'C4EC'0000'0005LL;
constexpr i64 kSupSecMagic = 0x5ABE'C4EC'0000'0006LL;

// The known-answer probe runs at the hardware modulus the KEM uses.
constexpr unsigned kProbeQBits = 13;

struct BackendState {
  BreakerState state = BreakerState::kClosed;
  u64 confirmed_faults = 0;
  u64 quarantines = 0;
  u64 readmissions = 0;
  u64 probe_failures = 0;
  u64 calls = 0;
  u64 routed_around = 0;
  u64 prepares = 0;
  u64 lazy_prepares = 0;
  u64 open_skips = 0;    ///< routed-around calls since the breaker opened
  u64 probe_passes = 0;  ///< consecutive passes while half-open
};

/// A supervised transform, sliced: the image backend `backend`'s checked
/// decorator produced (an operand or an accumulator), which also holds the
/// raw operands it came from.
struct SupView {
  std::span<const i64> image;
  std::size_t backend = 0;
};

/// Supervised transform layout: checked image(backend k) | k | magic.
SupView parse_supervised(const mult::Transformed& t, i64 magic, std::size_t nb,
                         const char* what) {
  SABER_REQUIRE(t.size() >= 2 && t.back() == magic, what);
  const auto backend = static_cast<std::size_t>(t[t.size() - 2]);
  SABER_REQUIRE(backend < nb, "supervised transform backend out of range");
  return {std::span(t).first(t.size() - 2), backend};
}

mult::Transformed tagged(mult::Transformed image, std::size_t backend, i64 magic) {
  image.reserve(image.size() + 2);  // exact: prepared matrices are long-lived
  image.push_back(static_cast<i64>(backend));
  image.push_back(magic);
  return image;
}

}  // namespace

std::string_view to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

struct BackendSupervisor::Shared {
  std::vector<std::string> names;
  SupervisorConfig cfg;
  BackendFactory factory;
  std::string facade_name;
  ring::Poly probe_a, probe_b, probe_expected;
  mutable std::mutex mu;
  std::vector<BackendState> states;  ///< guarded by mu
};

namespace {

/// The per-worker facade KemBatch receives. Owns one private checked
/// instance per backend; shares only the breaker state.
class SupervisedMultiplier final : public mult::PolyMultiplier, public FaultMonitor {
 public:
  explicit SupervisedMultiplier(std::shared_ptr<BackendSupervisor::Shared> shared)
      : shared_(std::move(shared)) {
    backends_.reserve(shared_->names.size());
    for (std::size_t i = 0; i < shared_->names.size(); ++i) {
      backends_.push_back(std::make_unique<CheckedMultiplier>(shared_->factory(i)));
    }
  }

  std::string_view name() const override { return shared_->facade_name; }

  FaultCounters fault_counters() const override {
    FaultCounters sum;
    for (const auto& b : backends_) {
      const auto c = b->fault_counters();
      sum.checks += c.checks;
      sum.mismatches += c.mismatches;
      sum.retry_recoveries += c.retry_recoveries;
      sum.failovers += c.failovers;
    }
    return sum;
  }

  ring::Poly multiply(const ring::Poly& a, const ring::Poly& b,
                      unsigned qbits) const override {
    return routed([&](std::size_t idx) { return backends_[idx]->multiply(a, b, qbits); });
  }

  // Split-transform path — lazy, copy-on-quarantine. A prepared operand
  // materializes ONE backend's checked image (whichever backend was healthy
  // at prepare time), tagged with that backend's index:
  //
  //   checked image(backend k) | k | magic
  //
  // The checked image already retains the raw polynomial and its qbits, so
  // the no-fault path pays exactly one checked backend's prepare cost and
  // memory. When a later operation routes to a different backend j — i.e.
  // after a quarantine — the consumer re-prepares backend j's image on
  // demand from the retained raw polynomial (`lazy_prepares` in the status
  // snapshot). The shared transform itself is immutable, so a mid-batch
  // failover never invalidates a shared prepared matrix: worker threads keep
  // reading the backend-k image concurrently, and each lazy re-preparation
  // is a private copy. A checked accumulator retains the raw (a, s) pairs it
  // absorbed, so an accumulator started on backend k migrates to backend j
  // by replaying them.

  mult::Transformed prepare_public(const ring::Poly& a, unsigned qbits) const override {
    const std::size_t k = prepare_backend();
    return tagged(backends_[k]->prepare_public(a, qbits), k, kSupPubMagic);
  }

  mult::Transformed prepare_secret(const ring::SecretPoly& s,
                                   unsigned qbits) const override {
    const std::size_t k = prepare_backend();
    return tagged(backends_[k]->prepare_secret(s, qbits), k, kSupSecMagic);
  }

  mult::Transformed make_accumulator() const override {
    const std::size_t k = pick();
    return tagged(backends_[k]->make_accumulator(), k, kSupAccMagic);
  }

  void pointwise_accumulate(mult::Transformed& acc, const mult::Transformed& a,
                            const mult::Transformed& s) const override {
    const std::size_t nb = backends_.size();
    const auto av = parse_supervised(acc, kSupAccMagic, nb, "not a supervised accumulator");
    const auto pa = parse_supervised(a, kSupPubMagic, nb, "not a supervised public transform");
    const auto ps = parse_supervised(s, kSupSecMagic, nb, "not a supervised secret transform");

    // Copy-on-quarantine: migrate the accumulator to backend j if a health
    // change moved traffic since it was created, then feed it backend-j
    // images of both operands (lazily prepared when the operand was
    // materialized for a different backend).
    const std::size_t j = pick();
    mult::Transformed inner_acc = accumulator_on(av, j);
    backends_[j]->pointwise_accumulate(inner_acc, public_image(pa, j), secret_image(ps, j));
    acc = tagged(std::move(inner_acc), j, kSupAccMagic);
  }

  ring::Poly finalize(const mult::Transformed& acc, unsigned qbits) const override {
    const auto av = parse_supervised(acc, kSupAccMagic, backends_.size(),
                                     "not a supervised accumulator");
    return routed([&](std::size_t idx) {
      return backends_[idx]->finalize(accumulator_on(av, idx), qbits);
    });
  }

  std::size_t max_accumulated_terms() const override {
    std::size_t terms = backends_.front()->max_accumulated_terms();
    for (const auto& b : backends_) {
      terms = std::min(terms, b->max_accumulated_terms());
    }
    return terms;
  }

 private:
  /// First closed backend in priority order, last backend if none is
  /// healthy. Requires shared_->mu held.
  std::size_t pick_locked() const {
    const auto& states = shared_->states;
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i].state == BreakerState::kClosed) return i;
    }
    return states.size() - 1;
  }

  std::size_t pick() const {
    const std::lock_guard<std::mutex> lock(shared_->mu);
    return pick_locked();
  }

  /// Backend for a prepare_* call (counted so tests and the bench can prove
  /// the no-fault path materializes exactly one image).
  std::size_t prepare_backend() const {
    const std::lock_guard<std::mutex> lock(shared_->mu);
    const std::size_t k = pick_locked();
    ++shared_->states[k].prepares;
    return k;
  }

  void count_lazy(std::size_t j, u64 n = 1) const {
    const std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->states[j].lazy_prepares += n;
  }

  /// Backend-j image of a supervised public operand: the materialized image
  /// when it already is backend j's, a fresh on-demand preparation from the
  /// retained raw polynomial otherwise.
  mult::Transformed public_image(const SupView& v, std::size_t j) const {
    if (v.backend == j) return {v.image.begin(), v.image.end()};
    count_lazy(j);
    const auto raw = CheckedMultiplier::retained_operands(v.image).front();
    return backends_[j]->prepare_public(raw.public_poly(), raw.qbits);
  }

  mult::Transformed secret_image(const SupView& v, std::size_t j) const {
    if (v.backend == j) return {v.image.begin(), v.image.end()};
    count_lazy(j);
    const auto raw = CheckedMultiplier::retained_operands(v.image).front();
    return backends_[j]->prepare_secret(raw.secret_poly(), raw.qbits);
  }

  /// Backend-j copy of a supervised accumulator; a different backend's
  /// accumulator is rebuilt by replaying its retained raw pairs (accumulator
  /// migration across a failover boundary).
  mult::Transformed accumulator_on(const SupView& v, std::size_t j) const {
    if (v.backend == j) return {v.image.begin(), v.image.end()};
    const auto raw = CheckedMultiplier::retained_operands(v.image);
    count_lazy(j, raw.size());
    auto acc = backends_[j]->make_accumulator();
    for (std::size_t k = 0; k + 1 < raw.size(); k += 2) {
      backends_[j]->pointwise_accumulate(
          acc, backends_[j]->prepare_public(raw[k].public_poly(), raw[k].qbits),
          backends_[j]->prepare_secret(raw[k + 1].secret_poly(), raw[k + 1].qbits));
    }
    return acc;
  }

  /// Run one product-returning operation on the routed backend and account
  /// it: the confirmed faults it produced count toward that backend's
  /// breaker, whether it returned or threw.
  template <class Op>
  ring::Poly routed(Op&& op) const {
    const std::size_t idx = route();
    const u64 before = backends_[idx]->fault_counters().mismatches;
    try {
      auto p = op(idx);
      note(idx, backends_[idx]->fault_counters().mismatches - before);
      return p;
    } catch (...) {
      note(idx, backends_[idx]->fault_counters().mismatches - before);
      throw;
    }
  }

  /// Advance breaker timers, run due probes, and pick the backend for the
  /// next operation: the first closed one, or the last backend if none is
  /// healthy (the checked decorator still guarantees a correct result).
  std::size_t route() const {
    const std::lock_guard<std::mutex> lock(shared_->mu);
    auto& states = shared_->states;
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i].state == BreakerState::kOpen &&
          states[i].open_skips >= shared_->cfg.probe_after) {
        states[i].state = BreakerState::kHalfOpen;
      }
      if (states[i].state == BreakerState::kHalfOpen) probe_locked(i);
    }
    const std::size_t chosen = pick_locked();
    for (std::size_t i = 0; i < chosen; ++i) {
      ++states[i].routed_around;
      ++states[i].open_skips;
    }
    return chosen;
  }

  /// Known-answer self-test on this worker's instance of backend `i`.
  /// Requires shared_->mu held. Pass = the product is correct AND the
  /// checked decorator saw no mismatch while computing it.
  void probe_locked(std::size_t i) const {
    auto& st = shared_->states[i];
    const u64 before = backends_[i]->fault_counters().mismatches;
    bool pass = false;
    try {
      const auto p =
          backends_[i]->multiply(shared_->probe_a, shared_->probe_b, kProbeQBits);
      pass = backends_[i]->fault_counters().mismatches == before &&
             p == shared_->probe_expected;
    } catch (...) {
      pass = false;
    }
    if (pass) {
      if (++st.probe_passes >= shared_->cfg.probes_to_close) {
        st.state = BreakerState::kClosed;
        st.confirmed_faults = 0;
        st.probe_passes = 0;
        ++st.readmissions;
      }
    } else {
      ++st.probe_failures;
      st.state = BreakerState::kOpen;
      st.open_skips = 0;
      st.probe_passes = 0;
    }
  }

  /// Account a completed operation on backend `idx`; `delta` is the number
  /// of confirmed (checker-detected) faults it produced.
  void note(std::size_t idx, u64 delta) const {
    const std::lock_guard<std::mutex> lock(shared_->mu);
    auto& st = shared_->states[idx];
    ++st.calls;
    st.confirmed_faults += delta;
    if (st.state == BreakerState::kClosed &&
        st.confirmed_faults >= shared_->cfg.quarantine_after) {
      st.state = BreakerState::kOpen;
      ++st.quarantines;
      st.open_skips = 0;
      st.probe_passes = 0;
    }
  }

  std::shared_ptr<BackendSupervisor::Shared> shared_;
  std::vector<std::unique_ptr<CheckedMultiplier>> backends_;
};

}  // namespace

BackendSupervisor::BackendSupervisor(std::vector<std::string> backend_names,
                                     SupervisorConfig config, BackendFactory factory) {
  SABER_REQUIRE(!backend_names.empty(), "at least one backend required");
  auto sh = std::make_shared<Shared>();
  sh->names = std::move(backend_names);
  sh->cfg = config;
  sh->factory = factory ? std::move(factory)
                        : [names = sh->names](std::size_t i) {
                            return mult::make_multiplier(names[i]);
                          };
  sh->facade_name = "supervised(";
  for (std::size_t i = 0; i < sh->names.size(); ++i) {
    if (i > 0) sh->facade_name += '>';
    sh->facade_name += sh->names[i];
  }
  sh->facade_name += ')';
  sh->states.resize(sh->names.size());
  for (std::size_t i = 0; i < ring::kN; ++i) {
    sh->probe_a[i] = static_cast<u16>((i * 31 + 7) & mask64(kProbeQBits));
    sh->probe_b[i] = static_cast<u16>((i * 17 + 3) & mask64(kProbeQBits));
  }
  sh->probe_expected =
      mult::make_multiplier("schoolbook")->multiply(sh->probe_a, sh->probe_b,
                                                    kProbeQBits);
  shared_ = std::move(sh);
}

std::shared_ptr<const mult::PolyMultiplier> BackendSupervisor::make_worker_multiplier()
    const {
  return std::make_shared<SupervisedMultiplier>(shared_);
}

std::vector<BackendStatus> BackendSupervisor::status() const {
  const std::lock_guard<std::mutex> lock(shared_->mu);
  std::vector<BackendStatus> out;
  out.reserve(shared_->states.size());
  for (std::size_t i = 0; i < shared_->states.size(); ++i) {
    const auto& st = shared_->states[i];
    out.push_back({shared_->names[i], st.state, st.confirmed_faults, st.quarantines,
                   st.readmissions, st.probe_failures, st.calls, st.routed_around,
                   st.prepares, st.lazy_prepares});
  }
  return out;
}

std::string_view BackendSupervisor::name() const { return shared_->facade_name; }

const SupervisorConfig& BackendSupervisor::config() const { return shared_->cfg; }

}  // namespace saber::robust
