#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "coproc/programs.hpp"
#include "host.hpp"
#include "mult/strategy.hpp"
#include "multipliers/hw_multiplier.hpp"
#include "robust/supervisor.hpp"
#include "saber/batch.hpp"
#include "saber/gen.hpp"
#include "saber/kem.hpp"
#include "sha3/sha3.hpp"
#include "timed.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using saber::u64;
using saber::u8;
namespace kem = saber::kem;
namespace batch = saber::batch;
namespace mult = saber::mult;
using Bytes = std::vector<u8>;

enum Kind : std::size_t { kKeygen, kEncaps, kDecaps };
constexpr std::array<const char*, 3> kKinds = {"keygen", "encaps", "decaps"};

/// The modelled coprocessors of paper_models (Table 1 rows LW, HS-I 256, HS-II).
constexpr std::array<const char*, 3> kArchs = {"lw4", "hs1-256", "hs2"};
/// Software kernels with per-layer metrics: production NTT, and the paper's
/// §5.1 software comparison kernels that paper_models runs.
constexpr std::array<const char*, 3> kKernels = {"ntt", "toom4", "karatsuba-8"};
constexpr std::array<const char*, 2> kPaperSoftware = {"toom4", "karatsuba-8"};
/// server_checked failover order: the production path, then the reference.
const std::vector<std::string> kCheckedBackends = {"ntt", "schoolbook"};

constexpr unsigned kServerThreads = 4;
constexpr std::size_t kKeygensPerRound = 16;
constexpr std::size_t kCiphertextsPerRound = 64;
constexpr std::size_t kTamperEvery = 8;    ///< 1 in 8 decaps ciphertexts is tampered
constexpr std::size_t kPoolRounds = 4;     ///< distinct server rounds before inputs repeat
constexpr std::size_t kHandshakePool = 16;  ///< sessions per parameter set
constexpr std::size_t kPaperPool = 8;
constexpr std::size_t kSetupMinRepeats = 5;
constexpr std::size_t kSetupMaxRepeats = 201;
constexpr double kSetupBudgetS = 0.02;
constexpr double kSetupEveryS = 0.5;
/// A window closes after at least kWindowS and kWindowRounds rounds, so
/// even the long paper_models rounds give each window a stable mix.
constexpr double kWindowS = 1.0;
constexpr std::uint64_t kWindowRounds = 40;
/// Span budget of a traced phase (48 bytes each in memory), enough for
/// thousands of KEM operations on every workload.
constexpr std::size_t kMaxSpans = 600'000;

// --- inputs -----------------------------------------------------------------

/// Deterministic input bytes from (seed, domain): one seed gives every
/// workload the same inputs of a kind, so server_batch and server_checked
/// see the same traffic.
class InputStream {
 public:
  InputStream(std::uint64_t seed, std::string_view domain) : drbg_(material(seed, domain)) {}

  template <std::size_t N>
  std::array<u8, N> bytes() {
    std::array<u8, N> out{};
    drbg_.fill(out);
    return out;
  }
  u64 below(u64 n) { return drbg_.uniform(n); }

 private:
  static Bytes material(std::uint64_t seed, std::string_view domain) {
    Bytes m(domain.begin(), domain.end());
    for (int i = 0; i < 8; ++i) m.push_back(static_cast<u8>(seed >> (8 * i)));
    return m;
  }
  saber::sha3::ShakeDrbg drbg_;
};

const kem::SaberKemScheme& reference_scheme(const kem::SaberParams& p) {
  // The independent reference: schoolbook products, no transform domain.
  static std::map<std::string_view, std::unique_ptr<kem::SaberKemScheme>> schemes;
  auto& s = schemes[p.name];
  if (!s) s = std::make_unique<kem::SaberKemScheme>(p, "schoolbook");
  return *s;
}

/// One client session's inputs and its expected outputs.
struct SessionCase {
  const kem::SaberParams* params = nullptr;
  kem::Seed seed_a{}, seed_s{};
  kem::SharedSecret z{};
  kem::Message m_raw{};
  kem::KemKeyPair keys;
  kem::EncapsResult enc;
  kem::SharedSecret dec{};
};

SessionCase make_session(const kem::SaberParams& p, InputStream& in) {
  SessionCase c;
  c.params = &p;
  c.seed_a = in.bytes<32>();
  c.seed_s = in.bytes<32>();
  c.z = in.bytes<32>();
  c.m_raw = in.bytes<32>();
  const auto& ref = reference_scheme(p);
  c.keys = ref.keygen_deterministic(c.seed_a, c.seed_s, c.z);
  c.enc = ref.encaps_deterministic(c.keys.pk, c.m_raw);
  c.dec = ref.decaps(c.enc.ct, c.keys.sk);
  if (c.dec != c.enc.key) throw std::runtime_error("reference KEM round trip disagrees");
  return c;
}

/// The server workloads' traffic: one server key, and kPoolRounds rounds of
/// keygen requests, encaps messages and decaps ciphertexts (1 in 8 tampered,
/// so implicit rejection runs), with the expected output of each.
struct ServerTraffic {
  batch::KeygenRequest server_req;
  kem::KemKeyPair server_keys;
  std::vector<batch::KeygenRequest> keygen_reqs;
  std::vector<kem::KemKeyPair> keygen_expected;
  std::vector<kem::Message> messages;
  std::vector<kem::EncapsResult> encaps_expected;
  std::vector<Bytes> decaps_cts;
  std::vector<kem::SharedSecret> decaps_expected;
};

ServerTraffic make_server_traffic(std::uint64_t seed) {
  InputStream in(seed, "server");
  const auto& ref = reference_scheme(kem::kSaber);
  auto request = [&] {
    return batch::KeygenRequest{in.bytes<32>(), in.bytes<32>(), in.bytes<32>()};
  };
  ServerTraffic t;
  t.server_req = request();
  t.server_keys = ref.keygen_deterministic(t.server_req.seed_a, t.server_req.seed_s,
                                           t.server_req.z);
  for (std::size_t i = 0; i < kPoolRounds * kKeygensPerRound; ++i) {
    t.keygen_reqs.push_back(request());
    const auto& r = t.keygen_reqs.back();
    t.keygen_expected.push_back(ref.keygen_deterministic(r.seed_a, r.seed_s, r.z));
  }
  for (std::size_t i = 0; i < kPoolRounds * kCiphertextsPerRound; ++i) {
    t.messages.push_back(in.bytes<32>());
    t.encaps_expected.push_back(ref.encaps_deterministic(t.server_keys.pk, t.messages.back()));
    Bytes ct = t.encaps_expected.back().ct;
    if (i % kTamperEvery == kTamperEvery - 1) {
      ct[in.below(ct.size())] ^= static_cast<u8>(1 + in.below(255));
    }
    t.decaps_expected.push_back(ref.decaps(ct, t.server_keys.sk));
    t.decaps_cts.push_back(std::move(ct));
  }
  return t;
}

// --- one timed loop -----------------------------------------------------------

/// Consecutive whole rounds spanning about kWindowS of wall time.
struct Window {
  std::uint64_t attempted = 0;
  std::uint64_t done = 0;  ///< completed correctly
  std::uint64_t rounds = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::array<std::size_t, 3> first{}, end{};  ///< latency sample range, by kind

  double ops_s() const { return wall_s > 0 ? static_cast<double>(done) / wall_s : 0; }
};

struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t recovered = 0;  ///< batch items reported kRecovered
  std::uint64_t rounds = 0;
  std::array<std::uint64_t, 3> kem_ops{};  ///< ops under kem.* spans, by kind
  std::map<std::string, std::uint64_t> kernel_ops;  ///< KEM ops per software kernel
  /// Latency of every call, by kind. A batch call is one sample: all its
  /// items are submitted at its entry and returned at its exit, so each has
  /// the call's latency, and every call of a kind carries the same number
  /// of items (item-weighted percentiles are the same).
  std::array<std::vector<double>, 3> latency_us;
  std::vector<Window> windows;
  double wall_s = 0;
  double cpu_s = 0;

  double mean_ops_s() const {
    return wall_s > 0 ? static_cast<double>(attempted - failed) / wall_s : 0;
  }
};

/// The end-to-end figures of a phase, pooled over the fastest quarter of its
/// windows. On a shared host, co-tenants slow the whole machine for seconds
/// at a time, by an amount that varies from run to run; the fastest windows
/// are what repeats. Pooling only those also keeps windows of different host
/// speed out of one pool, where the median of a multi-modal latency mix
/// (handshake's three parameter sets, paper_models' five backends) would
/// jump between modes.
struct Steady {
  double ops_s = 0;
  double cpu_us_per_op = 0;
  std::array<double, 3> p50_us{};
  std::array<Tail, 3> tail{};
  std::size_t windows = 0;  ///< windows pooled
};

Steady steady(const Phase& ph) {
  std::vector<const Window*> ws;
  for (const Window& w : ph.windows) ws.push_back(&w);
  std::sort(ws.begin(), ws.end(),
            [](const Window* a, const Window* b) { return a->ops_s() > b->ops_s(); });
  ws.resize((ws.size() + 3) / 4);
  Steady st;
  st.windows = ws.size();
  double done = 0, wall = 0, cpu = 0, attempted = 0;
  std::array<std::vector<double>, 3> lat;
  for (const Window* w : ws) {
    done += static_cast<double>(w->done);
    attempted += static_cast<double>(w->attempted);
    wall += w->wall_s;
    cpu += w->cpu_s;
    for (std::size_t k = 0; k < 3; ++k) {
      const auto& l = ph.latency_us[k];
      lat[k].insert(lat[k].end(), l.begin() + static_cast<std::ptrdiff_t>(w->first[k]),
                    l.begin() + static_cast<std::ptrdiff_t>(w->end[k]));
    }
  }
  st.ops_s = wall > 0 ? done / wall : 0;
  st.cpu_us_per_op = attempted > 0 ? cpu * 1e6 / attempted : 0;
  for (std::size_t k = 0; k < 3; ++k) {
    st.p50_us[k] = median(lat[k]);
    st.tail[k] = tail(lat[k]);
  }
  return st;
}

/// Sets the tracer's ambient parent to the enclosing span for the duration
/// of a batch call, so pool workers attach their spans to it.
class AmbientScope {
 public:
  AmbientScope(Tracer* tracer, const SpanScope& span, std::uint64_t request)
      : tracer_(tracer) {
    if (tracer_) tracer_->set_ambient(span.id(), request);
  }
  ~AmbientScope() {
    if (tracer_) tracer_->set_ambient(0, 0);
  }
  AmbientScope(const AmbientScope&) = delete;
  AmbientScope& operator=(const AmbientScope&) = delete;

 private:
  Tracer* tracer_;
};

/// Time one call serving `items` requests of one kind; `check` returns how
/// many of them are wrong. A call that throws fails all its items.
template <typename Call, typename Check>
void measure(Phase& ph, Kind kind, std::size_t items, bool under_kem_span, Tracer* tracer,
             std::uint32_t span_name, std::uint64_t request, Call&& call, Check&& check) {
  std::uint64_t failed = items;
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = t0;
  try {
    auto out = [&] {
      const SpanScope span(tracer, span_name, request);
      const AmbientScope ambient(tracer, span, request);
      return call();
    }();
    t1 = now_ns();
    failed = check(out);
  } catch (const std::exception&) {
    t1 = now_ns();
  }
  ph.attempted += items;
  ph.failed += failed;
  if (under_kem_span) ph.kem_ops[kind] += items;
  ph.latency_us[kind].push_back(static_cast<double>(t1 - t0) * 1e-3);
}

/// Span names of the three KEM operations under one prefix.
std::array<std::uint32_t, 3> intern_ops(Tracer* tracer, const std::string& prefix) {
  std::array<std::uint32_t, 3> ids{};
  if (tracer) {
    for (std::size_t k = 0; k < 3; ++k) ids[k] = tracer->intern(prefix + "." + kKinds[k]);
  }
  return ids;
}

/// One software session: keygen, encaps and decaps on `scheme`, each fed the
/// generated inputs (not the previous step's output), so one wrong step
/// cannot hide or cause another.
void software_session(const kem::SaberKemScheme& scheme, const std::string& kernel,
                      const SessionCase& c, Tracer* tracer,
                      const std::array<std::uint32_t, 3>& spans, std::uint64_t request,
                      Phase& ph) {
  measure(ph, kKeygen, 1, true, tracer, spans[kKeygen], request,
          [&] { return scheme.keygen_deterministic(c.seed_a, c.seed_s, c.z); },
          [&](const kem::KemKeyPair& kp) {
            return std::uint64_t{kp.pk != c.keys.pk || kp.sk != c.keys.sk};
          });
  measure(ph, kEncaps, 1, true, tracer, spans[kEncaps], request,
          [&] { return scheme.encaps_deterministic(c.keys.pk, c.m_raw); },
          [&](const kem::EncapsResult& e) {
            return std::uint64_t{e.ct != c.enc.ct || e.key != c.enc.key};
          });
  measure(ph, kDecaps, 1, true, tracer, spans[kDecaps], request,
          [&] { return scheme.decaps(c.enc.ct, c.keys.sk); },
          [&](const kem::SharedSecret& k) { return std::uint64_t{k != c.dec}; });
  ph.kernel_ops[kernel] += 3;
}

// --- the modelled coprocessors ------------------------------------------------

struct ArchModel {
  std::string name;
  std::unique_ptr<TappedHwMultiplier> tap;
  std::unique_ptr<saber::coproc::SaberCoproc> coproc;
  std::array<std::uint32_t, 3> spans{};
  saber::coproc::CycleLedger ledger;  ///< summed over sessions
  u64 first_session_cycles = 0;
  bool cycles_repeat = true;  ///< every session took first_session_cycles
  std::uint64_t sessions = 0;
};

/// SaberCoproc sessions on the lw4, hs1-256 and hs2 models. The multiplier
/// of each is tapped for its per-multiplication CycleStats in every run (the
/// tap only keeps a copy; with a tracer it also records spans).
class ModelRunner {
 public:
  explicit ModelRunner(Tracer* tracer) : tracer_(tracer) {
    for (const char* arch : kArchs) {
      ArchModel m;
      m.name = arch;
      m.tap = std::make_unique<TappedHwMultiplier>(saber::arch::make_architecture(arch),
                                                   std::string("hw.") + arch, tracer);
      m.coproc = std::make_unique<saber::coproc::SaberCoproc>(kem::kSaber, *m.tap);
      m.spans = intern_ops(tracer, std::string("coproc.") + arch);
      models_.push_back(std::move(m));
    }
  }

  std::vector<ArchModel>& models() { return models_; }

  /// One keygen -> encaps -> decaps session on model `i`. The outputs must
  /// be byte-identical to the software reference.
  void session(std::size_t i, const SessionCase& c, std::uint64_t request, Phase& ph) {
    ArchModel& m = models_[i];
    saber::coproc::CycleLedger session;
    measure(ph, kKeygen, 1, false, tracer_, m.spans[kKeygen], request,
            [&] { return m.coproc->keygen(c.seed_a, c.seed_s, c.z); },
            [&](const saber::coproc::SaberCoproc::KeygenResult& r) {
              session += r.cycles;
              return std::uint64_t{r.pk != c.keys.pk || r.sk != c.keys.sk};
            });
    measure(ph, kEncaps, 1, false, tracer_, m.spans[kEncaps], request,
            [&] { return m.coproc->encaps(c.keys.pk, c.m_raw); },
            [&](const saber::coproc::SaberCoproc::EncapsResult& r) {
              session += r.cycles;
              return std::uint64_t{r.ct != c.enc.ct || r.key != c.enc.key};
            });
    measure(ph, kDecaps, 1, false, tracer_, m.spans[kDecaps], request,
            [&] { return m.coproc->decaps(c.enc.ct, c.keys.sk); },
            [&](const saber::coproc::SaberCoproc::DecapsResult& r) {
              session += r.cycles;
              return std::uint64_t{r.key != c.dec};
            });
    if (m.sessions == 0) m.first_session_cycles = session.total();
    if (session.total() != m.first_session_cycles) m.cycles_repeat = false;
    m.ledger += session;
    ++m.sessions;
  }

 private:
  Tracer* tracer_;
  std::vector<ArchModel> models_;
};

/// Table 1 paper cycle counts of the modelled rows, from table1.csv.
std::map<std::string, double> read_paper_cycles(const std::string& path) {
  static const std::map<std::string, std::string> kRows = {
      {"LW (4 MACs)", "lw4"}, {"HS-I 256", "hs1-256"}, {"HS-II (128 DSP)", "hs2"}};
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<std::string, double> out;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> cols;
    std::stringstream ss(line);
    for (std::string col; std::getline(ss, col, ',');) cols.push_back(col);
    if (cols.size() > 3 && kRows.count(cols[0]) && !cols[3].empty()) {
      out[kRows.at(cols[0])] = std::stod(cols[3]);
    }
  }
  if (out.size() != kRows.size()) throw std::runtime_error("paper cycles missing in " + path);
  return out;
}

struct ModelFigures {
  double sim_cycles = 0;
  double err_pct = 0;
  bool repeatable = true;
};

/// sim_cycles: one keygen+encaps+decaps per model, summed. err_pct: the
/// largest error of any multiplication's Table 1 convention cycles against
/// the paper's.
ModelFigures model_figures(ModelRunner& runner, const std::map<std::string, double>& paper) {
  ModelFigures f;
  for (ArchModel& m : runner.models()) {
    f.sim_cycles += static_cast<double>(m.first_session_cycles);
    f.repeatable = f.repeatable && m.cycles_repeat && m.sessions > 0;
    for (const auto& c : m.tap->cycles()) {
      const double measured = static_cast<double>(headline_convention_cycles(*m.tap, c));
      const double want = paper.at(m.name);
      f.err_pct = std::max(f.err_pct, 100.0 * std::abs(measured - want) / want);
    }
  }
  return f;
}

// --- workloads ----------------------------------------------------------------

/// Counters read from the program around a traced phase.
struct LayerCounts {
  std::map<std::string, mult::OpCounts> kernel_ops;
  saber::FaultCounters faults;
  std::array<u64, 4> supervisor{};  ///< calls, routed_around, prepares, lazy_prepares

  /// The counts since `before` (every counter is monotone).
  LayerCounts since(const LayerCounts& before) const {
    LayerCounts d = *this;
    for (auto& [name, c] : d.kernel_ops) {
      const auto it = before.kernel_ops.find(name);
      if (it == before.kernel_ops.end()) continue;
      c.coeff_mults -= it->second.coeff_mults;
      c.coeff_adds -= it->second.coeff_adds;
    }
    d.faults.checks -= before.faults.checks;
    d.faults.mismatches -= before.faults.mismatches;
    for (std::size_t i = 0; i < d.supervisor.size(); ++i) d.supervisor[i] -= before.supervisor[i];
    return d;
  }
};

/// Inputs for the direct per-function timings (sha3, sampler, ring).
struct LayerInput {
  const kem::SaberParams* params;
  kem::Seed seed_s;
  const Bytes* pk;
  const Bytes* sk;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual unsigned threads() const { return 1; }
  virtual bool robust() const { return false; }
  /// Build the program under test: everything setup_s covers.
  virtual void build(Tracer* tracer) = 0;
  virtual void destroy() = 0;
  virtual void round(std::uint64_t r, Tracer* tracer, Phase& ph) = 0;
  virtual void corrupt_expected() = 0;
  virtual std::vector<LayerInput> layer_inputs() const = 0;
  virtual LayerCounts counts() const { return {}; }
  /// The coprocessor models the timed loop runs, if any.
  virtual ModelRunner* models() { return nullptr; }
};

mult::OpCounts sum_ops(const std::vector<std::shared_ptr<const mult::PolyMultiplier>>& ms) {
  mult::OpCounts sum;
  for (const auto& m : ms) sum += m->ops();
  return sum;
}

/// handshake: every session a fresh client on the production NTT scheme,
/// round-robin over LightSaber, Saber and FireSaber. Nothing is amortized.
class Handshake final : public Workload {
 public:
  explicit Handshake(std::uint64_t seed) {
    InputStream in(seed, "sessions");
    for (std::size_t i = 0; i < kHandshakePool; ++i) {
      for (const auto& p : kem::kAllParams) pool_.push_back(make_session(p, in));
    }
  }

  void build(Tracer* tracer) override {
    kernels_.clear();
    for (std::size_t i = 0; i < 3; ++i) {
      const auto& p = kem::kAllParams[i];
      if (tracer == nullptr) {
        schemes_[i] = std::make_unique<kem::SaberKemScheme>(p, "ntt");
        continue;
      }
      std::shared_ptr<const mult::PolyMultiplier> ntt = mult::make_multiplier("ntt");
      kernels_.push_back(ntt);
      schemes_[i] = std::make_unique<kem::SaberKemScheme>(
          p, make_timed(std::move(ntt), "mult.ntt", *tracer));
    }
    spans_ = intern_ops(tracer, "kem");
  }
  void destroy() override {
    for (auto& s : schemes_) s.reset();
  }

  void round(std::uint64_t r, Tracer* tracer, Phase& ph) override {
    for (std::size_t k = 0; k < 3; ++k) {
      const std::uint64_t session = 3 * r + k;
      const SessionCase& c = pool_[session % pool_.size()];
      software_session(*schemes_[session % 3], "ntt", c, tracer, spans_, session + 1, ph);
    }
  }

  void corrupt_expected() override { pool_[0].dec[0] ^= 1; }

  std::vector<LayerInput> layer_inputs() const override {
    std::vector<LayerInput> v;
    for (const auto& c : pool_) v.push_back({c.params, c.seed_s, &c.keys.pk, &c.keys.sk});
    return v;
  }

  LayerCounts counts() const override {
    LayerCounts lc;
    lc.kernel_ops["ntt"] = sum_ops(kernels_);
    return lc;
  }

 private:
  std::vector<SessionCase> pool_;  ///< ordered LightSaber, Saber, FireSaber, ...
  std::array<std::unique_ptr<kem::SaberKemScheme>, 3> schemes_;
  std::vector<std::shared_ptr<const mult::PolyMultiplier>> kernels_;
  std::array<std::uint32_t, 3> spans_{};
};

/// server_batch / server_checked: one long-lived Saber server key behind a
/// 4-thread KemBatch. Each round: keygen_many(16), encaps_many(64) against
/// the server key, decaps_many(64) of those ciphertexts with 1 in 8 tampered.
/// `checked` builds every worker's multiplier through a BackendSupervisor
/// over {ntt, schoolbook} with full Freivalds checking.
class Server final : public Workload {
 public:
  Server(std::uint64_t seed, bool checked)
      : traffic_(make_server_traffic(seed)), checked_(checked) {}

  unsigned threads() const override { return kServerThreads; }
  bool robust() const override { return checked_; }

  void build(Tracer* tracer) override {
    batch_.reset();
    supervisor_.reset();
    kernels_.clear();
    facades_.clear();
    // Wrap and remember a freshly built kernel (traced run only). Factories
    // run on this thread, inside the KemBatch and facade constructors.
    auto timed_kernel = [this, tracer](const std::string& name) {
      std::shared_ptr<const mult::PolyMultiplier> k = mult::make_multiplier(name);
      kernels_[name].push_back(k);
      return make_timed(std::move(k), "mult." + name, *tracer);
    };
    if (!checked_) {
      if (tracer == nullptr) {
        batch_ = std::make_unique<batch::KemBatch>(kem::kSaber, "ntt", kServerThreads);
      } else {
        batch_ = std::make_unique<batch::KemBatch>(
            kem::kSaber,
            [timed_kernel]() -> std::shared_ptr<const mult::PolyMultiplier> {
              return timed_kernel("ntt");
            },
            kServerThreads);
      }
    } else {
      saber::robust::SupervisorConfig cfg;
      cfg.check.policy = saber::robust::CheckPolicy::kFull;
      cfg.check.kind = saber::robust::CheckKind::kFreivalds;
      saber::robust::BackendFactory factory;
      if (tracer != nullptr) {
        factory = [this, tracer](std::size_t i) -> std::unique_ptr<mult::PolyMultiplier> {
          const std::string& name = kCheckedBackends[i];
          std::shared_ptr<const mult::PolyMultiplier> k = mult::make_multiplier(name);
          kernels_[name].push_back(k);
          return std::make_unique<TimedMultiplier>(std::move(k), "mult." + name, *tracer);
        };
      }
      supervisor_ =
          std::make_unique<saber::robust::BackendSupervisor>(kCheckedBackends, cfg, factory);
      batch_ = std::make_unique<batch::KemBatch>(
          kem::kSaber,
          [this, tracer]() -> std::shared_ptr<const mult::PolyMultiplier> {
            auto facade = supervisor_->make_worker_multiplier();
            facades_.push_back(facade);
            if (tracer == nullptr) return facade;
            return make_timed(std::move(facade), "robust", *tracer);
          },
          kServerThreads);
    }
    spans_ = intern_ops(tracer, "kem");
    const auto server = batch_->keygen_many(std::span(&traffic_.server_req, 1));
    if (!server[0].ok() || server[0].value.pk != traffic_.server_keys.pk ||
        server[0].value.sk != traffic_.server_keys.sk) {
      throw std::runtime_error("server key generation does not match the reference");
    }
  }
  void destroy() override {
    batch_.reset();
    facades_.clear();
    supervisor_.reset();
  }

  void round(std::uint64_t r, Tracer* tracer, Phase& ph) override {
    const std::size_t slice = r % kPoolRounds;
    const std::uint64_t request = 3 * r + 1;
    auto check_items = [&ph](const auto& outs, auto&& wrong) {
      std::uint64_t failed = 0;
      for (std::size_t i = 0; i < outs.size(); ++i) {
        if (!outs[i].ok() || wrong(i, outs[i].value)) ++failed;
        if (outs[i].status == batch::ItemStatus::kRecovered) ++ph.recovered;
      }
      return failed;
    };

    const std::size_t k0 = slice * kKeygensPerRound;
    measure(ph, kKeygen, kKeygensPerRound, true, tracer, spans_[kKeygen], request,
            [&] {
              return batch_->keygen_many(
                  std::span(traffic_.keygen_reqs).subspan(k0, kKeygensPerRound));
            },
            [&](const auto& outs) {
              return check_items(outs, [&](std::size_t i, const kem::KemKeyPair& kp) {
                const auto& want = traffic_.keygen_expected[k0 + i];
                return kp.pk != want.pk || kp.sk != want.sk;
              });
            });
    const std::size_t c0 = slice * kCiphertextsPerRound;
    measure(ph, kEncaps, kCiphertextsPerRound, true, tracer, spans_[kEncaps], request + 1,
            [&] {
              return batch_->encaps_many(
                  traffic_.server_keys.pk,
                  std::span(traffic_.messages).subspan(c0, kCiphertextsPerRound));
            },
            [&](const auto& outs) {
              return check_items(outs, [&](std::size_t i, const kem::EncapsResult& e) {
                const auto& want = traffic_.encaps_expected[c0 + i];
                return e.ct != want.ct || e.key != want.key;
              });
            });
    measure(ph, kDecaps, kCiphertextsPerRound, true, tracer, spans_[kDecaps], request + 2,
            [&] {
              return batch_->decaps_many(
                  traffic_.server_keys.sk,
                  std::span(traffic_.decaps_cts).subspan(c0, kCiphertextsPerRound));
            },
            [&](const auto& outs) {
              return check_items(outs, [&](std::size_t i, const kem::SharedSecret& k) {
                return k != traffic_.decaps_expected[c0 + i];
              });
            });
    ph.kernel_ops["ntt"] += kKeygensPerRound + 2 * kCiphertextsPerRound;
  }

  void corrupt_expected() override { traffic_.decaps_expected[kTamperEvery - 1][0] ^= 1; }

  std::vector<LayerInput> layer_inputs() const override {
    std::vector<LayerInput> v;
    for (std::size_t i = 0; i < traffic_.keygen_reqs.size(); ++i) {
      v.push_back({&kem::kSaber, traffic_.keygen_reqs[i].seed_s,
                   &traffic_.keygen_expected[i].pk, &traffic_.keygen_expected[i].sk});
    }
    return v;
  }

  LayerCounts counts() const override {
    LayerCounts lc;
    for (const auto& [name, ks] : kernels_) lc.kernel_ops[name] = sum_ops(ks);
    for (const auto& f : facades_) {
      const auto c = dynamic_cast<const saber::FaultMonitor&>(*f).fault_counters();
      lc.faults.checks += c.checks;
      lc.faults.mismatches += c.mismatches;
      lc.faults.retry_recoveries += c.retry_recoveries;
      lc.faults.failovers += c.failovers;
    }
    if (supervisor_) {
      for (const auto& s : supervisor_->status()) {
        lc.supervisor[0] += s.calls;
        lc.supervisor[1] += s.routed_around;
        lc.supervisor[2] += s.prepares;
        lc.supervisor[3] += s.lazy_prepares;
      }
    }
    return lc;
  }

 private:
  ServerTraffic traffic_;
  bool checked_;
  std::unique_ptr<saber::robust::BackendSupervisor> supervisor_;
  std::unique_ptr<batch::KemBatch> batch_;
  std::map<std::string, std::vector<std::shared_ptr<const mult::PolyMultiplier>>> kernels_;
  std::vector<std::shared_ptr<const mult::PolyMultiplier>> facades_;
  std::array<std::uint32_t, 3> spans_{};
};

/// paper_models: Saber sessions round-robin over the lw4, hs1-256 and hs2
/// coprocessor models and the software toom4 and karatsuba-8 schemes.
class PaperModels final : public Workload {
 public:
  explicit PaperModels(std::uint64_t seed) {
    InputStream in(seed, "paper");
    for (std::size_t i = 0; i < kPaperPool; ++i) pool_.push_back(make_session(kem::kSaber, in));
  }

  void build(Tracer* tracer) override {
    runner_ = std::make_unique<ModelRunner>(tracer);
    kernels_.clear();
    for (std::size_t i = 0; i < kPaperSoftware.size(); ++i) {
      std::shared_ptr<const mult::PolyMultiplier> k = mult::make_multiplier(kPaperSoftware[i]);
      if (tracer != nullptr) {
        kernels_[kPaperSoftware[i]] = k;
        k = make_timed(std::move(k), std::string("mult.") + kPaperSoftware[i], *tracer);
      }
      schemes_[i] = std::make_unique<kem::SaberKemScheme>(kem::kSaber, std::move(k));
    }
    spans_ = intern_ops(tracer, "kem");
  }
  void destroy() override {
    runner_.reset();
    for (auto& s : schemes_) s.reset();
  }

  void round(std::uint64_t r, Tracer* tracer, Phase& ph) override {
    const SessionCase& c = pool_[r % pool_.size()];
    std::uint64_t request = 5 * r + 1;
    for (std::size_t i = 0; i < kArchs.size(); ++i) runner_->session(i, c, request++, ph);
    for (std::size_t i = 0; i < kPaperSoftware.size(); ++i) {
      software_session(*schemes_[i], kPaperSoftware[i], c, tracer, spans_, request++, ph);
    }
  }

  void corrupt_expected() override { pool_[0].enc.ct[0] ^= 1; }

  std::vector<LayerInput> layer_inputs() const override {
    std::vector<LayerInput> v;
    for (const auto& c : pool_) v.push_back({c.params, c.seed_s, &c.keys.pk, &c.keys.sk});
    return v;
  }

  LayerCounts counts() const override {
    LayerCounts lc;
    for (const auto& [name, k] : kernels_) lc.kernel_ops[name] = k->ops();
    return lc;
  }

  ModelRunner* models() override { return runner_.get(); }

 private:
  std::vector<SessionCase> pool_;
  std::unique_ptr<ModelRunner> runner_;
  std::array<std::unique_ptr<kem::SaberKemScheme>, 2> schemes_;
  std::map<std::string, std::shared_ptr<const mult::PolyMultiplier>> kernels_;
  std::array<std::uint32_t, 3> spans_{};
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "handshake") return std::make_unique<Handshake>(seed);
  if (name == "server_batch") return std::make_unique<Server>(seed, false);
  if (name == "server_checked") return std::make_unique<Server>(seed, true);
  if (name == "paper_models") return std::make_unique<PaperModels>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

// --- running ------------------------------------------------------------------

/// Build the program repeatedly (keeping the last build) and return the
/// median build time. Quick set-ups repeat more often, so the median of a
/// sub-microsecond set-up is still taken over many samples.
double timed_setup(Workload& w, Tracer* tracer) {
  std::vector<double> secs;
  double spent = 0;
  while (secs.size() < kSetupMinRepeats ||
         (spent < kSetupBudgetS && secs.size() < kSetupMaxRepeats)) {
    w.destroy();
    const std::int64_t t0 = now_ns();
    w.build(tracer);
    secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    spent += secs.back();
  }
  return median(secs);
}

/// Run whole rounds until `seconds` have passed (at least one round), or a
/// traced phase has recorded kMaxSpans spans, grouping the rounds into
/// windows. A one-thread workload moves to the next CPU with every window. With `setups`, the program is rebuilt about every kSetupEveryS,
/// outside the windows' timing, and each rebuild's median set-up time is
/// appended: set-up is then sampled across the whole run, not only in
/// whatever state the host was in at its start.
Phase run_phase(Workload& w, double seconds, Tracer* tracer,
                std::vector<double>* setups = nullptr) {
  Phase ph;
  std::optional<CpuRotation> rotation;
  if (w.threads() == 1) {
    rotation.emplace();
    rotation->step();
  }
  const double cpu0 = process_cpu_seconds();
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  const auto window_ns = static_cast<std::int64_t>(kWindowS * 1e9);
  const auto setup_every_ns = static_cast<std::int64_t>(kSetupEveryS * 1e9);
  std::int64_t next_setup = start + setup_every_ns;
  Window win;
  std::int64_t win_start = start;
  double win_cpu = cpu0;
  for (std::uint64_t r = 0;; ++r) {
    w.round(r, tracer, ph);
    ++ph.rounds;
    const std::int64_t now = now_ns();
    const bool last = now >= deadline || (tracer != nullptr && tracer->size() >= kMaxSpans);
    if ((now - win_start >= window_ns && ph.rounds - win.rounds >= kWindowRounds) || last) {
      const double cpu = process_cpu_seconds();
      Window done = win;
      done.attempted = ph.attempted - win.attempted;
      done.done = (ph.attempted - ph.failed) - win.done;
      done.wall_s = static_cast<double>(now - win_start) * 1e-9;
      done.cpu_s = cpu - win_cpu;
      for (std::size_t k = 0; k < 3; ++k) done.end[k] = ph.latency_us[k].size();
      // Keep a short trailing window only when it is the only one.
      if (done.wall_s * 2 >= kWindowS || ph.windows.empty()) ph.windows.push_back(done);
      win.attempted = ph.attempted;
      win.done = ph.attempted - ph.failed;
      win.rounds = ph.rounds;
      win.first = done.end;
      if (rotation) rotation->step();
      win_start = now_ns();
      win_cpu = process_cpu_seconds();
    }
    if (last) break;
    if (setups != nullptr && now >= next_setup) {
      const double cpu = process_cpu_seconds();
      setups->push_back(timed_setup(w, tracer));
      const std::int64_t resumed = now_ns();
      win_start += resumed - now;  // the pause belongs to no window
      win_cpu += process_cpu_seconds() - cpu;
      next_setup = resumed + setup_every_ns;
    }
  }
  ph.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  ph.cpu_s = process_cpu_seconds() - cpu0;
  return ph;
}

/// Mean time per call of the layers the KEM reaches outside the multiplier,
/// measured by direct calls on the workload's own inputs.
std::map<std::string, double> direct_layer_timings(const std::vector<LayerInput>& inputs,
                                                   u64& sink) {
  std::map<std::string, std::unique_ptr<kem::SaberPke>> pkes;
  for (const auto& in : inputs) {
    auto& p = pkes[std::string(in.params->name)];
    if (!p) p = std::make_unique<kem::SaberPke>(*in.params, "schoolbook");
  }
  auto time_per_call = [&](const std::function<u64(const LayerInput&)>& fn) {
    constexpr std::int64_t kMinNs = 20'000'000;
    std::uint64_t calls = 0;
    const std::int64_t t0 = now_ns();
    do {
      for (const auto& in : inputs) {
        sink += fn(in);
        ++calls;
      }
    } while (now_ns() - t0 < kMinNs);
    return static_cast<double>(now_ns() - t0) * 1e-3 / static_cast<double>(calls);
  };
  auto pke = [&](const LayerInput& in) -> const kem::SaberPke& {
    return *pkes.at(std::string(in.params->name));
  };
  std::map<std::string, double> t;
  t["sha3.gen_matrix_us"] = time_per_call([](const LayerInput& in) {
    const auto a = kem::gen_matrix(std::span(*in.pk).last(32), *in.params);
    return u64{a.at(0, 0)[0]};
  });
  t["sampler.gen_secret_us"] = time_per_call([](const LayerInput& in) {
    return static_cast<u64>(kem::gen_secret(in.seed_s, *in.params)[0][0] + 8);
  });
  t["sha3.hash_pk_us"] = time_per_call([](const LayerInput& in) {
    return u64{saber::sha3::Sha3_256::hash(*in.pk)[0]};
  });
  t["ring.unpack_secret_us"] = time_per_call([&](const LayerInput& in) {
    return static_cast<u64>(pke(in).unpack_secret(*in.sk)[0][0] + 8);
  });
  std::map<std::string, std::pair<saber::ring::PolyVec, kem::Seed>> unpacked;
  for (const auto& in : inputs) {
    auto& u = unpacked[std::string(in.params->name)];
    pke(in).unpack_pk(*in.pk, u.first, u.second);
  }
  t["ring.pack_pk_us"] = time_per_call([&](const LayerInput& in) {
    const auto& u = unpacked.at(std::string(in.params->name));
    return u64{pke(in).pack_pk(u.first, u.second)[0]};
  });
  return t;
}

struct Agg {
  std::uint64_t count = 0;
  double dur_ns = 0;
  double self_ns = 0;
};

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

struct TraceInputs {
  Workload& w;
  const Phase& untraced;
  const Phase& traced;
  Tracer& tracer;
  const LayerCounts& counts;  ///< delta over the traced phase
  const std::map<std::string, double>& direct;
  double overhead_x = 0;  ///< server_checked only
};

void per_layer_metrics(const TraceInputs& in, const std::vector<Span>& spans, MetricSet& m) {
  const std::vector<std::int64_t> self = self_times(spans);
  const std::vector<std::string> names = in.tracer.names();
  std::vector<Agg> by_name(names.size());
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    by_id.emplace(s.id, i);
    Agg& a = by_name[s.name];
    ++a.count;
    a.dur_ns += static_cast<double>(s.duration_ns());
    a.self_ns += static_cast<double>(self[i]);
  }
  std::map<std::string, Agg> agg;
  for (std::size_t i = 0; i < names.size(); ++i) agg[names[i]] = by_name[i];
  auto of = [&agg](const std::string& name) {
    const auto it = agg.find(name);
    return it == agg.end() ? Agg{} : it->second;
  };
  const Phase& ph = in.traced;
  const double ops = static_cast<double>(ph.attempted);
  const unsigned threads = in.w.threads();

  // mult: per kernel and method, per KEM op run on that kernel.
  double kernel_ns = 0, kem_thread_ns = 0, kem_top_ns = 0;
  for (const auto& [name, a] : agg) {
    if (starts_with(name, "mult.") || starts_with(name, "hw.")) kernel_ns += a.dur_ns;
  }
  for (const Span& s : spans) {
    const std::string& name = names[s.name];
    if (starts_with(name, "kem.") || starts_with(name, "coproc.")) {
      kem_thread_ns += static_cast<double>(s.duration_ns()) * threads;
      kem_top_ns += static_cast<double>(s.duration_ns());
    }
  }
  for (const char* kernel : kKernels) {
    const auto it = ph.kernel_ops.find(kernel);
    const double kops = it == ph.kernel_ops.end() ? 0 : static_cast<double>(it->second);
    const std::string prefix = std::string("mult.") + kernel;
    for (const char* method : kMultMethods) {
      const Agg a = of(prefix + "." + method);
      m.add(prefix + "." + method + ".calls", ratio(static_cast<double>(a.count), kops),
            "calls/op");
      m.add(prefix + "." + method + ".busy_us", ratio(a.dur_ns * 1e-3, kops), "us/op");
    }
    const auto c = in.counts.kernel_ops.count(kernel) ? in.counts.kernel_ops.at(kernel)
                                                      : mult::OpCounts{};
    m.add(prefix + ".coeff_mults", ratio(static_cast<double>(c.coeff_mults), kops),
          "mults/op");
    m.add(prefix + ".coeff_adds", ratio(static_cast<double>(c.coeff_adds), kops), "adds/op");
  }
  m.add("mult.share_pct", 100 * ratio(kernel_ns, kem_thread_ns), "%");

  // kem, sha3, sampler, ring.
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string name = std::string("kem.") + kKinds[k];
    const double self_ns = of(name).self_ns;
    m.add(name + ".self_us", ratio(self_ns * 1e-3, static_cast<double>(ph.kem_ops[k])),
          "us/op");
  }
  for (const auto& [name, us] : in.direct) m.add(name, us, "us/call");

  // batch: preparation share of encaps_many, CPU use, per-thread skew.
  std::unordered_map<std::size_t, std::int64_t> first_product;
  std::unordered_map<std::size_t, std::vector<double>> busy_by_thread;
  for (const Span& s : spans) {
    const auto it = by_id.find(s.parent);
    if (s.parent == 0 || it == by_id.end()) continue;
    const std::string& parent = names[spans[it->second].name];
    if (!starts_with(parent, "kem.")) continue;
    auto& busy = busy_by_thread[it->second];
    busy.resize(threads);
    if (s.thread < threads) busy[s.thread] += static_cast<double>(s.duration_ns());
    const std::string& name = names[s.name];
    if (parent == "kem.encaps" && name.find(".prepare_public") == std::string::npos) {
      auto [f, inserted] = first_product.emplace(it->second, s.start_ns);
      if (!inserted) f->second = std::min(f->second, s.start_ns);
    }
  }
  double prepare_frac = 0, skew = 0;
  if (threads > 1) {
    std::size_t n = 0;
    for (const auto& [idx, first] : first_product) {
      prepare_frac += ratio(static_cast<double>(first - spans[idx].start_ns),
                            static_cast<double>(spans[idx].duration_ns()));
      ++n;
    }
    prepare_frac = ratio(prepare_frac, static_cast<double>(n));
    for (const auto& [idx, busy] : busy_by_thread) {
      const auto [lo, hi] = std::minmax_element(busy.begin(), busy.end());
      double mean = 0;
      for (const double b : busy) mean += b / static_cast<double>(busy.size());
      skew += ratio(*hi - *lo, mean);
    }
    skew = ratio(skew, static_cast<double>(busy_by_thread.size()));
  }
  m.add("batch.encaps_many.prepare_frac", prepare_frac, "frac");
  m.add("batch.cpu_util", ratio(ph.cpu_s, threads * ph.wall_s), "frac");
  m.add("batch.worker_skew", skew, "frac");

  // robust.
  double robust_self_ns = 0;
  for (const auto& [name, a] : agg) {
    if (starts_with(name, "robust.")) robust_self_ns += a.self_ns;
  }
  m.add("robust.self_us_per_op", ratio(robust_self_ns * 1e-3, ops), "us/op");
  m.add("robust.checks_per_op", ratio(static_cast<double>(in.counts.faults.checks), ops),
        "checks/op");
  m.add("robust.mismatches", static_cast<double>(in.counts.faults.mismatches), "count");
  m.add("robust.recovered_frac", ratio(static_cast<double>(ph.recovered), ops), "frac");
  const std::array<const char*, 4> sup = {"calls", "routed_around", "prepares",
                                          "lazy_prepares"};
  for (std::size_t i = 0; i < sup.size(); ++i) {
    m.add(std::string("robust.supervisor.") + sup[i],
          ratio(static_cast<double>(in.counts.supervisor[i]), ops), "calls/op");
  }
  m.add("robust.overhead_x", in.overhead_x, "x");

  // hw + multipliers and coproc, per modelled architecture.
  ModelRunner* runner = in.w.models();
  for (std::size_t i = 0; i < kArchs.size(); ++i) {
    const std::string arch = kArchs[i];
    double n = 0, total = 0, stalls = 0, overhead = 0, sessions = 0, share = 0;
    const Agg hw = of("hw." + arch + ".multiply");
    double coproc_self_ns = 0;
    for (const char* kind : kKinds) {
      const std::string name = "coproc." + arch + "." + kind;
      coproc_self_ns += of(name).self_ns;
    }
    if (runner != nullptr) {
      const ArchModel& model = runner->models()[i];
      for (const auto& c : model.tap->cycles()) {
        n += 1;
        total += static_cast<double>(c.total);
        stalls += static_cast<double>(c.stall_public_load + c.stall_secret_load +
                                      c.stall_accumulator);
        overhead += static_cast<double>(c.overhead());
      }
      sessions = static_cast<double>(model.sessions);
      share = 100 * model.ledger.mult_share();
    }
    const std::string p = "hw." + arch;
    m.add(p + ".mults_per_session", ratio(n, sessions), "mults/session");
    m.add(p + ".host_us_per_mult", ratio(hw.dur_ns * 1e-3, static_cast<double>(hw.count)),
          "us/mult");
    m.add(p + ".host_ns_per_sim_cycle", ratio(hw.dur_ns, total), "ns/cycle");
    m.add(p + ".sim_cycles_per_mult", ratio(total, n), "cycles/mult");
    m.add(p + ".stall_cycles_per_mult", ratio(stalls, n), "cycles/mult");
    m.add(p + ".overhead_frac", ratio(overhead, total), "frac");
    m.add("coproc." + arch + ".self_us", ratio(coproc_self_ns * 1e-3, sessions),
          "us/session");
    m.add("coproc." + arch + ".mult_share_pct", share, "%");
  }

  // tracing itself.
  m.add("trace.overhead_pct", 100 * (1 - ratio(steady(ph).ops_s, steady(in.untraced).ops_s)),
        "%");
  m.add("trace.unattributed_pct", 100 * ratio(ph.wall_s * 1e9 - kem_top_ns, ph.wall_s * 1e9),
        "%");
}

std::string phase_json(const Phase& ph) {
  const Steady st = steady(ph);
  std::ostringstream os;
  os << "{\"wall_s\": " << json_number(ph.wall_s) << ", \"rounds\": " << ph.rounds
     << ", \"attempted\": " << ph.attempted << ", \"failed\": " << ph.failed
     << ", \"mean_ops_s\": " << json_number(ph.mean_ops_s())
     << ", \"windows_pooled\": " << st.windows << ", \"tails\": {";
  for (std::size_t k = 0; k < 3; ++k) {
    os << (k ? ", " : "") << json_string(kKinds[k])
       << ": {\"percentile\": " << json_number(st.tail[k].percentile)
       << ", \"samples\": " << st.tail[k].samples << "}";
  }
  os << "}, \"window_ops_s\": [";
  for (std::size_t i = 0; i < ph.windows.size(); ++i) {
    os << (i ? ", " : "") << json_number(std::round(ph.windows[i].ops_s()));
  }
  os << "]}";
  return os.str();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"handshake", "server_batch",
                                                 "server_checked", "paper_models"};
  return names;
}

RunResult run_workload(const Options& opts) {
  const auto paper = read_paper_cycles(opts.table1_csv);
  std::unique_ptr<Workload> w = make_workload(opts.workload, opts.seed);
  if (opts.canary) w->corrupt_expected();

  RunResult res;
  std::ostringstream details;
  details << "{\"workload\": " << json_string(opts.workload) << ", \"seed\": " << opts.seed
          << ", \"seconds\": " << json_number(opts.seconds)
          << ", \"trace\": " << (opts.trace ? 1 : 0);
  const CpuTicks ticks0 = read_cpu_ticks();

  auto account = [&res](const Phase& ph) {
    res.attempted += ph.attempted;
    res.failed += ph.failed;
  };

  if (!opts.trace) {
    // setup_s: the lowest of the per-window set-up medians (the set-up
    // counterpart of the least-contended window).
    std::vector<double> setups = {timed_setup(*w, nullptr)};
    const Phase ph = run_phase(*w, opts.seconds, nullptr, &setups);
    const double setup_s = *std::min_element(setups.begin(), setups.end());
    const double rss = peak_rss_mib();
    account(ph);

    // Model figures: from the timed sessions on paper_models; elsewhere
    // from one probe session per model after the timed loop.
    std::unique_ptr<ModelRunner> probe;
    ModelRunner* runner = w->models();
    Phase probe_phase;
    if (runner == nullptr) {
      InputStream in(opts.seed, "model-probe");
      const SessionCase c = make_session(kem::kSaber, in);
      probe = std::make_unique<ModelRunner>(nullptr);
      for (std::size_t i = 0; i < kArchs.size(); ++i) probe->session(i, c, 0, probe_phase);
      runner = probe.get();
    }
    const ModelFigures model = model_figures(*runner, paper);
    if (probe_phase.failed != 0 || !model.repeatable) res.correct = false;

    auto& m = res.metrics;
    m.add("setup_s", setup_s, "s");
    const Steady st = steady(ph);
    m.add("ops_s", st.ops_s, "1/s");
    for (std::size_t k = 0; k < 3; ++k) {
      m.add(std::string(kKinds[k]) + "_p50_us", st.p50_us[k], "us");
      m.add(std::string(kKinds[k]) + "_tail_us", st.tail[k].value, "us");
    }
    m.add("cpu_us_per_op", st.cpu_us_per_op, "us/op");
    m.add("peak_rss_mib", rss, "MiB");
    m.add("ok_frac", 1 - ratio(static_cast<double>(ph.failed), static_cast<double>(ph.attempted)),
          "frac");
    m.add("sim_cycles", model.sim_cycles, "cycles");
    m.add("sim_cycle_err_pct", model.err_pct, "%");
    details << ", \"phase\": " << phase_json(ph) << ", \"setup_samples\": " << setups.size()
            << ", \"setup_median_s\": " << json_number(median(setups))
            << ", \"model_sessions_repeat\": " << (model.repeatable ? "true" : "false");
  } else {
    // Untraced and traced phases share the run; server_checked adds an
    // untraced server_batch phase for robust.overhead_x.
    const bool checked = w->robust();
    const double share = opts.seconds / (checked ? 3 : 2);
    timed_setup(*w, nullptr);
    const Phase plain = run_phase(*w, share, nullptr);
    account(plain);
    double overhead_x = 0;
    if (checked) {
      Server base(opts.seed, false);
      if (opts.canary) base.corrupt_expected();
      timed_setup(base, nullptr);
      const Phase b = run_phase(base, share, nullptr);
      account(b);
      overhead_x = ratio(steady(plain).cpu_us_per_op, steady(b).cpu_us_per_op);
      details << ", \"server_batch_phase\": " << phase_json(b);
    }
    w->destroy();
    Tracer tracer;
    w->build(&tracer);
    const LayerCounts before = w->counts();
    const Phase traced = run_phase(*w, share, &tracer);
    account(traced);
    const LayerCounts delta = w->counts().since(before);
    u64 sink = 0;
    const auto direct = direct_layer_timings(w->layer_inputs(), sink);
    const std::vector<Span> spans = tracer.spans();
    per_layer_metrics({*w, plain, traced, tracer, delta, direct, overhead_x}, spans,
                      res.metrics);
    details << ", \"untraced_phase\": " << phase_json(plain)
            << ", \"traced_phase\": " << phase_json(traced) << ", \"spans\": " << spans.size()
            << ", \"peak_rss_mib\": " << json_number(peak_rss_mib()) << ", \"sink\": " << sink;
    if (!opts.out_dir.empty()) {
      // One file per workload, overwritten by its next traced run.
      const std::string path = opts.out_dir + "/" + opts.workload + ".spans.csv";
      details << ", \"spans_csv\": " << json_string(path);
      if (!tracer.write_csv(spans, path)) throw std::runtime_error("cannot write " + path);
    }
    w->destroy();
  }
  if (res.failed != 0) res.correct = false;
  details << ", \"host\": " << host_context_json(ticks0, read_cpu_ticks()) << "}";
  res.details_json = details.str();
  return res;
}

}  // namespace perfbench
