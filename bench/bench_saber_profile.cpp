// Experiment E6 (§1/§2): full-KEM cycle profile.
//
// Reproduces the paper's motivating measurement — polynomial multiplication
// takes "up to 56% of the overall computation time" of Saber on a
// [10]-style coprocessor — and shows how the share changes across the
// proposed architectures. Every number comes from executing the KEM
// programs on the coprocessor model (coproc::SaberCoproc) and reading its
// per-unit cycle ledgers. Also wall-clock-benchmarks the complete KEM with
// the hardware-simulated multipliers plugged in end-to-end.
//
// Exits non-zero if any executed decapsulation disagrees with its
// encapsulation. `--benchmark_filter=^$` prints the profiles only.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>

#include "common/rng.hpp"
#include "coproc/programs.hpp"
#include "multipliers/high_speed.hpp"
#include "mult/strategy.hpp"
#include "saber/kem.hpp"

using namespace saber;

namespace {

void BM_KemRoundTrip(benchmark::State& state, const char* mult_name, bool hardware) {
  std::unique_ptr<mult::PolyMultiplier> sw;
  std::unique_ptr<arch::HwMultiplier> hw_arch;
  ring::PolyMulFn fn;
  if (hardware) {
    hw_arch = arch::make_architecture(mult_name);
    fn = arch::as_poly_mul(*hw_arch);
  } else {
    sw = mult::make_multiplier(mult_name);
    fn = mult::as_poly_mul(*sw);
  }
  kem::SaberKemScheme scheme(kem::kSaber, fn);
  Xoshiro256StarStar rng(21);
  const auto kp = scheme.keygen(rng);
  for (auto _ : state) {
    const auto enc = scheme.encaps(kp.pk, rng);
    const auto key = scheme.decaps(enc.ct, kp.sk);
    if (key != enc.key) state.SkipWithError("shared-secret mismatch");
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK_CAPTURE(BM_KemRoundTrip, sw_toom4, "toom4", false);
BENCHMARK_CAPTURE(BM_KemRoundTrip, sw_ntt, "ntt", false);
BENCHMARK_CAPTURE(BM_KemRoundTrip, hw_hs1_256, "hs1-256", true);
BENCHMARK_CAPTURE(BM_KemRoundTrip, hw_hs2, "hs2", true);

struct KemLedgers {
  coproc::CycleLedger keygen, encaps, decaps;

  double mult_share() const {
    coproc::CycleLedger all = keygen;
    all += encaps;
    all += decaps;
    return all.mult_share();
  }
};

// Runs keygen -> encaps -> decaps on the coprocessor model and exits the
// process if the decapsulated key differs from the encapsulated one.
KemLedgers run_kem(const kem::SaberParams& params, arch::HwMultiplier& mult,
                   std::string_view label) {
  coproc::SaberCoproc cp(params, mult);
  coproc::SaberCoproc::Seed sa{}, ss{}, z{}, m{};
  sa.fill(1);
  ss.fill(2);
  z.fill(3);
  m.fill(4);
  const auto kg = cp.keygen(sa, ss, z);
  const auto en = cp.encaps(kg.pk, m);
  const auto de = cp.decaps(en.ct, kg.sk);
  if (de.key != en.key) {
    std::cerr << "KEM mismatch: " << label << " on " << params.name << "\n";
    std::exit(1);
  }
  return {kg.cycles, en.cycles, de.cycles};
}

int percent(double share) { return static_cast<int>(100.0 * share + 0.5); }

// Saber on each architecture; hs1-256 has the [10] 256-MAC cycle count and
// appears as the Saber row of all_param_sets().
void executed_profiles() {
  std::cout << "Saber (l=3) per architecture:\n\n";
  for (const char* name : {"baseline-256", "hs1-512", "hs2", "lw4"}) {
    auto mult = arch::make_architecture(name);
    const auto r = run_kem(kem::kSaber, *mult, name);
    std::cout << name << ":\n"
              << "  keygen " << r.keygen.to_string() << "\n"
              << "  encaps " << r.encaps.to_string() << "\n"
              << "  decaps " << r.decaps.to_string() << "\n"
              << "  overall mult share " << percent(r.mult_share()) << "%\n\n";
  }
}

// All three parameter sets on HS-I-256 (LightSaber's |s| = 5 secrets need
// the max_mag = 5 configuration of the multiplier).
void all_param_sets() {
  std::cout << "Per parameter set (HS-I 256-MAC class):\n\n";
  for (const auto& p : kem::kAllParams) {
    arch::HighSpeedMultiplier mult(
        arch::HighSpeedConfig{256, true, p.secret_bound() > 4 ? 5u : 4u});
    const auto r = run_kem(p, mult, "hs1-256");
    std::cout << "  " << p.name << " (l=" << p.l << "): keygen " << r.keygen.total()
              << ", encaps " << r.encaps.total() << ", decaps " << r.decaps.total()
              << " cycles; mult shares " << percent(r.keygen.mult_share()) << "/"
              << percent(r.encaps.mult_share()) << "/" << percent(r.decaps.mult_share())
              << "%, overall " << percent(r.mult_share()) << "%\n";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "E6 — Saber KEM cycle profiles, executed on the coprocessor model\n"
               "(outputs byte-identical to the software implementation).\n\n";
  executed_profiles();
  all_param_sets();
  std::cout << "The [10]-class high-speed designs keep multiplication at roughly\n"
               "half the KEM time (the paper's 56% motivation); on the lightweight\n"
               "multiplier the KEM is almost entirely multiplication-bound, which\n"
               "is why §4 optimizes its memory behaviour rather than its LUTs.\n\n";

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
