// Heap-traffic regression tests for the hot loops of the paper-comparison
// paths: the Karatsuba/Toom-Cook split-transform products and the LW / HS-I
// cycle models. A counting global operator new (this executable only) tallies
// every allocation made inside the measured call.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/rng.hpp"
#include "mult/karatsuba.hpp"
#include "mult/strategy.hpp"
#include "multipliers/hw_multiplier.hpp"

namespace {

std::atomic<long> g_allocations{0};

}  // namespace

// Kept out of line: inlined into a caller, GCC pairs the operator new at the
// allocation site with the free() in here and warns of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace saber {
namespace {

using ring::Poly;
using ring::SecretPoly;

/// Allocations made while running `f`.
template <typename F>
long allocations_in(F&& f) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

struct Operands {
  Poly a;
  SecretPoly s;
};

Operands random_operands(u64 seed) {
  Xoshiro256StarStar rng(seed);
  return {Poly::random(rng, 13), SecretPoly::random(rng, 4)};
}

// One pointwise_accumulate is one product into a prepared accumulator. The
// recursion below it runs on one scratch arena, so the call allocates at
// most that arena, whatever the depth (8-level Karatsuba has 3,280 inner
// nodes; Toom-Cook runs one Karatsuba per evaluation point).
void expect_pointwise_allocates_at_most_once(const mult::PolyMultiplier& m) {
  const auto ops = random_operands(11);
  auto acc = m.make_accumulator();
  const auto pa = m.prepare_public(ops.a, 13);
  const auto ps = m.prepare_secret(ops.s, 13);
  for (int call = 0; call < 3; ++call) {
    EXPECT_LE(allocations_in([&] { m.pointwise_accumulate(acc, pa, ps); }), 1)
        << m.name() << " call " << call;
  }
}

TEST(Allocations, KaratsubaPointwiseIsIndependentOfLevels) {
  for (const unsigned levels : {0u, 1u, 4u, 8u}) {
    expect_pointwise_allocates_at_most_once(mult::KaratsubaMultiplier(levels));
  }
}

TEST(Allocations, ToomCookPointwiseSharesOneArena) {
  for (const auto name : {"toom3", "toom4"}) {
    expect_pointwise_allocates_at_most_once(*mult::make_multiplier(name));
  }
}

// A cycle-model multiply allocates its memory array and the packed operand
// and result images: a handful of buffers per call, none per simulated cycle
// (lw4 simulates ~19k cycles, hs1-256 ~65k MAC steps).
TEST(Allocations, CycleModelMultiplyIsConstant) {
  constexpr long kMaxPerMultiply = 8;
  for (const auto name : {"lw4", "hs1-256"}) {
    auto arch = arch::make_architecture(name);
    long first = -1;
    for (const u64 seed : {21u, 22u, 23u}) {
      const auto ops = random_operands(seed);
      const long n = allocations_in([&] { (void)arch->multiply(ops.a, ops.s); });
      EXPECT_LE(n, kMaxPerMultiply) << name;
      if (first < 0) first = n;
      EXPECT_EQ(n, first) << name << ": allocation count depends on the operands";
    }
  }
}

}  // namespace
}  // namespace saber
