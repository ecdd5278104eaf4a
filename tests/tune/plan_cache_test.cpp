// Tests for the thread-safe LRU plan cache: hit/miss accounting, LRU
// eviction by count and bytes, shared_ptr handout, concurrent lookups
// and end-to-end correctness of cached plans.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"
#include "common/topology.h"
#include "fft/reference.h"
#include "kernels/isa.h"
#include "obs/obs.h"
#include "parallel/team.h"
#include "tune/plan_cache.h"
#include "tune/wisdom.h"

namespace bwfft::tune {
namespace {

using test::fft_tol;
using test::max_err;

FftOptions small_opts() {
  FftOptions o;
  o.threads = 2;
  return o;
}

TEST(PlanCache, HitReturnsTheSameSharedPlan) {
  PlanCache cache;
  const auto a = cache.acquire({8, 8}, Direction::Forward, small_opts());
  const auto b = cache.acquire({8, 8}, Direction::Forward, small_opts());
  EXPECT_EQ(a.get(), b.get());
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(1u, s.misses);
  EXPECT_EQ(1u, s.hits);
  EXPECT_EQ(1u, s.plans);
  EXPECT_GT(s.bytes, 0u);
}

TEST(PlanCache, KeyCoversDimsDirectionOptionsAndVariant) {
  PlanCache cache;
  const auto base = cache.acquire({8, 8}, Direction::Forward, small_opts());
  EXPECT_NE(base.get(),
            cache.acquire({8, 16}, Direction::Forward, small_opts()).get());
  EXPECT_NE(base.get(),
            cache.acquire({8, 8}, Direction::Inverse, small_opts()).get());
  FftOptions other = small_opts();
  other.nontemporal = false;
  EXPECT_NE(base.get(),
            cache.acquire({8, 8}, Direction::Forward, other).get());
  EXPECT_NE(
      base.get(),
      cache.acquire({8, 8}, Direction::Forward, small_opts(), "v2").get());
  EXPECT_EQ(5u, cache.stats().plans);
  EXPECT_EQ(5u, cache.stats().misses);
  EXPECT_EQ(0u, cache.stats().hits);
}

TEST(PlanCache, KeyCoversTheIsaAndTheTopology) {
  // An ISA pin is its own plan: it must not be served the Auto plan.
  PlanCache cache;
  const auto base = cache.acquire({8, 8}, Direction::Forward, small_opts());
  FftOptions avx2 = small_opts();
  avx2.isa = kernels::Isa::Avx2;
  const auto pinned = cache.acquire({8, 8}, Direction::Forward, avx2);
  EXPECT_NE(base.get(), pinned.get());
  EXPECT_EQ(kernels::Isa::Auto, base->options().isa);
  EXPECT_EQ(kernels::Isa::Avx2, pinned->options().isa);
  // So is every topology field the plan sizes its team, block and claims
  // from.
  const std::vector<void (*)(MachineTopology&)> edits = {
      [](MachineTopology& t) { t.llc_bytes /= 2; },
      [](MachineTopology& t) { t.l2_bytes /= 2; },
      [](MachineTopology& t) { t.sockets += 1; },
      [](MachineTopology& t) { t.cores_per_socket += 1; },
      [](MachineTopology& t) { t.smt_per_core += 1; }};
  for (auto edit : edits) {
    FftOptions other = small_opts();
    edit(other.topo);
    EXPECT_NE(base.get(),
              cache.acquire({8, 8}, Direction::Forward, other).get());
  }
  EXPECT_EQ(2u + edits.size(), cache.stats().misses);
}

TEST(PlanCache, EvictsLeastRecentlyUsedByCount) {
  PlanCache::Limits limits;
  limits.max_plans = 2;
  PlanCache cache(limits);
  cache.acquire({8, 8}, Direction::Forward, small_opts());    // A
  cache.acquire({8, 16}, Direction::Forward, small_opts());   // B
  cache.acquire({8, 8}, Direction::Forward, small_opts());    // touch A
  cache.acquire({16, 16}, Direction::Forward, small_opts());  // evicts B
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(1u, s.evictions);
  EXPECT_EQ(2u, s.plans);

  // A survived (hit), B did not (miss rebuilds it).
  cache.acquire({8, 8}, Direction::Forward, small_opts());
  EXPECT_EQ(s.hits + 1, cache.stats().hits);
  cache.acquire({8, 16}, Direction::Forward, small_opts());
  EXPECT_EQ(s.misses + 1, cache.stats().misses);
}

TEST(PlanCache, EvictsByByteBoundButKeepsTheNewestPlan) {
  PlanCache::Limits limits;
  limits.max_bytes = 1;  // smaller than any plan
  PlanCache cache(limits);
  const auto a = cache.acquire({8, 8}, Direction::Forward, small_opts());
  EXPECT_EQ(1u, cache.stats().plans);  // over budget, but never empty
  cache.acquire({8, 16}, Direction::Forward, small_opts());
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(1u, s.plans);
  EXPECT_EQ(1u, s.evictions);
  // The evicted plan stays alive for holders of the shared_ptr.
  EXPECT_EQ(8, a->dims()[0]);
}

TEST(PlanCache, ShrinkingLimitsEvictsExistingPlans) {
  PlanCache cache;
  cache.acquire({8, 8}, Direction::Forward, small_opts());
  cache.acquire({8, 16}, Direction::Forward, small_opts());
  cache.acquire({16, 16}, Direction::Forward, small_opts());
  PlanCache::Limits limits;
  limits.max_plans = 1;
  cache.set_limits(limits);
  EXPECT_EQ(1u, cache.stats().plans);
  EXPECT_EQ(2u, cache.stats().evictions);
}

TEST(PlanCache, ClearForgetsPlansAndKeepsHitMissHistory) {
  PlanCache cache;
  cache.acquire({8, 8}, Direction::Forward, small_opts());
  cache.acquire({8, 8}, Direction::Forward, small_opts());
  cache.clear();
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(0u, s.plans);
  EXPECT_EQ(0u, s.bytes);
  EXPECT_EQ(1u, s.hits);
  cache.acquire({8, 8}, Direction::Forward, small_opts());
  EXPECT_EQ(2u, cache.stats().misses);
}

#if defined(BWFFT_OBS)
TEST(PlanCache, CountsHitsAndMissesIntoObs) {
  obs::reset_counters();
  PlanCache cache;
  cache.acquire({8, 8}, Direction::Forward, small_opts());
  cache.acquire({8, 8}, Direction::Forward, small_opts());
  cache.acquire({8, 8}, Direction::Forward, small_opts());
  EXPECT_EQ(1u, obs::counter_total(obs::Counter::PlanCacheMiss));
  EXPECT_EQ(2u, obs::counter_total(obs::Counter::PlanCacheHit));
}
#endif

TEST(PlanCache, ConcurrentAcquireBuildsOnce) {
  PlanCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<CachedPlan>> got(kThreads);
  ThreadTeam team(kThreads);
  team.run([&](int tid) {
    got[static_cast<std::size_t>(tid)] =
        cache.acquire({4, 8, 8}, Direction::Forward, small_opts());
  });
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[0].get(), got[static_cast<std::size_t>(t)].get());
  }
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(1u, s.misses);
  EXPECT_EQ(static_cast<std::uint64_t>(kThreads - 1), s.hits);
}

TEST(PlanCache, CachedPlanExecutesCorrectly) {
  const idx_t k = 4, n = 8, m = 8;
  auto x = random_cvec(k * n * m, 7300);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);

  PlanCache cache;
  const auto plan =
      cache.acquire({k, n, m}, Direction::Forward, small_opts());
  cvec in = x, out(x.size());
  plan->execute(in.data(), out.data());
  EXPECT_LT(max_err(want, out), fft_tol(static_cast<double>(k * n * m)));

  // In-place path: transform through the internal work array, same
  // result. Its copy-back is counted like the facades': one more load and
  // one more store of the whole array than execute.
  obs::reset_counters();
  in = x;
  plan->execute(in.data(), out.data());
  [[maybe_unused]] const std::uint64_t loaded =
      obs::counter_total(obs::Counter::BytesLoaded);
  [[maybe_unused]] const std::uint64_t stored =
      obs::counter_total(obs::Counter::BytesStored);
  obs::reset_counters();
  cvec data = x;
  plan->execute_inplace(data.data());
  EXPECT_LT(max_err(want, data), fft_tol(static_cast<double>(k * n * m)));
#if defined(BWFFT_OBS)
  const std::uint64_t bytes = x.size() * sizeof(cplx);
  EXPECT_EQ(loaded + bytes, obs::counter_total(obs::Counter::BytesLoaded));
  EXPECT_EQ(stored + bytes, obs::counter_total(obs::Counter::BytesStored));
#endif
}

TEST(PlanCache, AutoPlansAreKeyedByTheRequestAndResolveConcrete) {
  calibrate_host_bandwidth(25.0);  // keep the cost model off STREAM runs
  global_wisdom_clear();
  PlanCache cache;
  FftOptions opts = small_opts();
  opts.engine = EngineKind::Auto;
  opts.tune_level = TuneLevel::Estimate;
  const auto a = cache.acquire({16, 16}, Direction::Forward, opts);
  EXPECT_NE(EngineKind::Auto, a->options().engine);
  EXPECT_STRNE("auto", a->engine_name());
  // The same Auto request is one cache key: the tuning cost is paid once.
  const auto b = cache.acquire({16, 16}, Direction::Forward, opts);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(1u, cache.stats().misses);
}

TEST(PlanCache, GlobalCacheIsShared) {
  PlanCache& g1 = PlanCache::global();
  PlanCache& g2 = PlanCache::global();
  EXPECT_EQ(&g1, &g2);
}

}  // namespace
}  // namespace bwfft::tune
