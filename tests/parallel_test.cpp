// Tests for the parallel substrate: barrier under contention, team
// execution and exception propagation, chunking, role plans, NUMA arrays.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/rng.h"
#include "parallel/numa.h"
#include "parallel/roles.h"
#include "parallel/team.h"

namespace bwfft {
namespace {

TEST(Barrier, PhasesStayInLockstep) {
  const int threads = 8, phases = 200;
  ThreadTeam team(threads);
  std::atomic<int> counter{0};
  std::atomic<bool> violation{false};
  team.run([&](int) {
    for (int ph = 0; ph < phases; ++ph) {
      counter.fetch_add(1);
      team.barrier().arrive_and_wait();
      // After the barrier every thread must observe the full phase count.
      if (counter.load() < threads * (ph + 1)) violation = true;
      team.barrier().arrive_and_wait();
    }
  });
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(threads * phases, counter.load());
}

// Reuse across many generations with an uneven arrival pattern: odd
// threads burn time before arriving, so the generation counter is
// exercised with stragglers in every phase.
TEST(Barrier, ReuseAcrossGenerationsWithStragglers) {
  const int threads = 4, generations = 500;
  ThreadTeam team(threads);
  std::vector<int> per_gen(generations, 0);
  std::mutex mu;
  team.run([&](int tid) {
    for (int g = 0; g < generations; ++g) {
      if (tid % 2 == 1) {
        for (volatile int spin = 0; spin < 50 * (g % 7); ++spin) {
        }
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        per_gen[static_cast<std::size_t>(g)]++;
      }
      team.barrier().arrive_and_wait();
      // A generation may only be entered once the previous one fully
      // drained: after the barrier, this generation's count is complete.
      {
        std::lock_guard<std::mutex> lk(mu);
        if (per_gen[static_cast<std::size_t>(g)] != threads) {
          ADD_FAILURE() << "generation " << g << " saw "
                        << per_gen[static_cast<std::size_t>(g)] << " arrivals";
        }
      }
      team.barrier().arrive_and_wait();
    }
  });
  for (int g = 0; g < generations; ++g) EXPECT_EQ(threads, per_gen[g]);
}

// Deadlock aid: a party that never arrives makes the waiters throw a
// diagnostic naming the missing party count instead of hanging forever.
TEST(Barrier, StallTimeoutReportsMissingParties) {
  SpinBarrier barrier(3);
  barrier.set_stall_timeout_ms(100);
  EXPECT_EQ(100, barrier.stall_timeout_ms());
  // A second party arrives; the third never does, so both waiters throw.
  std::thread t([&] {
    try {
      barrier.arrive_and_wait();
    } catch (const Error&) {  // its own stall report
    }
  });
  try {
    barrier.arrive_and_wait();
    t.join();
    FAIL() << "expected the barrier to report a stall";
  } catch (const Error& e) {
    t.join();
    const std::string msg = e.what();
    EXPECT_NE(msg.find("SpinBarrier stall"), std::string::npos) << msg;
    EXPECT_NE(msg.find("of 3 parties"), std::string::npos) << msg;
    EXPECT_NE(msg.find("generation 0"), std::string::npos) << msg;
  }
}

TEST(Barrier, StallTimeoutDisarmedAllowsLateArrival) {
  SpinBarrier barrier(2);
  barrier.set_stall_timeout_ms(0);  // explicit off, any build type
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    barrier.arrive_and_wait();
  });
  barrier.arrive_and_wait();  // must simply wait the 50 ms out
  late.join();
}

TEST(Team, RunExecutesEveryThreadExactlyOnce) {
  ThreadTeam team(5);
  std::vector<std::atomic<int>> hits(5);
  team.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
  for (const auto& h : hits) EXPECT_EQ(1, h.load());
}

TEST(Team, ReusableAcrossManyRuns) {
  ThreadTeam team(3);
  std::atomic<int> total{0};
  for (int r = 0; r < 50; ++r) {
    team.run([&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(150, total.load());
}

TEST(Team, PropagatesExceptions) {
  ThreadTeam team(4);
  EXPECT_THROW(team.run([&](int tid) {
    if (tid == 2) throw Error("boom");
  }),
               Error);
  // Team must remain usable after the failure.
  std::atomic<int> ok{0};
  team.run([&](int) { ok.fetch_add(1); });
  EXPECT_EQ(4, ok.load());
}

TEST(Team, ThrowingJobDoesNotDeadlockBarrierWaiters) {
  // Regression: a job that threw while its teammates were blocked in
  // arrive_and_wait() used to deadlock the team — the waiters spun
  // forever on a count the dead thread would never contribute, and run()
  // never returned. The barrier abort protocol drains the waiters (they
  // throw) and the ORIGINAL error is the one rethrown, not the drain
  // error of a surviving teammate.
  ThreadTeam team(4);
  try {
    team.run([&](int tid) {
      if (tid == 0) throw Error("original failure");
      team.barrier().arrive_and_wait();  // deadlocks without the abort
    });
    FAIL() << "run() must rethrow the job's exception";
  } catch (const Error& e) {
    EXPECT_NE(nullptr, std::strstr(e.what(), "original failure"));
  }
  // The abort flag must be reset: the team AND its barrier stay usable.
  std::atomic<int> crossed{0};
  team.run([&](int) {
    team.barrier().arrive_and_wait();
    crossed.fetch_add(1);
    team.barrier().arrive_and_wait();
  });
  EXPECT_EQ(4, crossed.load());
}

TEST(Team, AbortDrainsMultiplePipelineSteps) {
  // A throwing thread must also unblock teammates that are several
  // barrier rounds into a pipelined loop, mirroring the Table II step
  // structure where only some threads hit the failing task.
  ThreadTeam team(3);
  EXPECT_THROW(team.run([&](int tid) {
                 for (int step = 0; step < 8; ++step) {
                   if (tid == 1 && step == 3) throw Error("step failure");
                   team.barrier().arrive_and_wait();
                 }
               }),
               Error);
  std::atomic<int> ok{0};
  team.run([&](int) { ok.fetch_add(1); });
  EXPECT_EQ(3, ok.load());
}

TEST(Team, ChunkCoversRangeWithoutOverlap) {
  for (idx_t total : {0, 1, 7, 64, 1000}) {
    for (int parts : {1, 3, 8}) {
      idx_t covered = 0;
      idx_t prev_end = 0;
      for (int p = 0; p < parts; ++p) {
        auto [b, e] = ThreadTeam::chunk(total, parts, p);
        EXPECT_EQ(prev_end, b);
        EXPECT_LE(b, e);
        covered += e - b;
        prev_end = e;
      }
      EXPECT_EQ(total, covered);
      EXPECT_EQ(total, prev_end);
    }
  }
}

TEST(Team, ChunkSizesDifferByAtMostOne) {
  idx_t mn = 1 << 30, mx = 0;
  for (int p = 0; p < 7; ++p) {
    auto [b, e] = ThreadTeam::chunk(23, 7, p);
    mn = std::min(mn, e - b);
    mx = std::max(mx, e - b);
  }
  EXPECT_LE(mx - mn, 1);
}

TEST(ParallelFor, SumsCorrectly) {
  ThreadTeam team(4);
  const idx_t n = 1000;
  std::vector<int> data(static_cast<std::size_t>(n), 0);
  parallel_for_chunks(team, n, [&](int, idx_t b, idx_t e) {
    for (idx_t i = b; i < e; ++i) data[static_cast<std::size_t>(i)] = 1;
  });
  EXPECT_EQ(n, std::accumulate(data.begin(), data.end(), idx_t{0}));
}

TEST(Roles, EvenSplitPairsComputeAndData) {
  auto topo = machines::kabylake_7700k();
  RolePlan plan = make_even_role_plan(8, topo);
  EXPECT_EQ(4, plan.compute);
  EXPECT_EQ(4, plan.data);
  // Pairs (2i, 2i+1): compute first, data second (§IV-A pairing).
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(Role::Compute, plan.role_of(2 * i));
    EXPECT_EQ(Role::Data, plan.role_of(2 * i + 1));
    // On SMT topologies the pair shares a core's two hyperthreads.
    EXPECT_EQ(2 * i, plan.cpu[static_cast<std::size_t>(2 * i)]);
    EXPECT_EQ(2 * i + 1, plan.cpu[static_cast<std::size_t>(2 * i + 1)]);
  }
}

TEST(Roles, NonSmtSharesPhysicalCore) {
  auto topo = machines::amd_fx8350();  // no SMT
  RolePlan plan = make_even_role_plan(8, topo);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.cpu[static_cast<std::size_t>(2 * i)],
              plan.cpu[static_cast<std::size_t>(2 * i + 1)]);
  }
}

TEST(Roles, PrivateTeamPinsOneThreadPerCpu) {
  // p_d = 0 (the Private schedule) has no compute/data pairs to share a
  // core: on a non-SMT host thread i gets CPU i, not CPU i / 2.
  auto topo = machines::amd_fx8350();  // no SMT
  RolePlan plan = make_role_plan(4, 4, topo);
  EXPECT_EQ(0, plan.data);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(t, plan.cpu[static_cast<std::size_t>(t)]);
  }
}

TEST(Roles, GroupRanksAreDense) {
  RolePlan plan = make_role_plan(6, 4, host_topology());
  std::vector<int> comp, data;
  for (int t = 0; t < 6; ++t) {
    (plan.is_compute(t) ? comp : data).push_back(plan.group_rank(t));
  }
  std::sort(comp.begin(), comp.end());
  std::sort(data.begin(), data.end());
  for (std::size_t i = 0; i < comp.size(); ++i) EXPECT_EQ(static_cast<int>(i), comp[i]);
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(static_cast<int>(i), data[i]);
}

TEST(Roles, SingleThreadComputes) {
  RolePlan plan = make_even_role_plan(1, host_topology());
  EXPECT_EQ(1, plan.compute);
  EXPECT_EQ(0, plan.data);
  EXPECT_TRUE(plan.is_compute(0));
}

TEST(Numa, SlabsAreIndependentAndGatherable) {
  NumaArray arr(2, 8);
  for (idx_t i = 0; i < 8; ++i) {
    arr.slab(0)[i] = cplx(static_cast<double>(i), 0);
    arr.slab(1)[i] = cplx(0, static_cast<double>(i));
  }
  auto flat = arr.to_contiguous();
  ASSERT_EQ(16u, flat.size());
  EXPECT_EQ(cplx(3, 0), flat[3]);
  EXPECT_EQ(cplx(0, 5), flat[13]);
  EXPECT_EQ(cplx(0, 5), *arr.at(13));

  cvec back(16);
  for (idx_t i = 0; i < 16; ++i) back[static_cast<std::size_t>(i)] = cplx(1, 1);
  arr.from_contiguous(back);
  EXPECT_EQ(cplx(1, 1), arr.slab(1)[7]);
}

TEST(Numa, LinkTrafficModel) {
  LinkTraffic t;
  t.record_write(19'200'000'000ull);  // 19.2 GB
  EXPECT_NEAR(1.0, t.modeled_seconds(19.2), 1e-12);
  t.reset();
  EXPECT_EQ(0.0, t.modeled_seconds(19.2));
  EXPECT_EQ(0.0, t.modeled_seconds(0.0));
}

TEST(Topology, PaperMachineProfiles) {
  auto kaby = machines::kabylake_7700k();
  EXPECT_EQ(8, kaby.total_threads());
  EXPECT_EQ(40.0, kaby.stream_bw_gbs);
  // Shared buffer = LLC/2 elements.
  EXPECT_EQ(static_cast<idx_t>(4u << 20) / static_cast<idx_t>(sizeof(cplx)),
            kaby.shared_buffer_elems());

  auto two = machines::haswell_2667v3();
  EXPECT_EQ(2, two.sockets);
  EXPECT_EQ(16, two.total_threads());
  EXPECT_GT(two.link_bw_gbs, 0.0);
}

}  // namespace
}  // namespace bwfft
