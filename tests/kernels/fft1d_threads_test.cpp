// One shared Fft1d plan driven from several threads at once, the compute
// pattern of the double-buffer pipeline: each compute thread transforms
// its own disjoint range of contiguous pencils with apply_batch. The
// gathered batch path keeps its tiles in per-thread scratch, so this is
// the case a thread sanitizer run must see clean.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "fft1d/fft1d.h"
#include "../test_util.h"

namespace bwfft {
namespace {

using test::fft_tol;
using test::ShiftedBatch;

TEST(Fft1dThreads, SharedPlanBatchesDisjointPencilRanges) {
  constexpr int kThreads = 4;
  // 67 pencils per thread: whole G-wide gathers plus a remainder. n = 4096
  // makes every thread grow its scratch to the gather budget; n = 768
  // (radices 16, 16, 3) is a smooth size on the same sweep.
  const idx_t per_thread = 67;
  for (idx_t n : {idx_t{256}, idx_t{4096}, idx_t{768}}) {
    for (Direction dir : {Direction::Forward, Direction::Inverse}) {
      const ShiftedBatch oracle(n, dir, 1200 + n);
      const Fft1d plan(n, dir);
      const idx_t count = kThreads * per_thread;
      cvec data(static_cast<std::size_t>(n * count));
      for (idx_t p = 0; p < count; ++p) oracle.fill(data.data() + p * n, p);

      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          plan.apply_batch(data.data() + t * per_thread * n, per_thread);
        });
      }
      for (std::thread& th : threads) th.join();

      for (idx_t p = 0; p < count; ++p) {
        EXPECT_LT(oracle.error(data.data() + p * n, p),
                  fft_tol(static_cast<double>(n)))
            << "n=" << n << " pencil " << p;
      }
    }
  }
}

}  // namespace
}  // namespace bwfft
