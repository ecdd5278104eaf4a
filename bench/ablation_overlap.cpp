// Ablation: software pipelining (Table II) and the compute/data split.
//
// Two questions from §III-C:
//  (a) what does overlapping Load/Store with Compute buy, versus running
//      the same tiled stages under the Private schedule (every thread
//      loads, transforms and stores its own slice, no overlap)?
//  (b) how does the p_c/p_d split affect performance for p total threads?
//
// On a single hardware thread the overlap cannot buy wall time (the roles
// time-share one core) — the interesting output there is (b) showing the
// framework degrades gracefully; on a multicore host (a) shows the Table
// II benefit directly.
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "benchutil/metrics.h"
#include "benchutil/table.h"
#include "common/cpu.h"
#include "fft/double_buffer.h"

using namespace bwfft;

int main() {
  int shift = 0;
  if (const char* env = std::getenv("BWFFT_ABL_SHIFT")) shift = std::atoi(env);
  const idx_t k = 64 << shift, n = 64 << shift, m = 64 << shift;
  const idx_t total = k * n * m;
  const int cpus = online_cpus();

  cvec original = random_cvec(total);
  cvec in(original.size()), out(original.size());

  std::printf("Ablation: overlap & thread roles, %lld^3, host has %d cpus\n\n",
              static_cast<long long>(m), cpus);

  Table table({"threads", "p_c/p_d", "pipelined GF/s", "private GF/s",
               "overlap gain"});

  const int totals[] = {1, 2, 4, 8};
  for (int p : totals) {
    for (int pc = std::max(1, p / 2); pc <= std::max(1, p / 2) + (p >= 4 ? 1 : 0);
         ++pc) {
      FftOptions o;
      o.threads = p;
      o.compute_threads = pc;
      DoubleBufferEngine eng({k, n, m}, Direction::Forward, o);

      auto run = [&](bool pipelined) {
        std::vector<double> times;
        for (int r = 0; r < 3; ++r) {
          std::copy(original.begin(), original.end(), in.begin());
          Timer t;
          if (pipelined) {
            eng.execute(in.data(), out.data());
          } else {
            eng.execute_unpipelined(in.data(), out.data());
          }
          times.push_back(t.seconds());
        }
        std::sort(times.begin(), times.end());
        return times[1];
      };

      const double tp = run(true);
      const double tl = run(false);
      table.add_row({std::to_string(p),
                     std::to_string(pc) + "/" + std::to_string(p - pc),
                     fmt_double(fft_gflops(static_cast<double>(total), tp)),
                     fmt_double(fft_gflops(static_cast<double>(total), tl)),
                     fmt_double(tl / tp, 2) + "x"});
    }
  }
  table.print();

  // Role utilisation: how busy each role group is within each stage's
  // wall time — the soft-DMA balance picture (§III-C).
  {
    FftOptions o;
    o.threads = 2;
    o.compute_threads = 1;
    DoubleBufferEngine eng({k, n, m}, Direction::Forward, o);
    std::copy(original.begin(), original.end(), in.begin());
    eng.execute(in.data(), out.data());
    std::printf("\nRole utilisation per stage (p_c=1, p_d=1):\n");
    Table ut({"stage", "wall ms", "load busy", "store busy", "compute busy"});
    const auto& stats = eng.last_stats();
    for (std::size_t s = 0; s < stats.size(); ++s) {
      const auto& u = stats[s].util;
      const double wall = std::max(u.wall_seconds, 1e-12);
      ut.add_row({std::to_string(s), fmt_double(wall * 1e3, 2),
                  fmt_percent(u.load_seconds / wall),
                  fmt_percent(u.store_seconds / wall),
                  fmt_percent(u.compute_seconds / wall)});
    }
    ut.print();
  }

  std::printf("\nPaper reference: the even split with paired pinning is the "
              "paper's operating point; overlap is what lifts bandwidth "
              "utilisation from <50%% to 80-90%% — it requires >= 2 hardware "
              "threads to materialise.\n");
  return 0;
}
