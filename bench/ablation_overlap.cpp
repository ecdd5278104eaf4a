// Ablation: the Table II overlap (§III-C) against the Private schedule.
//
// Both columns are plans the library emits, run through execute():
//  - Split: p_c compute threads transform one buffer half while p - p_c
//    soft-DMA data threads store the previous block and load the next
//    (FftOptions::compute_threads = p_c);
//  - Private: the default plan of the same shape, where every thread
//    loads, transforms and stores its own claims (compute_threads = -1).
// A second table shows how busy each role is within each Split stage —
// the soft-DMA balance picture.
//
// The two plans must compute the same transform: the run exits 1 when
// their outputs differ by more than the test suite's FFT tolerance. The
// default shape is 64^3; BWFFT_ABL_SHIFT=s runs (64 << s)^3.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchutil/metrics.h"
#include "benchutil/table.h"
#include "common/cpu.h"
#include "fft/double_buffer.h"

using namespace bwfft;

namespace {

/// Error bound for two transforms of unit-magnitude data: round-off
/// grows ~log n and values ~sqrt(n) (tests/test_util.h, fft_tol).
double fft_tol(double n) {
  return 1e-12 * std::max(1.0, std::sqrt(n) * std::log2(n + 1));
}

double max_err(const cvec& a, const cvec& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

}  // namespace

int main() {
  int shift = 0;
  if (const char* env = std::getenv("BWFFT_ABL_SHIFT")) shift = std::atoi(env);
  const idx_t k = 64 << shift, n = 64 << shift, m = 64 << shift;
  const idx_t total = k * n * m;
  const double tol = fft_tol(static_cast<double>(total));
  const int cpus = online_cpus();

  const cvec original = random_cvec(total);
  cvec in(original.size()), split_out(original.size()),
      private_out(original.size());

  std::printf("Ablation: Split (Table II overlap) vs Private, %lld^3, host "
              "has %d cpus\n\n",
              static_cast<long long>(m), cpus);

  Table table({"threads", "split p_c/p_d", "split GF/s", "private GF/s",
               "private speedup", "max |diff|"});
  bool agree = true;
  for (int p : {2, 4, 8}) {
    FftOptions priv;
    priv.threads = p;
    DoubleBufferEngine private_plan({k, n, m}, Direction::Forward, priv);
    const double tp =
        bench::time_plan(private_plan, in, private_out, original);
    // The tuner's Split alternatives: the paper's even split, and more
    // compute than data threads.
    std::vector<int> splits = {p / 2};
    if ((3 * p) / 4 != p / 2) splits.push_back((3 * p) / 4);
    for (int pc : splits) {
      FftOptions split = priv;
      split.compute_threads = pc;
      DoubleBufferEngine split_plan({k, n, m}, Direction::Forward, split);
      const double ts = bench::time_plan(split_plan, in, split_out, original);
      const double err = max_err(split_out, private_out);
      agree = agree && err <= tol;
      table.add_row({std::to_string(p),
                     std::to_string(pc) + "/" + std::to_string(p - pc),
                     fmt_double(fft_gflops(static_cast<double>(total), ts)),
                     fmt_double(fft_gflops(static_cast<double>(total), tp)),
                     fmt_double(ts / tp, 2) + "x", sci(err)});
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
    eng.execute(in.data(), split_out.data());
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

  std::printf("\nPaper reference: the Split overlap needs a data thread per "
              "compute thread on an SMT sibling; on a host without SMT the "
              "Private plan lets every core issue its own DRAM traffic.\n");
  if (!agree) {
    std::printf("FAIL: Split and Private outputs differ by more than %.3g\n",
                tol);
    return 1;
  }
  std::printf("OK: Split and Private outputs agree within %.3g\n", tol);
  return 0;
}
