// run_all — sweep the Fig 1 (3D) and Fig 9 (2D) size grids over every
// engine and print one table row per (engine, size): best wall time over a
// few reps, pseudo-Gflop/s and %-of-achievable-peak (STREAM roofline,
// nr_stages = rank). Every rank plans through make_engine; Auto rows show
// `auto->resolved`. The dense reference engine is capped by estimated
// cost instead of sweeping sizes where its O(N * side) oracle would run
// for minutes — skipped rows are reported on stderr.
//
//   run_all
//
// Per-stage and per-thread detail lives in `bwfft_cli --stats`, the 1D
// grid in `BWFFT_EXT_SHIFT=4 ext_large1d`, and gated same-host
// measurements in tools/perf_ab.py.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/metrics.h"
#include "common/rng.h"
#include "common/timer.h"
#include "fft/engine.h"
#include "stream/stream.h"

using namespace bwfft;

namespace {

// Estimated multiply-accumulates of the dense reference oracle:
// sum over axes of N * side. Sizes above the cap are skipped for the
// reference engine only.
constexpr double kDenseCostCap = 1e9;

double dense_cost(const std::vector<idx_t>& dims) {
  double n = 1.0;
  for (idx_t d : dims) n *= static_cast<double>(d);
  double cost = 0.0;
  for (idx_t d : dims) cost += n * static_cast<double>(d);
  return cost;
}

std::string dims_str(const std::vector<idx_t>& dims) {
  std::string s;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    s += (i ? "x" : "") + std::to_string(dims[i]);
  }
  return s;
}

/// Time one (engine, size) combination and print its row.
void run_case(EngineKind kind, const std::vector<idx_t>& dims, double bw) {
  FftOptions opts;
  opts.engine = kind;
  // Auto rows plan at Estimate level: the cost model alone, so the sweep
  // stays fast and the row shows what the model would serve by default.
  opts.tune_level = TuneLevel::Estimate;

  idx_t total = 1;
  for (idx_t d : dims) total *= d;
  cvec original = random_cvec(total);
  cvec in(original.size()), out(original.size());

  const std::unique_ptr<MdEngine> plan =
      make_engine(dims, Direction::Forward, opts);
  const int reps = kind == EngineKind::Reference ? 1 : 3;
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    std::copy(original.begin(), original.end(), in.begin());
    Timer t;
    plan->execute(in.data(), out.data());
    best = std::min(best, t.seconds());
  }

  std::string shown = engine_name(kind);
  if (kind == EngineKind::Auto) shown += std::string("->") + plan->name();
  const double n = static_cast<double>(total);
  const double bound =
      io_bound_seconds(n, static_cast<int>(dims.size()), bw);
  std::printf("  %-20s %-12s %9.3f ms  %7.2f GF/s  %5.1f%% peak\n",
              shown.c_str(), dims_str(dims).c_str(), best * 1e3,
              fft_gflops(n, best), bound / best * 100.0);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }

  // Fig 1 grid: the eight cubes with sides {64, 128}; Fig 9 grid: the
  // square/rectangular 2D mix.
  std::vector<std::vector<idx_t>> grid;
  const idx_t sides[2] = {64, 128};
  for (idx_t a : sides)
    for (idx_t b : sides)
      for (idx_t c : sides) grid.push_back({a, b, c});
  for (const std::vector<idx_t>& d :
       {std::vector<idx_t>{256, 256}, {256, 512}, {512, 512}, {512, 1024},
        {1024, 1024}, {1024, 2048}, {2048, 2048}}) {
    grid.push_back(d);
  }

  const EngineKind engines[] = {EngineKind::Reference, EngineKind::Pencil,
                                EngineKind::StageParallel,
                                EngineKind::SlabPencil,
                                EngineKind::DoubleBuffer, EngineKind::Auto};

  const double bw = measured_stream_bandwidth_gbs();
  std::printf("run_all: STREAM %.1f GB/s, %zu sizes x %zu engines\n", bw,
              grid.size(), std::size(engines));
  for (const auto& dims : grid) {
    for (EngineKind kind : engines) {
      if (kind == EngineKind::SlabPencil && dims.size() != 3) {
        continue;  // slab-pencil is 3D only
      }
      if (kind == EngineKind::Reference && dense_cost(dims) > kDenseCostCap) {
        std::fprintf(stderr,
                     "run_all: skip reference %s (dense cost %.2g > cap "
                     "%.2g)\n",
                     dims_str(dims).c_str(), dense_cost(dims), kDenseCostCap);
        continue;
      }
      run_case(kind, dims, bw);
    }
  }
  return 0;
}
