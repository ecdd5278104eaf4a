// run_all — sweep the Fig 1 (3D) / Fig 9 (2D) size grids plus the
// out-of-LLC 1D four-step grid over every engine and emit the
// machine-readable BENCH_*.json perf trajectory (benchutil/bench_schema).
// Every rank plans through make_engine.
//
//   run_all [--label NAME] [--out FILE] [--smoke]
//
// Per (engine, size) row: best wall time over a few reps, pseudo-Gflop/s,
// %-of-achievable-peak (STREAM roofline, nr_stages = rank), the obs
// counters of one observed execution, and the per-stage roofline derived
// from that execution's 'G' trace slices. --smoke shrinks the grids to
// seconds of runtime for CI; the dense reference engine is capped by
// estimated cost instead of silently sweeping sizes where an O(N * side)
// oracle would run for minutes — skipped rows are reported on stderr.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/bench_schema.h"
#include "benchutil/metrics.h"
#include "common/rng.h"
#include "common/timer.h"
#include "fft/engine.h"
#include "obs/obs.h"
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

const char* dims_str(const std::vector<idx_t>& dims, char* buf,
                     std::size_t cap) {
  std::size_t off = 0;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    off += static_cast<std::size_t>(
        std::snprintf(buf + off, cap - off, "%s%lld", i ? "x" : "",
                      static_cast<long long>(dims[i])));
  }
  return buf;
}

/// Time and observe one (engine, size) combination.
BenchRow run_case(EngineKind kind, const std::vector<idx_t>& dims,
                  double bw) {
  const Direction dir = Direction::Forward;
  FftOptions opts;
  opts.engine = kind;
  // Auto rows plan at Estimate level: the cost model alone, so the sweep
  // stays fast and the row shows what the model would serve by default.
  opts.tune_level = TuneLevel::Estimate;

  idx_t total = 1;
  for (idx_t d : dims) total *= d;
  cvec original = random_cvec(total);
  cvec in(original.size()), out(original.size());

  const std::unique_ptr<MdEngine> plan = make_engine(dims, dir, opts);
  auto run_once = [&] {
    std::copy(original.begin(), original.end(), in.begin());
    plan->execute(in.data(), out.data());
  };

  // The naive strided DIT (1D Pencil) is the cache-hostile baseline: at
  // out-of-LLC sizes one execution already takes many seconds, so a
  // single rep documents it without dominating the sweep's wall clock.
  const bool slow_baseline =
      kind == EngineKind::Reference ||
      (dims.size() == 1 && kind == EngineKind::Pencil);
  const int reps = slow_baseline ? 1 : 3;
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    run_once();
    best = std::min(best, t.seconds());
  }

  // Observed replays for counters and per-stage slices (kept out of the
  // timed loop). The stage roofline comes from ONE traced execution, so
  // a single scheduler hiccup would poison the published per-stage
  // numbers where the wall-clock number is already protected by best-of;
  // replay a few times and keep the trace whose engine ('G') slices
  // total least.
  std::vector<obs::Slice> slices;
  obs::CounterSnapshot snap;
  double best_stage_total = 1e30;
  const int observed_reps = slow_baseline ? 1 : 3;
  for (int r = 0; r < observed_reps; ++r) {
    obs::reset_counters();
    obs::start_trace();
    run_once();
    obs::stop_trace();
    std::vector<obs::Slice> got = obs::drain_trace();
    double stage_total = 0.0;
    for (const obs::Slice& s : got) {
      if (s.phase == 'G') {
        stage_total += static_cast<double>(s.t1_ns - s.t0_ns);
      }
    }
    if (stage_total < best_stage_total) {
      best_stage_total = stage_total;
      slices = std::move(got);
      snap = obs::counters();
    }
  }

  BenchRow row;
  row.engine = engine_name(kind);
  if (kind == EngineKind::Auto) row.resolved = plan->name();
  row.dims = dims;
  row.best_seconds = best;
  row.pseudo_gflops = fft_gflops(static_cast<double>(total), best);
  // 1D rows roofline against two streaming passes — the four-step
  // minimum for an out-of-LLC transform (columns+twiddle, then
  // rows+permute); a one-pass bound is unreachable at these sizes.
  const int nr_stages = dims.size() == 1 ? 2 : static_cast<int>(dims.size());
  const double bound =
      io_bound_seconds(static_cast<double>(total), nr_stages, bw);
  row.pct_of_peak = bound / best * 100.0;
  for (int c = 0; c < obs::kCounterCount; ++c) {
    const auto counter = static_cast<obs::Counter>(c);
    row.counters.emplace_back(obs::counter_name(counter), snap[counter]);
  }
  const double stage_bytes = 2.0 * static_cast<double>(total) * sizeof(cplx);
  for (const obs::StageRoofline& s :
       obs::roofline_from_trace(slices, stage_bytes, bw)) {
    row.stages.push_back({s.name, s.seconds, s.pct_of_peak});
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "PR2";
  std::string out_path = "BENCH_PR2.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--label NAME] [--out FILE] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }

  // Fig 1 grid: the eight cubes with sides {lo, hi}; Fig 9 grid: the
  // square/rectangular 2D mix; 1D grid: the out-of-LLC four-step sizes
  // (ext_large1d's territory). Smoke mode shrinks all three.
  std::vector<std::vector<idx_t>> grid3, grid2, grid1;
  const idx_t side_lo = smoke ? 16 : 64, side_hi = smoke ? 32 : 128;
  const idx_t sides[2] = {side_lo, side_hi};
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b)
      for (int c = 0; c < 2; ++c) grid3.push_back({sides[a], sides[b], sides[c]});
  if (smoke) {
    grid2 = {{64, 64}, {64, 128}};
    grid1 = {{idx_t{1} << 14}, {idx_t{1} << 16}};
  } else {
    grid2 = {{256, 256},   {256, 512},  {512, 512},  {512, 1024},
             {1024, 1024}, {1024, 2048}, {2048, 2048}};
    for (int lg = 22; lg <= 26; ++lg) grid1.push_back({idx_t{1} << lg});
  }

  const EngineKind engines[] = {EngineKind::Reference, EngineKind::Pencil,
                                EngineKind::StageParallel,
                                EngineKind::SlabPencil,
                                EngineKind::DoubleBuffer, EngineKind::Auto};

  BenchReport report;
  report.label = label;
  report.stream_gbs = measured_stream_bandwidth_gbs();
  std::printf(
      "run_all: STREAM %.1f GB/s, %zu 3D + %zu 2D + %zu 1D sizes -> %s\n",
      report.stream_gbs, grid3.size(), grid2.size(), grid1.size(),
      out_path.c_str());

  auto sweep = [&](const std::vector<std::vector<idx_t>>& grid) {
    for (const auto& dims : grid) {
      char buf[64];
      for (EngineKind kind : engines) {
        if (kind == EngineKind::SlabPencil && dims.size() != 3) {
          continue;  // slab-pencil is 3D only
        }
        if (kind == EngineKind::Reference &&
            dense_cost(dims) > kDenseCostCap) {
          std::fprintf(stderr,
                       "run_all: skip reference %s (dense cost %.2g > "
                       "cap %.2g)\n",
                       dims_str(dims, buf, sizeof(buf)), dense_cost(dims),
                       kDenseCostCap);
          continue;
        }
        BenchRow row = run_case(kind, dims, report.stream_gbs);
        std::string shown = row.engine;
        if (!row.resolved.empty()) shown += "->" + row.resolved;
        std::printf("  %-14s %-14s %9.3f ms  %7.2f GF/s  %5.1f%% peak\n",
                    shown.c_str(), dims_str(dims, buf, sizeof(buf)),
                    row.best_seconds * 1e3, row.pseudo_gflops,
                    row.pct_of_peak);
        std::fflush(stdout);
        report.rows.push_back(std::move(row));
      }
    }
  };
  sweep(grid3);
  sweep(grid2);
  sweep(grid1);

  const Json doc = bench_report_to_json(report);
  std::string err;
  if (!validate_bench_report(doc, &err)) {
    std::fprintf(stderr, "run_all: generated report is invalid: %s\n",
                 err.c_str());
    return 1;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "run_all: cannot open %s\n", out_path.c_str());
    return 1;
  }
  const std::string text = doc.dump(2) + "\n";
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    std::fprintf(stderr, "run_all: short write to %s\n", out_path.c_str());
    return 1;
  }
  std::printf("run_all: wrote %zu rows to %s\n", report.rows.size(),
              out_path.c_str());
  return 0;
}
