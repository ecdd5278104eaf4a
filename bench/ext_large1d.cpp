// Extension benchmark: double-buffered large 1D FFT (the paper's §V
// future-work case — the transform no longer fits the shared buffer).
//
// Compares the three 1D engines of make_engine({n}):
//   stockham    — stage-parallel: the flat in-cache kernel (one pass, but
//                 the working set and its log N sweeps all live in the
//                 cache hierarchy)
//   naive DIT   — pencil: in-place strided butterflies over the full array
//   four-step   — double-buffer: two tiled, software-pipelined passes
//                 through the cache-resident double buffer
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "benchutil/metrics.h"
#include "benchutil/table.h"
#include "fft/engine.h"
#include "stream/stream.h"

using namespace bwfft;

int main() {
  int shift = 0;
  if (const char* env = std::getenv("BWFFT_EXT_SHIFT")) shift = std::atoi(env);
  FftOptions four_opts;
  if (const char* env = std::getenv("BWFFT_EXT_NT")) {
    four_opts.nontemporal = std::atoi(env) != 0;
  }
  if (const char* env = std::getenv("BWFFT_EXT_F1")) {
    four_opts.factor_n1 = std::atoll(env);
  }

  const double bw = measured_stream_bandwidth_gbs();
  std::printf("Extension: large 1D FFT, double-buffered four-step "
              "(STREAM %.1f GB/s; 2-pass peak shown)\n\n", bw);

  Table table({"n", "peak GF/s", "stockham GF/s", "naive DIT GF/s",
               "four-step GF/s"});
  const EngineKind kinds[3] = {EngineKind::StageParallel, EngineKind::Pencil,
                               EngineKind::DoubleBuffer};
  for (int logn = 18; logn <= 22; ++logn) {
    const idx_t n = idx_t{1} << (logn + shift);
    const double peak = achievable_peak_gflops(static_cast<double>(n), 2, bw);
    cvec original = random_cvec(n);
    cvec in(original.size()), out(original.size());

    std::vector<std::string> row = {"2^" + std::to_string(logn + shift),
                                    fmt_double(peak)};
    for (EngineKind kind : kinds) {
      FftOptions o = four_opts;
      o.engine = kind;
      auto plan = make_engine({n}, Direction::Forward, o);
      double best = 1e30;
      for (int r = 0; r < 3; ++r) {
        std::copy(original.begin(), original.end(), in.begin());
        Timer t;
        plan->execute(in.data(), out.data());
        best = std::min(best, t.seconds());
      }
      row.push_back(fmt_double(fft_gflops(static_cast<double>(n), best)));
    }
    table.add_row(row);
  }
  table.print();
  std::printf("\nThe four-step engine streams the array exactly twice at "
              "cacheline granularity with all reshaping on cached data — "
              "the method §V leaves as future work for FFTs larger than "
              "the shared buffer.\n");
  return 0;
}
