// Extension benchmark: double-buffered large 1D FFT (the paper's §V
// future-work case — the transform no longer fits the shared buffer).
//
// Compares three ways to compute a large 1D FFT:
//   stockham    — the flat in-cache kernel (one pass, but the working set
//                 and its log N sweeps all live in the cache hierarchy)
//   naive DIT   — in-place strided butterflies over the full array
//   four-step   — two tiled, software-pipelined passes through the
//                 cache-resident double buffer (Fft1dLarge)
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "benchutil/metrics.h"
#include "benchutil/table.h"
#include "fft1d/large.h"
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
  for (int logn = 18; logn <= 22; ++logn) {
    const idx_t n = idx_t{1} << (logn + shift);
    const double peak = achievable_peak_gflops(static_cast<double>(n), 2, bw);
    cvec original = random_cvec(n);
    cvec in(original.size()), out(original.size());

    Fft1d flat(n, Direction::Forward);
    double t_flat = 1e30, t_dit = 1e30, t_four = 1e30;
    for (int r = 0; r < 3; ++r) {
      std::copy(original.begin(), original.end(), in.begin());
      Timer t;
      flat.apply_batch(in.data(), 1);
      t_flat = std::min(t_flat, t.seconds());
    }
    for (int r = 0; r < 3; ++r) {
      std::copy(original.begin(), original.end(), in.begin());
      Timer t;
      flat.apply_strided_inplace(in.data(), 1);
      t_dit = std::min(t_dit, t.seconds());
    }
    Fft1dLarge four(n, Direction::Forward, four_opts);
    for (int r = 0; r < 3; ++r) {
      std::copy(original.begin(), original.end(), in.begin());
      Timer t;
      four.execute(in.data(), out.data());
      t_four = std::min(t_four, t.seconds());
    }

    table.add_row({"2^" + std::to_string(logn + shift), fmt_double(peak),
                   fmt_double(fft_gflops(static_cast<double>(n), t_flat)),
                   fmt_double(fft_gflops(static_cast<double>(n), t_dit)),
                   fmt_double(fft_gflops(static_cast<double>(n), t_four))});
  }
  table.print();
  std::printf("\nThe four-step engine streams the array exactly twice at "
              "cacheline granularity with all reshaping on cached data — "
              "the method §V leaves as future work for FFTs larger than "
              "the shared buffer.\n");
  return 0;
}
