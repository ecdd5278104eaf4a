// Ablation: the data-movement design choices of §III-A / §IV-A.
//
//  (a) non-temporal vs temporal stores in the W matrices — NT stores avoid
//      polluting the cache that holds the shared buffer;
//  (b) blocked rotation (mu = cacheline) vs element-wise rotation (mu = 1)
//      — the (K (x) I_mu) trick that moves whole cachelines;
//  (c) AVX vs scalar butterflies — the cache-aware SIMD compute kernel.
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "benchutil/metrics.h"
#include "benchutil/table.h"
#include "kernels/isa.h"

using namespace bwfft;

namespace {

double run_config(idx_t k, idx_t n, idx_t m, const FftOptions& o,
                  const cvec& original, cvec& in, cvec& out) {
  Fft3d plan(k, n, m, Direction::Forward, o);
  return bench::time_plan(plan, in, out, original);
}

}  // namespace

int main() {
  int shift = 0;
  if (const char* env = std::getenv("BWFFT_ABL_SHIFT")) shift = std::atoi(env);
  const idx_t k = 64 << shift, n = 64 << shift, m = 64 << shift;
  const idx_t total = k * n * m;

  cvec original = random_cvec(total);
  cvec in(original.size()), out(original.size());

  std::printf("Ablation: data movement, %lld^3 double-buffer engine\n\n",
              static_cast<long long>(m));

  Table table({"config", "GF/s", "vs baseline"});
  FftOptions base;
  base.engine = EngineKind::DoubleBuffer;

  const double t0 = run_config(k, n, m, base, original, in, out);
  const double g0 = fft_gflops(static_cast<double>(total), t0);
  table.add_row({"baseline (NT stores, mu=cacheline, AVX)", fmt_double(g0),
                 "1.00x"});

  {
    FftOptions o = base;
    o.nontemporal = false;
    const double t = run_config(k, n, m, o, original, in, out);
    table.add_row({"temporal stores",
                   fmt_double(fft_gflops(static_cast<double>(total), t)),
                   fmt_double(t0 / t, 2) + "x"});
  }
  {
    FftOptions o = base;
    o.packet_elems = 1;
    const double t = run_config(k, n, m, o, original, in, out);
    table.add_row({"element-wise rotation (mu=1)",
                   fmt_double(fft_gflops(static_cast<double>(total), t)),
                   fmt_double(t0 / t, 2) + "x"});
  }
  {
    kernels::set_force_scalar(true);
    const double t = run_config(k, n, m, base, original, in, out);
    kernels::set_force_scalar(false);
    table.add_row({"scalar butterflies",
                   fmt_double(fft_gflops(static_cast<double>(total), t)),
                   fmt_double(t0 / t, 2) + "x"});
  }
  table.print();
  std::printf("\nPaper reference: NT stores and cacheline-granular rotation "
              "are required for the streaming W matrices (§IV-A); the SIMD "
              "kernels keep the compute threads off the critical path.\n");
  return 0;
}
