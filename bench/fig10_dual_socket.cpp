// Figure 10 + Figure 11 (bottom) harness: dual-socket 3D FFT.
//
// Fig 10: Gflop/s of the dual-socket slab-pencil double-buffered 3D FFT
// against the single-socket baselines, with the QPI/HT link term of the
// paper's roofline analysis: the implementation writes over the link in
// stages 2 and 3 (Fig 8), so the honest bound uses the cumulative
// memory+link bandwidth, against which the paper lands within 7-15%.
//
// Fig 11 (bottom): scaling for fixed problem sizes when going from one to
// two sockets; the paper reports ~1.7x on Intel (QPI-limited) and better
// on AMD (HT runs at local-memory speed).
//
// On a machine without two NUMA domains the two "sockets" are separate
// arenas of the same DRAM: the measured time reflects one memory system,
// and the link penalty is reported from recorded cross-socket traffic at
// the paper machines' link bandwidths.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "benchutil/metrics.h"
#include "benchutil/table.h"
#include "fft/dual_socket.h"
#include "stream/stream.h"

using namespace bwfft;

int main() {
  int shift = 0;
  if (const char* env = std::getenv("BWFFT_FIG10_SHIFT")) shift = std::atoi(env);

  const double bw = measured_stream_bandwidth_gbs();
  const auto intel2 = machines::haswell_2667v3();
  const auto amd2 = machines::amd_6276();

  std::printf("Fig 10: dual-socket 3D FFT (STREAM %.1f GB/s measured; link "
              "model: QPI %.1f GB/s, HT %.1f GB/s)\n\n",
              bw, intel2.link_bw_gbs, amd2.link_bw_gbs);

  struct Size {
    idx_t k, n, m;
  };
  const Size sizes[] = {{64, 64, 64}, {64, 64, 128}, {128, 64, 128},
                        {128, 128, 128}};

  Table table({"size", "stagepar GF/s", "dbuf-1sk GF/s", "dbuf-2sk GF/s",
               "2sk/1sk", "x-link GB", "QPI penalty", "HT penalty"});

  for (const Size& s : sizes) {
    const idx_t k = s.k << shift, n = s.n << shift, m = s.m << shift;
    const idx_t total = k * n * m;
    cvec original = random_cvec(total);
    cvec in(original.size()), out(original.size());

    FftOptions o;
    o.engine = EngineKind::StageParallel;
    Fft3d sp(k, n, m, Direction::Forward, o);
    const double t_sp = bench::time_plan(sp, in, out, original);

    o.engine = EngineKind::DoubleBuffer;
    Fft3d db1(k, n, m, Direction::Forward, o);
    const double t_db1 = bench::time_plan(db1, in, out, original);

    // The socket plan needs a whole number of threads per socket.
    FftOptions o2 = o;
    o2.threads = 2 * std::max(1, resolved_threads(o) / 2);
    DualSocketFft3d db2(k, n, m, Direction::Forward, o2, 2);
    const double t_db2 = bench::time_plan(db2, in, out, original);
    const double cross_gb =
        static_cast<double>(db2.traffic().write_bytes()) / 1e9;

    // Link-penalty model: seconds the recorded cross-socket writes need at
    // the paper machines' link bandwidths (write-only traffic; reads stay
    // local by construction, Fig 8).
    const double qpi_pen = db2.traffic().modeled_seconds(intel2.link_bw_gbs);
    const double ht_pen = db2.traffic().modeled_seconds(amd2.link_bw_gbs);

    char label[64];
    std::snprintf(label, sizeof(label), "%lldx%lldx%lld",
                  static_cast<long long>(k), static_cast<long long>(n),
                  static_cast<long long>(m));
    table.add_row(
        {label, fmt_double(fft_gflops(static_cast<double>(total), t_sp)),
         fmt_double(fft_gflops(static_cast<double>(total), t_db1)),
         fmt_double(fft_gflops(static_cast<double>(total), t_db2)),
         fmt_double(t_db1 / t_db2, 2) + "x", fmt_double(cross_gb, 3),
         fmt_double(qpi_pen * 1e3, 1) + " ms",
         fmt_double(ht_pen * 1e3, 1) + " ms"});
  }
  table.print();

  std::printf("\nFig 11 (bottom): socket scaling on the paper's two-socket "
              "profiles (roofline model at paper bandwidths)\n\n");
  Table scale({"size", "machine", "1sk bound GF/s", "2sk bound GF/s",
               "model speedup"});
  for (const Size& s : sizes) {
    const idx_t total = (s.k << shift) * (s.n << shift) * (s.m << shift);
    for (const MachineTopology* t : {&intel2, &amd2}) {
      // One socket: half the machine's STREAM bandwidth. Two sockets: full
      // bandwidth, but stages 2+3 additionally move N/2 elements each over
      // the link; the slower of the two pipes bounds each stage.
      const double one = achievable_peak_gflops(static_cast<double>(total), 3,
                                                t->stream_bw_gbs / 2);
      const double bytes_per_stage = 2.0 * static_cast<double>(total) * sizeof(cplx);
      const double mem_t = bytes_per_stage / (t->stream_bw_gbs * 1e9);
      const double link_t =
          (static_cast<double>(total) / 2 * sizeof(cplx)) / (t->link_bw_gbs * 1e9);
      const double stage_t = std::max(mem_t, link_t);
      const double two =
          fft_flops(static_cast<double>(total)) / (1e9 * (2 * std::max(mem_t, link_t) + mem_t));
      (void)stage_t;
      char label[64];
      std::snprintf(label, sizeof(label), "%lld^3-ish: %lld pts",
                    static_cast<long long>(s.m << shift),
                    static_cast<long long>(total));
      scale.add_row({label, t->name, fmt_double(one), fmt_double(two),
                     fmt_double(two / one, 2) + "x"});
    }
  }
  scale.print();
  std::printf("\nPaper reference: dual-socket improves 1.2-1.6x over "
              "MKL/FFTW (Fig 10); fixed-size socket scaling ~1.7x on Intel, "
              "near-2x on AMD whose HT link runs at memory speed (Fig 11 "
              "bottom).\n");
  return 0;
}
