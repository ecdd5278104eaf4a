// Layer probes: each times one module's public entry point in isolation,
// the same way in every traced run, so a change to that layer shows here
// whichever workload it also moves.
#include <algorithm>
#include <cmath>
#include <numbers>

#include "bench.h"
#include "common/aligned.h"
#include "common/cpu.h"
#include "common/topology.h"
#include "fft/stage.h"
#include "fft1d/fft1d.h"
#include "kernels/batch.h"
#include "layout/rotate.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"
#include "parallel/roles.h"
#include "pipeline/pipeline.h"
#include "stream/stream.h"
#include "tune/plan_cache.h"

namespace perfbench {

namespace {

constexpr int kReps = 5;  // every probe reports the median of kReps

template <typename F>
double median_of(F f) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) v.push_back(f());
  return median(std::move(v));
}

int team_size() { return bwfft::host_topology().total_threads(); }

void probe_parallel(Metrics& m) {
  bwfft::ThreadTeam team(team_size());
  m.set("parallel.barrier_ns", median_of([&] {
          constexpr int kRounds = 20000;
          const double t0 = now_s();
          team.run([&](int) {
            for (int i = 0; i < kRounds; ++i) team.barrier().arrive_and_wait();
          });
          return (now_s() - t0) / kRounds * 1e9;
        }),
        "ns");
  m.set("parallel.team_run_us", median_of([&] {
          constexpr int kRuns = 2000;
          const double t0 = now_s();
          for (int i = 0; i < kRuns; ++i) team.run([](int) {});
          return (now_s() - t0) / kRuns * 1e6;
        }),
        "us");

  // One pipeline step is the Table II schedule's fixed cost: role
  // dispatch plus the per-step team barrier, here with no-op tasks.
  bwfft::DoubleBufferPipeline pipe(
      team, bwfft::make_even_role_plan(team.size(), bwfft::host_topology()),
      1024);
  bwfft::PipelineStage stage;
  stage.iterations = 2000;
  stage.load = [](idx_t, cplx*, int, int) {};
  stage.compute = [](idx_t, cplx*, int, int) {};
  stage.store = [](idx_t, const cplx*, int, int) {};
  m.set("pipeline.step_us", median_of([&] {
          const double t0 = now_s();
          pipe.execute(stage);
          return (now_s() - t0) / static_cast<double>(stage.iterations + 2) *
                 1e6;
        }),
        "us");
}

/// Data movement at the 256^3 stage-0 geometry: a half-block buffer (the
/// LLC-resident side) against a 256 MiB cube (the DRAM side).
void probe_movement(Metrics& m) {
  const bwfft::MachineTopology topo = bwfft::host_topology();
  const idx_t mu = bwfft::resolve_packet_size(0, 256);
  const bwfft::StageGeometry g = bwfft::make_3d_stages(256, 256, 256, mu)[0];
  const idx_t row = g.row_elems();
  const idx_t block = std::max(bwfft::default_block_elems(topo), row);
  const idx_t block_rows = bwfft::rows_per_block(g.rows(), block / row);
  const idx_t half = block_rows * row;
  const idx_t iters = g.rows() / block_rows;
  bwfft::ThreadTeam team(team_size());
  bwfft::AlignedBuffer<cplx> cube(static_cast<std::size_t>(g.total())),
      buf(static_cast<std::size_t>(half));
  fill_input(team, cube.data(), g.total(), 1);
  fill_input(team, buf.data(), half, 2);
  const double bytes = static_cast<double>(g.total()) * sizeof(cplx);

  m.set("layout.rotate_store_gbs", median_of([&] {
          const double t0 = now_s();
          for (idx_t i = 0; i < iters; ++i) {
            bwfft::rotate_store_rows(buf.data(), cube.data(), i * block_rows,
                                     block_rows, g.a, g.b, g.cp(), g.mu, true);
          }
          bwfft::stream_fence();
          return bytes / (now_s() - t0) / 1e9;
        }),
        "GB/s");
  m.set("layout.copy_stream_gbs", median_of([&] {
          const double t0 = now_s();
          for (idx_t i = 0; i < iters; ++i) {
            bwfft::copy_stream(buf.data(), cube.data() + i * half, half, false);
          }
          return bytes / (now_s() - t0) / 1e9;
        }),
        "GB/s");
  m.set("kernels.nt_copy_gbs", median_of([&] {
          const double t0 = now_s();
          for (idx_t i = 0; i < iters; ++i) {
            bwfft::kernels::nt_copy(cube.data() + i * half, buf.data(), half);
          }
          bwfft::stream_fence();
          return bytes / (now_s() - t0) / 1e9;
        }),
        "GB/s");
}

/// In-cache compute kernels. In-place transforms restore their input
/// from a copy between calls, outside the timed interval, so values stay
/// in range.
void probe_compute(Metrics& m) {
  bwfft::ThreadTeam team(1);
  {
    constexpr idx_t kLanes = 256;
    bwfft::cvec in(16 * kLanes), out(in.size());
    fill_input(team, in.data(), static_cast<idx_t>(in.size()), 3);
    const bwfft::kernels::BatchFn f = bwfft::kernels::batch_lookup(16);
    m.set("kernels.codelet16_gflops", median_of([&] {
            constexpr int kCalls = 20000;
            const double t0 = now_s();
            for (int i = 0; i < kCalls; ++i) {
              f(in.data(), kLanes, out.data(), kLanes, kLanes, nullptr,
                bwfft::Direction::Forward);
            }
            return kCalls * pseudo_flops(16) * kLanes / (now_s() - t0) / 1e9;
          }),
          "GFlop/s");
  }
  {
    // The 1D column pass's tile: n1 = 512 rows of a 32-column group.
    constexpr idx_t kRows = 512, kWidth = 32;
    bwfft::cvec tile(kRows * kWidth), w(kWidth), step(kWidth);
    fill_input(team, tile.data(), kRows * kWidth, 4);
    for (idx_t l = 0; l < kWidth; ++l) {
      step[static_cast<std::size_t>(l)] =
          std::polar(1.0, -2.0 * std::numbers::pi * static_cast<double>(l) /
                              static_cast<double>(kRows * kWidth));
    }
    m.set("kernels.diag_scale_gbs", median_of([&] {
            constexpr int kCalls = 2000;
            const double t0 = now_s();
            for (int i = 0; i < kCalls; ++i) {
              std::fill(w.begin(), w.end(), cplx(1.0, 0.0));
              bwfft::kernels::diag_scale_rows(tile.data(), kRows, kWidth,
                                              w.data(), step.data());
            }
            return kCalls * 2.0 * kRows * kWidth * sizeof(cplx) /
                   (now_s() - t0) / 1e9;
          }),
          "GB/s");
  }
  auto fft_rate = [&](idx_t n, idx_t lanes, idx_t count) {
    const bwfft::Fft1d f(n, bwfft::Direction::Forward);
    bwfft::cvec src(static_cast<std::size_t>(n * lanes * count));
    bwfft::cvec data(src.size());
    fill_input(team, src.data(), static_cast<idx_t>(src.size()), 5);
    return median_of([&] {
      constexpr int kCalls = 400;
      double busy = 0.0;
      for (int i = 0; i < kCalls; ++i) {
        data = src;
        const double t0 = now_s();
        f.apply_lanes(data.data(), lanes, count);
        busy += now_s() - t0;
      }
      return kCalls * pseudo_flops(static_cast<double>(n)) *
             static_cast<double>(lanes * count) / busy / 1e9;
    });
  };
  m.set("fft1d.lanes256_gflops",
        fft_rate(256, bwfft::resolve_packet_size(0, 256), 16), "GFlop/s");
  m.set("fft1d.batch4096_gflops", fft_rate(4096, 1, 16), "GFlop/s");
}

void probe_tune(Metrics& m) {
  bwfft::tune::PlanCache cache;
  cache.acquire({64, 64, 64}, bwfft::Direction::Forward);  // the one miss
  m.set("tune.acquire_us", median_of([&] {
          constexpr int kHits = 20000;
          const double t0 = now_s();
          for (int i = 0; i < kHits; ++i) {
            cache.acquire({64, 64, 64}, bwfft::Direction::Forward);
          }
          return (now_s() - t0) / kHits * 1e6;
        }),
        "us");
}

}  // namespace

double stream_triad_gbs() {
  // Two LLCs per array: well outside the cache without first-touching
  // the gigabytes the 4x-LLC STREAM rule would take on this host class.
  const std::size_t bytes =
      std::max<std::size_t>(2 * bwfft::llc_bytes(), std::size_t{64} << 20);
  return median_of([&] {
    return bwfft::run_stream(bytes / sizeof(double), team_size(), 2).triad_gbs;
  });
}

double probe_layers(Metrics& m) {
  const double triad = stream_triad_gbs();
  m.set("stream.triad_gbs", triad, "GB/s");
  probe_parallel(m);
  probe_movement(m);
  probe_compute(m);
  probe_tune(m);
  return triad;
}

}  // namespace perfbench
