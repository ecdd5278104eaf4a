// google-benchmark microbenchmarks for the 1D kernel layer: the batch and
// lane kernels the double-buffered stages are built from (powers of two
// and smooth sizes run the same Stockham sweep), Bluestein, and the
// strided in-place path the naive baseline uses.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "fft1d/fft1d.h"
#include "kernels/batch.h"

namespace {

using namespace bwfft;

void BM_BatchContig(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t count = std::max<idx_t>((1 << 16) / n, 1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * count);
  for (auto _ : state) {
    plan.apply_batch(data.data(), count);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n * count);
}
BENCHMARK(BM_BatchContig)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// One compute thread's share of an md-ooc stage 0 (2^24 elements, four
// threads): n = 256 x 1024 pencils for 256^3, n = 4096 x 64 for 4096^2.
// The gathered contiguous-pencil path runs these at full SIMD width.
void BM_BatchStage0(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t count = state.range(1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * count);
  for (auto _ : state) {
    plan.apply_batch(data.data(), count);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * count);
}
BENCHMARK(BM_BatchStage0)->Args({256, 1024})->Args({4096, 64});

// G + 3 pencils, G the dispatched codelet chunk width: one full gather
// plus a width-3 remainder tile.
void BM_BatchTail(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t count =
      kernels::batch_table(kernels::resolve_isa(kernels::Isa::Auto)).width + 3;
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * count);
  for (auto _ : state) {
    plan.apply_batch(data.data(), count);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * count);
}
BENCHMARK(BM_BatchTail)->Arg(256)->Arg(4096);

// The four-step row pass at 2^24 (n2 = 32768, R = 8): eight contiguous
// rows as apply_batch (Arg 0; past the gather cap, so the first level
// runs lane-wide) against the same rows as one q-major 32768 x 8 tile at
// apply_lanes(lanes = 8) (Arg 1), the shape the Rows stage computes on.
void BM_RowPass(benchmark::State& state) {
  const idx_t n = 32768, rows = 8;
  const bool lanes = state.range(0) != 0;
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * rows);
  for (auto _ : state) {
    if (lanes) {
      plan.apply_lanes(data.data(), rows, 1);
    } else {
      plan.apply_batch(data.data(), rows);
    }
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * rows);
}
BENCHMARK(BM_RowPass)->Arg(0)->Arg(1);

void BM_LanesCacheline(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t lanes = kMu;
  const idx_t count = std::max<idx_t>((1 << 16) / (n * lanes), 1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * lanes * count);
  for (auto _ : state) {
    plan.apply_lanes(data.data(), lanes, count);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n * lanes * count);
}
BENCHMARK(BM_LanesCacheline)->Arg(64)->Arg(256)->Arg(1024);

void BM_LanesScalarForced(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t lanes = kMu;
  const idx_t count = std::max<idx_t>((1 << 16) / (n * lanes), 1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * lanes * count);
  kernels::set_force_scalar(true);
  for (auto _ : state) {
    plan.apply_lanes(data.data(), lanes, count);
    benchmark::DoNotOptimize(data.data());
  }
  kernels::set_force_scalar(false);
  state.SetItemsProcessed(state.iterations() * n * lanes * count);
}
BENCHMARK(BM_LanesScalarForced)->Arg(256);

void BM_StridedInplace(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t stride = state.range(1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * stride);
  for (auto _ : state) {
    plan.apply_strided_inplace(data.data(), stride);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StridedInplace)
    ->Args({256, 1})
    ->Args({256, 16})
    ->Args({256, 256})
    ->Args({1024, 1024});

// Smooth sizes on the Stockham sweep: 120 = {8, 5, 3}, 1000 = {8, 5, 5, 5},
// 3600 = {16, 5, 5, 3, 3}.
void BM_SmoothBatch(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t count = std::max<idx_t>((1 << 16) / n, 1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * count);
  for (auto _ : state) {
    plan.apply_batch(data.data(), count);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * count);
}
BENCHMARK(BM_SmoothBatch)->Arg(120)->Arg(1000)->Arg(3600);

// The Columns stage of 2^16 * 3's near-square split (384 x 512): one
// n1 = 384 = {16, 8, 3} tile at W = 32 lanes.
void BM_SmoothLanes(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t lanes = state.range(1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * lanes);
  for (auto _ : state) {
    plan.apply_lanes(data.data(), lanes, 1);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * lanes);
}
BENCHMARK(BM_SmoothLanes)->Args({384, 32});

void BM_Bluestein(benchmark::State& state) {
  const idx_t n = state.range(0);  // prime: no Stockham schedule
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n);
  for (auto _ : state) {
    plan.apply_batch(data.data(), 1);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Bluestein)->Arg(101)->Arg(1009);

}  // namespace
