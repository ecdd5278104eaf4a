// google-benchmark microbenchmarks for the data-movement layer: streaming
// copies, the four-step row-gather transpose and cube rotations, temporal
// vs non-temporal.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "kernels/batch.h"
#include "layout/rotate.h"
#include "layout/stream_copy.h"

namespace {

using namespace bwfft;

void BM_CopyStream(benchmark::State& state) {
  const idx_t n = state.range(0);
  const bool nt = state.range(1) != 0;
  cvec src = random_cvec(n), dst(src.size());
  for (auto _ : state) {
    copy_stream(dst.data(), src.data(), n, nt);
    stream_fence();
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * n * static_cast<idx_t>(sizeof(cplx)));
}
BENCHMARK(BM_CopyStream)
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1})
    ->Args({1 << 21, 0})
    ->Args({1 << 21, 1});

// The Rows stage's load: eight contiguous 32768-element rows into a
// q-major 32768 x 8 tile through the dispatched SIMD block transpose.
void BM_RowGatherTranspose(benchmark::State& state) {
  const idx_t n2 = 32768, rows = 8;
  const kernels::BatchTable& bt = kernels::dispatch_batch_table();
  cvec src = random_cvec(rows * n2), tile(src.size());
  for (auto _ : state) {
    bt.transpose(src.data(), n2, tile.data(), rows, rows, n2);
    benchmark::DoNotOptimize(tile.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<idx_t>(src.size()) *
                          static_cast<idx_t>(sizeof(cplx)));
}
BENCHMARK(BM_RowGatherTranspose);

void BM_RotateCubePackets(benchmark::State& state) {
  const idx_t side = state.range(0);
  const bool nt = state.range(1) != 0;
  const idx_t cp = side / kMu;
  cvec src = random_cvec(side * side * cp * kMu), dst(src.size());
  for (auto _ : state) {
    rotate_cube_packets(src.data(), dst.data(), side, side, cp, kMu, nt);
    stream_fence();
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<idx_t>(src.size()) *
                          static_cast<idx_t>(sizeof(cplx)));
}
BENCHMARK(BM_RotateCubePackets)->Args({64, 0})->Args({64, 1})->Args({128, 0})->Args({128, 1});

// The data threads' store over packet width mu: one 4 MiB buffer of
// 256-element rows scattered block by block through the stage-0
// rotation of a 512 x 256 x 256 cube (512 MiB, beyond the LLC), so every
// packet is an NT run of mu * 16 B.
void BM_RotateStoreRows(benchmark::State& state) {
  const idx_t a = 512, b = 256, len = 256, mu = state.range(0);
  const idx_t block_rows = 1024, rows = a * b;
  cvec buf = random_cvec(block_rows * len);
  cvec cube(static_cast<std::size_t>(rows * len));  // touched up front
  for (auto _ : state) {
    for (idx_t r0 = 0; r0 < rows; r0 += block_rows) {
      rotate_store_rows(buf.data(), cube.data(), r0, block_rows, a, b,
                        len / mu, mu, true);
    }
    stream_fence();
    benchmark::DoNotOptimize(cube.data());
  }
  state.SetBytesProcessed(state.iterations() * rows * len *
                          static_cast<idx_t>(sizeof(cplx)));
}
BENCHMARK(BM_RotateStoreRows)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_ElementRotation(benchmark::State& state) {
  const idx_t side = state.range(0);
  cvec src = random_cvec(side * side * side), dst(src.size());
  for (auto _ : state) {
    rotate_cube(src.data(), dst.data(), side, side, side);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<idx_t>(src.size()) *
                          static_cast<idx_t>(sizeof(cplx)));
}
BENCHMARK(BM_ElementRotation)->Arg(64)->Arg(128);

}  // namespace
