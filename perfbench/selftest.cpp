// Checks the benchmark's arithmetic (stats.h) on synthetic timestamps:
// the percentile rule, open-loop timing from the scheduled send time,
// goodput under the latency limit, failure accounting and pseudo-Gflop/s.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;
int checks = 0;

void expect_near(double got, double want, const char* what) {
  ++checks;
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    ++failures;
    std::fprintf(stderr, "FAIL %s: got %.12g want %.12g\n", what, got, want);
  }
}

using perfbench::OpRecord;

OpRecord op(double due_ms, double start_ms, double end_ms, bool ok,
            double flops = 0.0, int shape = 0) {
  return {due_ms * 1e-3, start_ms * 1e-3, end_ms * 1e-3, flops, ok, shape};
}

void percentile_rule() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect_near(perfbench::percentile(v, 0.50), 50, "p50 of 1..100");
  expect_near(perfbench::percentile(v, 0.90), 90, "p90 of 1..100");
  expect_near(perfbench::percentile(v, 0.99), 99, "p99 of 1..100");
  expect_near(perfbench::percentile({7.0}, 0.99), 7, "single sample");
  expect_near(perfbench::percentile({}, 0.5), 0, "empty set");
  // Ten samples lie beyond p90 of 100 and beyond p99 of 1000.
  std::vector<double> big;
  for (int i = 1; i <= 1000; ++i) big.push_back(i);
  expect_near(perfbench::percentile(big, 0.99), 990, "p99 of 1..1000");
  // Two shapes alternating at 10 and 20 ms: the median is the mean of the
  // shapes' medians, not whichever cluster edge lands mid-sample.
  std::vector<OpRecord> mix;
  for (int i = 0; i < 10; ++i) {
    mix.push_back(op(0, 0, 10 + 0.1 * i, true, 0, 0));
    mix.push_back(op(0, 0, 20 + 0.1 * i, true, 0, 1));
  }
  expect_near(perfbench::summarize(mix, 1.0, 100).p50_ms, 15.4,
              "median of a two-shape mix");
}

void open_loop_timing() {
  // Sent 5 ms late, done at 10 ms: latency counts from the schedule.
  auto s = perfbench::summarize({op(0, 5, 10, true)}, 1.0, 100);
  expect_near(s.p50_ms, 10, "latency from scheduled send");
  expect_near(s.gen_lag_p99_ms, 5, "generator lag");
  // A stall that finishes three queued requests together charges each
  // its own wait since its due time.
  s = perfbench::summarize(
      {op(0, 0, 10, true), op(1, 1, 10, true), op(2, 2, 10, true)}, 1.0, 100);
  expect_near(s.p50_ms, 9, "stall: median wait");
  expect_near(s.p90_ms, 10, "stall: worst wait");
}

void goodput_and_failures() {
  // Latencies 1, 4, 5, 6 ms against a 5 ms limit, plus one failure that
  // finished fast: the failure counts as missing the limit.
  const std::vector<OpRecord> ops = {op(0, 0, 1, true), op(0, 0, 4, true),
                                     op(0, 0, 5, true), op(0, 0, 6, true),
                                     op(0, 0, 1, false)};
  const auto s = perfbench::summarize(ops, 2.0, 5.0);
  expect_near(static_cast<double>(s.attempted), 5, "attempted");
  expect_near(static_cast<double>(s.failed), 1, "ops_failed");
  expect_near(s.goodput_rps, 3.0 / 2.0, "goodput within limit per second");
  expect_near(s.p50_ms, 4, "failures excluded from latency");
}

void pseudo_gflops() {
  expect_near(perfbench::pseudo_flops(1024), 5.0 * 1024 * 10, "5 N log2 N");
  const double f = perfbench::pseudo_flops(1024);
  const auto s = perfbench::summarize(
      {op(0, 0, 1, true, f), op(1, 1, 2, true, f), op(2, 2, 3, false, f)},
      1e-3, 100);
  expect_near(s.gflops, 2 * f / 1e-3 / 1e9, "Gflop/s over completed ops");
}

void histogram_quantile() {
  std::uint64_t b[64] = {};
  b[3] = 10;  // ten values in [8, 16)
  expect_near(perfbench::log2_hist_quantile(b, 64, 0.5), 12, "mid-bucket");
  b[4] = 10;  // ten more in [16, 32)
  expect_near(perfbench::log2_hist_quantile(b, 64, 1.0), 32, "top of bucket");
  expect_near(perfbench::log2_hist_quantile(b, 64, 0.25), 12, "lower bucket");
}

}  // namespace

int main() {
  percentile_rule();
  open_loop_timing();
  goodput_and_failures();
  pseudo_gflops();
  histogram_quantile();
  std::printf("selftest: %d of %d checks passed\n", checks - failures, checks);
  return failures == 0 ? 0 : 1;
}
