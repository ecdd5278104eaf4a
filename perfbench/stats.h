// The benchmark's own arithmetic: percentiles, open-loop latency, goodput,
// failure accounting and pseudo-Gflop/s. Header-only and free of library
// dependencies so selftest.cpp can check it on synthetic timestamps.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it. 0 for an empty set.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // The epsilon keeps 0.9 * 100 from rounding up to rank 91.
  const double r = std::ceil(q * static_cast<double>(v.size()) - 1e-9);
  const std::size_t rank =
      std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1,
                              v.size());
  return v[rank - 1];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// 5 N log2 N: the pseudo-flop count of one N-point (total) transform.
inline double pseudo_flops(double n) { return 5.0 * n * std::log2(n); }

/// One operation as the benchmark saw it, in seconds on one clock. `due`
/// is when it was scheduled to be sent (open loop) or started (closed
/// loop, where due == start); latency runs from `due` to `end`, so a
/// stall delays every later request's clock, not just its own.
struct OpRecord {
  double due = 0.0;
  double start = 0.0;
  double end = 0.0;
  double flops = 0.0;  // pseudo-flops of the transform
  bool ok = false;     // executed, no error status, passed its checks
  int shape = 0;       // index of the op's shape in its workload
};

struct Summary {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;  // needs >= 100 ops to keep 10 beyond
  double p99_ms = 0.0;  // needs >= 1000 ops to keep 10 beyond
  double gflops = 0.0;
  double goodput_rps = 0.0;
  double gen_lag_p99_ms = 0.0;
};

/// Latency percentiles over the ops that succeeded; failures count
/// against `attempted` and never toward goodput (a failed or refused op
/// misses any latency limit). The median is the mean of each shape's
/// median: pooled, it would sit on the gap between the latency clusters
/// of shapes that differ in cost. The upper percentiles are pooled, so
/// the ten-samples-beyond rule counts every op. `span_s` is the timed
/// wall time that throughput is divided by: the schedule length of an
/// open loop, the summed execute time of a closed loop.
inline Summary summarize(const std::vector<OpRecord>& ops, double span_s,
                         double limit_ms) {
  Summary s;
  s.attempted = ops.size();
  std::vector<double> lat, lag;
  std::vector<std::vector<double>> by_shape;
  double flops = 0.0;
  std::uint64_t good = 0;
  for (const OpRecord& op : ops) {
    lag.push_back((op.start - op.due) * 1e3);
    if (!op.ok) {
      ++s.failed;
      continue;
    }
    const double ms = (op.end - op.due) * 1e3;
    lat.push_back(ms);
    const std::size_t k = static_cast<std::size_t>(op.shape);
    if (by_shape.size() <= k) by_shape.resize(k + 1);
    by_shape[k].push_back(ms);
    flops += op.flops;
    if (ms <= limit_ms) ++good;
  }
  std::size_t shapes = 0;
  for (const std::vector<double>& v : by_shape) {
    if (v.empty()) continue;
    s.p50_ms += percentile(v, 0.50);
    ++shapes;
  }
  if (shapes) s.p50_ms /= static_cast<double>(shapes);
  s.p90_ms = percentile(lat, 0.90);
  s.p99_ms = percentile(lat, 0.99);
  s.gen_lag_p99_ms = percentile(lag, 0.99);
  if (span_s > 0.0) {
    s.gflops = flops / span_s / 1e9;
    s.goodput_rps = static_cast<double>(good) / span_s;
  }
  return s;
}

/// Quantile of a log2-bucketed histogram (bucket b counts values in
/// [2^b, 2^(b+1)), bucket 0 also holds 0 and 1), linearly interpolated
/// inside the bucket that holds it. 0 when the histogram is empty.
inline double log2_hist_quantile(const std::uint64_t* bucket,
                                 std::size_t nbuckets, double q) {
  std::uint64_t count = 0;
  for (std::size_t b = 0; b < nbuckets; ++b) count += bucket[b];
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  for (std::size_t b = 0; b < nbuckets; ++b) {
    const double here = static_cast<double>(bucket[b]);
    if (here > 0.0 && seen + here >= target) {
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
      const double hi = std::ldexp(1.0, static_cast<int>(b) + 1);
      const double frac = std::clamp((target - seen) / here, 0.0, 1.0);
      return lo + frac * (hi - lo);
    }
    seen += here;
  }
  return std::ldexp(1.0, static_cast<int>(nbuckets));
}

}  // namespace perfbench
