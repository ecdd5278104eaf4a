// Shared pieces of the repository benchmark: run options, the metric
// sink that becomes the final JSON line, seeded inputs, the long-double
// correctness references, and the housekeeping team that prepares inputs
// between timed operations.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "parallel/team.h"
#include "stats.h"

namespace perfbench {

using bwfft::cplx;
using bwfft::idx_t;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Offered load of the serve stream that probes the exec layer: a fifth
/// of its mix's saturation throughput (~1100 req/s with coalescing) on
/// the 4-core reference host, so queueing stays modest (README.md).
inline constexpr double kServeRateRps = 200.0;

/// Name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Everything a workload reports besides its metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t check_misses = 0;  // correctness misses (subset of failed)
};

/// A transform shape; dims slowest first, one entry = 1D.
struct Shape {
  std::vector<idx_t> dims;
  bwfft::Direction dir = bwfft::Direction::Forward;

  idx_t total() const;
  std::string name() const;  // "256x256x256", "4096(inv)"
};

/// Seconds on the obs layer's steady clock, so benchmark timestamps and
/// trace slices share one time base.
double now_s();

/// Count `ops` (and their failures) into `o`.
void tally(Outcome& o, const std::vector<OpRecord>& ops);

/// Deterministic 64-bit mix (splitmix64), for deriving sub-seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Fill `n` elements uniformly in [-1,1]^2 from `seed`. Chunked so the
/// result is independent of the team size.
void fill_input(bwfft::ThreadTeam& team, cplx* v, idx_t n, std::uint64_t seed);

/// Parallel streaming copy (NT stores): refills a transform's input
/// between operations without leaving it cache-resident.
void refill(bwfft::ThreadTeam& team, cplx* dst, const cplx* src, idx_t n);

/// sum |v|^2 in long double.
long double energy(bwfft::ThreadTeam& team, const cplx* v, idx_t n);

/// Direct long-double DFT bins of `x` (shape `s`) at flat output indices
/// `bins`, one bin per team thread at a time.
std::vector<std::pair<long double, long double>> reference_bins(
    bwfft::ThreadTeam& team, const Shape& s, const cplx* x,
    const std::vector<idx_t>& bins);

/// Accuracy bound c * eps * log2 N used by every check.
double tolerance(idx_t n);

/// Peak resident set so far (VmHWM), MiB.
double peak_rss_mib();

/// Resident anonymous memory on transparent huge pages, MiB.
double anon_huge_mib();

/// Cumulative CPU time of the whole host view, as (stolen, total) ticks
/// from /proc/stat; the difference across a window gives the share of
/// CPU time the hypervisor took away, which explains noisy runs.
std::pair<std::uint64_t, std::uint64_t> steal_ticks();

/// Percent of CPU time stolen between two steal_ticks() readings.
double steal_pct(std::pair<std::uint64_t, std::uint64_t> a,
                 std::pair<std::uint64_t, std::uint64_t> b);

/// The shapes a workload runs, for `--workload`.
std::vector<Shape> workload_shapes(const std::string& workload);

/// Print the run fingerprint (machine, dispatch, plan knobs, engines,
/// seed, the serve probe's offered rate, in-session STREAM) as one '#'
/// line. Runs are comparable only when their fingerprints match.
void print_fingerprint(const RunOptions& opt, const std::string& plans,
                       double triad_gbs);

/// The workloads (workloads.cpp): fills `m` with the end-to-end metrics
/// (untraced) or the per-layer metrics (traced).
Outcome run_ooc(const RunOptions& opt, Metrics& m);

/// fft.stage{0,1,2}_ms of the 256^3 double-buffer transform, measured on
/// its own buffers (workloads that do not run that shape themselves).
void stage_probe(Metrics& m);

/// exec.*, serve.* and tune.cache_* from a short traced run of the serve
/// stream (serve.cpp); its requests and checks count into `o`.
void probe_serve(Metrics& m, Outcome& o, std::uint64_t seed);

/// Layer probes shared by every traced run (probes.cpp). Returns the
/// in-session STREAM triad rate it reported.
double probe_layers(Metrics& m);

/// Median-of-k STREAM triad with the library's default team size, GB/s.
double stream_triad_gbs();

}  // namespace perfbench
