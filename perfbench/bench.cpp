#include "bench.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <stdexcept>

#include "common/aligned.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/topology.h"
#include "fft/stage.h"
#include "kernels/isa.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"
#include "pipeline/pipeline.h"

namespace perfbench {

namespace {

using ld = long double;

struct LComplex {
  ld re = 0.0L, im = 0.0L;
};

LComplex operator*(LComplex a, LComplex b) {
  return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

/// exp(sign * 2 pi i * m / n), reduced mod n before the long-double trig.
LComplex root(std::uint64_t m, std::uint64_t n, int sign) {
  const ld pi = 3.141592653589793238462643383279502884L;
  const ld ang = static_cast<ld>(sign) * 2.0L * pi *
                 static_cast<ld>(m % n) / static_cast<ld>(n);
  return {cosl(ang), sinl(ang)};
}

/// Largest divisor of n not above sqrt(n): the inner length of the 1D
/// reference's two-level sum.
std::uint64_t inner_split(std::uint64_t n) {
  std::uint64_t best = 1;
  for (std::uint64_t d = 1; d * d <= n; ++d) {
    if (n % d == 0) best = d;
  }
  return best;
}

/// X[bin] = sum_r w_out[r] sum_c w_in[c] x[r*C + c]. Multidimensional
/// shapes split off their fastest dimension; 1D shapes use the four-step
/// identity w^{(rC+c)k} = w^{rCk} w^{ck}.
std::pair<ld, ld> one_bin(const Shape& s, const cplx* x, idx_t bin) {
  const int sign = bwfft::sign_of(s.dir);
  const std::uint64_t n = static_cast<std::uint64_t>(s.total());
  std::uint64_t cols = 0, rows = 0;
  std::vector<LComplex> w_in, w_out;
  if (s.dims.size() == 1) {
    cols = inner_split(n);
    rows = n / cols;
    const std::uint64_t k = static_cast<std::uint64_t>(bin);
    for (std::uint64_t c = 0; c < cols; ++c) {
      w_in.push_back(root(c * k, n, sign));
    }
    for (std::uint64_t r = 0; r < rows; ++r) {
      w_out.push_back(root((r * cols % n) * k, n, sign));
    }
  } else {
    std::vector<std::uint64_t> k(s.dims.size());
    std::uint64_t rest = static_cast<std::uint64_t>(bin);
    for (std::size_t d = s.dims.size(); d-- > 0;) {
      const auto dn = static_cast<std::uint64_t>(s.dims[d]);
      k[d] = rest % dn;
      rest /= dn;
    }
    const std::size_t last = s.dims.size() - 1;
    cols = static_cast<std::uint64_t>(s.dims[last]);
    rows = n / cols;
    for (std::uint64_t c = 0; c < cols; ++c) {
      w_in.push_back(root(c * k[last], cols, sign));
    }
    for (std::uint64_t r = 0; r < rows; ++r) {
      LComplex w{1.0L, 0.0L};
      std::uint64_t idx = r;
      for (std::size_t d = last; d-- > 0;) {
        const auto dn = static_cast<std::uint64_t>(s.dims[d]);
        w = w * root((idx % dn) * k[d], dn, sign);
        idx /= dn;
      }
      w_out.push_back(w);
    }
  }
  LComplex acc;
  for (std::uint64_t r = 0; r < rows; ++r) {
    LComplex row;
    const cplx* xr = x + r * cols;
    for (std::uint64_t c = 0; c < cols; ++c) {
      const ld xre = xr[c].real(), xim = xr[c].imag();
      row.re += xre * w_in[c].re - xim * w_in[c].im;
      row.im += xre * w_in[c].im + xim * w_in[c].re;
    }
    const LComplex t = w_out[r] * row;
    acc.re += t.re;
    acc.im += t.im;
  }
  return {acc.re, acc.im};
}

}  // namespace

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const double v = items_[i].second.first;
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out += (i ? ", \"" : "\"") + items_[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + items_[i].second.second + "\"}";
  }
  return out + "}";
}

double now_s() { return static_cast<double>(bwfft::obs::now_ns()) * 1e-9; }

void tally(Outcome& o, const std::vector<OpRecord>& ops) {
  o.attempted += ops.size();
  for (const OpRecord& op : ops) o.failed += op.ok ? 0 : 1;
}

idx_t Shape::total() const {
  idx_t t = 1;
  for (idx_t d : dims) t *= d;
  return t;
}

std::string Shape::name() const {
  std::string s;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    s += (i ? "x" : "") + std::to_string(dims[i]);
  }
  return dir == bwfft::Direction::Inverse ? s + "(inv)" : s;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void fill_input(bwfft::ThreadTeam& team, cplx* v, idx_t n,
                std::uint64_t seed) {
  constexpr idx_t kChunk = idx_t{1} << 16;
  const idx_t chunks = (n + kChunk - 1) / kChunk;
  bwfft::parallel_for_chunks(team, chunks, [&](int, idx_t b, idx_t e) {
    for (idx_t c = b; c < e; ++c) {
      const idx_t lo = c * kChunk;
      bwfft::fill_random(v + lo, std::min(kChunk, n - lo),
                         mix_seed(seed, static_cast<std::uint64_t>(c)));
    }
  });
}

void refill(bwfft::ThreadTeam& team, cplx* dst, const cplx* src, idx_t n) {
  bwfft::parallel_for_chunks(team, n, [&](int, idx_t b, idx_t e) {
    bwfft::copy_stream(dst + b, src + b, e - b, /*nontemporal=*/true);
    bwfft::stream_fence();
  });
}

long double energy(bwfft::ThreadTeam& team, const cplx* v, idx_t n) {
  std::vector<long double> part(static_cast<std::size_t>(team.size()), 0.0L);
  bwfft::parallel_for_chunks(team, n, [&](int tid, idx_t b, idx_t e) {
    long double acc = 0.0L;
    for (idx_t i = b; i < e; ++i) acc += std::norm(v[i]);
    part[static_cast<std::size_t>(tid)] = acc;
  });
  long double sum = 0.0L;
  for (long double p : part) sum += p;
  return sum;
}

std::vector<std::pair<long double, long double>> reference_bins(
    bwfft::ThreadTeam& team, const Shape& s, const cplx* x,
    const std::vector<idx_t>& bins) {
  std::vector<std::pair<long double, long double>> out(bins.size());
  bwfft::parallel_for_chunks(
      team, static_cast<idx_t>(bins.size()), [&](int, idx_t b, idx_t e) {
        for (idx_t i = b; i < e; ++i) {
          out[static_cast<std::size_t>(i)] =
              one_bin(s, x, bins[static_cast<std::size_t>(i)]);
        }
      });
  return out;
}

double tolerance(idx_t n) {
  // c = 16: the worst error seen on any shape here is ~1/3 of c = 4
  // (the 2^24 four-step, whose twiddle recurrence drifts between exact
  // refreshes); a wrong result misses by orders of magnitude more.
  constexpr double kC = 16.0;
  return kC * std::numeric_limits<double>::epsilon() *
         std::log2(static_cast<double>(std::max<idx_t>(n, 2)));
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      f >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double anon_huge_mib() {
  std::ifstream f("/proc/self/smaps_rollup");
  std::string key;
  while (f >> key) {
    if (key == "AnonHugePages:") {
      double kb = 0.0;
      f >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::pair<std::uint64_t, std::uint64_t> steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  std::uint64_t total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double steal_pct(std::pair<std::uint64_t, std::uint64_t> a,
                 std::pair<std::uint64_t, std::uint64_t> b) {
  const double total = static_cast<double>(b.second - a.second);
  return total > 0 ? 100.0 * static_cast<double>(b.first - a.first) / total
                   : 0.0;
}

void print_fingerprint(const RunOptions& opt, const std::string& plans,
                       double triad_gbs) {
  const bwfft::MachineTopology topo = bwfft::host_topology();
  const int p = topo.total_threads();
  std::printf(
      "# fingerprint nproc=%d llc_bytes=%zu isa=%s threads=%d p_c=%d "
      "block_elems=%td mu=%td engines=[%s] workload=%s seed=%llu "
      "serve_probe_rps=%g stream_triad_gbs=%.2f\n",
      bwfft::online_cpus(), bwfft::llc_bytes(),
      bwfft::kernels::isa_name(bwfft::kernels::active_isa()), p,
      p <= 1 ? p : p / 2, bwfft::default_block_elems(topo),
      bwfft::resolve_packet_size(0, 256), plans.c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), kServeRateRps, triad_gbs);
}

std::vector<Shape> workload_shapes(const std::string& workload) {
  using bwfft::Direction;
  if (workload == "md-ooc") {
    // Both 2^24 elements (256 MiB per array): in + out is ~5x the LLC.
    return {{{256, 256, 256}, Direction::Forward},
            {{4096, 4096}, Direction::Forward}};
  }
  if (workload == "1d-ooc") return {{{idx_t{1} << 24}, Direction::Forward}};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace perfbench
