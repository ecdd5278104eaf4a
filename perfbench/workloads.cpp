// md-ooc and 1d-ooc: closed-loop out-of-LLC transforms through the
// default engine, one caller, plans built once.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>

#include "bench.h"
#include "common/aligned.h"
#include "common/topology.h"
#include "fft/double_buffer.h"
#include "fft/engine.h"
#include "obs/obs.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 15;
constexpr std::size_t kMinOps = 100;  // >= 10 samples beyond p90
constexpr double kLimitMs = 1000.0;   // goodput latency limit per op
constexpr std::size_t kBins = 4;
constexpr std::size_t kParsevalEvery = 8;
constexpr int kSpeedupReps = 3;

/// Passes over DRAM of one transform: one per stage of a 3D plan, two
/// for 2D plans and for the 1D four-step.
int passes(const Shape& s) { return s.dims.size() == 3 ? 3 : 2; }

/// Stage seconds of the double-buffer engine's last execute (empty for
/// other engines).
std::vector<double> stage_seconds(bwfft::MdEngine& e) {
  std::vector<double> out;
  if (auto* db = dynamic_cast<bwfft::DoubleBufferEngine*>(&e)) {
    for (const auto& st : db->last_stats()) out.push_back(st.seconds);
  }
  return out;
}

/// Plans, seeded input and correctness references for one out-of-LLC
/// workload. Every shape has the same element count, so all shapes share
/// one pristine input and one in/out pair.
class OocRig {
 public:
  explicit OocRig(const RunOptions& opt)
      : shapes_(workload_shapes(opt.workload)),
        n_(shapes_[0].total()),
        team_(bwfft::host_topology().total_threads()),
        pristine_(static_cast<std::size_t>(n_)),
        in_(static_cast<std::size_t>(n_)),
        out_(static_cast<std::size_t>(n_)) {
    fill_input(team_, pristine_.data(), n_, mix_seed(opt.seed, 0));
    refill(team_, out_.data(), pristine_.data(), n_);
    in_energy_ = energy(team_, pristine_.data(), n_);
    std::mt19937_64 rng(mix_seed(opt.seed, 1));
    std::uniform_int_distribution<idx_t> pick(0, n_ - 1);
    for (const Shape& s : shapes_) {
      std::vector<idx_t> bins;
      for (std::size_t b = 0; b < kBins; ++b) bins.push_back(pick(rng));
      refs_.push_back(reference_bins(team_, s, pristine_.data(), bins));
      bins_.push_back(std::move(bins));
    }
  }

  const std::vector<Shape>& shapes() const { return shapes_; }
  std::uint64_t misses() const { return misses_; }
  double worst_error() const { return worst_; }

  /// Build every plan kSetupReps times; the last set stays. Returns the
  /// median construction time of the whole set.
  double setup() {
    std::vector<double> t;
    for (int r = 0; r < kSetupReps; ++r) {
      plans_.clear();
      const double t0 = now_s();
      for (const Shape& s : shapes_) {
        plans_.push_back(bwfft::make_engine(s.dims, s.dir, {}));
      }
      t.push_back(now_s() - t0);
    }
    return median(t);
  }

  /// One checked op of shape i % shapes. `stages` (optional) receives the
  /// engine's stage times for 3D ops.
  OpRecord op(std::size_t i, std::vector<std::array<double, 3>>* stages) {
    const std::size_t s = i % shapes_.size();
    OpRecord rec;
    rec.shape = static_cast<int>(s);
    rec.flops = pseudo_flops(static_cast<double>(n_));
    refill(team_, in_.data(), pristine_.data(), n_);
    rec.due = rec.start = now_s();
    try {
      plans_[s]->execute(in_.data(), out_.data());
      rec.ok = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %zu (%s) failed: %s\n", i,
                   shapes_[s].name().c_str(), e.what());
    }
    rec.end = now_s();
    if (!rec.ok) return rec;
    if (!check(s, i % kParsevalEvery == 0)) {
      rec.ok = false;
      ++misses_;
    }
    if (stages && shapes_[s].dims.size() == 3) {
      const std::vector<double> st = stage_seconds(*plans_[s]);
      if (st.size() == 3) stages->push_back({st[0], st[1], st[2]});
    }
    return rec;
  }

  /// Ops back to back for `seconds` (and at least `min_ops`, within a
  /// hard cap).
  std::vector<OpRecord> window(double seconds, std::size_t min_ops,
                               std::vector<std::array<double, 3>>* stages) {
    std::vector<OpRecord> ops;
    const double t0 = now_s();
    const double cap = std::min(2.5 * seconds + 5.0, 120.0);
    for (;;) {
      const double el = now_s() - t0;
      if ((el >= seconds && ops.size() >= min_ops) || el >= cap) break;
      ops.push_back(op(next_++, stages));
    }
    return ops;
  }

  /// Median single-op time of the first shape at 1 thread over the same
  /// at the default team size.
  double speedup_1t() {
    const Shape& s = shapes_[0];
    bwfft::FftOptions one;
    one.threads = 1;
    auto single = bwfft::make_engine(s.dims, s.dir, one);
    auto time = [&](bwfft::MdEngine& e) {
      std::vector<double> t;
      for (int r = 0; r <= kSpeedupReps; ++r) {
        refill(team_, in_.data(), pristine_.data(), n_);
        const double t0 = now_s();
        e.execute(in_.data(), out_.data());
        if (r > 0) t.push_back(now_s() - t0);  // r == 0 warms up
      }
      return median(t);
    };
    return time(*single) / time(*plans_[0]);
  }

  std::string plan_list() const {
    std::string out;
    for (std::size_t s = 0; s < shapes_.size(); ++s) {
      out += (s ? " " : "") + shapes_[s].name() + "=" + plans_[s]->name();
    }
    return out;
  }

 private:
  /// Each error is scaled by its bound; the op passes while all are <= 1.
  bool check(std::size_t s, bool parseval) {
    const double tol = tolerance(n_);
    const long double norm = std::sqrt(in_energy_);
    double worst = 0.0;
    for (std::size_t b = 0; b < bins_[s].size(); ++b) {
      const cplx got = out_[static_cast<std::size_t>(bins_[s][b])];
      const long double dre = got.real() - refs_[s][b].first;
      const long double dim = got.imag() - refs_[s][b].second;
      worst = std::max<double>(worst,
                               std::sqrt(dre * dre + dim * dim) / (tol * norm));
    }
    if (parseval) {
      const long double want = static_cast<long double>(n_) * in_energy_;
      const long double got = energy(team_, out_.data(), n_);
      worst = std::max<double>(worst, std::fabs(got - want) / (tol * want));
    }
    worst_ = std::max(worst_, worst);
    return worst <= 1.0;
  }

  std::vector<Shape> shapes_;
  idx_t n_;
  bwfft::ThreadTeam team_;
  bwfft::AlignedBuffer<cplx> pristine_, in_, out_;
  long double in_energy_ = 0.0L;
  std::vector<std::vector<idx_t>> bins_;
  std::vector<std::vector<std::pair<long double, long double>>> refs_;
  std::vector<std::unique_ptr<bwfft::MdEngine>> plans_;
  std::size_t next_ = 0;
  std::uint64_t misses_ = 0;
  double worst_ = 0.0;
};

double op_seconds(const std::vector<OpRecord>& ops) {
  double t = 0.0;
  for (const OpRecord& op : ops) t += op.end - op.start;
  return t;
}

}  // namespace

Outcome run_ooc(const RunOptions& opt, Metrics& m) {
  Outcome o;
  auto rig = std::make_unique<OocRig>(opt);
  const double setup = rig->setup();
  const std::string plans = rig->plan_list();
  for (std::size_t s = 0; s < rig->shapes().size(); ++s) {
    tally(o, {rig->op(s, nullptr)});  // warm-up, checked like any op
  }

  if (!opt.trace) {
    const auto steal0 = steal_ticks();
    const std::vector<OpRecord> ops =
        rig->window(opt.seconds, kMinOps, nullptr);
    const double steal = steal_pct(steal0, steal_ticks());
    tally(o, ops);
    const Summary sum = summarize(ops, op_seconds(ops), kLimitMs);
    m.set("setup_s", setup, "s");
    m.set("latency_ms.p50", sum.p50_ms, "ms");
    m.set("latency_ms.p90", sum.p90_ms, "ms");
    m.set("gflops", sum.gflops, "GFlop/s");
    m.set("goodput_rps", sum.goodput_rps, "1/s");
    m.set("rss_mib", peak_rss_mib(), "MiB");
    std::printf("# %zu ops; worst check error %.3g of tolerance; %.2f%% of "
                "CPU time stolen; %.0f MiB on huge pages\n",
                ops.size(), rig->worst_error(), steal, anon_huge_mib());
    for (std::size_t s = 0; s < rig->shapes().size(); ++s) {
      std::vector<double> lat;
      for (const OpRecord& op : ops) {
        if (op.ok && op.shape == static_cast<int>(s)) {
          lat.push_back((op.end - op.due) * 1e3);
        }
      }
      std::printf("# %s: p50 %.2f ms p90 %.2f ms over %zu ops\n",
                  rig->shapes()[s].name().c_str(), percentile(lat, 0.5),
                  percentile(lat, 0.9), lat.size());
    }
    o.check_misses = rig->misses();
    rig.reset();
    print_fingerprint(opt, plans, stream_triad_gbs());
    return o;
  }

  // Traced run: an untraced half-window, then a traced one; the per-layer
  // numbers come from the traced half, the overhead from the pair.
  const std::vector<OpRecord> plain = rig->window(opt.seconds / 2, 0, nullptr);
  bwfft::obs::reset_counters();
  bwfft::obs::start_trace();
  std::vector<std::array<double, 3>> stages;
  const std::vector<OpRecord> traced =
      rig->window(opt.seconds / 2, 0, &stages);
  bwfft::obs::stop_trace();
  const bwfft::obs::CounterSnapshot c = bwfft::obs::counters();
  tally(o, plain);
  tally(o, traced);

  const double nops =
      static_cast<double>(std::max<std::size_t>(traced.size(), 1));
  auto per_op_s = [&](bwfft::obs::Counter k) {
    return static_cast<double>(c[k]) * 1e-9 / nops;
  };
  m.set("pipeline.load_busy_s", per_op_s(bwfft::obs::Counter::LoadBusyNs), "s");
  m.set("pipeline.compute_busy_s",
        per_op_s(bwfft::obs::Counter::ComputeBusyNs), "s");
  m.set("pipeline.store_busy_s", per_op_s(bwfft::obs::Counter::StoreBusyNs),
        "s");
  m.set("pipeline.barrier_wait_s",
        per_op_s(bwfft::obs::Counter::BarrierWaitNs), "s");

  double bytes = 0.0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Shape& s = rig->shapes()[(plain.size() + i) % rig->shapes().size()];
    bytes += 2.0 * passes(s) * static_cast<double>(s.total()) * sizeof(cplx);
  }
  const double busy = op_seconds(traced);
  const double speedup = rig->speedup_1t();
  const double p50_plain = summarize(plain, op_seconds(plain), kLimitMs).p50_ms;
  const double p50_traced = summarize(traced, busy, kLimitMs).p50_ms;
  o.check_misses = rig->misses();

  if (!stages.empty()) {
    for (int k = 0; k < 3; ++k) {
      std::vector<double> v;
      for (const auto& st : stages) {
        v.push_back(st[static_cast<std::size_t>(k)] * 1e3);
      }
      m.set("fft.stage" + std::to_string(k) + "_ms", median(v), "ms");
    }
  }
  rig.reset();
  if (stages.empty()) stage_probe(m);
  m.set("fft.speedup_1t", speedup, "x");
  probe_serve(m, o, opt.seed);
  const double triad = probe_layers(m);
  m.set("fft.roofline_pct", 100.0 * bytes / (triad * 1e9) / busy, "%");
  m.set("obs.trace_overhead_pct", 100.0 * (p50_traced - p50_plain) / p50_plain,
        "%");
  print_fingerprint(opt, plans, triad);
  return o;
}

void stage_probe(Metrics& m) {
  constexpr int kReps = 5;
  const Shape s{{256, 256, 256}, bwfft::Direction::Forward};
  const idx_t n = s.total();
  bwfft::ThreadTeam team(bwfft::host_topology().total_threads());
  bwfft::AlignedBuffer<cplx> src(static_cast<std::size_t>(n)),
      in(static_cast<std::size_t>(n)), out(static_cast<std::size_t>(n));
  fill_input(team, src.data(), n, 0x5eed);
  refill(team, out.data(), src.data(), n);
  auto plan = bwfft::make_engine(s.dims, s.dir, {});
  std::array<std::vector<double>, 3> v;
  for (int r = 0; r <= kReps; ++r) {
    refill(team, in.data(), src.data(), n);
    plan->execute(in.data(), out.data());
    const std::vector<double> st = stage_seconds(*plan);
    if (r == 0 || st.size() != 3) continue;  // r == 0 warms up
    for (std::size_t k = 0; k < 3; ++k) v[k].push_back(st[k] * 1e3);
  }
  for (std::size_t k = 0; k < 3; ++k) {
    m.set("fft.stage" + std::to_string(k) + "_ms", median(v[k]), "ms");
  }
}

}  // namespace perfbench
