#include "tune/tuner.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "common/aligned.h"
#include "common/error.h"
#include "common/timer.h"
#include "fft/engine.h"
#include "kernels/isa.h"
#include "obs/obs.h"
#include "pipeline/stage_plan.h"
#include "stream/stream.h"
#include "tune/wisdom.h"

namespace bwfft::tune {

namespace {

/// Candidates timed at Measure level on top of the model's top-K.
constexpr int kMeasureTopK = 3;

/// Time one candidate: plan once, one warm-up execute, then best of two
/// timed executes over a deterministic input. Returns a negative time
/// when the engine rejects the configuration.
double measure_candidate(const TuneCandidate& c,
                         const std::vector<idx_t>& dims, Direction dir,
                         const FftOptions& base) {
  idx_t total = 1;
  for (idx_t d : dims) total *= d;
  try {
    const FftOptions opts = apply_candidate(c, base);
    std::unique_ptr<MdEngine> engine = make_engine(dims, dir, opts);
    cvec in(static_cast<std::size_t>(total)), out(in.size());
    for (idx_t i = 0; i < total; ++i) {
      // Cheap non-constant fill; tuning compares configs, it does not
      // need spectral variety.
      in[static_cast<std::size_t>(i)] =
          cplx(static_cast<double>(i & 255) - 128.0,
               static_cast<double>((i >> 4) & 255) - 128.0);
    }
    const cvec original = in;
    engine->execute(in.data(), out.data());  // warm-up (touches pages)
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 2; ++rep) {
      std::copy(original.begin(), original.end(), in.begin());
      Timer t;
      engine->execute(in.data(), out.data());
      best = std::min(best, t.seconds());
    }
    BWFFT_OBS_COUNT(TuneMeasure, 1);
    return best;
  } catch (const Error&) {
    return -1.0;  // engine rejected the knob combination
  }
}

WisdomEntry entry_for(const std::vector<idx_t>& dims, Direction dir,
                      const std::string& fingerprint, const TuneReport& rep,
                      TuneLevel level) {
  WisdomEntry e;
  e.dims = dims;
  e.dir = dir;
  e.fingerprint = fingerprint;
  e.config = rep.chosen;
  e.seconds = rep.chosen.measured_seconds > 0.0 ? rep.chosen.measured_seconds
                                                : 0.0;
  e.level = level;
  return e;
}

}  // namespace

double ensure_bandwidth_calibrated() {
  if (!host_bandwidth_calibrated()) {
    calibrate_host_bandwidth(measured_stream_bandwidth_gbs());
  }
  return host_topology().stream_bw_gbs;
}

TuneReport tune_transform(const std::vector<idx_t>& dims, Direction dir,
                          const FftOptions& req) {
  TuneReport rep;
  // A caller-supplied topology with a real (non-placeholder) bandwidth is
  // trusted; the default host topology gets calibrated from STREAM once.
  MachineTopology topo = req.topo;
  if (!host_bandwidth_calibrated() &&
      topo.stream_bw_gbs == MachineTopology{}.stream_bw_gbs) {
    ensure_bandwidth_calibrated();
    topo.stream_bw_gbs = host_topology().stream_bw_gbs;
  }
  rep.stream_bw_gbs = topo.stream_bw_gbs;

  rep.candidates = enumerate_candidates(dims, req);
  BWFFT_CHECK(!rep.candidates.empty(), "no tuning candidates for transform");
  for (TuneCandidate& c : rep.candidates) {
    c.est_seconds = estimate_seconds(c, dims, topo, req.threads);
  }
  std::stable_sort(rep.candidates.begin(), rep.candidates.end(),
                   [](const TuneCandidate& a, const TuneCandidate& b) {
                     return a.est_seconds < b.est_seconds;
                   });

  if (req.tune_level == TuneLevel::Estimate) {
    rep.chosen = rep.candidates.front();
    return rep;
  }

  // Measured levels: time the selected subset and take the fastest that
  // actually planned. The default double-buffer config is always in the
  // measured set, so the winner is at worst the default.
  const int grid = static_cast<int>(rep.candidates.size());
  const int top_k = req.tune_level == TuneLevel::Exhaustive
                        ? grid
                        : std::min(kMeasureTopK, grid);
  // For 1D the grid lists the default split by its concrete n1; resolve
  // the baseline's factor the same way so it is recognised (and measured)
  // once and wisdom never records the unresolved 0.
  TuneCandidate baseline = default_candidate();
  if (dims.size() == 1) {
    baseline.factor_n1 = four_step_factors(dims[0], 0).first;
  }
  bool baseline_measured = false;
  for (int i = 0; i < grid; ++i) {
    TuneCandidate& c = rep.candidates[static_cast<std::size_t>(i)];
    const bool is_baseline = same_config(c, baseline);
    if (i >= top_k && !(is_baseline && !baseline_measured)) continue;
    c.measured_seconds = measure_candidate(c, dims, dir, req);
    if (c.measured_seconds >= 0.0) ++rep.measured_count;
    if (is_baseline) baseline_measured = true;
  }
  if (!baseline_measured && req.engine == EngineKind::Auto) {
    // The grid can omit the exact baseline when the caller pinned a knob;
    // in the pure-Auto case it is always present, but guard anyway.
    TuneCandidate c = baseline;
    c.est_seconds = estimate_seconds(c, dims, topo, req.threads);
    c.measured_seconds = measure_candidate(c, dims, dir, req);
    if (c.measured_seconds >= 0.0) ++rep.measured_count;
    rep.candidates.push_back(c);
  }

  const TuneCandidate* best = nullptr;
  for (const TuneCandidate& c : rep.candidates) {
    if (c.measured_seconds < 0.0) continue;
    if (!best || c.measured_seconds < best->measured_seconds) best = &c;
  }
  // Every measured candidate can fail only if the engines reject the
  // whole grid, which the default config never is.
  BWFFT_CHECK(best != nullptr, "no tuning candidate could be planned");
  rep.chosen = *best;
  return rep;
}

FftOptions resolve_auto(const std::vector<idx_t>& dims, Direction dir,
                        const FftOptions& req, TuneReport* report) {
  BWFFT_CHECK(dims.size() >= 1 && dims.size() <= 3,
              "only 1D, 2D and 3D transforms are supported");
  // Wisdom keys compose the topology fingerprint with the ACTIVE ISA so
  // a config measured with AVX-512 kernels is never replayed onto a run
  // forced down to scalar (BWFFT_ISA / force_scalar) or vice versa.
  const std::string fingerprint =
      topology_fingerprint(req.topo) + "-" +
      kernels::isa_name(kernels::resolve_isa(req.isa));

  WisdomEntry remembered;
  if (global_wisdom_lookup(dims, dir, fingerprint, &remembered) &&
      static_cast<int>(remembered.level) >=
          static_cast<int>(req.tune_level)) {
    if (report) {
      TuneReport rep;
      rep.chosen = remembered.config;
      rep.chosen.measured_seconds =
          remembered.seconds > 0.0 ? remembered.seconds : -1.0;
      rep.from_wisdom = true;
      rep.stream_bw_gbs = req.topo.stream_bw_gbs;
      *report = std::move(rep);
    }
    return apply_candidate(remembered.config, req);
  }

  TuneReport rep = tune_transform(dims, dir, req);
  global_wisdom_record(entry_for(dims, dir, fingerprint, rep,
                                 req.tune_level));
  FftOptions resolved = apply_candidate(rep.chosen, req);
  if (report) *report = std::move(rep);
  BWFFT_CHECK(resolved.engine != EngineKind::Auto,
              "tuner must resolve to a concrete engine");
  return resolved;
}

}  // namespace bwfft::tune
