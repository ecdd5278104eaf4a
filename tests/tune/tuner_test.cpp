// Tests for the planner/autotuner behind EngineKind::Auto: the
// Estimate/Measure ladder, the never-worse-than-default guarantee and
// wisdom-warmed resolution that skips measurement entirely.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/topology.h"
#include "kernels/isa.h"
#include "obs/obs.h"
#include "pipeline/stage_plan.h"
#include "tune/tuner.h"
#include "tune/wisdom.h"

namespace bwfft::tune {
namespace {

// Every test pins a calibrated bandwidth up front so the tuner never
// pays for a real STREAM run, and starts from empty wisdom.
class TunerTest : public testing::Test {
 protected:
  void SetUp() override {
    calibrate_host_bandwidth(30.0);
    global_wisdom_clear();
  }
};

FftOptions auto_opts(TuneLevel level) {
  FftOptions o;
  o.engine = EngineKind::Auto;
  o.tune_level = level;
  o.threads = 4;
  return o;
}

TEST_F(TunerTest, BandwidthCalibrationSticks) {
  EXPECT_TRUE(host_bandwidth_calibrated());
  EXPECT_EQ(30.0, ensure_bandwidth_calibrated());
  EXPECT_EQ(30.0, host_topology().stream_bw_gbs);
}

TEST_F(TunerTest, EstimateResolvesConcreteWithoutExecuting) {
  TuneReport report;
  const FftOptions resolved =
      resolve_auto({32, 32}, Direction::Forward, auto_opts(TuneLevel::Estimate),
                   &report);
  EXPECT_NE(EngineKind::Auto, resolved.engine);
  EXPECT_FALSE(report.from_wisdom);
  EXPECT_EQ(0, report.measured_count);
  ASSERT_FALSE(report.candidates.empty());
  // Candidates come back ranked by the cost model, best first, and the
  // chosen config is the front of that ranking.
  EXPECT_TRUE(std::is_sorted(
      report.candidates.begin(), report.candidates.end(),
      [](const TuneCandidate& a, const TuneCandidate& b) {
        return a.est_seconds < b.est_seconds;
      }));
  EXPECT_TRUE(same_config(report.chosen, report.candidates.front()));
}

TEST_F(TunerTest, EstimateKeepsTheWideAutoPacket) {
  // The cost model prices every packet of at least one cacheline alike;
  // the stable ranking must keep the auto (wide) packet ahead of the
  // narrower SIMD and cacheline alternates enumerated after it.
  TuneReport report;
  const FftOptions resolved =
      resolve_auto({256, 256, 256}, Direction::Forward,
                   auto_opts(TuneLevel::Estimate), &report);
  EXPECT_EQ(0, resolved.packet_elems) << candidate_label(report.chosen);
  EXPECT_EQ(0, report.chosen.packet_elems);
}

TEST_F(TunerTest, EstimatePicksPrivateAtTheBenchmarkShapes) {
  // Split data threads move bytes at their p_d / p share of STREAM, so
  // the model prices p_c = p (Private) ahead at the benchmark shapes, and
  // Private is every plan's default: Auto(Estimate) resolves the 256^3,
  // 4096^2 and 2^24 four-step transforms to the plan the default options
  // build (the 2^24 one at its near-square n1 and the default block).
  const FftOptions def = apply_candidate(default_candidate(),
                                         auto_opts(TuneLevel::Estimate));
  for (const std::vector<idx_t>& dims :
       {std::vector<idx_t>{256, 256, 256}, std::vector<idx_t>{4096, 4096},
        std::vector<idx_t>{idx_t{1} << 24}}) {
    TuneReport report;
    const FftOptions o = resolve_auto(dims, Direction::Forward,
                                      auto_opts(TuneLevel::Estimate), &report);
    ASSERT_EQ(EngineKind::DoubleBuffer, o.engine)
        << candidate_label(report.chosen);
    const StagePlan got = make_stage_plan(dims, o);
    const StagePlan want = make_stage_plan(dims, def);
    EXPECT_EQ(4, got.compute_threads) << candidate_label(report.chosen);
    EXPECT_EQ(want.compute_threads, got.compute_threads);
    EXPECT_EQ(want.block_elems, got.block_elems);
    EXPECT_EQ(want.mu, got.mu);
    EXPECT_EQ(want.n1, got.n1);
    ASSERT_EQ(want.stages.size(), got.stages.size());
    for (std::size_t i = 0; i < want.stages.size(); ++i) {
      EXPECT_EQ(want.stages[i].group, got.stages[i].group);
      EXPECT_EQ(want.stages[i].rows_per_block, got.stages[i].rows_per_block);
    }
    EXPECT_EQ(kernels::Isa::Auto, o.isa) << candidate_label(report.chosen);
    EXPECT_TRUE(o.nontemporal) << candidate_label(report.chosen);
  }
}

TEST_F(TunerTest, MeasureNeverLosesToTheDefaultConfig) {
  TuneReport report;
  resolve_auto({16, 16, 16}, Direction::Forward, auto_opts(TuneLevel::Measure),
               &report);
  EXPECT_FALSE(report.from_wisdom);
  EXPECT_GT(report.measured_count, 0);
  EXPECT_GE(report.chosen.measured_seconds, 0.0);

  // The untouched double-buffer default is always in the measured set,
  // so the winner is at worst the default (acceptance criterion).
  const TuneCandidate def = default_candidate();
  const auto it = std::find_if(
      report.candidates.begin(), report.candidates.end(),
      [&](const TuneCandidate& c) { return same_config(c, def); });
  ASSERT_NE(report.candidates.end(), it);
  ASSERT_GE(it->measured_seconds, 0.0);
  EXPECT_LE(report.chosen.measured_seconds, it->measured_seconds);
}

TEST_F(TunerTest, WisdomWarmedResolutionSkipsMeasurement) {
  const std::vector<idx_t> dims{16, 16, 16};
  TuneReport first;
  const FftOptions a =
      resolve_auto(dims, Direction::Forward, auto_opts(TuneLevel::Measure),
                   &first);
  EXPECT_FALSE(first.from_wisdom);
  EXPECT_GT(first.measured_count, 0);

#if defined(BWFFT_OBS)
  obs::reset_counters();
#endif
  TuneReport second;
  const FftOptions b =
      resolve_auto(dims, Direction::Forward, auto_opts(TuneLevel::Measure),
                   &second);
  EXPECT_TRUE(second.from_wisdom);
  EXPECT_EQ(0, second.measured_count);
  // Identical configuration, and provably no candidate was executed.
  EXPECT_TRUE(same_config(first.chosen, second.chosen));
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.compute_threads, b.compute_threads);
  EXPECT_EQ(a.block_elems, b.block_elems);
  EXPECT_EQ(a.packet_elems, b.packet_elems);
  EXPECT_EQ(a.nontemporal, b.nontemporal);
#if defined(BWFFT_OBS)
  EXPECT_EQ(0u, obs::counter_total(obs::Counter::TuneMeasure));
#endif
}

TEST_F(TunerTest, OneDimensionalWisdomPreservesTheFactorization) {
  // The 1D grid's tunable is the n = n1*n2 split. A Measure-level tune
  // must land the winning factorization in wisdom, and the second
  // resolution must replay it without re-measuring anything.
  const std::vector<idx_t> dims{idx_t{1} << 16};
  TuneReport first;
  const FftOptions a = resolve_auto(
      dims, Direction::Forward, auto_opts(TuneLevel::Measure), &first);
  EXPECT_FALSE(first.from_wisdom);
  EXPECT_GT(first.measured_count, 0);
  if (first.chosen.engine == EngineKind::DoubleBuffer) {
    ASSERT_GT(first.chosen.factor_n1, 0);
    EXPECT_EQ(0, dims[0] % first.chosen.factor_n1);
  }

  TuneReport second;
  const FftOptions b = resolve_auto(
      dims, Direction::Forward, auto_opts(TuneLevel::Measure), &second);
  EXPECT_TRUE(second.from_wisdom);
  EXPECT_EQ(0, second.measured_count);
  EXPECT_TRUE(same_config(first.chosen, second.chosen));
  EXPECT_EQ(first.chosen.factor_n1, second.chosen.factor_n1);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.factor_n1, b.factor_n1);
}

TEST_F(TunerTest, ShallowWisdomDoesNotSatisfyDeeperRequests) {
  const std::vector<idx_t> dims{32, 32};
  resolve_auto(dims, Direction::Forward, auto_opts(TuneLevel::Estimate));

  // Estimate-level wisdom must not short-circuit a Measure request...
  TuneReport measure;
  resolve_auto(dims, Direction::Forward, auto_opts(TuneLevel::Measure),
               &measure);
  EXPECT_FALSE(measure.from_wisdom);
  EXPECT_GT(measure.measured_count, 0);

  // ...but the recorded Measure result now satisfies Estimate requests.
  TuneReport estimate;
  resolve_auto(dims, Direction::Forward, auto_opts(TuneLevel::Estimate),
               &estimate);
  EXPECT_TRUE(estimate.from_wisdom);
  EXPECT_TRUE(same_config(measure.chosen, estimate.chosen));
}

TEST_F(TunerTest, WisdomIsKeyedByDirection) {
  const std::vector<idx_t> dims{32, 32};
  resolve_auto(dims, Direction::Forward, auto_opts(TuneLevel::Estimate));
  TuneReport inverse;
  resolve_auto(dims, Direction::Inverse, auto_opts(TuneLevel::Estimate),
               &inverse);
  EXPECT_FALSE(inverse.from_wisdom);
}

TEST_F(TunerTest, PinnedEngineRestrictsTheGrid) {
  FftOptions req = auto_opts(TuneLevel::Estimate);
  req.engine = EngineKind::Auto;
  TuneReport report = tune_transform({32, 32}, Direction::Forward, req);
  EXPECT_GT(report.candidates.size(), 1u);

  req.compute_threads = 2;  // pinning a knob shrinks the grid
  const TuneReport pinned =
      tune_transform({32, 32}, Direction::Forward, req);
  EXPECT_LT(pinned.candidates.size(), report.candidates.size());
  for (const TuneCandidate& c : pinned.candidates) {
    if (c.engine == EngineKind::DoubleBuffer) {
      EXPECT_EQ(2, c.compute_threads);
    }
  }
}

}  // namespace
}  // namespace bwfft::tune
