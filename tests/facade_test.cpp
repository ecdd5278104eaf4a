// Tests for the public facade: in-place execution, engine naming, move
// semantics, option validation and error paths.
#include <gtest/gtest.h>

#include <utility>

#include "common/rng.h"
#include "common/topology.h"
#include "fft/fft.h"
#include "fft/reference.h"
#include "fft/stage.h"
#include "kernels/isa.h"
#include "test_util.h"

namespace bwfft {
namespace {

using test::fft_tol;
using test::max_err;

TEST(Facade, ExecuteInplace3d) {
  const idx_t k = 4, n = 8, m = 8;
  auto x = random_cvec(k * n * m, 9100);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);
  FftOptions o;
  o.threads = 2;
  o.block_elems = 512;
  Fft3d plan(k, n, m, Direction::Forward, o);
  cvec data = x;
  plan.execute_inplace(data.data());
  EXPECT_LT(max_err(want, data), fft_tol(static_cast<double>(k * n * m)));
  // Second in-place call reuses the work buffer.
  cvec data2 = x;
  plan.execute_inplace(data2.data());
  EXPECT_EQ(0.0, max_err(data, data2));
}

TEST(Facade, ExecuteInplace2d) {
  const idx_t n = 8, m = 16;
  auto x = random_cvec(n * m, 9101);
  cvec want(x.size());
  reference_dft_2d(x.data(), want.data(), n, m, Direction::Forward);
  Fft2d plan(n, m, Direction::Forward, {});
  cvec data = x;
  plan.execute_inplace(data.data());
  EXPECT_LT(max_err(want, data), fft_tol(static_cast<double>(n * m)));
}

TEST(Facade, EngineNames) {
  EXPECT_STREQ("reference", engine_name(EngineKind::Reference));
  EXPECT_STREQ("pencil", engine_name(EngineKind::Pencil));
  EXPECT_STREQ("stage-parallel", engine_name(EngineKind::StageParallel));
  EXPECT_STREQ("slab-pencil", engine_name(EngineKind::SlabPencil));
  EXPECT_STREQ("double-buffer", engine_name(EngineKind::DoubleBuffer));
  EXPECT_STREQ("auto", engine_name(EngineKind::Auto));

  Fft3d plan(4, 4, 4, Direction::Forward, {});
  EXPECT_STREQ("double-buffer", plan.engine_name());
}

TEST(Facade, EngineAndLevelParsing) {
  EngineKind kind;
  EXPECT_TRUE(engine_kind_from_name("double-buffer", &kind));
  EXPECT_EQ(EngineKind::DoubleBuffer, kind);
  EXPECT_TRUE(engine_kind_from_name("dbuf", &kind));
  EXPECT_EQ(EngineKind::DoubleBuffer, kind);
  EXPECT_TRUE(engine_kind_from_name("auto", &kind));
  EXPECT_EQ(EngineKind::Auto, kind);
  EXPECT_FALSE(engine_kind_from_name("warp-drive", &kind));

  TuneLevel level;
  EXPECT_TRUE(tune_level_from_name("measure", &level));
  EXPECT_EQ(TuneLevel::Measure, level);
  EXPECT_FALSE(tune_level_from_name("MEASURE", &level));
  EXPECT_STREQ("exhaustive", tune_level_name(TuneLevel::Exhaustive));
}

TEST(Facade, AutoEngineResolvesThroughTheFacade) {
  calibrate_host_bandwidth(25.0);  // keep the planner off real STREAM runs
  const idx_t n = 16, m = 16;
  auto x = random_cvec(n * m, 9104);
  cvec want(x.size());
  reference_dft_2d(x.data(), want.data(), n, m, Direction::Forward);
  FftOptions o;
  o.engine = EngineKind::Auto;
  o.tune_level = TuneLevel::Estimate;
  o.threads = 2;
  Fft2d plan(n, m, Direction::Forward, o);
  EXPECT_STRNE("auto", plan.engine_name());
  cvec in = x, out(x.size());
  plan.execute(in.data(), out.data());
  EXPECT_LT(max_err(want, out), fft_tol(static_cast<double>(n * m)));
}

TEST(Facade, Fft2dIsMovable) {
  const idx_t n = 8, m = 16;
  auto x = random_cvec(n * m, 9105);
  cvec want(x.size());
  reference_dft_2d(x.data(), want.data(), n, m, Direction::Forward);

  Fft2d plan(n, m, Direction::Forward, {});
  cvec data = x;
  plan.execute_inplace(data.data());  // allocates the work buffer pre-move

  Fft2d moved(std::move(plan));
  EXPECT_EQ(n, moved.rows());
  EXPECT_EQ(m, moved.cols());
  EXPECT_STREQ("double-buffer", moved.engine_name());
  cvec data2 = x;
  moved.execute_inplace(data2.data());
  EXPECT_LT(max_err(want, data2), fft_tol(static_cast<double>(n * m)));

  Fft2d assigned(4, 8, Direction::Forward, {});
  assigned = std::move(moved);
  EXPECT_EQ(n, assigned.rows());
  cvec in = x, out(x.size());
  assigned.execute(in.data(), out.data());
  EXPECT_LT(max_err(want, out), fft_tol(static_cast<double>(n * m)));
}

TEST(Facade, Fft3dIsMovable) {
  const idx_t k = 4, n = 8, m = 8;
  auto x = random_cvec(k * n * m, 9106);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);

  Fft3d plan(k, n, m, Direction::Forward, {});
  Fft3d moved(std::move(plan));
  EXPECT_EQ(k * n * m, moved.size());
  cvec in = x, out(x.size());
  moved.execute(in.data(), out.data());
  EXPECT_LT(max_err(want, out), fft_tol(static_cast<double>(k * n * m)));

  Fft3d assigned(2, 4, 4, Direction::Forward, {});
  assigned = std::move(moved);
  EXPECT_EQ(m, assigned.dim2());
  cvec data = x;
  assigned.execute_inplace(data.data());
  EXPECT_LT(max_err(want, data), fft_tol(static_cast<double>(k * n * m)));
}

TEST(Facade, ReferenceEngineThroughFacade) {
  const idx_t k = 2, n = 4, m = 4;
  auto x = random_cvec(k * n * m, 9102);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);
  FftOptions o;
  o.engine = EngineKind::Reference;
  Fft3d plan(k, n, m, Direction::Forward, o);
  cvec in = x, out(x.size());
  plan.execute(in.data(), out.data());
  EXPECT_LT(max_err(want, out), 1e-10);
}

TEST(Facade, ReferenceEngineNormalizedInverse) {
  const idx_t n = 4, m = 4;
  auto x = random_cvec(n * m, 9103);
  FftOptions fo;
  fo.engine = EngineKind::Reference;
  auto io = fo;
  io.normalize_inverse = true;
  Fft2d fwd(n, m, Direction::Forward, fo);
  Fft2d inv(n, m, Direction::Inverse, io);
  cvec a = x, b(x.size()), c(x.size());
  fwd.execute(a.data(), b.data());
  inv.execute(b.data(), c.data());
  EXPECT_LT(max_err(x, c), 1e-10);
}

TEST(Facade, StageGeometryHelpers) {
  EXPECT_EQ(4, packet_size_for(64));
  EXPECT_EQ(4, packet_size_for(4));
  EXPECT_EQ(2, packet_size_for(6));
  EXPECT_EQ(1, packet_size_for(7));
  // The SIMD packet, where the plan's auto packet starts, is two
  // cachelines only under AVX-512 dispatch (its batch table runs 8
  // complex lanes per chunk).
  const bool avx512 = kernels::active_isa() == kernels::Isa::Avx512;
  EXPECT_EQ(avx512 ? 8 : 4, resolve_packet_size(0, 64));
  EXPECT_EQ(4, resolve_packet_size(0, 4));  // capped by the fast dim
  EXPECT_EQ(2, resolve_packet_size(2, 64));
  EXPECT_THROW(resolve_packet_size(3, 64), Error);

  EXPECT_EQ(8, rows_per_block(64, 10));  // largest divisor <= 10
  EXPECT_EQ(7, rows_per_block(21, 8));
  EXPECT_EQ(1, rows_per_block(13, 5));
  EXPECT_EQ(64, rows_per_block(64, 1000));
}

TEST(Facade, InvalidPacketOptionThrows) {
  FftOptions o;
  o.packet_elems = 3;  // does not divide m = 8
  EXPECT_THROW(Fft3d(4, 4, 8, Direction::Forward, o), Error);
}

TEST(Facade, OneDimensionalShapesRoute) {
  // 1D shapes route through make_engine like 2D/3D; ranks above 3 are
  // still rejected.
  FftOptions o;
  o.engine = EngineKind::DoubleBuffer;
  o.threads = 1;
  auto engine = make_engine({64}, Direction::Forward, o);
  auto x = random_cvec(64, 9400);
  cvec want(x.size());
  reference_dft_1d(x.data(), want.data(), 64, Direction::Forward);
  cvec in = x, got(x.size());
  engine->execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(64.0));
  EXPECT_THROW(make_engine({2, 2, 2, 2}, Direction::Forward, {}), Error);
}

}  // namespace
}  // namespace bwfft
