// Tests for the batched split-format codelets (kernels/batch.h): every
// size 2..16 under every compiled-in ISA variant, both directions, unit
// and non-unit row strides, full-vector and tail lane counts, twiddled
// and plain, in-place and out-of-place — all against a naive
// root_of_unity reference DFT. Plus the runtime dispatch machinery
// (override / env clamping, obs counters) and the nt_copy cascade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "kernels/batch.h"
#include "kernels/codelets.h"
#include "kernels/isa.h"
#include "kernels/twiddle.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"
#include "test_util.h"

namespace bwfft {
namespace {

using kernels::Isa;

/// Naive ABI reference: out[k*os + l] = sum_j w_n^{jk} in[j*is + l],
/// then rows k >= 1 scaled by tw[k-1] when tw is given.
void reference_batch(const cplx* in, idx_t is, cplx* out, idx_t os, idx_t n,
                     idx_t lanes, const cplx* tw, Direction dir) {
  for (idx_t l = 0; l < lanes; ++l) {
    for (idx_t k = 0; k < n; ++k) {
      cplx acc(0.0, 0.0);
      for (idx_t j = 0; j < n; ++j) {
        acc += root_of_unity(n, (j * k) % n, dir) * in[j * is + l];
      }
      if (tw != nullptr && k >= 1) acc *= tw[k - 1];
      out[k * os + l] = acc;
    }
  }
}

std::vector<Isa> compiled_isas() {
  std::vector<Isa> out = {Isa::Scalar};
  if (kernels::isa_available(Isa::Avx2) &&
      kernels::detail::avx2_table() != nullptr) {
    out.push_back(Isa::Avx2);
  }
  if (kernels::isa_available(Isa::Avx512) &&
      kernels::detail::avx512_table() != nullptr) {
    out.push_back(Isa::Avx512);
  }
  return out;
}

/// Max |a-b| over the written rows only (holes between strided rows are
/// checked separately).
double run_and_compare(kernels::BatchFn fn, idx_t n, idx_t is, idx_t os,
                      idx_t lanes, const cplx* tw, Direction dir,
                      unsigned seed) {
  auto in = random_cvec(n * is, seed);
  cvec got(static_cast<std::size_t>(n * os), cplx(-7.0, -7.0));
  cvec want = got;
  fn(in.data(), is, got.data(), os, lanes, tw, dir);
  reference_batch(in.data(), is, want.data(), os, n, lanes, tw, dir);
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    worst = std::max(worst, std::abs(want[i] - got[i]));
  }
  return worst;
}

class BatchCodelets : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (std::find(compiled_isas().begin(), compiled_isas().end(), GetParam()) ==
        compiled_isas().end()) {
      GTEST_SKIP() << "ISA not available on this host/build";
    }
  }
};

TEST_P(BatchCodelets, AllSizesUnitStride) {
  const auto& bt = kernels::batch_table(GetParam());
  for (idx_t n = 2; n <= codelets::kMaxCodelet; ++n) {
    ASSERT_NE(nullptr, bt.fn[n]) << "n=" << n;
    for (Direction dir : {Direction::Forward, Direction::Inverse}) {
      // Lane counts straddling both SIMD widths: scalar tail only, one
      // full AVX2 vector, AVX2 + tail, one full AVX-512 vector, and a
      // mixed 8+4+tail count.
      for (idx_t lanes : {idx_t{1}, idx_t{3}, idx_t{4}, idx_t{5}, idx_t{8},
                          idx_t{13}}) {
        EXPECT_LT(run_and_compare(bt.fn[n], n, lanes, lanes, lanes, nullptr,
                                  dir, static_cast<unsigned>(1000 + 17 * n +
                                                             lanes)),
                  1e-12)
            << "n=" << n << " lanes=" << lanes << " dir="
            << (dir == Direction::Forward ? "fwd" : "inv");
      }
    }
  }
}

TEST_P(BatchCodelets, NonUnitRowStrides) {
  // Satellite 3: every codelet at is != os, both > lanes, both
  // directions. Holes between rows must stay untouched.
  const auto& bt = kernels::batch_table(GetParam());
  const idx_t lanes = 5;
  const idx_t is = lanes + 3, os = lanes + 2;
  for (idx_t n = 2; n <= codelets::kMaxCodelet; ++n) {
    for (Direction dir : {Direction::Forward, Direction::Inverse}) {
      auto in = random_cvec(n * is, static_cast<unsigned>(2000 + n));
      cvec got(static_cast<std::size_t>(n * os), cplx(-7.0, -7.0));
      cvec want = got;
      bt.fn[n](in.data(), is, got.data(), os, lanes, nullptr, dir);
      reference_batch(in.data(), is, want.data(), os, n, lanes, nullptr, dir);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_LT(std::abs(want[i] - got[i]), 1e-12)
            << "n=" << n << " i=" << i;
      }
      // Hole check: elements past `lanes` in each row keep the sentinel.
      for (idx_t k = 0; k < n; ++k) {
        for (idx_t l = lanes; l < os; ++l) {
          EXPECT_EQ(cplx(-7.0, -7.0), got[static_cast<std::size_t>(k * os + l)])
              << "n=" << n << " row=" << k << " hole=" << l;
        }
      }
    }
  }
}

TEST_P(BatchCodelets, TwiddledRows) {
  // tw scaling is the DIF Stockham step: rows k >= 1 multiplied by
  // tw[k-1]. Use genuine level twiddles so the values are representative.
  const auto& bt = kernels::batch_table(GetParam());
  const idx_t lanes = 9;
  for (idx_t n : {idx_t{2}, idx_t{3}, idx_t{4}, idx_t{5}, idx_t{7}, idx_t{8},
                  idx_t{16}}) {
    for (Direction dir : {Direction::Forward, Direction::Inverse}) {
      cvec tw(static_cast<std::size_t>(n - 1));
      for (idx_t k = 1; k < n; ++k) {
        tw[static_cast<std::size_t>(k - 1)] =
            root_of_unity(4 * n, 3 * k % (4 * n), dir);
      }
      EXPECT_LT(run_and_compare(bt.fn[n], n, lanes, lanes, lanes, tw.data(),
                                dir, static_cast<unsigned>(3000 + n)),
                1e-12)
          << "n=" << n;
    }
  }
}

TEST_P(BatchCodelets, InPlaceWhenStridesMatch) {
  // The ABI allows out == in iff is == os.
  const auto& bt = kernels::batch_table(GetParam());
  const idx_t lanes = 11;
  for (idx_t n = 2; n <= codelets::kMaxCodelet; ++n) {
    for (Direction dir : {Direction::Forward, Direction::Inverse}) {
      auto x = random_cvec(n * lanes, static_cast<unsigned>(4000 + n));
      cvec want(x.size());
      reference_batch(x.data(), lanes, want.data(), lanes, n, lanes, nullptr,
                      dir);
      bt.fn[n](x.data(), lanes, x.data(), lanes, lanes, nullptr, dir);
      EXPECT_LT(test::max_err(want, x), 1e-12) << "n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, BatchCodelets,
                         ::testing::Values(Isa::Scalar, Isa::Avx2,
                                           Isa::Avx512),
                         [](const auto& info) {
                           return kernels::isa_name(info.param);
                         });

TEST(BatchDispatch, LookupNeverNullInRange) {
  for (Isa isa : compiled_isas()) {
    for (idx_t n = 2; n <= codelets::kMaxCodelet; ++n) {
      EXPECT_NE(nullptr, kernels::batch_lookup(n, isa))
          << kernels::isa_name(isa) << " n=" << n;
    }
  }
  EXPECT_NE(nullptr, kernels::batch_lookup(16, Isa::Auto));
}

TEST(BatchDispatch, OverrideClampsAndForcedScalarWins) {
  // Requesting wider than the host clamps down; force_scalar beats all.
  kernels::set_isa_override(Isa::Avx512);
  const Isa clamped = kernels::active_isa();
  EXPECT_TRUE(kernels::isa_available(clamped));
  kernels::set_isa_override(Isa::Auto);

  kernels::set_force_scalar(true);
  EXPECT_EQ(Isa::Scalar, kernels::active_isa());
  EXPECT_EQ(Isa::Scalar, kernels::resolve_isa(Isa::Avx512));
  kernels::set_force_scalar(false);
}

TEST(BatchDispatch, DispatchBumpsPerIsaCounter) {
#if !defined(BWFFT_OBS)
  GTEST_SKIP() << "observability disabled";
#else
  kernels::set_isa_override(Isa::Scalar);
  obs::reset_counters();
  (void)kernels::dispatch_batch_table(Isa::Auto);
  (void)kernels::dispatch_batch_table(Isa::Auto);
  EXPECT_EQ(2u, obs::counter_total(obs::Counter::BatchScalar));
  kernels::set_isa_override(Isa::Auto);
#endif
}

TEST(BatchDispatch, ReportNamesActiveIsa) {
  const std::string report = kernels::dispatch_report();
  EXPECT_NE(std::string::npos, report.find("active"));
  EXPECT_NE(std::string::npos,
            report.find(kernels::isa_name(kernels::active_isa())));
}

TEST(NtCopy, CopiesExactlyAtEveryCountAndIsa) {
  // Odd counts, sub-vector counts, and a large buffer; 64-byte-aligned
  // src/dst (the allocator's guarantee at call sites).
  for (Isa isa : compiled_isas()) {
    for (idx_t count : {idx_t{1}, idx_t{2}, idx_t{3}, idx_t{4}, idx_t{7},
                        idx_t{8}, idx_t{64}, idx_t{1000}, idx_t{1001}}) {
      cvec src(static_cast<std::size_t>(count));
      cvec dst(static_cast<std::size_t>(count), cplx(9.0, 9.0));
      for (idx_t i = 0; i < count; ++i) {
        src[static_cast<std::size_t>(i)] =
            cplx(static_cast<double>(i), -static_cast<double>(i));
      }
      const idx_t nt = kernels::nt_copy(dst.data(), src.data(), count, isa);
      ASSERT_GE(nt, 0) << kernels::isa_name(isa) << " count=" << count;
      // Whole-32-byte-equivalent accounting: count complex = count*16 B.
      EXPECT_EQ(count * 16 / 32, nt);
      stream_fence();
      EXPECT_EQ(0, std::memcmp(dst.data(), src.data(),
                               static_cast<std::size_t>(count) * sizeof(cplx)));
    }
  }
}

TEST(NtCopy, MisalignedDestinationDeclines) {
  cvec buf(16);
  cvec src(4);
  // Offset by 8 bytes: no 16-byte-aligned streaming store can hit it.
  cplx* dst = reinterpret_cast<cplx*>(reinterpret_cast<double*>(buf.data()) + 1);
  EXPECT_EQ(-1, kernels::nt_copy(dst, src.data(), 4));
}

TEST(BatchTranspose, MatchesElementwiseAtEveryShapeAndIsa) {
  // Whole register blocks (4x4, 2x2), ragged edges on either side, and
  // padded strides: out[c*os + r] = in[r*is + c], nothing else written.
  const cplx kUntouched(9.0, -9.0);
  for (Isa isa : compiled_isas()) {
    const kernels::BatchTable& bt = kernels::batch_table(isa);
    ASSERT_NE(bt.transpose, nullptr) << kernels::isa_name(isa);
    for (auto [rows, cols] : {std::pair<idx_t, idx_t>{8, 256}, {256, 8},
                              {4, 4}, {3, 5}, {7, 64}, {64, 7}, {2, 2},
                              {1, 1}, {5, 1}}) {
      const idx_t is = cols + 3, os = rows + 1;
      const cvec in = random_cvec(rows * is, 40 + rows * cols);
      cvec out(static_cast<std::size_t>(cols * os), kUntouched);
      bt.transpose(in.data(), is, out.data(), os, rows, cols);
      for (idx_t c = 0; c < cols; ++c) {
        for (idx_t r = 0; r < os; ++r) {
          const cplx want = r < rows ? in[static_cast<std::size_t>(r * is + c)]
                                     : kUntouched;
          ASSERT_EQ(want, out[static_cast<std::size_t>(c * os + r)])
              << kernels::isa_name(isa) << " " << rows << "x" << cols
              << " at (" << r << "," << c << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace bwfft
