// Accuracy of the multidimensional plans at the benchmark sizes, against
// an oracle that shares no code with them: the separable long-double
// direct sum of fft/reference.h at sampled output bins. The other large
// multidimensional tests compare engines built from the same codelets, so
// a defect common to the kernels would cancel out there.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/rng.h"
#include "fft/double_buffer.h"
#include "fft/engine.h"
#include "fft/reference.h"

namespace bwfft {
namespace {

using ldc = std::complex<long double>;

TEST(MdAccuracy, BenchmarkPlansMatchLongDoubleSumAtSampledBins) {
  // The default 256^3 and 4096^2 plans on four threads (the Private
  // claims) at 8 output bins: each bin's error stays within
  // 16 * eps * log2(N) of ||x||_2, the gate of the 1D four-step's
  // long-double check.
  const std::vector<std::vector<idx_t>> shapes = {{256, 256, 256},
                                                  {4096, 4096}};
  for (const auto& dims : shapes) {
    idx_t n = 1;
    for (idx_t d : dims) n *= d;
    SCOPED_TRACE(::testing::Message() << "rank " << dims.size() << " n " << n);
    cvec x = random_cvec(n, 9600 + dims.size());
    std::vector<idx_t> bins = {0, 1, n / 2, n - 1};
    std::mt19937_64 rng(9601);
    std::uniform_int_distribution<idx_t> pick(0, n - 1);
    while (bins.size() < 8) bins.push_back(pick(rng));
    const std::vector<ldc> want = direct_bins(x.data(), dims, bins);
    long double norm2 = 0;
    for (const cplx& v : x) norm2 += std::norm(ldc(v.real(), v.imag()));
    const double gate = 16.0 * std::numeric_limits<double>::epsilon() *
                        std::log2(static_cast<double>(n)) *
                        static_cast<double>(std::sqrt(norm2));

    FftOptions o;
    o.threads = 4;
    auto engine = make_engine(dims, Direction::Forward, o);
    const auto* db = dynamic_cast<const DoubleBufferEngine*>(engine.get());
    ASSERT_NE(nullptr, db);
    EXPECT_EQ(Schedule::Private, db->plan().schedule());
    cvec got(x.size());
    engine->execute(x.data(), got.data());  // x is dead after the sums
    for (std::size_t i = 0; i < bins.size(); ++i) {
      const cplx g = got[static_cast<std::size_t>(bins[i])];
      const double err =
          static_cast<double>(std::abs(ldc(g.real(), g.imag()) - want[i]));
      EXPECT_LE(err, gate) << "bin " << bins[i];
    }
  }
}

}  // namespace
}  // namespace bwfft
