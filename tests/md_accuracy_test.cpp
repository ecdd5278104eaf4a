// Accuracy of the multidimensional plans at the benchmark sizes, against
// an oracle that shares no code with them: a separable direct sum in long
// double at sampled output bins. The other large multidimensional tests
// compare engines built from the same codelets, so a defect common to the
// kernels would cancel out there.
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

namespace bwfft {
namespace {

using ldc = std::complex<long double>;

/// exp(-2 pi i r / n) for r < n, in long double.
std::vector<ldc> root_table(idx_t n) {
  const long double two_pi = 6.283185307179586476925286766559L;
  std::vector<ldc> t(static_cast<std::size_t>(n));
  for (idx_t r = 0; r < n; ++r) {
    const long double a =
        -two_pi * static_cast<long double>(r) / static_cast<long double>(n);
    t[static_cast<std::size_t>(r)] = {std::cos(a), std::sin(a)};
  }
  return t;
}

/// Forward DFT bins (row-major flat indices) of x with dims `dims`,
/// summed directly in long double. The sum is separable: the fastest
/// dimension is summed per line, then scaled by the slower dimensions'
/// roots, each indexed by (j * k) mod n so no angle is reduced in double.
std::vector<ldc> direct_bins(const cvec& x, const std::vector<idx_t>& dims,
                             const std::vector<idx_t>& bins) {
  std::vector<std::vector<ldc>> roots;
  for (idx_t d : dims) roots.push_back(root_table(d));
  const idx_t m = dims.back();
  const idx_t lines = static_cast<idx_t>(x.size()) / m;
  std::vector<ldc> out;
  for (idx_t bin : bins) {
    // Bin coordinates, slowest first.
    std::vector<idx_t> k(dims.size());
    idx_t rest = bin;
    for (std::size_t d = dims.size(); d-- > 0;) {
      k[d] = rest % dims[d];
      rest /= dims[d];
    }
    const std::vector<ldc>& fast = roots.back();
    long double re = 0, im = 0;
    for (idx_t line = 0; line < lines; ++line) {
      long double lre = 0, lim = 0;
      const cplx* row = x.data() + line * m;
      for (idx_t c = 0; c < m; ++c) {
        const ldc w = fast[static_cast<std::size_t>((c * k.back()) % m)];
        const long double xr = row[c].real(), xi = row[c].imag();
        lre += xr * w.real() - xi * w.imag();
        lim += xr * w.imag() + xi * w.real();
      }
      // The line's slower coordinates, fastest of them first.
      ldc w = 1;
      idx_t l = line;
      for (std::size_t d = dims.size() - 1; d-- > 0;) {
        const idx_t j = l % dims[d];
        l /= dims[d];
        w *= roots[d][static_cast<std::size_t>((j * k[d]) % dims[d])];
      }
      re += lre * w.real() - lim * w.imag();
      im += lre * w.imag() + lim * w.real();
    }
    out.emplace_back(re, im);
  }
  return out;
}

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
    const std::vector<ldc> want = direct_bins(x, dims, bins);
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
