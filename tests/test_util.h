// Shared helpers for the bwfft test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>

#include "common/aligned.h"
#include "common/rng.h"
#include "common/types.h"
#include "fft/reference.h"

namespace bwfft::test {

/// Max |a-b| over two complex vectors (sizes must match).
inline double max_err(const cvec& a, const cvec& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

/// Error tolerance scaled to transform size: FFT round-off grows ~log n
/// and values grow ~sqrt(n) for unit-magnitude inputs.
inline double fft_tol(double n_total) {
  return 1e-12 * std::max(1.0, std::sqrt(n_total) * std::log2(n_total + 1));
}

/// Shift-theorem oracle for batch tests: pencil p of a batch is the base
/// pencil delayed cyclically by p samples, so its DFT is the base's dense
/// reference DFT times the ramp w^{pk}. Every pencil differs, so a pencil
/// or lane mix-up shows, yet one O(n^2) reference serves the whole batch.
class ShiftedBatch {
 public:
  ShiftedBatch(idx_t n, Direction dir, std::uint64_t seed)
      : n_(n), base_(random_cvec(n, seed)), want_(base_.size()),
        ramp_(base_.size()) {
    reference_dft_1d(base_.data(), want_.data(), n, dir);
    const double sign = dir == Direction::Forward ? -1.0 : 1.0;
    for (idx_t k = 0; k < n; ++k) {
      ramp_[static_cast<std::size_t>(k)] =
          std::polar(1.0, sign * 2.0 * std::numbers::pi *
                              static_cast<double>(k) / static_cast<double>(n));
    }
  }

  /// Input of pencil p, written at element stride `stride`.
  void fill(cplx* pencil, idx_t p, idx_t stride = 1) const {
    for (idx_t j = 0; j < n_; ++j) {
      pencil[j * stride] = base_[static_cast<std::size_t>(((j - p) % n_ + n_) % n_)];
    }
  }

  /// Max error of pencil p's output, read at element stride `stride`.
  double error(const cplx* got, idx_t p, idx_t stride = 1) const {
    double worst = 0.0;
    for (idx_t k = 0; k < n_; ++k) {
      const cplx want = want_[static_cast<std::size_t>(k)] *
                        ramp_[static_cast<std::size_t>((p % n_) * k % n_)];
      worst = std::max(worst, std::abs(got[k * stride] - want));
    }
    return worst;
  }

 private:
  idx_t n_;
  cvec base_, want_, ramp_;
};

}  // namespace bwfft::test
