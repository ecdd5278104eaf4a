#include "kernels/codelets.h"

#include <array>
#include <cmath>
#include <numbers>

#include "common/error.h"

namespace bwfft::codelets {

namespace {

constexpr double kPi = std::numbers::pi_v<double>;

}  // namespace

const TrigTable& dft_trig(idx_t n) {
  BWFFT_ASSERT(n >= 2 && n <= kMaxCodelet);
  // The angle is evaluated as ((2.0 * pi) * j) / n — the same expression
  // shapes the unrolled codelets historically used (2*pi/5, 4*pi/5,
  // 2*pi*(j+1)/7, 2*pi*k/16), so hoisting the constants into this table
  // is bit-exact against the per-call computation it replaced.
  static const std::array<TrigTable, kMaxCodelet + 1> tables = [] {
    std::array<TrigTable, kMaxCodelet + 1> t{};
    for (idx_t n_ = 2; n_ <= kMaxCodelet; ++n_) {
      for (idx_t j = 0; j < n_; ++j) {
        const double ang = 2.0 * kPi * static_cast<double>(j) /
                           static_cast<double>(n_);
        t[n_].c[j] = std::cos(ang);
        t[n_].s[j] = std::sin(ang);
      }
    }
    return t;
  }();
  return tables[n];
}

}  // namespace bwfft::codelets
