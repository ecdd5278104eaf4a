#include "kernels/twiddle.h"

#include <cmath>
#include <numbers>

namespace bwfft {

cplx root_of_unity(idx_t n, idx_t p, Direction dir) {
  const double ang = sign_of(dir) * 2.0 * std::numbers::pi_v<double> *
                     static_cast<double>(p % n) / static_cast<double>(n);
  return cplx(std::cos(ang), std::sin(ang));
}

cvec root_table(idx_t n, idx_t count, Direction dir) {
  cvec t(static_cast<std::size_t>(count));
  for (idx_t p = 0; p < count; ++p) t[static_cast<std::size_t>(p)] = root_of_unity(n, p, dir);
  return t;
}

}  // namespace bwfft
