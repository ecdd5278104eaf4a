// Twiddle-factor table generation.
//
// Twiddles are precomputed at plan time (never inside timed regions) and
// stored in aligned arrays so the SIMD kernels can broadcast from them.
#pragma once

#include "common/aligned.h"
#include "common/types.h"

namespace bwfft {

/// w_n^p for the given direction: exp(sign * 2 pi i p / n).
cplx root_of_unity(idx_t n, idx_t p, Direction dir);

/// Table of the first `count` powers w_n^0 .. w_n^{count-1}.
cvec root_table(idx_t n, idx_t count, Direction dir);

/// True if n is a power of two (n >= 1).
constexpr bool is_pow2(idx_t n) { return n > 0 && (n & (n - 1)) == 0; }

/// floor(log2(n)) for n >= 1.
constexpr int log2_floor(idx_t n) {
  int l = 0;
  while (n > 1) {
    n >>= 1;
    ++l;
  }
  return l;
}

}  // namespace bwfft
