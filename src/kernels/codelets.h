// Shared trig constants of the small-DFT codelets.
//
// The batched SIMD codelets (kernels/batch_gen.h) cover every size
// 2..kMaxCodelet; each instantiation reads its constants from one table
// per order, so every ISA variant of a given size agrees on them
// bit-for-bit.
#pragma once

#include "common/types.h"

namespace bwfft::codelets {

/// Largest size for which a codelet exists.
inline constexpr idx_t kMaxCodelet = 16;

/// Forward-convention roots of unity of order n: c[j] = cos(2*pi*j/n),
/// s[j] = sin(2*pi*j/n) for j < n, computed once per process. The forward
/// root is w_n^j = (c[j], -s[j]); the inverse root is its conjugate.
struct TrigTable {
  double c[kMaxCodelet];
  double s[kMaxCodelet];
};

/// Shared trig constants for order n (2 <= n <= kMaxCodelet), built on
/// first use.
const TrigTable& dft_trig(idx_t n);

}  // namespace bwfft::codelets
