// Reference multidimensional DFT — the library's ground truth.
//
// Separable evaluation with the dense O(n^2) 1D DFT in each dimension.
// Independent of every optimised code path (no Stockham, no rotations),
// so agreement between an engine and this oracle is meaningful evidence.
// Intended for test-scale problems.
#pragma once

#include <complex>
#include <vector>

#include "common/aligned.h"
#include "common/types.h"

namespace bwfft {

/// Bins `bins` (row-major flat indices) of the unnormalised DFT of x, an
/// array of shape `dims` (slowest first), each summed directly in long
/// double — an O(N)-per-bin oracle for sizes the dense reference cannot
/// reach, sharing no code with the engines. The sum is separable: the
/// fastest dimension is summed per line, then scaled by the slower
/// dimensions' roots. Every root w_n^r is indexed by r = (j * k) mod n and
/// read from two long-double tables of about sqrt(n) entries each, so no
/// angle is reduced in double and a 2^24-point 1D sum needs no N-entry
/// table.
std::vector<std::complex<long double>> direct_bins(
    const cplx* x, const std::vector<idx_t>& dims,
    const std::vector<idx_t>& bins, Direction dir = Direction::Forward);

/// y = DFT_n x (dense matrix-vector product).
void reference_dft_1d(const cplx* in, cplx* out, idx_t n, Direction dir);

/// 2D transform of an n x m row-major array.
void reference_dft_2d(const cplx* in, cplx* out, idx_t n, idx_t m,
                      Direction dir);

/// 3D transform of a k x n x m row-major cube.
void reference_dft_3d(const cplx* in, cplx* out, idx_t k, idx_t n, idx_t m,
                      Direction dir);

}  // namespace bwfft
