// Stage geometry shared by the rotated-stage engines.
//
// Every stage of the paper's 2D/3D decomposition (§III-A) has the same
// shape: the current array is a grid of `a*b` rows, each row holding one
// batch of `lanes`-wide pencils of length `fft_len` contiguously
// (row_elems = fft_len*lanes = cp mu-packets), and after the in-place
// batch FFT the rows are scattered through the blocked rotation
// K_{cp}^{a,b} (x) I_mu: packet p of row r lands at packet index p*a*b + r
// of the output array. Three chained stages return a 3D cube to natural
// order; two chained stages return a 2D array to natural order.
#pragma once

#include <array>

#include "common/error.h"
#include "common/types.h"
#include "kernels/isa.h"
#include "kernels/twiddle.h"

namespace bwfft {

/// Rows per transform call on contiguous-pencil stages: the widest
/// codelet chunk (AVX-512's 8 lanes); narrower ISAs gather twice a run.
constexpr idx_t kPencilRun = 8;

struct StageGeometry {
  idx_t a = 1;       ///< slow rotation-grid dimension
  idx_t b = 1;       ///< mid rotation-grid dimension
  idx_t fft_len = 1; ///< pencil length L of this stage
  idx_t lanes = 1;   ///< SIMD lanes per pencil element (1 or mu)
  idx_t mu = 1;      ///< rotation packet size in elements

  idx_t row_elems() const { return fft_len * lanes; }
  idx_t cp() const { return row_elems() / mu; }
  idx_t rows() const { return a * b; }
  idx_t total() const { return rows() * row_elems(); }
  /// Rows per apply_lanes + rotate_store_rows call: contiguous-pencil
  /// rows (lanes = 1) go in runs of kPencilRun so Fft1d can gather them
  /// into SIMD-width tiles; a lane row already fills the SIMD width.
  idx_t run_rows() const { return lanes == 1 ? kPencilRun : 1; }

  bool operator==(const StageGeometry&) const = default;
};

/// Largest packet size usable for the fast dimension m: a power of two
/// dividing m, at most `cap` (by default the cacheline packet kMu).
inline idx_t packet_size_for(idx_t m, idx_t cap = kMu) {
  idx_t mu = 1;
  while (mu < cap && (m % (2 * mu)) == 0) mu *= 2;
  return mu;
}

/// The SIMD packet for the fast dimension m: a requested size is checked
/// (it must divide m) and returned; 0 asks for the widest packet the
/// dispatched batch tables fill in one chunk — two cachelines (mu = 8)
/// under AVX-512, whose tables run 8 complex lanes, one cacheline (kMu)
/// otherwise. make_stage_plan widens the auto packet from here (§III-A's
/// "one cacheline" is the minimum store run, not the best one).
inline idx_t resolve_packet_size(idx_t requested, idx_t m) {
  if (requested <= 0) {
    const bool avx512 = kernels::active_isa() == kernels::Isa::Avx512;
    return packet_size_for(m, avx512 ? 2 * kMu : kMu);
  }
  BWFFT_CHECK(m % requested == 0, "packet_elems must divide the fast dim");
  return requested;
}

/// Stage chain for the 3D cube k x n x m (paper §III-A):
///  stage 0: rows (z,y), pencils along x;   layout out: [xp][z][y][xl]
///  stage 1: rows (xp,z), pencils along y;  layout out: [y][xp][z][xl]
///  stage 2: rows (y,xp), pencils along z;  layout out: [z][y][x] (natural)
inline std::array<StageGeometry, 3> make_3d_stages(idx_t k, idx_t n, idx_t m,
                                                   idx_t mu) {
  BWFFT_CHECK(m % mu == 0, "packet size must divide m");
  return {StageGeometry{k, n, m, 1, mu},
          StageGeometry{m / mu, k, n, mu, mu},
          StageGeometry{n, m / mu, k, mu, mu}};
}

/// Stage chain for the 2D array n x m:
///  stage 0: rows y, pencils along x;   layout out: [xp][y][xl]
///  stage 1: rows xp, pencils along y;  layout out: [y][x] (natural)
inline std::array<StageGeometry, 2> make_2d_stages(idx_t n, idx_t m,
                                                   idx_t mu) {
  BWFFT_CHECK(m % mu == 0, "packet size must divide m");
  return {StageGeometry{n, 1, m, 1, mu}, StageGeometry{m / mu, 1, n, mu, mu}};
}

/// Largest divisor of `rows` that is <= budget (>= 1): the number of rows
/// per pipeline block, sized so a block fits the shared buffer half.
inline idx_t rows_per_block(idx_t rows, idx_t budget) {
  BWFFT_CHECK(budget >= 1, "block budget must hold at least one row");
  for (idx_t d = std::min(rows, budget); d >= 1; --d) {
    if (rows % d == 0) return d;
  }
  return 1;
}

}  // namespace bwfft
