// 1D FFT engine.
//
// One kernel path: every size with a radix schedule (below) runs the
// Stockham autosort sweep over the batched split-format codelets
// (kernels/batch.h), SIMD-dispatched at run time (scalar / AVX2+FMA /
// AVX-512 from cpuid). Each level is one twiddled radix-r DIF codelet,
// DFT_r (x) I_lanes on rows of the tile — the paper's DFT_n (x) I_mu
// kernel (§III-D). Every other size runs Bluestein's chirp-z algorithm
// on top of a power-of-two sweep.
//
//  * apply_lanes(data, lanes, count) — the compute kernel of the
//    double-buffered stages: `count` tiles, each holding an n x lanes
//    row-major block, are transformed along the n dimension in place.
//    This is the SPL construct I_count (x) DFT_n (x) I_lanes. With
//    lanes = mu (one cacheline) every butterfly streams whole cachelines,
//    which is the paper's "cache aware FFT" (§IV-A).
//
//  * apply_batch(data, count) — lanes = 1 special case (I_count (x) DFT_n)
//    on contiguous pencils: the stage-0 kernel of the multi-D engines. (The
//    four-step 1D row pass does not use it: it transposes R rows into
//    an n2 x R tile and sweeps that at lanes = R, a rotated lane stage
//    with mu = R, whose fused claims stream the last level below.) A lone
//    pencil's first level has row stride 1, i.e. one lane per codelet
//    call, so batches are instead gathered G pencils at a time (G = the
//    dispatched codelet chunk width: 8 AVX-512, 4 AVX2) into an n x G
//    tile — L^{nG}_G, the short-vector rewrite of I_G (x) DFT_n — run at
//    lanes = G and scattered back, both copies through the table's SIMD
//    block transpose. The gather needs count >= G and n*G <= 32768
//    elements (tile plus Stockham scratch within 1 MiB of per-thread
//    scratch); a remainder of two or more pencils is gathered at its own
//    width. Scalar dispatch and longer pencils keep the per-pencil path.
//
//  * apply_lanes_from(in, out, lanes, count, dst) — apply_lanes fused
//    with a stage's data movement: the first Stockham level (or the
//    pencil gather) reads the tiles straight from `in`, and with a
//    RotatedDst the last level (or the pencil scatter) streams the
//    result to its rotated place instead of writing a tile.
//
//  * apply_strided_inplace(data, stride) — a single pencil transformed in
//    place at an element stride, the access pattern of the *naive* pencil
//    baseline the paper criticises. Iterative DIT with bit-reversal; no
//    buffering, so large strides hit main memory hard — deliberately.
//    Power-of-two sizes only.
#pragma once

#include <memory>
#include <vector>

#include "common/aligned.h"
#include "common/types.h"
#include "kernels/batch.h"
#include "kernels/twiddle.h"

namespace bwfft {

/// Radices of the Stockham schedule of an n-point transform, first level
/// first: one level of radix n for 2 <= n <= 16, else greedy over
/// {16, 8, 7, 6, 5, 4, 3, 2}. For a power of two that is radix-16 levels
/// then one 8/4/2 level. Empty for n = 1 (no level) and for sizes no chain
/// reaches (a prime factor above 7 and n > 16), which run Bluestein.
std::vector<idx_t> stockham_radices(idx_t n);

/// True when an n-point Fft1d runs the Stockham sweep (n = 1 included):
/// apply_lanes_strided accepts exactly these sizes.
bool has_stockham_schedule(idx_t n);

/// A stage's rotated destination (K (x) I_mu, layout/rotate.h): packet j
/// (elements [j*mu, (j+1)*mu)) of grid row r lands at
/// out + (j * plane + r) * mu, and tile t of a call is grid row row0 + t.
struct RotatedDst {
  cplx* out = nullptr;
  idx_t plane = 1;  ///< rows of the rotation grid (a*b)
  idx_t row0 = 0;
  idx_t mu = 1;
};

class Fft1d {
 public:
  /// Plan a transform of size n (n >= 1, any n) in the given direction.
  /// Planning precomputes all twiddles; apply* methods are const and
  /// thread-safe (scratch is per-thread). `isa` is the instruction-set
  /// REQUEST for the batched codelets: the default Auto follows the
  /// kernels/isa.h decision path (env override, cpuid) at apply time, so
  /// a plan built once still honours later BWFFT_ISA / force_scalar
  /// toggles; a concrete request pins the plan (clamped to the host).
  Fft1d(idx_t n, Direction dir, kernels::Isa isa = kernels::Isa::Auto);

  idx_t size() const { return n_; }
  Direction direction() const { return dir_; }
  kernels::Isa isa() const { return isa_; }

  /// In-place transform of `count` tiles, each an n x lanes row-major
  /// block: element (j,l) of tile t lives at data[t*n*lanes + j*lanes + l].
  void apply_lanes(cplx* data, idx_t lanes, idx_t count) const;

  /// apply_lanes reading tile t from in + t*n*lanes and writing it to
  /// out + t*n*lanes (in == out is apply_lanes). The first Stockham
  /// level, or the gather of contiguous pencils, reads `in` directly, so
  /// no copy precedes the sweep. With `dst` the result is not written to
  /// `out`: the last level NT-stores each lane row j of tile t to its
  /// rotated place (lanes = mu), or each mu x G block of a gathered tile
  /// is transposed and streamed as one G*mu run (lanes = 1); `out` then
  /// only holds intermediate levels. `dst` needs streams_rotated(); call
  /// stream_fence() before publishing it.
  void apply_lanes_from(const cplx* in, cplx* out, idx_t lanes, idx_t count,
                        const RotatedDst* dst = nullptr) const;

  /// True when apply_lanes_from can stream `count` tiles of `lanes` lanes
  /// into `dst` under the current dispatch: the table has streaming
  /// codelets, dst.out is aligned to their width, and either the pencils
  /// are contiguous and gathered (lanes = 1) or a lane row is whole
  /// vector chunks (lanes = dst.mu, a multiple of the table width).
  bool streams_rotated(idx_t lanes, idx_t count, const RotatedDst& dst) const;

  /// In-place transform of `count` contiguous pencils of length n.
  void apply_batch(cplx* data, idx_t count) const {
    apply_lanes(data, 1, count);
  }

  /// Out-of-place transform of one contiguous pencil (in != out).
  void apply_oop(const cplx* in, cplx* out) const;

  /// In-place transform of one n x lanes tile whose rows sit at
  /// `row_stride` elements (element (j,l) at base[j*row_stride + l],
  /// lanes <= row_stride). The tile is gathered into cache-resident
  /// scratch, transformed, and scattered back — the buffering approach of
  /// Frigo et al. [11] used by the slab–pencil baseline's z stage.
  /// Sizes with a Stockham schedule only.
  void apply_lanes_strided(cplx* base, idx_t lanes, idx_t row_stride) const;

  /// In-place transform of one pencil whose elements sit at `stride`
  /// (stride >= 1). This path intentionally keeps the strided access
  /// pattern (naive baseline); power-of-two only.
  void apply_strided_inplace(cplx* data, idx_t stride) const;

  /// Multiply `count` elements by 1/n — the conventional inverse scaling,
  /// kept separate so engines can fold it into whichever pass they like.
  void scale_inverse(cplx* data, idx_t count) const;

 private:
  /// The sweep of one n x lanes tile: the first level reads `in`, the
  /// result lands in `tile` (in == tile: in place), or with `rot` the
  /// last level streams tile row j to rot + j * rot_stride.
  void stockham_tile(const cplx* in, cplx* tile, cplx* scratch, idx_t lanes,
                     const kernels::BatchTable& bt, cplx* rot = nullptr,
                     idx_t rot_stride = 0) const;
  /// True when `count` contiguous pencils take the gathered path.
  bool gathers(idx_t count, const kernels::BatchTable& bt) const;
  void gathered_batch(const cplx* in, cplx* out, idx_t count,
                      const kernels::BatchTable& bt,
                      const RotatedDst* dst) const;
  void bluestein(cplx* data) const;
  void bluestein_lanes(cplx* data, idx_t lanes, idx_t count) const;

  /// One Stockham DIF level of radix r (stockham_radices): the greedy
  /// high-radix schedule minimises passes over the cached tile — n = 128
  /// takes two levels where a radix-4/2 schedule takes four. Twiddles
  /// are laid out per output packet p: tw[(r-1)*p + (k-1)] = w_len^{p*k},
  /// exactly the `tw` row the batched codelet ABI consumes; packet p = 0
  /// has unit twiddles and is passed tw = nullptr.
  struct StockhamLevel {
    idx_t radix;
    cvec tw;
  };

  idx_t n_;
  Direction dir_;
  kernels::Isa isa_;                // dispatch request (Auto = decide late)
  std::vector<StockhamLevel> slevels_;  // Stockham schedule
  cvec dit_tw_;                     // DIT twiddles w_n^j, j < n/2 (pow2)
  std::vector<idx_t> bitrev_;       // bit-reversal permutation (pow2)

  // Bluestein state (sizes without a Stockham schedule).
  idx_t conv_n_ = 0;                // power-of-two convolution length
  cvec chirp_;                      // c[j] = w^{j^2/2}: conjugate chirp
  cvec chirp_fft_;                  // FFT of the zero-padded chirp kernel
  std::shared_ptr<const Fft1d> conv_fwd_;
  std::shared_ptr<const Fft1d> conv_inv_;
};

}  // namespace bwfft
