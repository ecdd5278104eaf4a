// Tuned four-step facade for out-of-LLC 1D transforms.
//
// The paper's §V leaves huge 1D FFTs open: once a single transform
// outgrows the shared cache-resident buffer, the multidimensional
// pipeline has nothing to tile. Fft1dLarge closes the gap by viewing the
// 1D problem as a tiled 2D one — the SPL Cooley–Tukey rewrite the spl
// layer expresses as spl::dft1d_four_step(n1, n2, dir):
//
//   DFT_{n1 n2} = L_{n2}^{n1 n2} (I_{n1} (x) DFT_{n2}) D_{n2}^{n1 n2}
//                 (DFT_{n1} (x) I_{n2})
//
// run as two tiled, software-pipelined passes through the load/compute/
// store double buffer (pipeline/pipeline.h) on a pinned ThreadTeam:
//
//   column pass  (DFT_{n1} (x) I_{n2}), then D:  groups of up to 32
//       contiguous columns are gathered row by row (each strided read
//       moves a ~1 KiB run), transformed with the wide-lane kernel,
//       scaled by the twiddle diagonal while cached (all columns step a
//       geometric recurrence together over contiguous rows, exactly
//       refreshed every kTwiddleRefresh rows to bound drift), and
//       streamed back as the same contiguous runs;
//   row pass     (I_{n1} (x) DFT_{n2}), then L:  contiguous rows are
//       streamed in, transformed with the batched codelets, and scattered
//       through the final stride permutation — per output column an
//       in-cache gather over up to 128 tile rows feeds one contiguous
//       ~2 KiB NT store.
//
// A transform larger than the LLC therefore streams exactly twice
// through DRAM with all reshaping hidden behind compute. The n = n1*n2
// factorization is a tunable (FftOptions::factor_n1; 0 = a skewed
// cache-sized split — short core-private column FFTs, long contiguous
// rows),
// exposed to the tuner as a grid axis and persisted in wisdom. Factors
// need not be powers of two: any n1 | n works — each factor runs through
// Fft1d (Stockham / mixed-radix / Bluestein) and the packet widths adapt
// to the largest power of two dividing each factor. Sizes too small or
// too prime to split (no divisor in [2, n/2]) degenerate to one flat
// Fft1d pass.
#pragma once

#include <memory>

#include "common/aligned.h"
#include "fft/options.h"
#include "fft1d/fft1d.h"
#include "parallel/roles.h"
#include "parallel/team.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_plan.h"

namespace bwfft {

class Fft1dLarge {
 public:
  /// Plan a 1D transform of size n (n >= 1). opts.factor_n1 requests a
  /// specific n = n1*n2 split (kBadPlan unless it divides n); 0 picks a
  /// skewed split whose column tile is core-private (n1 ~ 512, larger
  /// only when needed to cap the row length). Inputs without any divisor
  /// in [2, n/2] (primes, n < 4) run the flat fallback.
  Fft1dLarge(idx_t n, Direction dir, const FftOptions& opts = {});

  idx_t size() const { return n_; }
  /// The resolved split (n1 * n2 == n; n1 == 1 on the flat fallback).
  idx_t factor_n1() const { return plan_.n1; }
  idx_t factor_n2() const { return plan_.n2; }
  const StagePlan& plan() const { return plan_; }

  /// Out-of-place transform (in != out); `in` is used as scratch.
  void execute(cplx* in, cplx* out);

 private:
  void column_pass(cplx* data);                // in place on `in`
  void row_pass(const cplx* src, cplx* dst);

  idx_t n_;
  Direction dir_;
  FftOptions opts_;
  StagePlan plan_;  // the two passes (or one Flat stage)
  std::shared_ptr<Fft1d> fft_n1_, fft_n2_;
  std::shared_ptr<Fft1d> flat_;       // degenerate path (n1 == 1)
  std::shared_ptr<ThreadTeam> team_;  // pooled or private (FftOptions::team_pool)
  RolePlan roles_;
  std::unique_ptr<DoubleBufferPipeline> pipeline_;
  cvec col_roots_;  // w_N^q for q < n2: column-pass twiddle generators
};

}  // namespace bwfft
