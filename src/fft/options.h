// Plan options shared by all multidimensional FFT engines.
#pragma once

#include <string>

#include "common/topology.h"
#include "common/types.h"
#include "kernels/isa.h"

namespace bwfft {

/// Which algorithm executes the transform.
enum class EngineKind {
  /// O(n^2)-per-dimension reference oracle; exact but slow.
  Reference,
  /// Naive pencil decomposition: every dimension transformed in place at
  /// its natural stride. The worst-case memory behaviour the paper opens
  /// with (§II-D).
  Pencil,
  /// Transpose-based row–column algorithm: per stage, unit-stride batch
  /// FFTs then a full-array blocked rotation, all threads on each phase,
  /// no overlap. Stand-in for the MKL/FFTW large-size strategy.
  StageParallel,
  /// Slab–pencil decomposition (3D only): per-slab 2D FFT then z pencils;
  /// the strategy FFTW picks on the paper's AMD machines (§V).
  SlabPencil,
  /// The paper's contribution: tiled stages double-buffered in the LLC
  /// with dedicated soft-DMA data threads overlapping loads/rotated
  /// stores with the batch FFT compute (§III).
  DoubleBuffer,
  /// Let the src/tune planner pick the engine and knobs: wisdom lookup
  /// first, then the cost model / measurement selected by
  /// FftOptions::tune_level. FFTW itself switches strategies per machine
  /// (§V: slab-pencil on the AMD boxes), so the engine is a tunable too.
  Auto,
};

const char* engine_name(EngineKind k);

/// How hard the planner works when engine == EngineKind::Auto
/// (FFTW's ESTIMATE/MEASURE/EXHAUSTIVE ladder).
enum class TuneLevel {
  /// Rank candidates with the bandwidth cost model only; never executes.
  Estimate,
  /// Time the top-K model-ranked candidates (plus the default
  /// double-buffer config) on warm-up executes; pick the fastest.
  Measure,
  /// Time every candidate in the grid.
  Exhaustive,
};

const char* tune_level_name(TuneLevel level);

/// Parse an engine name — the canonical engine_name() spellings plus the
/// CLI aliases (dbuf, stagepar, slab, auto). False on unknown names.
bool engine_kind_from_name(const std::string& name, EngineKind* out);

/// Parse a tune level name ("estimate" / "measure" / "exhaustive").
bool tune_level_from_name(const std::string& name, TuneLevel* out);

struct FftOptions {
  EngineKind engine = EngineKind::DoubleBuffer;

  /// Machine model: sizes the shared buffer, the thread team and the CPU
  /// pinning. Defaults to the host.
  MachineTopology topo = host_topology();

  /// Team size p; 0 = topo.total_threads().
  int threads = 0;

  /// Compute threads p_c (rest are data threads); -1 = the plan default,
  /// p_c = p (the Private schedule, default_compute_threads). Any value
  /// below p runs the paper's Split schedule.
  int compute_threads = -1;

  /// Per-half pipeline block b in complex elements; 0 = the LLC/2 policy.
  idx_t block_elems = 0;

  /// Use non-temporal stores in the W matrices (§IV-A). The ablation
  /// bench flips this off.
  bool nontemporal = true;

  /// Rotation packet size mu in complex elements; it must divide the fast
  /// dimension. 0 = auto: the SIMD packet (8 under AVX-512, else one
  /// cacheline of 4), widened by make_stage_plan up to a 1 KiB store run
  /// while the lane rows stay core-private. Setting 1 forces the
  /// element-wise rotation of the unblocked formulas — the
  /// blocked-vs-element ablation of §III-A. 1D plans read it as the
  /// four-step column width W instead.
  idx_t packet_elems = 0;

  /// 1D transforms only: the n = n1*n2 four-step factorization the
  /// double-buffer engine runs (fft/double_buffer.h). 0 = the default
  /// split (four_step_factors in pipeline/stage_plan.h); a positive value
  /// must divide n (kBadPlan otherwise). Tuned as a grid axis and persisted in wisdom; 2D/3D
  /// engines ignore it.
  idx_t factor_n1 = 0;

  /// Instruction-set request for the batched codelets (kernels/isa.h):
  /// Auto (the default) resolves from cpuid / the BWFFT_ISA override at
  /// dispatch time; a concrete value pins the plan's kernels, clamped to
  /// what the host can execute. The ISA ablation benches and the tuner's
  /// dispatch-aware candidate grid set this.
  kernels::Isa isa = kernels::Isa::Auto;

  /// Planner effort when engine == EngineKind::Auto (ignored otherwise).
  TuneLevel tune_level = TuneLevel::Estimate;

  /// Pin team threads to the topology's suggested CPUs.
  bool pin_threads = false;

  /// Draw the engine's thread team from the process-wide
  /// parallel::TeamPool instead of spawning a private one. Plans with the
  /// same (size, pin list) then share one persistent team — executions
  /// serialise through it rather than oversubscribing the cores, and the
  /// spawn cost is paid once per process instead of once per plan. The
  /// exec::BatchExecutor sets this on every plan it builds.
  bool team_pool = false;

  /// Scale the inverse transform by 1/N (forward is never scaled).
  bool normalize_inverse = false;
};

/// The team size p the options ask for: `threads`, or every hardware
/// thread of `topo` when it is 0.
inline int resolved_threads(const FftOptions& opts) {
  return opts.threads > 0 ? opts.threads : opts.topo.total_threads();
}

}  // namespace bwfft
