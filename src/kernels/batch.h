// Batched split-format SIMD codelets with runtime ISA dispatch.
//
// The batched codelets are the one kernel layer of the 1D engine: every
// Stockham level of Fft1d is one of them. Each call transforms `lanes`
// pencils at once, with SIMD vector lanes running ACROSS the batch
// dimension (the paper's DFT_n (x) I_mu shape): element (j, l) of the
// tile sits at in[j*is + l], interleaved complex, and each kernel
// deinterleaves a register-wide chunk of lanes into SPLIT real/imaginary
// vectors at its edges. In split format a complex multiply by a constant
// is four FMAs and a multiply-by-(+/-i) is a register rename plus a sign
// flip — no shuffles inside the butterflies.
//
// Variants are generated from one template body (kernels/batch_gen.h)
// per instruction set — scalar always, AVX2+FMA and AVX-512F when the
// compiler can target them — compiled in separate translation units with
// per-file target flags, and selected at RUN TIME via kernels/isa.h.
//
// ABI (BatchFn):
//   out[k*os + l] = sum_j w_n^{jk} in[j*is + l]        for l < lanes
//   then, when tw != nullptr, output row k >= 1 is scaled by tw[k-1]
//   (a DIF butterfly: the codelet is the twiddled radix-n step of a
//   Stockham level; pass nullptr for a plain DFT).
//
// `is`/`os` are ROW strides in complex elements; the `lanes` elements of
// a row are contiguous. In-place operation (out == in) is allowed iff
// is == os: each register chunk loads all n rows of its lane slice
// before storing any of them. Distinct rows must not overlap.
#pragma once

#include "common/types.h"
#include "kernels/codelets.h"
#include "kernels/isa.h"

namespace bwfft::kernels {

/// Batched codelet: see the ABI contract above.
using BatchFn = void (*)(const cplx* in, idx_t is, cplx* out, idx_t os,
                         idx_t lanes, const cplx* tw, Direction dir);

/// Out-of-place transpose of a rows x cols block of complex elements:
/// out[c*os + r] = in[r*is + c]. `in` and `out` must not overlap.
using TransposeFn = void (*)(const cplx* in, idx_t is, cplx* out, idx_t os,
                             idx_t rows, idx_t cols);

/// Non-temporal copy of `count` complex elements to a 16-byte aligned
/// destination (see nt_copy below).
using NtCopyFn = idx_t (*)(cplx* dst, const cplx* src, idx_t count);

/// Dispatch table of one ISA: fn[n] for n = 2..kMaxCodelet (16); fn[0]
/// and fn[1] are null (a 1-point DFT is the identity). `width` is the
/// complex lanes of one full register chunk (8 AVX-512, 4 AVX2, 1
/// scalar): a call with lanes < width runs only the narrower tail steps.
/// `transpose` moves whole register blocks (4x4 complex AVX-512, 2x2
/// AVX2) through shuffles — the pencil <-> tile gather and scatter of
/// Fft1d's contiguous-pencil batches.
///
/// `nt` holds the same codelets with streaming (MOVNTPD) stores, and
/// `nt_copy` the table's streaming copy: a fused stage writes its last
/// Stockham level straight to its rotated DRAM destination through them.
/// A streaming chunk store needs `out` aligned to the vector width
/// (width * 8 bytes) and runs only for lanes a multiple of `width` (a
/// narrower tail stores temporally). Both are null on the scalar table.
struct BatchTable {
  BatchFn fn[codelets::kMaxCodelet + 1] = {};
  BatchFn nt[codelets::kMaxCodelet + 1] = {};
  idx_t width = 1;
  TransposeFn transpose = nullptr;
  NtCopyFn nt_copy = nullptr;

  /// Byte alignment a streaming codelet's output rows need.
  idx_t nt_align() const { return width * static_cast<idx_t>(sizeof(double)); }
};

/// Table of a concrete ISA. Requests the host cannot execute (or that
/// were not compiled in) fall back to the scalar table, so the returned
/// table is always safe to call. `isa` must not be Auto.
const BatchTable& batch_table(Isa isa);

/// Resolve `isa` (Auto follows the kernels/isa.h decision path), bump the
/// per-ISA obs dispatch counter, and return the table. This is the one
/// call sites use once per tile/stage — hoist it out of inner loops.
const BatchTable& dispatch_batch_table(Isa isa = Isa::Auto);

/// Convenience lookup of one codelet (never null for 2 <= n <= 16).
BatchFn batch_lookup(idx_t n, Isa isa = Isa::Auto);

/// Non-temporal copy of `count` interleaved complex elements using the
/// widest streaming stores the resolved ISA offers: 64-byte AVX-512
/// streams, 32-byte AVX streams, with 16-byte SSE2 streams covering
/// heads, tails, and the whole range on the scalar path (SSE2 is x86-64
/// baseline). `dst` must be 16-byte aligned. Returns the number of
/// 32-byte-store equivalents issued, in whole units, for the NtStores
/// counter — or -1 when no streaming path applies (caller falls back to
/// a plain copy). Callers own the stream_fence() pairing, exactly as
/// with copy_stream.
idx_t nt_copy(cplx* dst, const cplx* src, idx_t count, Isa isa = Isa::Auto);

/// In-place twiddle-diagonal scale of a row-major tile with a stepped
/// per-column recurrence: each of `rows` rows of `width` contiguous
/// interleaved-complex elements is multiplied elementwise by w, after
/// which w advances one step (w[l] *= step[l]). This is the four-step
/// column pass's diagonal D_{n2}^{n1 n2}: the scale varies along BOTH
/// tile axes, so it cannot ride the per-row `tw` path of the batched
/// codelets above. `w` is updated in place; callers re-anchor it against
/// exactly computed roots periodically to bound recurrence drift.
void diag_scale_rows(cplx* tile, idx_t rows, idx_t width, cplx* w,
                     const cplx* step, Isa isa = Isa::Auto);

namespace detail {
// Per-ISA providers, defined in batch_scalar.cpp / batch_avx2.cpp /
// batch_avx512.cpp. The AVX providers return nullptr when the TU was
// compiled without the target flags (non-x86 hosts or toolchains).
const BatchTable& scalar_table();
const BatchTable* avx2_table();
const BatchTable* avx512_table();
idx_t nt_copy_sse2(cplx* dst, const cplx* src, idx_t count);    // -1 if n/a
idx_t nt_copy_avx2(cplx* dst, const cplx* src, idx_t count);    // -1 if n/a
idx_t nt_copy_avx512(cplx* dst, const cplx* src, idx_t count);  // -1 if n/a
void diag_scale_rows_scalar(cplx* tile, idx_t rows, idx_t width, cplx* w,
                            const cplx* step);
// The AVX variants return false when the TU was compiled without its
// target flags; the dispatcher then falls back to the scalar loop.
bool diag_scale_rows_avx2(cplx* tile, idx_t rows, idx_t width, cplx* w,
                          const cplx* step);
bool diag_scale_rows_avx512(cplx* tile, idx_t rows, idx_t width, cplx* w,
                            const cplx* step);
}  // namespace detail

}  // namespace bwfft::kernels
