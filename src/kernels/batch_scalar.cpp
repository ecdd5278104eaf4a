// Scalar batched-codelet table + SSE2 streaming copy.
//
// This TU is compiled with no extra target flags, so it runs anywhere;
// it is also the tail path every SIMD variant falls back to for the
// lanes % width remainder. On x86-64 the baseline still includes SSE2,
// so even the "scalar" ISA can issue 16-byte streaming stores.

#include "kernels/batch_gen.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <cstdint>

namespace bwfft::kernels::detail {

namespace {

void transpose_scalar(const cplx* in, idx_t is, cplx* out, idx_t os,
                      idx_t rows, idx_t cols) {
  gen::transpose_tiled<1>(in, is, out, os, rows, cols,
                          [](const cplx* i, idx_t, cplx* o, idx_t) { *o = *i; });
}

}  // namespace

const BatchTable& scalar_table() {
  static const BatchTable t =
      gen::make_table<gen::ScalarBackend>(&transpose_scalar);
  return t;
}

void diag_scale_rows_scalar(cplx* tile, idx_t rows, idx_t width, cplx* w,
                            const cplx* step) {
  for (idx_t r = 0; r < rows; ++r) {
    cplx* row = tile + r * width;
    for (idx_t l = 0; l < width; ++l) {
      row[l] *= w[l];
      w[l] *= step[l];
    }
  }
}

idx_t nt_copy_sse2(cplx* dst, const cplx* src, idx_t count) {
#if defined(__SSE2__)
  auto* d = reinterpret_cast<double*>(dst);
  const auto* s = reinterpret_cast<const double*>(src);
  if ((reinterpret_cast<std::uintptr_t>(d) & 15u) != 0) return -1;
  idx_t bytes = 0;
  for (idx_t i = 0; i < count; ++i) {
    _mm_stream_pd(d + 2 * i, _mm_loadu_pd(s + 2 * i));
    bytes += 16;
  }
  return bytes / 32;
#else
  (void)dst;
  (void)src;
  (void)count;
  return -1;
#endif
}

}  // namespace bwfft::kernels::detail
