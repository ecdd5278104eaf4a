// AVX2+FMA batched-codelet table: 256-bit registers, 4 complex lanes per
// split chunk (one vector of 4 reals + one of 4 imaginaries).
//
// Compiled with -mavx2 -mfma via per-file flags (see CMakeLists.txt), so
// the intrinsics below exist even in portable builds; whether this table
// is *used* is decided at run time by kernels/isa.h. When the toolchain
// cannot target AVX2 the providers degrade to nullptr / -1 and dispatch
// falls back to scalar.

#include "kernels/batch_gen.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#include <cstdint>

namespace bwfft::kernels::detail {

namespace {

/// 2x2 complex blocks: one 256-bit row pair, two lane permutes.
void transpose_avx2(const cplx* in, idx_t is, cplx* out, idx_t os,
                    idx_t rows, idx_t cols) {
  gen::transpose_tiled<2>(
      in, is, out, os, rows, cols,
      [](const cplx* i, idx_t bis, cplx* o, idx_t bos) {
        const auto* s = reinterpret_cast<const double*>(i);
        auto* d = reinterpret_cast<double*>(o);
        const __m256d r0 = _mm256_loadu_pd(s);            // a0 a1
        const __m256d r1 = _mm256_loadu_pd(s + 2 * bis);  // b0 b1
        _mm256_storeu_pd(d, _mm256_permute2f128_pd(r0, r1, 0x20));  // a0 b0
        _mm256_storeu_pd(d + 2 * bos,
                         _mm256_permute2f128_pd(r0, r1, 0x31));  // a1 b1
      });
}

}  // namespace

// The Avx2Backend itself lives in batch_gen.h (shared with the AVX-512
// TU, where it is the first tail step of the width cascade). Lane counts
// below 4 cascade through gen::Sse2Backend before reaching scalar.
const BatchTable* avx2_table() {
  static const BatchTable t =
      gen::make_table<gen::Avx2Backend>(&transpose_avx2, &nt_copy_avx2);
  return &t;
}

idx_t nt_copy_avx2(cplx* dst, const cplx* src, idx_t count) {
  auto* d = reinterpret_cast<double*>(dst);
  const auto* s = reinterpret_cast<const double*>(src);
  if ((reinterpret_cast<std::uintptr_t>(d) & 15u) != 0) return -1;
  idx_t bytes = 0;
  idx_t i = 0;
  // One 16-byte head stream to reach 32-byte alignment.
  if ((reinterpret_cast<std::uintptr_t>(d) & 31u) != 0 && i < count) {
    _mm_stream_pd(d, _mm_loadu_pd(s));
    ++i;
    bytes += 16;
  }
  for (; i + 2 <= count; i += 2) {
    _mm256_stream_pd(d + 2 * i, _mm256_loadu_pd(s + 2 * i));
    bytes += 32;
  }
  if (i < count) {  // odd trailing element, 32-byte aligned here
    _mm_stream_pd(d + 2 * i, _mm_loadu_pd(s + 2 * i));
    ++i;
    bytes += 16;
  }
  return bytes / 32;
}

namespace {

/// Elementwise interleaved complex multiply of two complex doubles:
///   out = a * b  (re = a.re b.re - a.im b.im, im = a.re b.im + a.im b.re)
inline __m256d cmul256(__m256d a, __m256d b) {
  const __m256d bre = _mm256_movedup_pd(b);       // [b.re, b.re] per complex
  const __m256d bim = _mm256_permute_pd(b, 0xF);  // [b.im, b.im]
  const __m256d asw = _mm256_permute_pd(a, 0x5);  // [a.im, a.re]
  return _mm256_fmaddsub_pd(a, bre, _mm256_mul_pd(asw, bim));
}

}  // namespace

bool diag_scale_rows_avx2(cplx* tile, idx_t rows, idx_t width, cplx* w,
                          const cplx* step) {
  auto* pw = reinterpret_cast<double*>(w);
  const auto* ps = reinterpret_cast<const double*>(step);
  const idx_t vec = width & ~idx_t{1};  // 2 complex doubles per register
  for (idx_t r = 0; r < rows; ++r) {
    auto* row = reinterpret_cast<double*>(tile + r * width);
    for (idx_t l = 0; l < 2 * vec; l += 4) {
      const __m256d vw = _mm256_loadu_pd(pw + l);
      _mm256_storeu_pd(row + l, cmul256(_mm256_loadu_pd(row + l), vw));
      _mm256_storeu_pd(pw + l, cmul256(vw, _mm256_loadu_pd(ps + l)));
    }
    for (idx_t c = vec; c < width; ++c) {
      tile[r * width + c] *= w[c];
      w[c] *= step[c];
    }
  }
  return true;
}

}  // namespace bwfft::kernels::detail

#else  // toolchain cannot target AVX2+FMA

namespace bwfft::kernels::detail {

const BatchTable* avx2_table() { return nullptr; }

idx_t nt_copy_avx2(cplx*, const cplx*, idx_t) { return -1; }

bool diag_scale_rows_avx2(cplx*, idx_t, idx_t, cplx*, const cplx*) {
  return false;
}

}  // namespace bwfft::kernels::detail

#endif
