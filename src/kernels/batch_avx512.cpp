// AVX-512F batched-codelet table: 512-bit registers, 8 complex lanes per
// split chunk. Deinterleave/interleave are single permutex2var shuffles
// per vector; everything between them is shuffle-free FMA arithmetic.
//
// Compiled with -mavx512f -mfma via per-file flags (-mavx512f implies
// AVX2 but NOT FMA in GCC, and the 256/128-bit cascade tails below want
// contracted multiplies); used only when cpuid reports AVX-512F at run
// time (kernels/isa.h).

#include "kernels/batch_gen.h"

#if defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#include <cstdint>

namespace bwfft::kernels::detail {

namespace {

struct Avx512Backend {
  static constexpr idx_t kWidth = 8;
  // Remainders under 8 lanes step down 512 -> 256 -> 128 -> scalar. The
  // engines' default packet width is mu = 4, so without this the chunk
  // loop above would never run and "AVX-512 dispatch" would mean an
  // all-scalar inner kernel.
  using Tail = gen::Avx2Backend;
  using V = __m512d;
  static V broadcast(double x) { return _mm512_set1_pd(x); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static V fmsub(V a, V b, V c) { return _mm512_fmsub_pd(a, b, c); }
  static V neg(V a) {
    // IEEE negate (sign-bit flip), bit-identical to scalar -x. _mm512_xor_pd
    // needs AVX512DQ, so go through the integer domain (plain AVX512F).
    const __m512i sign = _mm512_set1_epi64(0x8000000000000000LL);
    return _mm512_castsi512_pd(
        _mm512_xor_epi64(_mm512_castpd_si512(a), sign));
  }
  static void loadc(const cplx* p, V& re, V& im) {
    const auto* q = reinterpret_cast<const double*>(p);
    const __m512d a = _mm512_loadu_pd(q);      // r0 i0 .. r3 i3
    const __m512d b = _mm512_loadu_pd(q + 8);  // r4 i4 .. r7 i7
    const __m512i idx_re = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i idx_im = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    re = _mm512_permutex2var_pd(a, idx_re, b);
    im = _mm512_permutex2var_pd(a, idx_im, b);
  }
  static void storec(cplx* p, V re, V im) {
    auto* q = reinterpret_cast<double*>(p);
    const __m512i idx_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i idx_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    _mm512_storeu_pd(q, _mm512_permutex2var_pd(re, idx_lo, im));
    _mm512_storeu_pd(q + 8, _mm512_permutex2var_pd(re, idx_hi, im));
  }
  static void storec_nt(cplx* p, V re, V im) {  // p 64-byte aligned
    auto* q = reinterpret_cast<double*>(p);
    const __m512i idx_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i idx_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    _mm512_stream_pd(q, _mm512_permutex2var_pd(re, idx_lo, im));
    _mm512_stream_pd(q + 8, _mm512_permutex2var_pd(re, idx_hi, im));
  }
};

/// 4x4 complex blocks: four 512-bit rows, eight two-source permutes of
/// 128-bit lanes (permutex2var, like loadc; shuffle_f64x2 would do too,
/// but GCC 12 flags its undefined passthrough as maybe-uninitialized).
void transpose_avx512(const cplx* in, idx_t is, cplx* out, idx_t os,
                      idx_t rows, idx_t cols) {
  gen::transpose_tiled<4>(
      in, is, out, os, rows, cols,
      [](const cplx* i, idx_t bis, cplx* o, idx_t bos) {
        const __m512i lo = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
        const __m512i hi = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
        const __m512i even = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
        const __m512i odd = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
        const auto* s = reinterpret_cast<const double*>(i);
        auto* d = reinterpret_cast<double*>(o);
        const __m512d r0 = _mm512_loadu_pd(s);  // a0 a1 a2 a3
        const __m512d r1 = _mm512_loadu_pd(s + 2 * bis);
        const __m512d r2 = _mm512_loadu_pd(s + 4 * bis);
        const __m512d r3 = _mm512_loadu_pd(s + 6 * bis);
        const __m512d t0 = _mm512_permutex2var_pd(r0, lo, r1);  // a0 a1 b0 b1
        const __m512d t1 = _mm512_permutex2var_pd(r2, lo, r3);  // c0 c1 d0 d1
        const __m512d t2 = _mm512_permutex2var_pd(r0, hi, r1);  // a2 a3 b2 b3
        const __m512d t3 = _mm512_permutex2var_pd(r2, hi, r3);  // c2 c3 d2 d3
        _mm512_storeu_pd(d, _mm512_permutex2var_pd(t0, even, t1));  // a0 b0 c0 d0
        _mm512_storeu_pd(d + 2 * bos, _mm512_permutex2var_pd(t0, odd, t1));
        _mm512_storeu_pd(d + 4 * bos, _mm512_permutex2var_pd(t2, even, t3));
        _mm512_storeu_pd(d + 6 * bos, _mm512_permutex2var_pd(t2, odd, t3));
      });
}

}  // namespace

const BatchTable* avx512_table() {
  static const BatchTable t =
      gen::make_table<Avx512Backend>(&transpose_avx512, &nt_copy_avx512);
  return &t;
}

idx_t nt_copy_avx512(cplx* dst, const cplx* src, idx_t count) {
  auto* d = reinterpret_cast<double*>(dst);
  const auto* s = reinterpret_cast<const double*>(src);
  if ((reinterpret_cast<std::uintptr_t>(d) & 15u) != 0) return -1;
  idx_t bytes = 0;
  idx_t i = 0;
  // 16-byte head streams up to the first 64-byte boundary.
  while (i < count &&
         (reinterpret_cast<std::uintptr_t>(d + 2 * i) & 63u) != 0) {
    _mm_stream_pd(d + 2 * i, _mm_loadu_pd(s + 2 * i));
    ++i;
    bytes += 16;
  }
  for (; i + 4 <= count; i += 4) {
    _mm512_stream_pd(d + 2 * i, _mm512_loadu_pd(s + 2 * i));
    bytes += 64;
  }
  if (i + 2 <= count) {  // 32-byte tail (64-byte aligned here)
    _mm256_stream_pd(d + 2 * i, _mm256_loadu_pd(s + 2 * i));
    i += 2;
    bytes += 32;
  }
  if (i < count) {  // odd trailing element
    _mm_stream_pd(d + 2 * i, _mm_loadu_pd(s + 2 * i));
    ++i;
    bytes += 16;
  }
  return bytes / 32;
}

namespace {

/// Elementwise interleaved complex multiply of four complex doubles:
///   out = a * b  (re = a.re b.re - a.im b.im, im = a.re b.im + a.im b.re)
inline __m512d cmul512(__m512d a, __m512d b) {
  const __m512d bre = _mm512_movedup_pd(b);      // [b.re, b.re] per complex
  const __m512d bim = _mm512_permute_pd(b, 0xFF);  // [b.im, b.im]
  const __m512d asw = _mm512_permute_pd(a, 0x55);  // [a.im, a.re]
  return _mm512_fmaddsub_pd(a, bre, _mm512_mul_pd(asw, bim));
}

}  // namespace

bool diag_scale_rows_avx512(cplx* tile, idx_t rows, idx_t width, cplx* w,
                            const cplx* step) {
  auto* pw = reinterpret_cast<double*>(w);
  const auto* ps = reinterpret_cast<const double*>(step);
  const idx_t vec = width & ~idx_t{3};  // 4 complex doubles per register
  for (idx_t r = 0; r < rows; ++r) {
    auto* row = reinterpret_cast<double*>(tile + r * width);
    for (idx_t l = 0; l < 2 * vec; l += 8) {
      const __m512d vw = _mm512_loadu_pd(pw + l);
      _mm512_storeu_pd(row + l, cmul512(_mm512_loadu_pd(row + l), vw));
      _mm512_storeu_pd(pw + l, cmul512(vw, _mm512_loadu_pd(ps + l)));
    }
    for (idx_t c = vec; c < width; ++c) {
      tile[r * width + c] *= w[c];
      w[c] *= step[c];
    }
  }
  return true;
}

}  // namespace bwfft::kernels::detail

#else  // toolchain cannot target AVX-512F

namespace bwfft::kernels::detail {

const BatchTable* avx512_table() { return nullptr; }

idx_t nt_copy_avx512(cplx*, const cplx*, idx_t) { return -1; }

bool diag_scale_rows_avx512(cplx*, idx_t, idx_t, cplx*, const cplx*) {
  return false;
}

}  // namespace bwfft::kernels::detail

#endif
