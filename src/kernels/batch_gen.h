// Batched codelet GENERATOR — one template body per DFT size, stamped out
// once per instruction set.
//
// This header is included only by the per-ISA translation units
// (batch_scalar.cpp, batch_avx2.cpp, batch_avx512.cpp), each of which
// supplies a Backend describing its vector type and instantiates
// make_table<Backend>(). A Backend models kWidth complex lanes held in
// SPLIT format — one vector of real parts, one of imaginary parts:
//
//   struct Backend {
//     static constexpr idx_t kWidth;          // complex lanes per vector
//     using V = ...;                          // kWidth doubles
//     static V broadcast(double);
//     static V add(V, V);  static V sub(V, V);  static V mul(V, V);
//     static V fmadd(V a, V b, V c);          // a*b + c
//     static V fmsub(V a, V b, V c);          // a*b - c
//     static V neg(V);
//     static void loadc(const cplx* p, V& re, V& im);   // deinterleave
//     static void storec(cplx* p, V re, V im);          // interleave
//     static void storec_nt(cplx* p, V re, V im);       // streaming
//   };                                                   // (SIMD only)
//
// Interleaved complex enters and leaves through loadc/storec (the only
// shuffles in the kernel); every butterfly in between runs on split
// vectors, where a complex multiply by a broadcast constant is two
// multiplies + two FMAs and a multiply by +/-i is a register rename plus
// one sign flip. The direction is a template parameter (SG = -1 forward,
// +1 inverse), so the sign folds into constants at compile time.
//
// Sizes 2, 4, 8, 16 use radix-2 DIT recursions; 3, 5, 7 the
// symmetric/antisymmetric prime splits; 6 the Good–Thomas 2x3 map; 9..15
// a table-driven direct DFT (exact, O(n^2) over the lane chunk — Fft1d
// runs them only as the single level of an n <= 16 transform, never
// inside a longer schedule). All trig constants come from
// codelets::dft_trig, computed once per process.
#pragma once

#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "kernels/batch.h"
#include "kernels/codelets.h"

namespace bwfft::kernels::gen {

/// One register-wide chunk of complex lanes in split format.
template <class B>
struct CV {
  typename B::V re, im;
};

template <class B>
inline CV<B> cv_load(const cplx* p) {
  CV<B> v;
  B::loadc(p, v.re, v.im);
  return v;
}

template <class B>
inline void cv_store(cplx* p, CV<B> v) {
  B::storec(p, v.re, v.im);
}

template <class B>
inline CV<B> cv_add(CV<B> a, CV<B> b) {
  return {B::add(a.re, b.re), B::add(a.im, b.im)};
}

template <class B>
inline CV<B> cv_sub(CV<B> a, CV<B> b) {
  return {B::sub(a.re, b.re), B::sub(a.im, b.im)};
}

/// v * (wr + i*wi) with wr/wi broadcast: 2 muls + 2 FMAs, no shuffles.
template <class B>
inline CV<B> cv_mulw(CV<B> v, typename B::V wr, typename B::V wi) {
  return {B::fmsub(v.re, wr, B::mul(v.im, wi)),
          B::fmadd(v.re, wi, B::mul(v.im, wr))};
}

/// v * f with f a broadcast real.
template <class B>
inline CV<B> cv_scale(CV<B> v, typename B::V f) {
  return {B::mul(v.re, f), B::mul(v.im, f)};
}

/// v * (0 + i*SG): w_4^1 for the direction (forward w_4 = -i). In split
/// format this is a swap + one negation — zero multiplies.
template <class B, int SG>
inline CV<B> cv_rot90(CV<B> v) {
  if constexpr (SG < 0) {
    return {v.im, B::neg(v.re)};
  } else {
    return {B::neg(v.im), v.re};
  }
}

/// v * i (direction-independent; the odd-radix splits fold the direction
/// sign into their sine constants instead).
template <class B>
inline CV<B> cv_muli(CV<B> v) {
  return {B::neg(v.im), v.re};
}

// ---------------------------------------------------------------------------
// DFT bodies. Body<B, N, SG>::apply(x, y) computes y = DFT_N x on split
// register chunks; x and y are distinct arrays of N CVs.

/// Primary template: table-driven direct DFT (sizes 9..15).
template <class B, idx_t N, int SG>
struct Body {
  static void apply(const CV<B>* x, CV<B>* y) {
    const codelets::TrigTable& t = codelets::dft_trig(N);
    for (idx_t k = 0; k < N; ++k) {
      CV<B> acc = x[0];
      for (idx_t j = 1; j < N; ++j) {
        const idx_t m = (j * k) % N;
        acc = cv_add<B>(acc, cv_mulw<B>(x[j], B::broadcast(t.c[m]),
                                        B::broadcast(SG * t.s[m])));
      }
      y[k] = acc;
    }
  }
};

template <class B, int SG>
struct Body<B, 2, SG> {
  static void apply(const CV<B>* x, CV<B>* y) {
    y[0] = cv_add<B>(x[0], x[1]);
    y[1] = cv_sub<B>(x[0], x[1]);
  }
};

template <class B, int SG>
struct Body<B, 3, SG> {
  static void apply(const CV<B>* x, CV<B>* y) {
    const double s = SG * std::sqrt(3.0) / 2.0;
    const CV<B> t1 = cv_add<B>(x[1], x[2]);
    const CV<B> t2 = cv_sub<B>(x[1], x[2]);
    const CV<B> m1 = cv_add<B>(x[0], cv_scale<B>(t1, B::broadcast(-0.5)));
    const CV<B> m2 = cv_muli<B>(cv_scale<B>(t2, B::broadcast(s)));
    y[0] = cv_add<B>(x[0], t1);
    y[1] = cv_add<B>(m1, m2);
    y[2] = cv_sub<B>(m1, m2);
  }
};

template <class B, int SG>
struct Body<B, 4, SG> {
  static void apply(const CV<B>* x, CV<B>* y) {
    const CV<B> t0 = cv_add<B>(x[0], x[2]);
    const CV<B> t1 = cv_sub<B>(x[0], x[2]);
    const CV<B> t2 = cv_add<B>(x[1], x[3]);
    const CV<B> t3 = cv_rot90<B, SG>(cv_sub<B>(x[1], x[3]));
    y[0] = cv_add<B>(t0, t2);
    y[1] = cv_add<B>(t1, t3);
    y[2] = cv_sub<B>(t0, t2);
    y[3] = cv_sub<B>(t1, t3);
  }
};

template <class B, int SG>
struct Body<B, 5, SG> {
  static void apply(const CV<B>* x, CV<B>* y) {
    const codelets::TrigTable& t = codelets::dft_trig(5);
    const double c1 = t.c[1], s1 = SG * t.s[1];
    const double c2 = t.c[2], s2 = SG * t.s[2];
    const CV<B> p1 = cv_add<B>(x[1], x[4]);
    const CV<B> m1 = cv_sub<B>(x[1], x[4]);
    const CV<B> p2 = cv_add<B>(x[2], x[3]);
    const CV<B> m2 = cv_sub<B>(x[2], x[3]);
    y[0] = cv_add<B>(cv_add<B>(x[0], p1), p2);
    const CV<B> r1 = cv_add<B>(
        x[0], cv_add<B>(cv_scale<B>(p1, B::broadcast(c1)),
                        cv_scale<B>(p2, B::broadcast(c2))));
    const CV<B> r2 = cv_add<B>(
        x[0], cv_add<B>(cv_scale<B>(p1, B::broadcast(c2)),
                        cv_scale<B>(p2, B::broadcast(c1))));
    const CV<B> v1 = cv_add<B>(cv_scale<B>(m1, B::broadcast(s1)),
                               cv_scale<B>(m2, B::broadcast(s2)));
    const CV<B> v2 = cv_sub<B>(cv_scale<B>(m1, B::broadcast(s2)),
                               cv_scale<B>(m2, B::broadcast(s1)));
    const CV<B> i1 = cv_muli<B>(v1);
    const CV<B> i2 = cv_muli<B>(v2);
    y[1] = cv_add<B>(r1, i1);
    y[2] = cv_add<B>(r2, i2);
    y[3] = cv_sub<B>(r2, i2);
    y[4] = cv_sub<B>(r1, i1);
  }
};

template <class B, int SG>
struct Body<B, 6, SG> {
  static void apply(const CV<B>* x, CV<B>* y) {
    // Good–Thomas 6 = 2 x 3: CRT input map (i1, i2) <- (3 i1 + 4 i2) mod 6,
    // output map (k1, k2) -> (3 k1 + 2 k2) mod 6; no twiddles.
    const CV<B> col0[3] = {x[0], x[4], x[2]};
    const CV<B> col1[3] = {x[3], x[1], x[5]};
    CV<B> t0[3], t1[3];
    Body<B, 3, SG>::apply(col0, t0);
    Body<B, 3, SG>::apply(col1, t1);
    for (idx_t k2 = 0; k2 < 3; ++k2) {
      y[(2 * k2) % 6] = cv_add<B>(t0[k2], t1[k2]);
      y[(3 + 2 * k2) % 6] = cv_sub<B>(t0[k2], t1[k2]);
    }
  }
};

template <class B, int SG>
struct Body<B, 7, SG> {
  static void apply(const CV<B>* x, CV<B>* y) {
    const codelets::TrigTable& t = codelets::dft_trig(7);
    const double cs[3] = {t.c[1], t.c[2], t.c[3]};
    const double sn[3] = {SG * t.s[1], SG * t.s[2], SG * t.s[3]};
    CV<B> p[3], m[3];
    for (int j = 0; j < 3; ++j) {
      p[j] = cv_add<B>(x[j + 1], x[6 - j]);
      m[j] = cv_sub<B>(x[j + 1], x[6 - j]);
    }
    y[0] = cv_add<B>(cv_add<B>(cv_add<B>(x[0], p[0]), p[1]), p[2]);
    for (int k = 1; k <= 3; ++k) {
      CV<B> re = x[0];
      CV<B> im = {B::broadcast(0.0), B::broadcast(0.0)};
      for (int j = 1; j <= 3; ++j) {
        const int idx = (k * j) % 7;
        const int fold = idx <= 3 ? idx : 7 - idx;
        const double sign_im = idx <= 3 ? 1.0 : -1.0;
        re = cv_add<B>(re, cv_scale<B>(p[j - 1], B::broadcast(cs[fold - 1])));
        im = cv_add<B>(im, cv_scale<B>(m[j - 1],
                                       B::broadcast(sign_im * sn[fold - 1])));
      }
      const CV<B> rot = cv_muli<B>(im);
      y[k] = cv_add<B>(re, rot);
      y[7 - k] = cv_sub<B>(re, rot);
    }
  }
};

template <class B, int SG>
struct Body<B, 8, SG> {
  static void apply(const CV<B>* x, CV<B>* y) {
    const CV<B> e[4] = {x[0], x[2], x[4], x[6]};
    const CV<B> o[4] = {x[1], x[3], x[5], x[7]};
    CV<B> fe[4], fo[4];
    Body<B, 4, SG>::apply(e, fe);
    Body<B, 4, SG>::apply(o, fo);
    const double r = std::sqrt(0.5);
    const CV<B> t1 =
        cv_mulw<B>(fo[1], B::broadcast(r), B::broadcast(SG * r));   // w_8^1
    const CV<B> t2 = cv_rot90<B, SG>(fo[2]);                        // w_8^2
    const CV<B> t3 =
        cv_mulw<B>(fo[3], B::broadcast(-r), B::broadcast(SG * r));  // w_8^3
    y[0] = cv_add<B>(fe[0], fo[0]);
    y[4] = cv_sub<B>(fe[0], fo[0]);
    y[1] = cv_add<B>(fe[1], t1);
    y[5] = cv_sub<B>(fe[1], t1);
    y[2] = cv_add<B>(fe[2], t2);
    y[6] = cv_sub<B>(fe[2], t2);
    y[3] = cv_add<B>(fe[3], t3);
    y[7] = cv_sub<B>(fe[3], t3);
  }
};

template <class B, int SG>
struct Body<B, 16, SG> {
  static void apply(const CV<B>* x, CV<B>* y) {
    CV<B> e[8], o[8], fe[8], fo[8];
    for (idx_t j = 0; j < 8; ++j) {
      e[j] = x[2 * j];
      o[j] = x[2 * j + 1];
    }
    Body<B, 8, SG>::apply(e, fe);
    Body<B, 8, SG>::apply(o, fo);
    const codelets::TrigTable& t = codelets::dft_trig(16);
    for (idx_t k = 0; k < 8; ++k) {
      const CV<B> v =
          k == 0 ? fo[0]
                 : cv_mulw<B>(fo[k], B::broadcast(t.c[k]),
                              B::broadcast(SG * t.s[k]));  // w_16^k
      y[k] = cv_add<B>(fe[k], v);
      y[k + 8] = cv_sub<B>(fe[k], v);
    }
  }
};

// ---------------------------------------------------------------------------
// Driver: chunk the lane dimension at the backend width, then cascade the
// remainder down each backend's `Tail` (512 -> 256 -> 128 -> scalar), so a
// lane count below a backend's full width still runs the widest vectors
// that fit — the engines' default mu = 4 packets must not degrade to
// scalar just because the dispatched table is AVX-512.

// The anonymous namespace is deliberate, not an oversight: every type in
// it has internal linkage, so each per-ISA TU gets its OWN instantiations
// of run/run_dir/Body, compiled with that TU's target flags. Without it
// the identical symbols from batch_scalar.cpp and batch_avx512.cpp would
// be merged by the linker and the "scalar" table could end up pointing at
// AVX-512-compiled code — an illegal instruction on narrow hosts.
namespace {

/// Portable width-1 backend; also the tail path of every SIMD backend
/// (where it inherits the TU's target flags — safe, because that tail
/// only runs after cpuid approved the TU's ISA).
struct ScalarBackend {
  static constexpr idx_t kWidth = 1;
  using Tail = ScalarBackend;  // terminates the cascade
  using V = double;
  static V broadcast(double x) { return x; }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V mul(V a, V b) { return a * b; }
  static V fmadd(V a, V b, V c) { return a * b + c; }
  static V fmsub(V a, V b, V c) { return a * b - c; }
  static V neg(V a) { return -a; }
  static void loadc(const cplx* p, V& re, V& im) {
    re = p->real();
    im = p->imag();
  }
  static void storec(cplx* p, V re, V im) { *p = cplx(re, im); }
};

#if defined(__SSE2__)
/// 128-bit backend, 2 complex lanes. Exists mainly as the cascade step
/// between the 256-bit chunk loop and the scalar remainder; FMA contraction
/// only when the TU targets it, plain mul+add otherwise.
struct Sse2Backend {
  static constexpr idx_t kWidth = 2;
  using Tail = ScalarBackend;
  using V = __m128d;
  static V broadcast(double x) { return _mm_set1_pd(x); }
  static V add(V a, V b) { return _mm_add_pd(a, b); }
  static V sub(V a, V b) { return _mm_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm_mul_pd(a, b); }
#if defined(__FMA__)
  static V fmadd(V a, V b, V c) { return _mm_fmadd_pd(a, b, c); }
  static V fmsub(V a, V b, V c) { return _mm_fmsub_pd(a, b, c); }
#else
  static V fmadd(V a, V b, V c) { return _mm_add_pd(_mm_mul_pd(a, b), c); }
  static V fmsub(V a, V b, V c) { return _mm_sub_pd(_mm_mul_pd(a, b), c); }
#endif
  static V neg(V a) { return _mm_xor_pd(a, _mm_set1_pd(-0.0)); }
  static void loadc(const cplx* p, V& re, V& im) {
    const auto* q = reinterpret_cast<const double*>(p);
    const __m128d ab = _mm_loadu_pd(q);      // r0 i0
    const __m128d cd = _mm_loadu_pd(q + 2);  // r1 i1
    re = _mm_unpacklo_pd(ab, cd);            // r0 r1
    im = _mm_unpackhi_pd(ab, cd);            // i0 i1
  }
  static void storec(cplx* p, V re, V im) {
    auto* q = reinterpret_cast<double*>(p);
    _mm_storeu_pd(q, _mm_unpacklo_pd(re, im));
    _mm_storeu_pd(q + 2, _mm_unpackhi_pd(re, im));
  }
};
#endif  // __SSE2__

#if defined(__AVX2__) && defined(__FMA__)
/// 256-bit backend, 4 complex lanes. Lives here (not in batch_avx2.cpp)
/// so the AVX-512 TU can name it as the tail step of the width cascade.
struct Avx2Backend {
  static constexpr idx_t kWidth = 4;
  using Tail = Sse2Backend;
  using V = __m256d;
  static V broadcast(double x) { return _mm256_set1_pd(x); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V fmsub(V a, V b, V c) { return _mm256_fmsub_pd(a, b, c); }
  static V neg(V a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static void loadc(const cplx* p, V& re, V& im) {
    const auto* q = reinterpret_cast<const double*>(p);
    const __m256d ab = _mm256_loadu_pd(q);      // r0 i0 r1 i1
    const __m256d cd = _mm256_loadu_pd(q + 4);  // r2 i2 r3 i3
    const __m256d lo = _mm256_permute2f128_pd(ab, cd, 0x20);  // r0 i0 r2 i2
    const __m256d hi = _mm256_permute2f128_pd(ab, cd, 0x31);  // r1 i1 r3 i3
    re = _mm256_unpacklo_pd(lo, hi);  // r0 r1 r2 r3
    im = _mm256_unpackhi_pd(lo, hi);  // i0 i1 i2 i3
  }
  static void storec(cplx* p, V re, V im) {
    auto* q = reinterpret_cast<double*>(p);
    const __m256d lo = _mm256_unpacklo_pd(re, im);  // r0 i0 r2 i2
    const __m256d hi = _mm256_unpackhi_pd(re, im);  // r1 i1 r3 i3
    _mm256_storeu_pd(q, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(q + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
  static void storec_nt(cplx* p, V re, V im) {  // p 32-byte aligned
    auto* q = reinterpret_cast<double*>(p);
    const __m256d lo = _mm256_unpacklo_pd(re, im);
    const __m256d hi = _mm256_unpackhi_pd(re, im);
    _mm256_stream_pd(q, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_stream_pd(q + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
};
#endif  // __AVX2__ && __FMA__

/// Backend B with streaming stores: storec is B::storec_nt, so the
/// codelets it stamps out write their output rows with MOVNTPD (aligned
/// to the vector width) — the last Stockham level of a fused stage,
/// whose output goes straight to DRAM and is dead until the next stage.
/// The width cascade's tail keeps B's temporal stores.
template <class B>
struct NtBackend : B {
  static void storec(cplx* p, typename B::V re, typename B::V im) {
    B::storec_nt(p, re, im);
  }
};

template <class B, idx_t N, int SG>
void run_dir(const cplx* in, idx_t is, cplx* out, idx_t os, idx_t lanes,
             const cplx* tw) {
  idx_t l = 0;
  for (; l + B::kWidth <= lanes; l += B::kWidth) {
    CV<B> x[N], y[N];
    for (idx_t j = 0; j < N; ++j) x[j] = cv_load<B>(in + j * is + l);
    Body<B, N, SG>::apply(x, y);
    if (tw != nullptr) {
      for (idx_t k = 1; k < N; ++k) {
        y[k] = cv_mulw<B>(y[k], B::broadcast(tw[k - 1].real()),
                          B::broadcast(tw[k - 1].imag()));
      }
    }
    for (idx_t k = 0; k < N; ++k) cv_store<B>(out + k * os + l, y[k]);
  }
  if constexpr (B::kWidth > 1) {
    if (l < lanes) {
      // Cascade one width step down (e.g. 8 -> 4 -> 2 -> 1) instead of
      // jumping straight to scalar: an AVX-512 table asked for lanes = 4
      // must still run the whole packet in one 256-bit chunk.
      run_dir<typename B::Tail, N, SG>(in + l, is, out + l, os, lanes - l,
                                       tw);
    }
  }
}

template <class B, idx_t N>
void run(const cplx* in, idx_t is, cplx* out, idx_t os, idx_t lanes,
         const cplx* tw, Direction dir) {
  if (dir == Direction::Forward) {
    run_dir<B, N, -1>(in, is, out, os, lanes, tw);
  } else {
    run_dir<B, N, +1>(in, is, out, os, lanes, tw);
  }
}

/// Block transpose driver behind BatchTable::transpose: whole K x K
/// blocks of complex elements go through `block(in, is, out, os)`, a
/// register kernel of the TU's ISA; the edge rows and columns run
/// element by element.
template <idx_t K, class Block>
void transpose_tiled(const cplx* in, idx_t is, cplx* out, idx_t os,
                     idx_t rows, idx_t cols, Block block) {
  const idx_t rk = rows - rows % K;
  const idx_t ck = cols - cols % K;
  for (idx_t r = 0; r < rk; r += K) {
    for (idx_t c = 0; c < ck; c += K) {
      block(in + r * is + c, is, out + c * os + r, os);
    }
  }
  for (idx_t r = 0; r < rows; ++r) {
    for (idx_t c = r < rk ? ck : 0; c < cols; ++c) {
      out[c * os + r] = in[r * is + c];
    }
  }
}

template <class B>
void fill_codelets(BatchFn* fn) {
  fn[2] = &run<B, 2>;
  fn[3] = &run<B, 3>;
  fn[4] = &run<B, 4>;
  fn[5] = &run<B, 5>;
  fn[6] = &run<B, 6>;
  fn[7] = &run<B, 7>;
  fn[8] = &run<B, 8>;
  fn[9] = &run<B, 9>;
  fn[10] = &run<B, 10>;
  fn[11] = &run<B, 11>;
  fn[12] = &run<B, 12>;
  fn[13] = &run<B, 13>;
  fn[14] = &run<B, 14>;
  fn[15] = &run<B, 15>;
  fn[16] = &run<B, 16>;
}

/// The table of backend B; a non-null `nt_copy` also stamps out the
/// streaming codelets (NtBackend<B>, which needs B::storec_nt).
template <class B>
BatchTable make_table(TransposeFn transpose, NtCopyFn nt_copy = nullptr) {
  BatchTable t;
  fill_codelets<B>(t.fn);
  if constexpr (B::kWidth > 1) {
    if (nt_copy != nullptr) fill_codelets<NtBackend<B>>(t.nt);
  }
  t.width = B::kWidth;
  t.transpose = transpose;
  t.nt_copy = nt_copy;
  return t;
}

}  // namespace (internal linkage — see above)

}  // namespace bwfft::kernels::gen
