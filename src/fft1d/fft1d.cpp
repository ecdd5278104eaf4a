#include "fft1d/fft1d.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/error.h"
#include "kernels/codelets.h"

namespace bwfft {

namespace {

/// Per-thread scratch that grows monotonically; avoids an allocation per
/// apply call without sharing state across threads.
cplx* thread_scratch(std::size_t elems) {
  static thread_local cvec scratch;
  if (scratch.size() < elems) scratch.resize(elems);
  return scratch.data();
}

/// Core-private budget of the gathered contiguous-pencil path: n * G
/// elements per n x G tile, so the tile plus its Stockham scratch stay
/// within 1 MiB of the thread scratch. Longer pencils keep the per-pencil
/// path, whose later levels already run at full SIMD width.
constexpr idx_t kGatherMaxElems = 32768;

}  // namespace

std::vector<idx_t> stockham_radices(idx_t n) {
  if (n <= 1) return {};
  if (n <= codelets::kMaxCodelet) return {n};
  static constexpr idx_t kRadices[] = {16, 8, 7, 6, 5, 4, 3, 2};
  std::vector<idx_t> chain;
  while (n > 1) {
    const idx_t* r = std::find_if(std::begin(kRadices), std::end(kRadices),
                                  [n](idx_t c) { return n % c == 0; });
    if (r == std::end(kRadices)) return {};
    chain.push_back(*r);
    n /= *r;
  }
  return chain;
}

bool has_stockham_schedule(idx_t n) {
  return n == 1 || !stockham_radices(n).empty();
}

Fft1d::Fft1d(idx_t n, Direction dir, kernels::Isa isa)
    : n_(n), dir_(dir), isa_(isa) {
  BWFFT_CHECK(n >= 1, "FFT size must be >= 1");
  // Each Stockham level is executed by the batched radix-r codelet with
  // the per-packet twiddle rows precomputed here.
  const std::vector<idx_t> radices = stockham_radices(n_);
  idx_t len = n_;
  for (const idx_t r : radices) {
    const idx_t q = len / r;
    StockhamLevel lvl;
    lvl.radix = r;
    lvl.tw.resize(static_cast<std::size_t>((r - 1) * q));
    for (idx_t p = 0; p < q; ++p) {
      for (idx_t k = 1; k < r; ++k) {
        lvl.tw[static_cast<std::size_t>((r - 1) * p + (k - 1))] =
            root_of_unity(len, k * p, dir_);
      }
    }
    slevels_.push_back(std::move(lvl));
    len = q;
  }
  if (is_pow2(n_)) {
    const int levels = log2_floor(n_);
    dit_tw_ = root_table(n_, std::max<idx_t>(n_ / 2, 1), dir_);
    bitrev_.resize(static_cast<std::size_t>(n_));
    for (idx_t i = 0; i < n_; ++i) {
      idx_t r = 0, v = i;
      for (int b = 0; b < levels; ++b) {
        r = (r << 1) | (v & 1);
        v >>= 1;
      }
      bitrev_[static_cast<std::size_t>(i)] = r;
    }
  } else if (radices.empty()) {
    // Bluestein chirp-z setup: convolution length M = next pow2 >= 2n-1.
    conv_n_ = 1;
    while (conv_n_ < 2 * n_ - 1) conv_n_ <<= 1;
    chirp_.resize(static_cast<std::size_t>(n_));
    for (idx_t j = 0; j < n_; ++j) {
      chirp_[static_cast<std::size_t>(j)] =
          root_of_unity(2 * n_, (j * j) % (2 * n_), dir_);
    }
    conv_fwd_ = std::make_shared<Fft1d>(conv_n_, Direction::Forward, isa_);
    conv_inv_ = std::make_shared<Fft1d>(conv_n_, Direction::Inverse, isa_);
    // Kernel b[j] = conj(c[j]) for |j| < n, wrapped mod M, then FFT'd.
    cvec kernel(static_cast<std::size_t>(conv_n_), cplx(0.0, 0.0));
    for (idx_t j = 0; j < n_; ++j) {
      const cplx b = std::conj(chirp_[static_cast<std::size_t>(j)]);
      kernel[static_cast<std::size_t>(j)] = b;
      if (j != 0) kernel[static_cast<std::size_t>(conv_n_ - j)] = b;
    }
    conv_fwd_->apply_batch(kernel.data(), 1);
    chirp_fft_ = std::move(kernel);
  }
}

void Fft1d::stockham_tile(const cplx* in, cplx* tile, cplx* scratch,
                          idx_t lanes, const kernels::BatchTable& bt,
                          cplx* rot, idx_t rot_stride) const {
  // Iterative DIF Stockham autosort over the precomputed radix schedule.
  // A level of radix r splits sub-length `len` into q = len/r input
  // packets at stride s: the batched codelet reads rows src + s*(p + j*q)
  // (row stride s*q), writes rows dst + s*(r*p + k) (row stride s), and
  // scales output row k by w_len^{p*k} — afterwards len /= r, s *= r, and
  // the buffers swap. The first level reads `in`, which may be the tile
  // itself or the stage source; later levels ping-pong between scratch
  // and the tile. The last level has q = 1, so it reads and writes at the
  // same row stride s; the BatchFn ABI then allows it in place, and it
  // always writes the tile (or streams to `rot`) — the result never needs
  // a copy back.
  const cplx* src = in;
  cplx* dst = scratch;
  idx_t len = n_;
  idx_t s = lanes;
  for (const StockhamLevel& lvl : slevels_) {
    const idx_t r = lvl.radix;
    const idx_t q = len / r;
    const kernels::BatchFn fn = bt.fn[r];
    const cplx* tw = lvl.tw.data();
    if (q == 1 && rot != nullptr) {
      // Output row k of the last level is tile rows k*(n/r) .. +n/r, so
      // lane row u of every output row goes to rot at a fixed stride.
      const idx_t rows = n_ / r;
      for (idx_t u = 0; u < rows; ++u) {
        bt.nt[r](src + u * lanes, s, rot + u * rot_stride, rows * rot_stride,
                 lanes, nullptr, dir_);
      }
      return;
    }
    if (q == 1) dst = tile;
    fn(src, s * q, dst, s, s, nullptr, dir_);  // p = 0: unit twiddles
    for (idx_t p = 1; p < q; ++p) {
      fn(src + s * p, s * q, dst + s * r * p, s, s, tw + (r - 1) * p, dir_);
    }
    len = q;
    s *= r;
    cplx* next = dst == scratch ? tile : scratch;
    src = dst;
    dst = next;
  }
}

bool Fft1d::gathers(idx_t count, const kernels::BatchTable& bt) const {
  return bt.width > 1 && count >= bt.width && n_ * bt.width <= kGatherMaxElems;
}

void Fft1d::gathered_batch(const cplx* in, cplx* out, idx_t count,
                           const kernels::BatchTable& bt,
                           const RotatedDst* dst) const {
  // I_count (x) DFT_n at full SIMD width (the short-vector rewrite
  // I_G (x) DFT_n = L^{nG}_n (DFT_n (x) I_G) L^{nG}_G): G consecutive
  // pencils are gathered into an n x G tile, transformed at lanes = G and
  // scattered back. A remainder of w < G pencils is gathered into the
  // same tile with its unused lanes zeroed, so every pencil runs the same
  // full-width arithmetic and the output does not depend on where a
  // thread partition cuts the batch. With `dst` the scatter is the
  // rotated store: the w pencils' packet j is the mu x w block at tile
  // row j*mu, transposed into a w*mu run that lands contiguously at
  // packet j of grid rows row0 + t .. + w.
  const idx_t g = bt.width;
  const idx_t mu = dst != nullptr ? dst->mu : 0;
  cplx* tile = thread_scratch(static_cast<std::size_t>(2 * n_ * g + g * mu));
  cplx* scratch = tile + n_ * g;
  cplx* run = scratch + n_ * g;
  for (idx_t t = 0; t < count; t += g) {
    const idx_t w = std::min(g, count - t);
    for (idx_t r = 0; w < g && r < n_; ++r) {
      std::fill(tile + r * g + w, tile + (r + 1) * g, cplx{});
    }
    bt.transpose(in + t * n_, n_, tile, g, w, n_);  // L^{nw}_w
    stockham_tile(tile, tile, scratch, g, bt);
    if (dst == nullptr) {
      bt.transpose(tile, g, out + t * n_, n_, n_, w);  // L^{nw}_n
      continue;
    }
    for (idx_t j = 0; j < n_ / mu; ++j) {
      bt.transpose(tile + j * mu * g, g, run, mu, mu, w);
      bt.nt_copy(dst->out + (j * dst->plane + dst->row0 + t) * mu, run,
                 w * mu);
    }
  }
}

void Fft1d::apply_lanes(cplx* data, idx_t lanes, idx_t count) const {
  apply_lanes_from(data, data, lanes, count);
}

bool Fft1d::streams_rotated(idx_t lanes, idx_t count,
                            const RotatedDst& dst) const {
  if (slevels_.empty() || dst.mu < 1 || (n_ * lanes) % dst.mu != 0) {
    return false;
  }
  const kernels::BatchTable& bt =
      kernels::batch_table(kernels::resolve_isa(isa_));
  const auto addr = reinterpret_cast<std::uintptr_t>(dst.out);
  if (bt.nt_copy == nullptr ||
      addr % static_cast<std::uintptr_t>(bt.nt_align()) != 0) {
    return false;
  }
  return lanes == 1 ? gathers(count, bt)
                    : lanes == dst.mu && lanes % bt.width == 0;
}

void Fft1d::apply_lanes_from(const cplx* in, cplx* out, idx_t lanes,
                             idx_t count, const RotatedDst* dst) const {
  BWFFT_CHECK(lanes >= 1 && count >= 0, "bad lanes/count");
  BWFFT_CHECK(dst == nullptr || streams_rotated(lanes, count, *dst),
              "this transform cannot stream to a rotated destination");
  if (count == 0) return;
  const idx_t tile = n_ * lanes;
  if (slevels_.empty()) {
    // n = 1 and Bluestein sizes: copy, then transform in place.
    if (in != out) {
      std::memcpy(out, in, static_cast<std::size_t>(count * tile) *
                               sizeof(cplx));
    }
    if (n_ > 1) bluestein_lanes(out, lanes, count);
    return;
  }
  const kernels::BatchTable& bt = kernels::dispatch_batch_table(isa_);
  if (lanes == 1 && gathers(count, bt)) {
    gathered_batch(in, out, count, bt, dst);
    return;
  }
  cplx* scratch = thread_scratch(static_cast<std::size_t>(tile));
  for (idx_t t = 0; t < count; ++t) {
    cplx* rot = dst == nullptr
                    ? nullptr
                    : dst->out + (dst->row0 + t) * dst->mu;
    stockham_tile(in + t * tile, out + t * tile, scratch, lanes, bt, rot,
                  dst == nullptr ? 0 : dst->plane * dst->mu);
  }
}

void Fft1d::bluestein_lanes(cplx* data, idx_t lanes, idx_t count) const {
  // Transform each lane pencil through a gathered copy. A local buffer is
  // used (not thread_scratch) because the inner power-of-two transforms
  // use thread_scratch themselves.
  cvec pencil(static_cast<std::size_t>(n_));
  for (idx_t t = 0; t < count; ++t) {
    cplx* tile = data + t * n_ * lanes;
    for (idx_t l = 0; l < lanes; ++l) {
      if (lanes == 1) {
        bluestein(tile);
      } else {
        for (idx_t j = 0; j < n_; ++j) pencil[static_cast<std::size_t>(j)] = tile[j * lanes + l];
        bluestein(pencil.data());
        for (idx_t j = 0; j < n_; ++j) tile[j * lanes + l] = pencil[static_cast<std::size_t>(j)];
      }
    }
  }
}

void Fft1d::bluestein(cplx* data) const {
  // y = c .* IFFT(FFT(pad(c .* x)) .* chirp_fft) / M
  cvec work(static_cast<std::size_t>(conv_n_), cplx(0.0, 0.0));
  for (idx_t j = 0; j < n_; ++j) {
    work[static_cast<std::size_t>(j)] = data[j] * chirp_[static_cast<std::size_t>(j)];
  }
  conv_fwd_->apply_batch(work.data(), 1);
  for (idx_t j = 0; j < conv_n_; ++j) {
    work[static_cast<std::size_t>(j)] *= chirp_fft_[static_cast<std::size_t>(j)];
  }
  conv_inv_->apply_batch(work.data(), 1);
  const double inv_m = 1.0 / static_cast<double>(conv_n_);
  for (idx_t k = 0; k < n_; ++k) {
    data[k] = work[static_cast<std::size_t>(k)] * chirp_[static_cast<std::size_t>(k)] * inv_m;
  }
}

void Fft1d::apply_lanes_strided(cplx* base, idx_t lanes,
                                idx_t row_stride) const {
  BWFFT_CHECK(conv_n_ == 0,
              "strided lanes path requires a size with a Stockham schedule");
  BWFFT_CHECK(lanes >= 1 && row_stride >= lanes, "bad lanes/row_stride");
  if (n_ == 1) return;
  const kernels::BatchTable& bt = kernels::dispatch_batch_table(isa_);
  // One allocation holds the gathered tile and the Stockham scratch.
  cplx* tile = thread_scratch(static_cast<std::size_t>(2 * n_ * lanes));
  cplx* scratch = tile + n_ * lanes;
  for (idx_t j = 0; j < n_; ++j) {
    std::memcpy(tile + j * lanes, base + j * row_stride,
                static_cast<std::size_t>(lanes) * sizeof(cplx));
  }
  stockham_tile(tile, tile, scratch, lanes, bt);
  for (idx_t j = 0; j < n_; ++j) {
    std::memcpy(base + j * row_stride, tile + j * lanes,
                static_cast<std::size_t>(lanes) * sizeof(cplx));
  }
}

void Fft1d::apply_oop(const cplx* in, cplx* out) const {
  std::memcpy(out, in, static_cast<std::size_t>(n_) * sizeof(cplx));
  apply_batch(out, 1);
}

void Fft1d::apply_strided_inplace(cplx* data, idx_t stride) const {
  BWFFT_CHECK(is_pow2(n_), "strided in-place path requires power-of-two n");
  if (n_ == 1) return;

  // Bit-reversal permutation at the given stride.
  for (idx_t i = 0; i < n_; ++i) {
    const idx_t r = bitrev_[static_cast<std::size_t>(i)];
    if (r > i) std::swap(data[i * stride], data[r * stride]);
  }

  // Iterative DIT butterflies; twiddle for (len, j) is w_n^{j * n/len}.
  for (idx_t len = 2; len <= n_; len <<= 1) {
    const idx_t half = len / 2;
    const idx_t tw_step = n_ / len;
    for (idx_t base = 0; base < n_; base += len) {
      for (idx_t j = 0; j < half; ++j) {
        const cplx w = dit_tw_[static_cast<std::size_t>(j * tw_step)];
        cplx& lo = data[(base + j) * stride];
        cplx& hi = data[(base + j + half) * stride];
        const cplx v = hi * w;
        hi = lo - v;
        lo = lo + v;
      }
    }
  }
}

void Fft1d::scale_inverse(cplx* data, idx_t count) const {
  const double s = 1.0 / static_cast<double>(n_);
  for (idx_t i = 0; i < count; ++i) data[i] *= s;
}

}  // namespace bwfft
