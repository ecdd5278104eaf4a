#include "fft/reference.h"

#include <cmath>

#include "common/error.h"
#include "kernels/twiddle.h"
#include "obs/obs.h"

namespace bwfft {

namespace {

/// Apply the dense DFT along one axis of a flattened array: `outer` slabs,
/// each containing `n` slices of `inner` contiguous elements; the
/// transform runs over the slice index.
void dense_dft_axis(const cplx* in, cplx* out, idx_t outer, idx_t n,
                    idx_t inner, Direction dir) {
  const cvec w = root_table(n, n, dir);
  for (idx_t o = 0; o < outer; ++o) {
    const cplx* slab_in = in + o * n * inner;
    cplx* slab_out = out + o * n * inner;
    for (idx_t k = 0; k < n; ++k) {
      for (idx_t i = 0; i < inner; ++i) {
        cplx acc(0.0, 0.0);
        for (idx_t l = 0; l < n; ++l) {
          acc += w[static_cast<std::size_t>((k * l) % n)] * slab_in[l * inner + i];
        }
        slab_out[k * inner + i] = acc;
      }
    }
  }
}

using ldc = std::complex<long double>;

/// w_n^r = exp(sg 2 pi i r / n) for r < n, as hi[r / b] * lo[r % b] with
/// b = ceil(sqrt(n)): both tables hold exactly computed long-double roots.
class LongDoubleRoots {
 public:
  LongDoubleRoots(idx_t n, Direction dir) : n_(n), b_(1) {
    while (b_ * b_ < n) ++b_;
    const long double sg = dir == Direction::Forward ? -1.0L : 1.0L;
    const auto root = [&](idx_t r) {
      const long double a = sg * 6.283185307179586476925286766559L *
                            static_cast<long double>(r) /
                            static_cast<long double>(n);
      return ldc(std::cos(a), std::sin(a));
    };
    for (idx_t r = 0; r < b_; ++r) lo_.push_back(root(r));
    for (idx_t r = 0; r * b_ < n; ++r) hi_.push_back(root(r * b_));
  }
  /// w_n^{(j * k) mod n}.
  ldc operator()(idx_t j, idx_t k) const {
    const idx_t r = (j * k) % n_;
    return hi_[static_cast<std::size_t>(r / b_)] *
           lo_[static_cast<std::size_t>(r % b_)];
  }

 private:
  idx_t n_, b_;
  std::vector<ldc> lo_, hi_;
};

/// Fast-dimension lengths up to this get a per-bin table of their m
/// roots; longer ones (a large 1D transform) evaluate roots per term.
constexpr idx_t kRootRowMax = idx_t{1} << 16;

}  // namespace

std::vector<ldc> direct_bins(const cplx* x, const std::vector<idx_t>& dims,
                             const std::vector<idx_t>& bins, Direction dir) {
  BWFFT_CHECK(!dims.empty(), "direct_bins needs a shape");
  std::vector<LongDoubleRoots> roots;
  idx_t total = 1;
  for (idx_t d : dims) {
    BWFFT_CHECK(d >= 1, "dimensions must be positive");
    roots.emplace_back(d, dir);
    total *= d;
  }
  const idx_t m = dims.back();
  const idx_t lines = total / m;
  const LongDoubleRoots& fast = roots.back();
  std::vector<ldc> row;
  std::vector<ldc> out;
  for (idx_t bin : bins) {
    BWFFT_CHECK(bin >= 0 && bin < total, "bin outside the transform");
    // Bin coordinates, slowest first.
    std::vector<idx_t> k(dims.size());
    idx_t rest = bin;
    for (std::size_t d = dims.size(); d-- > 0;) {
      k[d] = rest % dims[d];
      rest /= dims[d];
    }
    const bool tabled = m <= kRootRowMax;
    row.clear();
    for (idx_t c = 0; tabled && c < m; ++c) row.push_back(fast(c, k.back()));
    long double re = 0, im = 0;
    for (idx_t line = 0; line < lines; ++line) {
      long double lre = 0, lim = 0;
      const cplx* v = x + line * m;
      for (idx_t c = 0; c < m; ++c) {
        const ldc w = tabled ? row[static_cast<std::size_t>(c)]
                             : fast(c, k.back());
        const long double xr = v[c].real(), xi = v[c].imag();
        lre += xr * w.real() - xi * w.imag();
        lim += xr * w.imag() + xi * w.real();
      }
      // The line's slower coordinates, fastest of them first.
      ldc w = 1;
      idx_t l = line;
      for (std::size_t d = dims.size() - 1; d-- > 0;) {
        w *= roots[d](l % dims[d], k[d]);
        l /= dims[d];
      }
      re += lre * w.real() - lim * w.imag();
      im += lre * w.imag() + lim * w.real();
    }
    out.emplace_back(re, im);
  }
  return out;
}

void reference_dft_1d(const cplx* in, cplx* out, idx_t n, Direction dir) {
  BWFFT_CHECK(in != out, "reference DFT is out of place");
  BWFFT_OBS_SCOPE(obs_stage, "dense-x", 'G', n);
  dense_dft_axis(in, out, 1, n, 1, dir);
}

void reference_dft_2d(const cplx* in, cplx* out, idx_t n, idx_t m,
                      Direction dir) {
  BWFFT_CHECK(in != out, "reference DFT is out of place");
  cvec tmp(static_cast<std::size_t>(n * m));
  {
    BWFFT_OBS_SCOPE(obs_stage, "dense-x", 'G', n);
    dense_dft_axis(in, tmp.data(), n, m, 1, dir);  // rows (x)
  }
  {
    BWFFT_OBS_SCOPE(obs_stage, "dense-y", 'G', m);
    dense_dft_axis(tmp.data(), out, 1, n, m, dir);  // columns (y)
  }
}

void reference_dft_3d(const cplx* in, cplx* out, idx_t k, idx_t n, idx_t m,
                      Direction dir) {
  BWFFT_CHECK(in != out, "reference DFT is out of place");
  cvec t1(static_cast<std::size_t>(k * n * m));
  cvec t2(static_cast<std::size_t>(k * n * m));
  {
    BWFFT_OBS_SCOPE(obs_stage, "dense-x", 'G', m);
    dense_dft_axis(in, t1.data(), k * n, m, 1, dir);  // x
  }
  {
    BWFFT_OBS_SCOPE(obs_stage, "dense-y", 'G', n);
    dense_dft_axis(t1.data(), t2.data(), k, n, m, dir);  // y
  }
  {
    BWFFT_OBS_SCOPE(obs_stage, "dense-z", 'G', k);
    dense_dft_axis(t2.data(), out, 1, k, n * m, dir);  // z
  }
}

}  // namespace bwfft
