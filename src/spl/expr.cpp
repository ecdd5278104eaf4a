#include "spl/expr.h"

#include <cmath>
#include <cstring>
#include <numbers>
#include <sstream>

namespace bwfft::spl {

namespace {
constexpr double kPi = std::numbers::pi_v<double>;

/// Primitive n-th root of unity to the power p, with the direction's sign.
cplx omega(idx_t n, idx_t p, Direction dir) {
  const double ang = sign_of(dir) * 2.0 * kPi * static_cast<double>(p) /
                     static_cast<double>(n);
  return cplx(std::cos(ang), std::sin(ang));
}
}  // namespace

cvec Expr::operator()(const cvec& x) const {
  BWFFT_CHECK(static_cast<idx_t>(x.size()) == cols(),
              "operand size does not match operator columns: " + str());
  cvec y(static_cast<std::size_t>(rows()));
  apply(x.data(), y.data());
  return y;
}

// --------------------------------------------------------------- Identity

Identity::Identity(idx_t n) : n_(n) { BWFFT_CHECK(n > 0, "I_n needs n>0"); }

void Identity::apply(const cplx* x, cplx* y) const {
  std::memcpy(y, x, static_cast<std::size_t>(n_) * sizeof(cplx));
}

std::string Identity::str() const {
  std::ostringstream os;
  os << "I_" << n_;
  return os.str();
}

// ----------------------------------------------------------- RectIdentity

RectIdentity::RectIdentity(idx_t m, idx_t n) : m_(m), n_(n) {
  BWFFT_CHECK(m > 0 && n > 0, "I_{m x n} needs m,n>0");
}

void RectIdentity::apply(const cplx* x, cplx* y) const {
  const idx_t copy = std::min(m_, n_);
  std::memcpy(y, x, static_cast<std::size_t>(copy) * sizeof(cplx));
  for (idx_t i = copy; i < m_; ++i) y[i] = cplx(0.0, 0.0);
}

std::string RectIdentity::str() const {
  std::ostringstream os;
  os << "I_{" << m_ << "x" << n_ << "}";
  return os.str();
}

// ------------------------------------------------------------------- Zero

Zero::Zero(idx_t m, idx_t n) : m_(m), n_(n) {
  BWFFT_CHECK(m > 0 && n > 0, "O_{m x n} needs m,n>0");
}

void Zero::apply(const cplx*, cplx* y) const {
  for (idx_t i = 0; i < m_; ++i) y[i] = cplx(0.0, 0.0);
}

std::string Zero::str() const {
  std::ostringstream os;
  os << "O_{" << m_ << "x" << n_ << "}";
  return os.str();
}

// -------------------------------------------------------------------- Dft

Dft::Dft(idx_t n, Direction dir) : n_(n), dir_(dir) {
  BWFFT_CHECK(n > 0, "DFT_n needs n>0");
}

void Dft::apply(const cplx* x, cplx* y) const {
  // Direct O(n^2) evaluation over a table of the n roots; k*l is reduced
  // mod n, so every entry is a directly computed root.
  cvec roots(static_cast<std::size_t>(n_));
  for (idx_t p = 0; p < n_; ++p) {
    roots[static_cast<std::size_t>(p)] = omega(n_, p, dir_);
  }
  for (idx_t k = 0; k < n_; ++k) {
    cplx acc(0.0, 0.0);
    for (idx_t l = 0; l < n_; ++l) {
      acc += roots[static_cast<std::size_t>((k * l) % n_)] * x[l];
    }
    y[k] = acc;
  }
}

std::string Dft::str() const {
  std::ostringstream os;
  os << (dir_ == Direction::Forward ? "DFT_" : "IDFT_") << n_;
  return os.str();
}

// ------------------------------------------------------------------- Diag

Diag::Diag(cvec d) : d_(std::move(d)) {
  BWFFT_CHECK(!d_.empty(), "diag needs at least one entry");
}

void Diag::apply(const cplx* x, cplx* y) const {
  const idx_t n = rows();
  for (idx_t i = 0; i < n; ++i) y[i] = d_[static_cast<std::size_t>(i)] * x[i];
}

std::string Diag::str() const {
  std::ostringstream os;
  os << "diag_" << d_.size();
  return os.str();
}

// ------------------------------------------------------------- StridePerm

StridePerm::StridePerm(idx_t total, idx_t sub) : total_(total), sub_(sub) {
  BWFFT_CHECK(total > 0 && sub > 0 && total % sub == 0,
              "L_sub^total needs sub | total");
}

void StridePerm::apply(const cplx* x, cplx* y) const {
  // Input viewed as (total/sub) x sub row-major; output is the transpose.
  const idx_t rows = total_ / sub_;
  const idx_t cols = sub_;
  for (idx_t r = 0; r < rows; ++r) {
    for (idx_t c = 0; c < cols; ++c) {
      y[c * rows + r] = x[r * cols + c];
    }
  }
}

std::string StridePerm::str() const {
  std::ostringstream os;
  os << "L^" << total_ << "_" << sub_;
  return os.str();
}

// ----------------------------------------------------------------- Gather

Gather::Gather(idx_t n, idx_t b, idx_t i) : n_(n), b_(b), i_(i) {
  BWFFT_CHECK(b > 0 && n >= b, "G_{n,b,i} needs 0<b<=n");
  BWFFT_CHECK(i >= 0 && (i + 1) * b <= n, "G_{n,b,i} window out of range");
}

void Gather::apply(const cplx* x, cplx* y) const {
  std::memcpy(y, x + i_ * b_, static_cast<std::size_t>(b_) * sizeof(cplx));
}

std::string Gather::str() const {
  std::ostringstream os;
  os << "G_{" << n_ << "," << b_ << "," << i_ << "}";
  return os.str();
}

// ---------------------------------------------------------------- Scatter

Scatter::Scatter(idx_t n, idx_t b, idx_t i) : n_(n), b_(b), i_(i) {
  BWFFT_CHECK(b > 0 && n >= b, "S_{n,b,i} needs 0<b<=n");
  BWFFT_CHECK(i >= 0 && (i + 1) * b <= n, "S_{n,b,i} window out of range");
}

void Scatter::apply(const cplx* x, cplx* y) const {
  for (idx_t j = 0; j < n_; ++j) y[j] = cplx(0.0, 0.0);
  std::memcpy(y + i_ * b_, x, static_cast<std::size_t>(b_) * sizeof(cplx));
}

std::string Scatter::str() const {
  std::ostringstream os;
  os << "S_{" << n_ << "," << b_ << "," << i_ << "}";
  return os.str();
}

// ---------------------------------------------------------------- Compose

Compose::Compose(std::vector<ExprPtr> factors) : factors_(std::move(factors)) {
  BWFFT_CHECK(!factors_.empty(), "compose needs at least one factor");
  for (std::size_t i = 0; i + 1 < factors_.size(); ++i) {
    BWFFT_CHECK(factors_[i]->cols() == factors_[i + 1]->rows(),
                "compose dimension mismatch between " + factors_[i]->str() +
                    " and " + factors_[i + 1]->str());
  }
}

void Compose::apply(const cplx* x, cplx* y) const {
  // Apply right-to-left, ping-ponging through two temporaries.
  const std::size_t k = factors_.size();
  if (k == 1) {
    factors_[0]->apply(x, y);
    return;
  }
  cvec t0, t1;
  const cplx* src = x;
  for (std::size_t f = k; f-- > 0;) {
    const Expr& op = *factors_[f];
    if (f == 0) {
      op.apply(src, y);
    } else {
      cvec& dst = (src == t0.data() && !t0.empty()) ? t1 : t0;
      dst.resize(static_cast<std::size_t>(op.rows()));
      op.apply(src, dst.data());
      src = dst.data();
    }
  }
}

std::string Compose::str() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    if (i) os << " . ";
    os << factors_[i]->str();
  }
  os << ")";
  return os.str();
}

// ------------------------------------------------------------------- Kron

Kron::Kron(ExprPtr a, ExprPtr b) : a_(std::move(a)), b_(std::move(b)) {
  BWFFT_CHECK(a_ != nullptr && b_ != nullptr, "kron needs two operands");
}

void Kron::apply(const cplx* x, cplx* y) const {
  // (A (x) B) = (A (x) I_rb) (I_ca (x) B)
  const idx_t ca = a_->cols(), ra = a_->rows();
  const idx_t cb = b_->cols(), rb = b_->rows();

  // Step 1: z = (I_ca (x) B) x — B applied to each contiguous segment.
  cvec z(static_cast<std::size_t>(ca * rb));
  for (idx_t i = 0; i < ca; ++i) {
    b_->apply(x + i * cb, z.data() + i * rb);
  }

  // Step 2: y = (A (x) I_rb) z — A applied to each of the rb strided
  // columns of z viewed as a ca x rb matrix.
  cvec col_in(static_cast<std::size_t>(ca)), col_out(static_cast<std::size_t>(ra));
  for (idx_t c = 0; c < rb; ++c) {
    for (idx_t r = 0; r < ca; ++r) col_in[static_cast<std::size_t>(r)] = z[r * rb + c];
    a_->apply(col_in.data(), col_out.data());
    for (idx_t r = 0; r < ra; ++r) y[r * rb + c] = col_out[static_cast<std::size_t>(r)];
  }
}

std::string Kron::str() const {
  return "(" + a_->str() + " (x) " + b_->str() + ")";
}

// -------------------------------------------------------------- DirectSum

DirectSum::DirectSum(std::vector<ExprPtr> blocks) : blocks_(std::move(blocks)) {
  BWFFT_CHECK(!blocks_.empty(), "direct sum needs at least one block");
  for (const auto& b : blocks_) {
    rows_ += b->rows();
    cols_ += b->cols();
  }
}

void DirectSum::apply(const cplx* x, cplx* y) const {
  idx_t xo = 0, yo = 0;
  for (const auto& b : blocks_) {
    b->apply(x + xo, y + yo);
    xo += b->cols();
    yo += b->rows();
  }
}

std::string DirectSum::str() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (i) os << " (+) ";
    os << blocks_[i]->str();
  }
  os << ")";
  return os.str();
}

// ---------------------------------------------------------------- helpers

ExprPtr identity(idx_t n) { return std::make_shared<Identity>(n); }
ExprPtr rect_identity(idx_t m, idx_t n) {
  return std::make_shared<RectIdentity>(m, n);
}
ExprPtr zero(idx_t m, idx_t n) { return std::make_shared<Zero>(m, n); }
ExprPtr dft(idx_t n, Direction dir) { return std::make_shared<Dft>(n, dir); }
ExprPtr diag(cvec d) { return std::make_shared<Diag>(std::move(d)); }

ExprPtr twiddle_diag(idx_t m, idx_t n, Direction dir) {
  cvec d(static_cast<std::size_t>(m * n));
  for (idx_t i = 0; i < m; ++i) {
    for (idx_t j = 0; j < n; ++j) {
      d[static_cast<std::size_t>(i * n + j)] = omega(m * n, (i * j) % (m * n), dir);
    }
  }
  return diag(std::move(d));
}

ExprPtr stride_perm(idx_t total, idx_t sub) {
  return std::make_shared<StridePerm>(total, sub);
}
ExprPtr gather(idx_t n, idx_t b, idx_t i) {
  return std::make_shared<Gather>(n, b, i);
}
ExprPtr scatter(idx_t n, idx_t b, idx_t i) {
  return std::make_shared<Scatter>(n, b, i);
}
ExprPtr compose(std::vector<ExprPtr> factors) {
  return std::make_shared<Compose>(std::move(factors));
}
ExprPtr kron(ExprPtr a, ExprPtr b) {
  return std::make_shared<Kron>(std::move(a), std::move(b));
}
ExprPtr direct_sum(std::vector<ExprPtr> blocks) {
  return std::make_shared<DirectSum>(std::move(blocks));
}

std::vector<cvec> dense(const Expr& e) {
  const idx_t r = e.rows(), c = e.cols();
  std::vector<cvec> m(static_cast<std::size_t>(r),
                      cvec(static_cast<std::size_t>(c)));
  cvec unit(static_cast<std::size_t>(c), cplx(0.0, 0.0));
  cvec col(static_cast<std::size_t>(r));
  for (idx_t j = 0; j < c; ++j) {
    unit[static_cast<std::size_t>(j)] = cplx(1.0, 0.0);
    e.apply(unit.data(), col.data());
    unit[static_cast<std::size_t>(j)] = cplx(0.0, 0.0);
    for (idx_t i = 0; i < r; ++i) {
      m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          col[static_cast<std::size_t>(i)];
    }
  }
  return m;
}

double max_abs_diff(const Expr& a, const Expr& b) {
  BWFFT_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
              "operator shapes differ: " + a.str() + " vs " + b.str());
  const auto da = dense(a);
  const auto db = dense(b);
  double worst = 0.0;
  for (std::size_t i = 0; i < da.size(); ++i) {
    for (std::size_t j = 0; j < da[i].size(); ++j) {
      worst = std::max(worst, std::abs(da[i][j] - db[i][j]));
    }
  }
  return worst;
}

}  // namespace bwfft::spl
