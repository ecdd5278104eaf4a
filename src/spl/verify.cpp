#include "spl/verify.h"

#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/intervals.h"

namespace bwfft::spl {

namespace {

const char* kind_name(VerifyIssue::Kind k) {
  switch (k) {
    case VerifyIssue::Kind::ComposeMismatch: return "compose-mismatch";
    case VerifyIssue::Kind::NotPermutation: return "not-a-permutation";
    case VerifyIssue::Kind::WindowBounds: return "window-out-of-bounds";
    case VerifyIssue::Kind::BadShape: return "bad-shape";
    case VerifyIssue::Kind::NonFinite: return "non-finite";
  }
  return "?";
}

void add(VerifyReport& rep, VerifyIssue::Kind k, std::string node,
         std::string detail) {
  rep.issues.push_back({k, std::move(node), std::move(detail)});
}

void check_chain(const std::vector<ExprPtr>& factors, VerifyReport& rep) {
  for (std::size_t i = 0; i + 1 < factors.size(); ++i) {
    if (factors[i] == nullptr || factors[i + 1] == nullptr) continue;
    if (factors[i]->cols() != factors[i + 1]->rows()) {
      std::ostringstream os;
      os << factors[i]->str() << " has " << factors[i]->cols()
         << " columns but " << factors[i + 1]->str() << " has "
         << factors[i + 1]->rows() << " rows";
      add(rep, VerifyIssue::Kind::ComposeMismatch,
          factors[i]->str() + " . " + factors[i + 1]->str(), os.str());
    }
  }
}

void visit(const Expr& e, VerifyReport& rep) {
  ++rep.nodes;
  if (e.rows() < 1 || e.cols() < 1) {
    std::ostringstream os;
    os << "reports shape " << e.rows() << " x " << e.cols();
    add(rep, VerifyIssue::Kind::BadShape, e.str(), os.str());
    return;  // downstream checks would index with these dimensions
  }

  if (const auto* c = dynamic_cast<const Compose*>(&e)) {
    check_chain(c->factors(), rep);
    for (const auto& f : c->factors()) {
      if (f) visit(*f, rep);
    }
    return;
  }
  if (const auto* k = dynamic_cast<const Kron*>(&e)) {
    if (k->a()) visit(*k->a(), rep);
    if (k->b()) visit(*k->b(), rep);
    return;
  }
  if (const auto* s = dynamic_cast<const DirectSum*>(&e)) {
    for (const auto& b : s->blocks()) {
      if (b) visit(*b, rep);
    }
    return;
  }
  if (const auto* l = dynamic_cast<const StridePerm*>(&e)) {
    const idx_t total = l->total(), sub = l->sub();
    if (sub < 1 || total % sub != 0) {
      std::ostringstream os;
      os << "sub " << sub << " does not divide total " << total;
      add(rep, VerifyIssue::Kind::NotPermutation, e.str(), os.str());
      return;
    }
    // Symbolic bijectivity (common/intervals.h): the image of residue
    // class r under j -> (j mod sub)*(total/sub) + j div sub is the
    // contiguous block [r*m, (r+1)*m), and the sub blocks tile
    // [0, total) — O(1) instead of the former O(n) seen-vector probe.
    if (!stride_perm_is_bijection(total, sub)) {
      add(rep, VerifyIssue::Kind::NotPermutation, e.str(),
          "index map is not a bijection");
    }
    return;
  }
  if (const auto* g = dynamic_cast<const Gather*>(&e)) {
    if (g->window() < 1 || (g->index() + 1) * g->window() > g->n()) {
      std::ostringstream os;
      os << "window " << g->index() << " of width " << g->window()
         << " exceeds vector length " << g->n();
      add(rep, VerifyIssue::Kind::WindowBounds, e.str(), os.str());
    }
    return;
  }
  if (const auto* s = dynamic_cast<const Scatter*>(&e)) {
    if (s->window() < 1 || (s->index() + 1) * s->window() > s->n()) {
      std::ostringstream os;
      os << "window " << s->index() << " of width " << s->window()
         << " exceeds vector length " << s->n();
      add(rep, VerifyIssue::Kind::WindowBounds, e.str(), os.str());
    }
    return;
  }
  if (const auto* d = dynamic_cast<const Diag*>(&e)) {
    for (std::size_t i = 0; i < d->values().size(); ++i) {
      const cplx v = d->values()[i];
      if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
        std::ostringstream os;
        os << "entry " << i << " is " << v.real() << (v.imag() < 0 ? "" : "+")
           << v.imag() << "i";
        add(rep, VerifyIssue::Kind::NonFinite, e.str(), os.str());
        break;  // one finding per diagonal is enough
      }
    }
    return;
  }
  if (dynamic_cast<const Identity*>(&e) != nullptr ||
      dynamic_cast<const RectIdentity*>(&e) != nullptr ||
      dynamic_cast<const Zero*>(&e) != nullptr ||
      dynamic_cast<const Dft*>(&e) != nullptr) {
    return;  // shape already checked above; nothing else can go wrong
  }
  ++rep.opaque;  // unknown subclass: shape checked, children unreachable
}

}  // namespace

std::string VerifyIssue::str() const {
  return std::string("[") + kind_name(kind) + "] " + node + ": " + detail;
}

std::string VerifyReport::str() const {
  std::ostringstream os;
  if (ok()) {
    os << "spl verify: clean (" << nodes << " nodes";
    if (opaque > 0) os << ", " << opaque << " opaque";
    os << ")";
    return os.str();
  }
  os << "spl verify: " << issues.size() << " issue(s) over " << nodes
     << " nodes";
  for (const auto& i : issues) os << "\n  " << i.str();
  return os.str();
}

VerifyReport verify(const Expr& e) {
  VerifyReport rep;
  visit(e, rep);
  return rep;
}

VerifyReport verify_compose(const std::vector<ExprPtr>& factors) {
  VerifyReport rep;
  check_chain(factors, rep);
  for (const auto& f : factors) {
    if (f) visit(*f, rep);
  }
  return rep;
}

bool is_permutation(const Expr& e, idx_t limit) {
  const idx_t n = e.rows();
  if (n != e.cols() || n < 1 || n > limit) return false;
  cvec x(static_cast<std::size_t>(n));
  for (idx_t j = 0; j < n; ++j) {
    x[static_cast<std::size_t>(j)] = cplx(static_cast<double>(j + 1), 0.0);
  }
  cvec y(static_cast<std::size_t>(n));
  e.apply(x.data(), y.data());
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (idx_t k = 0; k < n; ++k) {
    const cplx v = y[static_cast<std::size_t>(k)];
    if (v.imag() != 0.0) return false;
    const double r = v.real();
    const auto p = static_cast<idx_t>(r);
    if (static_cast<double>(p) != r || p < 1 || p > n) return false;
    if (seen[static_cast<std::size_t>(p - 1)]) return false;
    seen[static_cast<std::size_t>(p - 1)] = 1;
  }
  return true;
}

}  // namespace bwfft::spl
