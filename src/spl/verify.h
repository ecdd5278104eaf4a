// SPL static verifier — structural checks over expression trees, run
// before anything executes.
//
// The Expr constructors fail fast on locally-detectable mistakes, but the
// trees they build are an open hierarchy: rewrite passes and user-defined
// nodes can introduce inconsistencies the constructors never see. This
// pass re-derives the invariants the library depends on:
//
//   * dimension compatibility along every ∘ chain (and between every
//     combinator and its children);
//   * L (stride permutation) nodes are genuine permutations — the index
//     map i -> (i mod sub)·(total/sub) + i div sub is re-checked for
//     bijectivity, and is_permutation() probes arbitrary square operators
//     (e.g. the K rotation compositions) for the same property;
//   * G/S (gather/scatter) windows stay inside their vectors;
//   * diagonals contain only finite entries (a NaN twiddle table is the
//     classic silent-corruption bug).
//
// bwfft_lint and `bwfft_verify spl` run it over spl::plan_term of the
// plans the engines execute.
#pragma once

#include <string>
#include <vector>

#include "spl/expr.h"

namespace bwfft::spl {

struct VerifyIssue {
  enum class Kind {
    ComposeMismatch,  ///< adjacent ∘ factors with cols != rows
    NotPermutation,   ///< an L node whose index map is not a bijection
    WindowBounds,     ///< a G/S window reaching outside its vector
    BadShape,         ///< a node reporting a non-positive dimension
    NonFinite,        ///< a diagonal with NaN/Inf entries
  };

  Kind kind;
  std::string node;  ///< str() of the offending node
  std::string detail;

  std::string str() const;
};

struct VerifyReport {
  std::size_t nodes = 0;   ///< nodes visited
  std::size_t opaque = 0;  ///< nodes of unknown type (skipped, not errors)
  std::vector<VerifyIssue> issues;

  bool ok() const { return issues.empty(); }
  std::string str() const;
};

/// Recursively verify an expression tree. Unknown Expr subclasses are
/// counted as opaque and their reported shape is sanity-checked, but their
/// children (if any) cannot be reached.
VerifyReport verify(const Expr& e);

/// Shape-check a factor list as a would-be composition A0 ∘ A1 ∘ ... —
/// usable on lists the Compose constructor would reject, which is how
/// mismatched ⊗/∘ combinations are diagnosed without throwing.
VerifyReport verify_compose(const std::vector<ExprPtr>& factors);

/// Probe a square operator for permutation-ness by applying it to the
/// index-encoding vector x[j] = j+1: the result must be exactly a
/// rearrangement of the inputs. Exact for 0/1 operators; returns false for
/// anything that scales, mixes, or drops elements. Operators larger than
/// `limit` are rejected (the probe is O(n) space and apply time).
bool is_permutation(const Expr& e, idx_t limit = idx_t(1) << 22);

}  // namespace bwfft::spl
