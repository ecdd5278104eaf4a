// Tests for the SPL static verifier: clean passes over the paper's
// factorisations and the planned terms, rejection of mismatched ⊗/∘
// dimension chains and non-finite diagonals, and permutation probing of
// L/K nodes.
#include <gtest/gtest.h>

#include <cmath>

#include "pipeline/stage_plan.h"
#include "spl/algorithms.h"
#include "spl/verify.h"

namespace bwfft::spl {
namespace {

bool has_issue(const VerifyReport& rep, VerifyIssue::Kind kind) {
  for (const auto& i : rep.issues) {
    if (i.kind == kind) return true;
  }
  return false;
}

TEST(SplVerify, PaperFactorisationsAreClean) {
  EXPECT_TRUE(verify(*cooley_tukey(4, 8)).ok());
  FftOptions four_step;
  four_step.factor_n1 = 4;
  EXPECT_TRUE(verify(*plan_term(make_stage_plan({16}, four_step))).ok());
  FftOptions blocked;
  blocked.threads = 4;  // the socket plan below needs a multiple of 2
  blocked.packet_elems = 2;
  EXPECT_TRUE(verify(*plan_term(make_stage_plan({8, 8}, blocked))).ok());
  EXPECT_TRUE(verify(*plan_term(make_stage_plan({4, 4, 8}, blocked))).ok());
  EXPECT_TRUE(
      verify(*plan_term(make_stage_plan({4, 4, 8}, blocked, 2))).ok());
  const auto rep = verify(*rotation_k_blocked(3, 4, 8, 2));
  EXPECT_TRUE(rep.ok()) << rep.str();
  EXPECT_GT(rep.nodes, 1u);
}

TEST(SplVerify, TiledStageTermsAreClean) {
  for (const auto& term : stage1_tiled(4, 4, 8, 2, 32)) {
    const auto rep = verify(*term);
    EXPECT_TRUE(rep.ok()) << rep.str();
  }
}

// The rejection case from the issue: two ⊗ factors whose total dimensions
// do not chain. The Compose constructor throws on this, so the verifier's
// non-throwing entry point is what a rewrite pass would consult first.
TEST(SplVerify, RejectsMismatchedKronComposition) {
  // (DFT_4 ⊗ I_2) is 8x8 but (I_4 ⊗ DFT_4) is 16x16.
  const auto rep = verify_compose(
      {kron(dft(4), identity(2)), kron(identity(4), dft(4))});
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_issue(rep, VerifyIssue::Kind::ComposeMismatch)) << rep.str();
  // The constructor keeps throwing for the same chain.
  EXPECT_THROW(compose({kron(dft(4), identity(2)), kron(identity(4), dft(4))}),
               Error);
}

TEST(SplVerify, RejectsMismatchedPlainComposition) {
  const auto rep = verify_compose({dft(4), dft(5)});
  EXPECT_TRUE(has_issue(rep, VerifyIssue::Kind::ComposeMismatch)) << rep.str();
  EXPECT_TRUE(verify_compose({dft(4), dft(4)}).ok());
}

TEST(SplVerify, FindsIssueInsideNestedTree) {
  // A bad diagonal buried under ⊗ and ∘ is still found.
  cvec d(4, cplx(1.0, 0.0));
  d[2] = cplx(std::nan(""), 0.0);
  const auto term =
      compose({kron(identity(2), diag(std::move(d))), identity(8)});
  const auto rep = verify(*term);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_issue(rep, VerifyIssue::Kind::NonFinite)) << rep.str();
}

TEST(SplVerify, StrideAndRotationNodesArePermutations) {
  EXPECT_TRUE(is_permutation(*stride_perm(12, 3)));
  EXPECT_TRUE(is_permutation(*stride_perm(16, 4)));
  EXPECT_TRUE(is_permutation(*rotation_k(2, 3, 4)));
  EXPECT_TRUE(is_permutation(*rotation_k_blocked(2, 3, 8, 2)));
  EXPECT_TRUE(is_permutation(*identity(7)));
  // Not permutations: anything that mixes or scales.
  EXPECT_FALSE(is_permutation(*dft(4)));
  EXPECT_FALSE(is_permutation(*diag(cvec(4, cplx(2.0, 0.0)))));
  EXPECT_FALSE(is_permutation(*zero(4, 4)));
  // Non-square operators cannot be permutations.
  EXPECT_FALSE(is_permutation(*gather(8, 2, 1)));
  // Over the probe limit: refused rather than guessed.
  EXPECT_FALSE(is_permutation(*stride_perm(16, 4), /*limit=*/8));
}

TEST(SplVerify, GatherScatterWindowsVerified) {
  EXPECT_TRUE(verify(*gather(16, 4, 3)).ok());   // last window: tight fit
  EXPECT_TRUE(verify(*scatter(16, 4, 0)).ok());
  EXPECT_THROW(gather(16, 4, 4), Error);   // constructor rejects
  EXPECT_THROW(scatter(16, 4, 4), Error);  // past the end
}

TEST(SplVerify, ReportRendersIssues) {
  const auto rep = verify_compose({dft(4), dft(5)});
  ASSERT_FALSE(rep.ok());
  const std::string s = rep.str();
  EXPECT_NE(s.find("compose-mismatch"), std::string::npos) << s;
  EXPECT_NE(s.find("DFT_4"), std::string::npos) << s;
}

}  // namespace
}  // namespace bwfft::spl
