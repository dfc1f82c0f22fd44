//===- tests/pipeline/SimplifyTest.cpp - Simplifier unit tests -------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the VC simplifier: the extra rewrite rules beyond the
/// smart constructors (complement collapse, read-over-write resolution,
/// select expansion over pointwise maps), rewrite idempotence, and
/// guard-equality substitution including its soundness-critical occurs
/// and simultaneity checks.
///
//===----------------------------------------------------------------------===//

#include "pipeline/Simplify.h"

#include <gtest/gtest.h>

using namespace ids;
using namespace ids::pipeline;
using namespace ids::smt;

namespace {

class SimplifyTest : public ::testing::Test {
protected:
  TermManager TM;
  Simplifier Simp{TM};

  TermRef intVar(const char *Name) { return TM.mkVar(Name, TM.intSort()); }
  TermRef boolVar(const char *Name) { return TM.mkVar(Name, TM.boolSort()); }
  TermRef arrVar(const char *Name) {
    return TM.mkVar(Name, TM.getArraySort(TM.intSort(), TM.intSort()));
  }
};

TEST_F(SimplifyTest, ComplementCollapseInAnd) {
  TermRef P = boolVar("p"), Q = boolVar("q");
  TermRef T = TM.mkAnd({P, Q, TM.mkNot(P)});
  EXPECT_EQ(Simp.rewrite(T), TM.mkFalse());
}

TEST_F(SimplifyTest, ComplementCollapseInOr) {
  TermRef X = intVar("x"), Y = intVar("y");
  TermRef A = TM.mkLe(X, Y);
  TermRef T = TM.mkOr({A, TM.mkNot(A)});
  EXPECT_EQ(Simp.rewrite(T), TM.mkTrue());
}

TEST_F(SimplifyTest, ReadOverWriteDistinctConstIndices) {
  TermRef A = arrVar("a");
  TermRef X = intVar("x"), Y = intVar("y");
  // select(store(store(a, 1, x), 2, y), 1): the outer store's index 2 is
  // provably distinct from 1; the inner store hits.
  TermRef T = TM.mkSelect(
      TM.mkStore(TM.mkStore(A, TM.mkIntConst(1), X), TM.mkIntConst(2), Y),
      TM.mkIntConst(1));
  ASSERT_EQ(T->getKind(), TermKind::Select) << "smart ctor must not resolve";
  EXPECT_EQ(Simp.rewrite(T), X);
}

TEST_F(SimplifyTest, ReadOverWriteStopsAtMaybeAliasingIndex) {
  TermRef A = arrVar("a");
  TermRef I = intVar("i"), X = intVar("x");
  // select(store(a, i, x), 0) cannot resolve: i may equal 0.
  TermRef T = TM.mkSelect(TM.mkStore(A, I, X), TM.mkIntConst(0));
  EXPECT_EQ(Simp.rewrite(T), T);
}

TEST_F(SimplifyTest, SelectExpandsOverSetOperations) {
  const Sort *SetSort = TM.getArraySort(TM.intSort(), TM.boolSort());
  TermRef S1 = TM.mkVar("s1", SetSort), S2 = TM.mkVar("s2", SetSort);
  TermRef K = intVar("k");
  TermRef T = TM.mkMember(K, TM.mkSetUnion(S1, S2));
  TermRef R = Simp.rewrite(T);
  EXPECT_EQ(R, TM.mkOr(TM.mkSelect(S1, K), TM.mkSelect(S2, K)));

  // Membership in a freshly inserted element resolves outright.
  TermRef Ins = TM.mkMember(K, TM.mkSetInsert(TM.mkEmptySet(TM.intSort()), K));
  EXPECT_EQ(Simp.rewrite(Ins), TM.mkTrue());
}

TEST_F(SimplifyTest, SelectExpandsOverPwIte) {
  const Sort *SetSort = TM.getArraySort(TM.intSort(), TM.boolSort());
  const Sort *ArrSort = TM.getArraySort(TM.intSort(), TM.intSort());
  TermRef G = TM.mkVar("g", SetSort);
  TermRef A = TM.mkVar("a", ArrSort), B = TM.mkVar("b", ArrSort);
  TermRef K = intVar("k");
  TermRef T = TM.mkSelect(TM.mkPwIte(G, A, B), K);
  EXPECT_EQ(Simp.rewrite(T),
            TM.mkIte(TM.mkSelect(G, K), TM.mkSelect(A, K),
                     TM.mkSelect(B, K)));
}

TEST_F(SimplifyTest, RewriteIsIdempotentOnRandomTerms) {
  // A small deterministic corpus mixing every operator family.
  std::vector<TermRef> Corpus;
  TermRef X = intVar("x"), Y = intVar("y"), Z = intVar("z");
  TermRef P = boolVar("p"), Q = boolVar("q");
  TermRef A = arrVar("a");
  Corpus.push_back(TM.mkAnd({P, TM.mkOr(Q, TM.mkNot(P)), TM.mkLe(X, Y)}));
  Corpus.push_back(TM.mkIte(TM.mkEq(X, Y), TM.mkAdd(X, Z), Y));
  Corpus.push_back(
      TM.mkSelect(TM.mkStore(TM.mkStore(A, TM.mkIntConst(3), X), Y, Z), X));
  Corpus.push_back(TM.mkEq(TM.mkSelect(A, TM.mkAdd(X, TM.mkIntConst(1))), Y));
  Corpus.push_back(TM.mkImplies(TM.mkLt(X, Y), TM.mkLe(X, Y)));
  Corpus.push_back(TM.mkNot(TM.mkAnd(P, TM.mkNot(P))));
  for (TermRef T : Corpus) {
    TermRef Once = Simp.rewrite(T);
    EXPECT_EQ(Simp.rewrite(Once), Once);
  }
}

TEST_F(SimplifyTest, GuardEqualitySubstitutionDischargesObligation) {
  // x == 3 /\ y == x + 1  =>  y <= 4 folds closed.
  TermRef X = intVar("x"), Y = intVar("y");
  TermRef Guard = TM.mkAnd(TM.mkEq(X, TM.mkIntConst(3)),
                           TM.mkEq(Y, TM.mkAdd(X, TM.mkIntConst(1))));
  TermRef Claim = TM.mkLe(Y, TM.mkIntConst(4));
  std::vector<Elimination> Eliminated;
  EXPECT_TRUE(Simp.simplifyObligation(Guard, Claim, &Eliminated));
  EXPECT_GE(Eliminated.size(), 2u);
}

TEST_F(SimplifyTest, BooleanLiteralConjunctsPropagate) {
  // p /\ !q  =>  (p \/ q) rewrites closed.
  TermRef P = boolVar("p"), Q = boolVar("q");
  TermRef Guard = TM.mkAnd(P, TM.mkNot(Q));
  TermRef Claim = TM.mkOr(P, Q);
  EXPECT_TRUE(Simp.simplifyObligation(Guard, Claim));
}

TEST_F(SimplifyTest, CyclicEqualitiesAreNotBothEliminated) {
  // x == y /\ y == x must not drop both equalities; the obligation
  // x == y => f-free claim x <= y must still be provable and, critically,
  // y <= x + 1 must NOT be weakened into an unconstrained claim.
  TermRef X = intVar("x"), Y = intVar("y");
  TermRef Guard = TM.mkAnd(TM.mkEq(X, Y), TM.mkEq(Y, X));
  TermRef Claim = TM.mkLe(X, Y);
  // mkEq interns both conjuncts identically, so this reduces to x == y;
  // substitution maps one variable onto the other and the claim folds.
  EXPECT_TRUE(Simp.simplifyObligation(Guard, Claim));
}

TEST_F(SimplifyTest, ChainedDefinitionsKeepConstraints) {
  // x == f(y)-style chains via arrays: x == a[y] /\ y == 2 => x == a[2].
  TermRef X = intVar("x"), Y = intVar("y");
  TermRef A = arrVar("a");
  TermRef Guard = TM.mkAnd(TM.mkEq(X, TM.mkSelect(A, Y)),
                           TM.mkEq(Y, TM.mkIntConst(2)));
  TermRef Claim = TM.mkEq(X, TM.mkSelect(A, TM.mkIntConst(2)));
  EXPECT_TRUE(Simp.simplifyObligation(Guard, Claim));
}

TEST_F(SimplifyTest, GuardFalseDischarges) {
  TermRef X = intVar("x");
  TermRef Guard = TM.mkAnd(TM.mkLe(X, TM.mkIntConst(1)),
                           TM.mkEq(X, TM.mkIntConst(5)));
  // After substituting x := 5 the first conjunct folds to false.
  TermRef Claim = TM.mkEq(intVar("unrelated"), TM.mkIntConst(0));
  EXPECT_TRUE(Simp.simplifyObligation(Guard, Claim));
}

TEST_F(SimplifyTest, UnprovableObligationIsNotDischarged) {
  TermRef X = intVar("x"), Y = intVar("y");
  TermRef Guard = TM.mkLe(X, Y);
  TermRef Claim = TM.mkLe(Y, X);
  EXPECT_FALSE(Simp.simplifyObligation(Guard, Claim));
}

} // namespace
