//===- tests/smt/IncrementalTest.cpp - Incremental solving units -----------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the incremental solving core: SatSolver assertion
/// levels (clause retraction), CongruenceClosure and ArithSolver push/pop
/// trails, the level-aware ArrayReducer, and the SolverContext
/// assertion-stack protocol.
///
//===----------------------------------------------------------------------===//

#include "smt/ArrayReduction.h"
#include "smt/SolverContext.h"
#include "smt/Solver.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ids;
using namespace ids::smt;

// ------------------------------------------------------------ SatSolver --

TEST(SatLevelTest, PopRetractsClauses) {
  sat::SatSolver S;
  sat::Var A = S.newVar(), B = S.newVar();
  ASSERT_TRUE(S.addClause({sat::Lit(A, false), sat::Lit(B, false)}));
  S.pushAssertLevel();
  ASSERT_TRUE(S.addClause({sat::Lit(A, true)}));
  // Forcing !b too contradicts (a | b) at the root: addClause reports the
  // level-1 refutation immediately.
  EXPECT_FALSE(S.addClause({sat::Lit(B, true)}));
  EXPECT_EQ(S.solve(), sat::SatSolver::Result::Unsat);
  EXPECT_TRUE(S.unsatAtCurrentLevel());
  S.popAssertLevel();
  EXPECT_FALSE(S.unsatAtCurrentLevel());
  EXPECT_EQ(S.solve(), sat::SatSolver::Result::Sat);
  // (a | b) alone is satisfiable; the unit retractions must be gone.
  EXPECT_TRUE(S.modelValue(A) || S.modelValue(B));
}

TEST(SatLevelTest, PopRetractsRootImplications) {
  sat::SatSolver S;
  sat::Var A = S.newVar(), B = S.newVar();
  // a -> b at level 0.
  ASSERT_TRUE(S.addClause({sat::Lit(A, true), sat::Lit(B, false)}));
  S.pushAssertLevel();
  ASSERT_TRUE(S.addClause({sat::Lit(A, false)})); // forces a, hence b
  EXPECT_EQ(S.solve(), sat::SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
  S.resetToRoot();
  S.popAssertLevel();
  S.pushAssertLevel();
  ASSERT_TRUE(S.addClause({sat::Lit(B, true)})); // now force !b, hence !a
  EXPECT_EQ(S.solve(), sat::SatSolver::Result::Sat);
  EXPECT_FALSE(S.modelValue(B));
  EXPECT_FALSE(S.modelValue(A));
}

TEST(SatLevelTest, NestedLevels) {
  sat::SatSolver S;
  sat::Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  ASSERT_TRUE(S.addClause({sat::Lit(A, false), sat::Lit(B, false),
                           sat::Lit(C, false)}));
  S.pushAssertLevel();
  ASSERT_TRUE(S.addClause({sat::Lit(A, true)}));
  S.pushAssertLevel();
  ASSERT_TRUE(S.addClause({sat::Lit(B, true)}));
  EXPECT_EQ(S.solve(), sat::SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(C));
  S.resetToRoot();
  S.pushAssertLevel();
  // c was root-implied by the two unit levels; forcing !c refutes at the
  // current level already.
  EXPECT_FALSE(S.addClause({sat::Lit(C, true)}));
  EXPECT_EQ(S.solve(), sat::SatSolver::Result::Unsat);
  S.popAssertLevel(); // drop !c
  S.popAssertLevel(); // drop !b
  EXPECT_EQ(S.solve(), sat::SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(B) || S.modelValue(C));
  S.popAssertLevel(); // drop !a
  EXPECT_EQ(S.solve(), sat::SatSolver::Result::Sat);
}

// --------------------------------------------------- CongruenceClosure --

namespace {
class CcLevelTest : public ::testing::Test {
protected:
  TermManager TM;
  TermRef loc(const std::string &N) { return TM.mkVar(N, TM.locSort()); }
  TermRef f(TermRef X) {
    const FuncDecl *D = TM.getFuncDecl("f", {TM.locSort()}, TM.locSort());
    return TM.mkApply(D, {X});
  }
};
} // namespace

TEST_F(CcLevelTest, PopUndoesMerge) {
  CongruenceClosure CC(TM);
  TermRef A = loc("a"), B = loc("b"), C = loc("c");
  EXPECT_TRUE(CC.assertEqual(A, B, 0));
  CC.push();
  EXPECT_TRUE(CC.assertEqual(B, C, 1));
  EXPECT_TRUE(CC.areEqual(A, C));
  CC.pop();
  EXPECT_TRUE(CC.areEqual(A, B));
  EXPECT_FALSE(CC.areEqual(A, C));
}

TEST_F(CcLevelTest, PopUndoesCongruence) {
  CongruenceClosure CC(TM);
  TermRef A = loc("a"), B = loc("b");
  CC.registerTerm(f(A));
  CC.registerTerm(f(B));
  CC.push();
  EXPECT_TRUE(CC.assertEqual(A, B, 0));
  EXPECT_TRUE(CC.areEqual(f(A), f(B)));
  CC.pop();
  EXPECT_FALSE(CC.areEqual(f(A), f(B)));
  // Re-assert after the pop: congruence must fire again.
  EXPECT_TRUE(CC.assertEqual(A, B, 1));
  EXPECT_TRUE(CC.areEqual(f(A), f(B)));
}

TEST_F(CcLevelTest, PopUndoesRegistration) {
  CongruenceClosure CC(TM);
  TermRef A = loc("a");
  CC.registerTerm(A);
  size_t Before = CC.terms().size();
  CC.push();
  CC.registerTerm(f(f(A)));
  EXPECT_GT(CC.terms().size(), Before);
  CC.pop();
  EXPECT_EQ(CC.terms().size(), Before);
  EXPECT_FALSE(CC.isRegistered(f(A)));
  // Re-registration after pop must not corrupt the signature table.
  CC.registerTerm(f(f(A)));
  EXPECT_TRUE(CC.isRegistered(f(A)));
}

TEST_F(CcLevelTest, PopClearsConflict) {
  CongruenceClosure CC(TM);
  TermRef A = loc("a"), B = loc("b");
  EXPECT_TRUE(CC.assertDisequal(A, B, 0));
  CC.push();
  EXPECT_FALSE(CC.assertEqual(A, B, 1));
  EXPECT_TRUE(CC.inConflict());
  CC.pop();
  EXPECT_FALSE(CC.inConflict());
  EXPECT_FALSE(CC.areEqual(A, B));
  EXPECT_TRUE(CC.areDisequal(A, B));
}

TEST_F(CcLevelTest, DeepPushPopStress) {
  // Interleaved merges across nested levels with congruence chains; after
  // unwinding, the base equalities must be intact and nothing else.
  CongruenceClosure CC(TM);
  std::vector<TermRef> Xs;
  for (int I = 0; I < 8; ++I)
    Xs.push_back(loc("x" + std::to_string(I)));
  for (TermRef X : Xs)
    CC.registerTerm(f(X));
  EXPECT_TRUE(CC.assertEqual(Xs[0], Xs[1], 0));
  for (int Round = 0; Round < 3; ++Round) {
    CC.push();
    EXPECT_TRUE(CC.assertEqual(Xs[2], Xs[3], 10 + Round));
    CC.push();
    EXPECT_TRUE(CC.assertEqual(Xs[1], Xs[2], 20 + Round));
    EXPECT_TRUE(CC.areEqual(f(Xs[0]), f(Xs[3])));
    CC.pop();
    EXPECT_FALSE(CC.areEqual(Xs[1], Xs[2]));
    EXPECT_TRUE(CC.areEqual(f(Xs[2]), f(Xs[3])));
    CC.pop();
    EXPECT_FALSE(CC.areEqual(Xs[2], Xs[3]));
    EXPECT_TRUE(CC.areEqual(f(Xs[0]), f(Xs[1])));
  }
}

// ---------------------------------------------------------- ArithSolver --

namespace {
LinTerm poly(std::initializer_list<std::pair<int, int64_t>> Cs,
             int64_t Const = 0) {
  LinTerm P;
  for (auto [V, C] : Cs)
    P.add(V, Rational(C));
  P.Const = Rational(Const);
  return P;
}
} // namespace

TEST(ArithLevelTest, PopRetractsBounds) {
  ArithSolver A;
  int X = A.addVar(false);
  EXPECT_TRUE(A.assertAtom(poly({{X, -1}}, 1), ArithSolver::Op::Le, 0));
  A.push();
  EXPECT_TRUE(A.assertAtom(poly({{X, 1}}, -3), ArithSolver::Op::Le, 1));
  A.push();
  // x >= 5 contradicts x <= 3: immediate bound conflict.
  EXPECT_FALSE(A.assertAtom(poly({{X, -1}}, 5), ArithSolver::Op::Le, 2));
  std::set<int> Core;
  EXPECT_EQ(A.check(Core), ArithSolver::Result::Unsat);
  A.pop();
  Core.clear();
  EXPECT_EQ(A.check(Core), ArithSolver::Result::Sat);
  EXPECT_LE(A.modelValue(X), Rational(3));
  A.pop();
  // Upper bound gone: x = 10 must be admissible again.
  EXPECT_TRUE(A.assertAtom(poly({{X, -1}}, 10), ArithSolver::Op::Le, 3));
  Core.clear();
  EXPECT_EQ(A.check(Core), ArithSolver::Result::Sat);
  EXPECT_GE(A.modelValue(X), Rational(10));
}

TEST(ArithLevelTest, PopRetractsDiseqsAndTrivialConflict) {
  ArithSolver A;
  int X = A.addVar(true);
  EXPECT_TRUE(A.assertAtom(poly({{X, 1}}, 0), ArithSolver::Op::Eq, 0));
  A.push();
  EXPECT_TRUE(A.assertAtom(poly({{X, 1}}, 0), ArithSolver::Op::Ne, 1));
  std::set<int> Core;
  EXPECT_EQ(A.check(Core), ArithSolver::Result::Unsat);
  A.pop();
  Core.clear();
  EXPECT_EQ(A.check(Core), ArithSolver::Result::Sat);
  EXPECT_EQ(A.modelValue(X), Rational(0));
  // Trivial conflict above a level must clear on pop.
  A.push();
  LinTerm Bad;
  Bad.Const = Rational(1);
  EXPECT_FALSE(A.assertAtom(Bad, ArithSolver::Op::Le, 2));
  A.pop();
  Core.clear();
  EXPECT_EQ(A.check(Core), ArithSolver::Result::Sat);
}

TEST(ArithLevelTest, SlackRowsSurvivePops) {
  // Slack definitions created above a popped level persist; re-asserting
  // the same polynomial must reuse them and still solve correctly.
  ArithSolver A;
  int X = A.addVar(false), Y = A.addVar(false);
  EXPECT_TRUE(A.assertAtom(poly({{X, 1}, {Y, 1}}, -4), ArithSolver::Op::Eq, 0));
  for (int Round = 0; Round < 3; ++Round) {
    A.push();
    EXPECT_TRUE(
        A.assertAtom(poly({{X, 1}, {Y, -1}}, 0), ArithSolver::Op::Eq, 1));
    std::set<int> Core;
    EXPECT_EQ(A.check(Core), ArithSolver::Result::Sat);
    EXPECT_EQ(A.modelValue(X), Rational(2));
    EXPECT_EQ(A.modelValue(Y), Rational(2));
    A.pop();
  }
}

// --------------------------------------------------------- ArrayReducer --

TEST(ArrayReducerTest, MatchesOneShotLemmaSet) {
  // The incremental reducer must reach the same lemma fixpoint as the
  // one-shot reduceArrays for the same assertion set (modulo the fresh
  // witness variables, which both mint independently — this formula has
  // no negative array equality, so the sets must match exactly).
  TermManager TM;
  const Sort *IntInt = TM.getArraySort(TM.intSort(), TM.intSort());
  TermRef A = TM.mkVar("a", IntInt);
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  TermRef St = TM.mkStore(A, X, TM.mkIntConst(7));
  TermRef F1 = TM.mkEq(TM.mkSelect(St, Y), TM.mkIntConst(7));
  TermRef F2 = TM.mkLt(TM.mkSelect(A, X), TM.mkIntConst(9));

  ArrayReductionStats OneShot;
  reduceArrays(TM, TM.mkAnd(F1, F2), &OneShot, /*Eager=*/false);

  ArrayReducer R(TM);
  std::vector<TermRef> L1 = R.assertFormula(F1);
  std::vector<TermRef> L2 = R.assertFormula(F2);
  EXPECT_EQ(L1.size() + L2.size(), OneShot.NumLemmas);
}

TEST(ArrayReducerTest, PopRetractsDemands) {
  TermManager TM;
  const Sort *IntInt = TM.getArraySort(TM.intSort(), TM.intSort());
  TermRef A = TM.mkVar("a", IntInt);
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef St = TM.mkStore(A, TM.mkIntConst(1), TM.mkIntConst(2));
  TermRef Q = TM.mkEq(TM.mkSelect(St, X), TM.mkIntConst(2));

  ArrayReducer R(TM);
  R.push();
  std::vector<TermRef> First = R.assertFormula(Q);
  EXPECT_FALSE(First.empty());
  R.pop();
  R.push();
  // After the pop the demand records are retracted, so the same assertion
  // must re-derive the same lemmas rather than returning nothing.
  std::vector<TermRef> Second = R.assertFormula(Q);
  EXPECT_EQ(First.size(), Second.size());
  R.pop();
}

// -------------------------------------------------------- SolverContext --

namespace {
class ContextTest : public ::testing::Test {
protected:
  TermManager TM;
  SolverOptions Opts;
};
} // namespace

TEST_F(ContextTest, PushPopVerdicts) {
  SolverContext Ctx(TM, Opts);
  TermRef X = TM.mkVar("x", TM.intSort());
  Ctx.assertTerm(TM.mkLe(TM.mkIntConst(0), X));
  EXPECT_EQ(Ctx.checkSat(), SolverResult::Sat);
  Ctx.push();
  Ctx.assertTerm(TM.mkLt(X, TM.mkIntConst(0)));
  EXPECT_EQ(Ctx.checkSat(), SolverResult::Unsat);
  Ctx.pop();
  EXPECT_EQ(Ctx.checkSat(), SolverResult::Sat);
  Ctx.push();
  Ctx.assertTerm(TM.mkEq(X, TM.mkIntConst(3)));
  EXPECT_EQ(Ctx.checkSat(), SolverResult::Sat);
  Value V = Ctx.model().evaluate(X);
  EXPECT_EQ(V.K, Value::Kind::Int);
  EXPECT_EQ(V.I, BigInt(3));
  Ctx.pop();
}

TEST_F(ContextTest, CheckSatAssuming) {
  SolverContext Ctx(TM, Opts);
  TermRef P = TM.mkVar("p", TM.boolSort());
  TermRef Q = TM.mkVar("q", TM.boolSort());
  Ctx.assertTerm(TM.mkImplies(P, Q));
  EXPECT_EQ(Ctx.checkSatAssuming(TM.mkAnd(P, TM.mkNot(Q))),
            SolverResult::Unsat);
  EXPECT_EQ(Ctx.checkSatAssuming(TM.mkAnd(P, Q)), SolverResult::Sat);
  EXPECT_EQ(Ctx.checkSat(), SolverResult::Sat);
}

TEST_F(ContextTest, ArrayPrefixSharedAcrossClaims) {
  // The batching pattern: array facts in the prefix, per-claim negations
  // pushed and popped. All three claims are consequences of the prefix.
  SolverContext Ctx(TM, Opts);
  const Sort *IntInt = TM.getArraySort(TM.intSort(), TM.intSort());
  TermRef A = TM.mkVar("a", IntInt);
  TermRef I = TM.mkVar("i", TM.intSort());
  TermRef J = TM.mkVar("j", TM.intSort());
  TermRef St = TM.mkStore(A, I, TM.mkIntConst(5));
  Ctx.assertTerm(TM.mkDistinct(I, J));
  Ctx.assertTerm(TM.mkEq(TM.mkSelect(A, J), TM.mkIntConst(1)));

  std::vector<TermRef> Claims = {
      TM.mkEq(TM.mkSelect(St, I), TM.mkIntConst(5)),
      TM.mkEq(TM.mkSelect(St, J), TM.mkIntConst(1)),
      TM.mkLt(TM.mkSelect(St, J), TM.mkSelect(St, I)),
  };
  for (TermRef C : Claims) {
    Ctx.push();
    Ctx.assertTerm(TM.mkNot(C));
    EXPECT_EQ(Ctx.checkSat(), SolverResult::Unsat) << "claim not proved";
    Ctx.pop();
  }
  // And a non-consequence must stay Sat (no over-retention of lemmas).
  Ctx.push();
  Ctx.assertTerm(TM.mkNot(TM.mkEq(TM.mkSelect(St, J), TM.mkIntConst(2))));
  EXPECT_EQ(Ctx.checkSat(), SolverResult::Sat);
  Ctx.pop();
}

TEST_F(ContextTest, PerCheckStatsAreDeltas) {
  SolverContext Ctx(TM, Opts);
  TermRef X = TM.mkVar("x", TM.intSort());
  Ctx.assertTerm(TM.mkLe(TM.mkIntConst(0), X));
  Ctx.checkSat();
  uint64_t FirstChecks = Ctx.lastCheckStats().TheoryChecks;
  EXPECT_GT(FirstChecks, 0u);
  Ctx.push();
  Ctx.assertTerm(TM.mkLe(X, TM.mkIntConst(10)));
  Ctx.checkSat();
  // The second check's window must not include the first check's count.
  EXPECT_LT(Ctx.lastCheckStats().TheoryChecks, FirstChecks + 10);
  Ctx.pop();
}

TEST_F(ContextTest, ArrayLemmasCountedAtAssert) {
  // The reducer emits every array lemma while the assertion is encoded,
  // so smt.array_lemmas must rise in assertTerm by exactly the context's
  // own lemma count, and the check must not add to it.
  trace::Counter &Lemmas = trace::counter("smt.array_lemmas");
  const uint64_t Before = Lemmas.value();
  SolverContext Ctx(TM, Opts);
  const Sort *IntInt = TM.getArraySort(TM.intSort(), TM.intSort());
  TermRef A = TM.mkVar("a", IntInt);
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  TermRef St = TM.mkStore(A, X, TM.mkIntConst(7));
  Ctx.assertTerm(TM.mkAnd(TM.mkEq(TM.mkSelect(St, Y), TM.mkIntConst(3)),
                          TM.mkEq(TM.mkSelect(A, Y), TM.mkIntConst(3))));
  ASSERT_GT(Ctx.numArrayLemmas(), 0u);
  EXPECT_EQ(Lemmas.value() - Before, Ctx.numArrayLemmas());
  EXPECT_EQ(Ctx.checkSat(), SolverResult::Sat);
  EXPECT_EQ(Lemmas.value() - Before, Ctx.numArrayLemmas());
}

TEST_F(ContextTest, TheoryPropReasonsAcrossPop) {
  // An equality chain entails the a=c atom, which theory propagation
  // asserts at the root instead of leaving it to a decision. A later
  // level contradicts it, so conflict analysis must consume the
  // propagated literal's lazily explained reason under an open assertion
  // level — and the pop must retract the level without stranding any
  // propagation bookkeeping (verdicts flip back cleanly).
  SolverOptions PropOpts = Opts;
  PropOpts.TheoryPropagation = true;
  SolverContext Ctx(TM, PropOpts);
  TermRef A = TM.mkVar("a", TM.intSort());
  TermRef B = TM.mkVar("b", TM.intSort());
  TermRef C = TM.mkVar("c", TM.intSort());
  TermRef D = TM.mkVar("d", TM.boolSort());
  Ctx.assertTerm(TM.mkEq(A, B));
  Ctx.assertTerm(TM.mkEq(B, C));
  Ctx.assertTerm(TM.mkOr(TM.mkEq(A, C), D));
  ASSERT_EQ(Ctx.checkSat(), SolverResult::Sat);
  EXPECT_GT(Ctx.lastCheckStats().TheoryPropagations, 0u);

  Ctx.push();
  Ctx.assertTerm(TM.mkNot(TM.mkEq(A, C)));
  EXPECT_EQ(Ctx.checkSat(), SolverResult::Unsat);
  Ctx.pop();
  EXPECT_EQ(Ctx.checkSat(), SolverResult::Sat);

  // Same shape through the arithmetic side: c = a + 1 contradicts the
  // chain via bounds rather than congruence.
  Ctx.push();
  Ctx.assertTerm(TM.mkEq(C, TM.mkAdd(A, TM.mkIntConst(1))));
  EXPECT_EQ(Ctx.checkSat(), SolverResult::Unsat);
  Ctx.pop();
  EXPECT_EQ(Ctx.checkSat(), SolverResult::Sat);
}

TEST_F(ContextTest, AgreesWithOneShotOnConjunction) {
  // Incremental verdicts must match a fresh one-shot solve of the active
  // conjunction at every step of a scripted push/pop sequence.
  SolverContext Ctx(TM, Opts);
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  const Sort *IntBool = TM.getArraySort(TM.intSort(), TM.boolSort());
  TermRef S0 = TM.mkVar("s", IntBool);

  std::vector<TermRef> Active;
  auto CrossCheck = [&]() {
    SolverResult Inc = Ctx.checkSat();
    TermManager Fresh;
    Solver OneShot(Fresh);
    SolverResult Ref = OneShot.checkSat(Fresh.import(TM.mkAnd(Active)));
    EXPECT_EQ(static_cast<int>(Inc), static_cast<int>(Ref));
  };

  auto Assert = [&](TermRef F) {
    Ctx.assertTerm(F);
    Active.push_back(F);
  };

  Assert(TM.mkMember(X, TM.mkSetInsert(S0, X)));
  CrossCheck();
  Ctx.push();
  size_t Mark = Active.size();
  Assert(TM.mkNot(TM.mkMember(Y, S0)));
  Assert(TM.mkEq(X, Y));
  CrossCheck();
  Ctx.push();
  size_t Mark2 = Active.size();
  Assert(TM.mkMember(Y, S0));
  CrossCheck(); // unsat
  Ctx.pop();
  Active.resize(Mark2);
  CrossCheck();
  Ctx.pop();
  Active.resize(Mark);
  CrossCheck();
}
