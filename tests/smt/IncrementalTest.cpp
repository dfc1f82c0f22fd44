//===- tests/smt/IncrementalTest.cpp - Incremental solving units -----------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the solving core under the SolverContext:
/// CongruenceClosure and ArithSolver push/pop trails (the theory engines
/// sync them to the SAT trail), the incremental ArrayReducer, and
/// SolverContext verdicts, models and counters (one context per check).
///
//===----------------------------------------------------------------------===//

#include "smt/ArrayReduction.h"
#include "smt/SolverContext.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ids;
using namespace ids::smt;

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
  // The reducer must reach the same lemma fixpoint whether the assertion
  // set arrives in two calls or as one conjunction (modulo the fresh
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

  ArrayReducer OneShot(TM);
  std::vector<TermRef> All = OneShot.assertFormula(TM.mkAnd(F1, F2));

  ArrayReducer R(TM);
  std::vector<TermRef> L1 = R.assertFormula(F1);
  std::vector<TermRef> L2 = R.assertFormula(F2);
  EXPECT_EQ(L1.size() + L2.size(), All.size());
}

// -------------------------------------------------------- SolverContext --

namespace {
class ContextTest : public ::testing::Test {
protected:
  TermManager TM;
  SolverOptions Opts;
};

/// Asserts \p Fs on a fresh context and checks it once.
SolverResult checkFresh(TermManager &TM, const SolverOptions &Opts,
                        const std::vector<TermRef> &Fs,
                        Model *ModelOut = nullptr) {
  SolverContext Ctx(TM, Opts);
  for (TermRef F : Fs)
    Ctx.assertTerm(F);
  SolverResult R = Ctx.checkSat();
  if (ModelOut)
    *ModelOut = Ctx.model();
  return R;
}
} // namespace

TEST_F(ContextTest, PushPopVerdicts) {
  // Verdicts of a growing and shrinking assertion set, one context each.
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef NonNeg = TM.mkLe(TM.mkIntConst(0), X);
  EXPECT_EQ(checkFresh(TM, Opts, {NonNeg}), SolverResult::Sat);
  EXPECT_EQ(checkFresh(TM, Opts, {NonNeg, TM.mkLt(X, TM.mkIntConst(0))}),
            SolverResult::Unsat);
  EXPECT_EQ(checkFresh(TM, Opts, {NonNeg}), SolverResult::Sat);
  Model M;
  EXPECT_EQ(checkFresh(TM, Opts, {NonNeg, TM.mkEq(X, TM.mkIntConst(3))}, &M),
            SolverResult::Sat);
  Value V = M.evaluate(X);
  EXPECT_EQ(V.K, Value::Kind::Int);
  EXPECT_EQ(V.I, BigInt(3));
}

TEST_F(ContextTest, CheckSatAssuming) {
  // A base assertion strengthened by one assumption per check.
  TermRef P = TM.mkVar("p", TM.boolSort());
  TermRef Q = TM.mkVar("q", TM.boolSort());
  TermRef Base = TM.mkImplies(P, Q);
  EXPECT_EQ(checkFresh(TM, Opts, {Base, TM.mkAnd(P, TM.mkNot(Q))}),
            SolverResult::Unsat);
  EXPECT_EQ(checkFresh(TM, Opts, {Base, TM.mkAnd(P, Q)}), SolverResult::Sat);
  EXPECT_EQ(checkFresh(TM, Opts, {Base}), SolverResult::Sat);
}

TEST_F(ContextTest, ArrayPrefixSharedAcrossClaims) {
  // Array facts shared by several claims, each claim negated on its own
  // context. All three claims are consequences of the shared facts.
  const Sort *IntInt = TM.getArraySort(TM.intSort(), TM.intSort());
  TermRef A = TM.mkVar("a", IntInt);
  TermRef I = TM.mkVar("i", TM.intSort());
  TermRef J = TM.mkVar("j", TM.intSort());
  TermRef St = TM.mkStore(A, I, TM.mkIntConst(5));
  std::vector<TermRef> Prefix = {
      TM.mkDistinct(I, J), TM.mkEq(TM.mkSelect(A, J), TM.mkIntConst(1))};

  std::vector<TermRef> Claims = {
      TM.mkEq(TM.mkSelect(St, I), TM.mkIntConst(5)),
      TM.mkEq(TM.mkSelect(St, J), TM.mkIntConst(1)),
      TM.mkLt(TM.mkSelect(St, J), TM.mkSelect(St, I)),
  };
  for (TermRef C : Claims) {
    std::vector<TermRef> Fs = Prefix;
    Fs.push_back(TM.mkNot(C));
    EXPECT_EQ(checkFresh(TM, Opts, Fs), SolverResult::Unsat)
        << "claim not proved";
  }
  // And a non-consequence must stay Sat.
  std::vector<TermRef> Fs = Prefix;
  Fs.push_back(TM.mkNot(TM.mkEq(TM.mkSelect(St, J), TM.mkIntConst(2))));
  EXPECT_EQ(checkFresh(TM, Opts, Fs), SolverResult::Sat);
}

TEST_F(ContextTest, ArrayLemmasCountedAtCheck) {
  // The reducer emits every array lemma while the assertion is encoded;
  // the check adds the context's counts to the registry once, so
  // smt.array_lemmas rises at the check by exactly the context's own
  // lemma count.
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
  EXPECT_EQ(Lemmas.value(), Before);
  EXPECT_EQ(Ctx.checkSat(), SolverResult::Sat);
  EXPECT_EQ(Lemmas.value() - Before, Ctx.numArrayLemmas());
}

TEST_F(ContextTest, TheoryPropReasonsAcrossPop) {
  // An equality chain entails the a=c atom, which theory propagation
  // asserts at the root instead of leaving it to a decision. Adding a
  // contradiction makes conflict analysis consume the propagated
  // literal's lazily explained reason; without it the chain stays Sat.
  SolverOptions PropOpts = Opts;
  PropOpts.Theory = TheoryMode::Propagate;
  TermRef A = TM.mkVar("a", TM.intSort());
  TermRef B = TM.mkVar("b", TM.intSort());
  TermRef C = TM.mkVar("c", TM.intSort());
  TermRef D = TM.mkVar("d", TM.boolSort());
  std::vector<TermRef> Chain = {TM.mkEq(A, B), TM.mkEq(B, C),
                                TM.mkOr(TM.mkEq(A, C), D)};
  trace::Counter &Props = trace::counter("smt.theory_propagations");
  const uint64_t PropsBefore = Props.value();
  ASSERT_EQ(checkFresh(TM, PropOpts, Chain), SolverResult::Sat);
  EXPECT_GT(Props.value() - PropsBefore, 0u);

  std::vector<TermRef> Fs = Chain;
  Fs.push_back(TM.mkNot(TM.mkEq(A, C)));
  EXPECT_EQ(checkFresh(TM, PropOpts, Fs), SolverResult::Unsat);
  EXPECT_EQ(checkFresh(TM, PropOpts, Chain), SolverResult::Sat);

  // Same shape through the arithmetic side: c = a + 1 contradicts the
  // chain via bounds rather than congruence.
  Fs = Chain;
  Fs.push_back(TM.mkEq(C, TM.mkAdd(A, TM.mkIntConst(1))));
  EXPECT_EQ(checkFresh(TM, PropOpts, Fs), SolverResult::Unsat);
  EXPECT_EQ(checkFresh(TM, PropOpts, Chain), SolverResult::Sat);
}

TEST_F(ContextTest, AgreesWithReferenceOnConjunction) {
  // Context verdicts must match a reference solve of the same
  // conjunction, one assertion on the reference engine, at every step of
  // a scripted grow/shrink sequence.
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  const Sort *IntBool = TM.getArraySort(TM.intSort(), TM.boolSort());
  TermRef S0 = TM.mkVar("s", IntBool);

  std::vector<TermRef> Active;
  auto CrossCheck = [&]() {
    SolverResult Inc = checkFresh(TM, Opts, Active);
    TermManager Fresh;
    SolverOptions RefOpts;
    RefOpts.Theory = TheoryMode::Rebuild;
    SolverResult Ref =
        checkFresh(Fresh, RefOpts, {Fresh.import(TM.mkAnd(Active))});
    EXPECT_EQ(static_cast<int>(Inc), static_cast<int>(Ref));
  };

  Active.push_back(TM.mkMember(X, TM.mkSetInsert(S0, X)));
  CrossCheck();
  size_t Mark = Active.size();
  Active.push_back(TM.mkNot(TM.mkMember(Y, S0)));
  Active.push_back(TM.mkEq(X, Y));
  CrossCheck();
  size_t Mark2 = Active.size();
  Active.push_back(TM.mkMember(Y, S0));
  CrossCheck(); // unsat
  Active.resize(Mark2);
  CrossCheck();
  Active.resize(Mark);
  CrossCheck();
}
