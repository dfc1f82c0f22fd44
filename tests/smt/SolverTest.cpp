//===- tests/smt/SolverTest.cpp - End-to-end SMT solver tests --------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "smt/SolverContext.h"

#include <gtest/gtest.h>

#include <random>

using namespace ids;
using namespace ids::smt;

namespace {
class SolverTest : public ::testing::Test {
protected:
  TermManager TM;

  SolverResult check(TermRef F) {
    SolverContext S(TM, {});
    S.assertTerm(F);
    LastModelText.clear();
    SolverResult R = S.checkSat();
    if (R == SolverResult::Sat)
      LastModelText = S.model().toString();
    return R;
  }

  /// Checks that F is valid by refuting its negation.
  void expectValid(TermRef F) {
    EXPECT_EQ(check(TM.mkNot(F)), SolverResult::Unsat)
        << "not valid; counterexample:\n" << LastModelText;
  }
  void expectSat(TermRef F) { EXPECT_EQ(check(F), SolverResult::Sat); }
  void expectUnsat(TermRef F) { EXPECT_EQ(check(F), SolverResult::Unsat); }

  std::string LastModelText;
};
} // namespace

TEST_F(SolverTest, PropositionalBasics) {
  TermRef P = TM.mkVar("p", TM.boolSort());
  TermRef Q = TM.mkVar("q", TM.boolSort());
  expectSat(TM.mkAnd(P, TM.mkNot(Q)));
  expectUnsat(TM.mkAnd(P, TM.mkNot(P)));
  expectValid(TM.mkOr(P, TM.mkNot(P)));
  // Pierce's law ((p -> q) -> p) -> p
  expectValid(
      TM.mkImplies(TM.mkImplies(TM.mkImplies(P, Q), P), P));
}

TEST_F(SolverTest, EufBasics) {
  TermRef X = TM.mkVar("x", TM.locSort());
  TermRef Y = TM.mkVar("y", TM.locSort());
  const FuncDecl *F = TM.getFuncDecl("f", {TM.locSort()}, TM.locSort());
  TermRef FX = TM.mkApply(F, {X});
  TermRef FY = TM.mkApply(F, {Y});
  // x = y => f(x) = f(y)
  expectValid(TM.mkImplies(TM.mkEq(X, Y), TM.mkEq(FX, FY)));
  // f(x) != f(y) => x != y
  expectValid(
      TM.mkImplies(TM.mkDistinct(FX, FY), TM.mkDistinct(X, Y)));
  // x = y && f(x) != f(y) unsat
  expectUnsat(TM.mkAnd(TM.mkEq(X, Y), TM.mkDistinct(FX, FY)));
  // f(f(x)) = x && f(x) = x => nothing wrong
  expectSat(TM.mkAnd(TM.mkEq(TM.mkApply(F, {FX}), X), TM.mkEq(FX, X)));
}

TEST_F(SolverTest, ArithBasics) {
  TermRef X = TM.mkVar("xi", TM.intSort());
  TermRef Y = TM.mkVar("yi", TM.intSort());
  // x < y => x + 1 <= y (integers)
  expectValid(TM.mkImplies(TM.mkLt(X, Y),
                           TM.mkLe(TM.mkAdd(X, TM.mkIntConst(1)), Y)));
  // x < y && y < x unsat
  expectUnsat(TM.mkAnd(TM.mkLt(X, Y), TM.mkLt(Y, X)));
  // Over rationals the integer tightening must NOT hold.
  TermRef A = TM.mkVar("ar", TM.ratSort());
  TermRef B = TM.mkVar("br", TM.ratSort());
  expectSat(TM.mkAnd(TM.mkLt(A, B),
                     TM.mkLt(B, TM.mkAdd(A, TM.mkRatConst(Rational(1))))));
}

TEST_F(SolverTest, EufArithCombination) {
  // The Nelson-Oppen classic: x <= y && y <= x && f(x) != f(y) is unsat —
  // requires propagating the arithmetic-implied equality into EUF.
  TermRef X = TM.mkVar("xc", TM.intSort());
  TermRef Y = TM.mkVar("yc", TM.intSort());
  const FuncDecl *F = TM.getFuncDecl("g", {TM.intSort()}, TM.locSort());
  TermRef FX = TM.mkApply(F, {X});
  TermRef FY = TM.mkApply(F, {Y});
  expectUnsat(TM.mkAnd({TM.mkLe(X, Y), TM.mkLe(Y, X),
                        TM.mkDistinct(FX, FY)}));
  // And the EUF-implied equality must reach arithmetic: x = y && x < y.
  expectUnsat(TM.mkAnd(TM.mkEq(X, Y), TM.mkLt(X, Y)));
  // f(x)=a && f(y)=b && x=y && a != b unsat (euf->euf via congruence)
  TermRef AL = TM.mkVar("al", TM.locSort());
  TermRef BL = TM.mkVar("bl", TM.locSort());
  expectUnsat(TM.mkAnd({TM.mkEq(FX, AL), TM.mkEq(FY, BL), TM.mkEq(X, Y),
                        TM.mkDistinct(AL, BL)}));
}

TEST_F(SolverTest, ArrayReadOverWrite) {
  const Sort *ArrS = TM.getArraySort(TM.locSort(), TM.intSort());
  TermRef M = TM.mkVar("M", ArrS);
  TermRef X = TM.mkVar("x", TM.locSort());
  TermRef Y = TM.mkVar("y", TM.locSort());
  TermRef V = TM.mkVar("v", TM.intSort());
  TermRef St = TM.mkStore(M, X, V);
  // select(store(M,x,v), y) == (y==x ? v : select(M,y)) — both directions.
  expectValid(TM.mkImplies(TM.mkEq(Y, X), TM.mkEq(TM.mkSelect(St, Y), V)));
  expectValid(TM.mkImplies(TM.mkDistinct(Y, X),
                           TM.mkEq(TM.mkSelect(St, Y), TM.mkSelect(M, Y))));
  // A wrong claim must have a countermodel.
  expectSat(TM.mkNot(TM.mkEq(TM.mkSelect(St, Y), TM.mkSelect(M, Y))));
}

TEST_F(SolverTest, ArrayExtensionality) {
  const Sort *ArrS = TM.getArraySort(TM.locSort(), TM.intSort());
  TermRef A = TM.mkVar("A", ArrS);
  TermRef B = TM.mkVar("B", ArrS);
  TermRef X = TM.mkVar("x", TM.locSort());
  // A = B => A[x] = B[x]
  expectValid(TM.mkImplies(TM.mkEq(A, B),
                           TM.mkEq(TM.mkSelect(A, X), TM.mkSelect(B, X))));
  // store(A, x, A[x]) == A
  expectValid(TM.mkEq(TM.mkStore(A, X, TM.mkSelect(A, X)), A));
  // stores on distinct indices commute
  TermRef Y = TM.mkVar("y", TM.locSort());
  TermRef V1 = TM.mkIntConst(1), V2 = TM.mkIntConst(2);
  expectValid(TM.mkImplies(
      TM.mkDistinct(X, Y),
      TM.mkEq(TM.mkStore(TM.mkStore(A, X, V1), Y, V2),
              TM.mkStore(TM.mkStore(A, Y, V2), X, V1))));
  // ... but not on equal indices with different values.
  expectSat(TM.mkNot(
      TM.mkEq(TM.mkStore(TM.mkStore(A, X, V1), Y, V2),
              TM.mkStore(TM.mkStore(A, Y, V2), X, V1))));
}

TEST_F(SolverTest, SetAlgebra) {
  TermRef S1 = TM.mkVar("S1", TM.getArraySort(TM.locSort(), TM.boolSort()));
  TermRef S2 = TM.mkVar("S2", TM.getArraySort(TM.locSort(), TM.boolSort()));
  TermRef X = TM.mkVar("x", TM.locSort());
  // x in S1 => x in S1 union S2
  expectValid(TM.mkImplies(TM.mkMember(X, S1),
                           TM.mkMember(X, TM.mkSetUnion(S1, S2))));
  // x in S1 \ S2 => !(x in S2)
  expectValid(TM.mkImplies(TM.mkMember(X, TM.mkSetMinus(S1, S2)),
                           TM.mkNot(TM.mkMember(X, S2))));
  // union is commutative (extensional equality)
  expectValid(TM.mkEq(TM.mkSetUnion(S1, S2), TM.mkSetUnion(S2, S1)));
  // S1 subset S2 && x in S1 => x in S2
  expectValid(TM.mkImplies(TM.mkAnd(TM.mkSubset(S1, S2), TM.mkMember(X, S1)),
                           TM.mkMember(X, S2)));
  // disjoint(S1,S2) && x in S1 => !(x in S2)
  expectValid(TM.mkImplies(
      TM.mkAnd(TM.mkDisjoint(S1, S2), TM.mkMember(X, S1)),
      TM.mkNot(TM.mkMember(X, S2))));
  // insert then member
  expectValid(TM.mkMember(X, TM.mkSetInsert(S1, X)));
  // remove then not member
  expectValid(TM.mkNot(TM.mkMember(X, TM.mkSetRemove(S1, X))));
  // {x} disjoint S && S1 = {x} duplus S is like the paper's heaplets:
  // x must not be in S.
  TermRef Single = TM.mkSingleton(X);
  expectValid(TM.mkImplies(
      TM.mkAnd(TM.mkEq(S1, TM.mkSetUnion(Single, S2)),
               TM.mkDisjoint(Single, S2)),
      TM.mkNot(TM.mkMember(X, S2))));
}

TEST_F(SolverTest, ParameterizedMapUpdate) {
  // The paper's frame rule: M' = pwIte(Mod, H, M) leaves M'[o] == M[o]
  // for o outside Mod (Appendix A.3).
  const Sort *ArrS = TM.getArraySort(TM.locSort(), TM.intSort());
  const Sort *SetS = TM.getArraySort(TM.locSort(), TM.boolSort());
  TermRef M = TM.mkVar("Mf", ArrS);
  TermRef H = TM.mkVar("Hf", ArrS);
  TermRef Mod = TM.mkVar("Mod", SetS);
  TermRef O = TM.mkVar("o", TM.locSort());
  TermRef Updated = TM.mkPwIte(Mod, H, M);
  expectValid(TM.mkImplies(
      TM.mkNot(TM.mkMember(O, Mod)),
      TM.mkEq(TM.mkSelect(Updated, O), TM.mkSelect(M, O))));
  expectValid(TM.mkImplies(
      TM.mkMember(O, Mod),
      TM.mkEq(TM.mkSelect(Updated, O), TM.mkSelect(H, O))));
  // And inside Mod the value may genuinely change.
  expectSat(TM.mkAnd(
      TM.mkMember(O, Mod),
      TM.mkNot(TM.mkEq(TM.mkSelect(Updated, O), TM.mkSelect(M, O)))));
}

TEST_F(SolverTest, NestedSetValuedMaps) {
  // keys : Loc -> Set(Int), the shape of the paper's monadic keys map.
  const Sort *SetInt = TM.getArraySort(TM.intSort(), TM.boolSort());
  const Sort *KeysS = TM.getArraySort(TM.locSort(), SetInt);
  TermRef Keys = TM.mkVar("keys", KeysS);
  TermRef X = TM.mkVar("x", TM.locSort());
  TermRef Y = TM.mkVar("y", TM.locSort());
  TermRef K = TM.mkVar("k", TM.intSort());
  // keys(x) = {k} union keys(y) => k in keys(x)
  TermRef KX = TM.mkSelect(Keys, X);
  TermRef KY = TM.mkSelect(Keys, Y);
  expectValid(TM.mkImplies(
      TM.mkEq(KX, TM.mkSetUnion(TM.mkSingleton(K), KY)),
      TM.mkMember(K, KX)));
  // ... and members of keys(y) stay members of keys(x).
  TermRef J = TM.mkVar("j", TM.intSort());
  expectValid(TM.mkImplies(
      TM.mkAnd(TM.mkEq(KX, TM.mkSetUnion(TM.mkSingleton(K), KY)),
               TM.mkMember(J, KY)),
      TM.mkMember(J, KX)));
}

TEST_F(SolverTest, ModelEvaluationOnSat) {
  // On Sat the reported model must satisfy the formula (safety net is
  // internal, but double-check through the public API).
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  TermRef F = TM.mkAnd({TM.mkLt(X, Y), TM.mkLt(Y, TM.mkIntConst(10)),
                        TM.mkLt(TM.mkIntConst(5), X)});
  SolverContext S(TM, {});
  S.assertTerm(F);
  ASSERT_EQ(S.checkSat(), SolverResult::Sat);
  Value V = S.model().eval(F);
  EXPECT_TRUE(V.B);
}

TEST_F(SolverTest, RankMidpointPattern) {
  // rank(z) = (rank(x)+rank(y))/2 && rank(x) < rank(y)
  //   => rank(x) < rank(z) < rank(y): the sorted-list insert repair.
  const Sort *RankS = TM.getArraySort(TM.locSort(), TM.ratSort());
  TermRef Rank = TM.mkVar("rank", RankS);
  TermRef X = TM.mkVar("x", TM.locSort());
  TermRef Y = TM.mkVar("y", TM.locSort());
  TermRef Z = TM.mkVar("z", TM.locSort());
  TermRef RX = TM.mkSelect(Rank, X);
  TermRef RY = TM.mkSelect(Rank, Y);
  TermRef RZ = TM.mkSelect(Rank, Z);
  TermRef Mid = TM.mkMulConst(Rational(1, 2), TM.mkAdd(RX, RY));
  expectValid(TM.mkImplies(
      TM.mkAnd(TM.mkEq(RZ, Mid), TM.mkLt(RX, RY)),
      TM.mkAnd(TM.mkLt(RX, RZ), TM.mkLt(RZ, RY))));
}

TEST_F(SolverTest, QuantifiedModeFrameAxiom) {
  // The RQ3 "Dafny-style" frame axiom with an explicit quantifier:
  // (forall o. o notin Mod => M'[o] = M[o]) && x notin Mod
  //    => M'[x] = M[x]
  SolverOptions Opts;
  Opts.AllowQuantifiers = true;
  const Sort *ArrS = TM.getArraySort(TM.locSort(), TM.intSort());
  const Sort *SetS = TM.getArraySort(TM.locSort(), TM.boolSort());
  TermRef M = TM.mkVar("Mq", ArrS);
  TermRef M2 = TM.mkVar("M2q", ArrS);
  TermRef Mod = TM.mkVar("Modq", SetS);
  TermRef X = TM.mkVar("xq", TM.locSort());
  TermRef O = TM.mkVar("oq", TM.locSort());
  TermRef Frame = TM.mkForall(
      {O}, TM.mkImplies(TM.mkNot(TM.mkMember(O, Mod)),
                        TM.mkEq(TM.mkSelect(M2, O), TM.mkSelect(M, O))));
  TermRef Claim = TM.mkImplies(
      TM.mkAnd(Frame, TM.mkNot(TM.mkMember(X, Mod))),
      TM.mkEq(TM.mkSelect(M2, X), TM.mkSelect(M, X)));
  SolverContext S(TM, Opts);
  S.assertTerm(TM.mkNot(Claim));
  EXPECT_EQ(S.checkSat(), SolverResult::Unsat);
  // The proof rests on ground instances of the frame axiom, and the
  // context reports them (smt.instantiations).
  EXPECT_GT(S.stats().Instantiations, 0u);
}

TEST_F(SolverTest, QuantifiedModeIncompleteSatIsUnknown) {
  SolverOptions Opts;
  Opts.AllowQuantifiers = true;
  TermRef O = TM.mkVar("ou", TM.locSort());
  TermRef X = TM.mkVar("xu", TM.locSort());
  // forall o. o = x — satisfiable (singleton domain); instantiation cannot
  // conclude, so the answer must be Unknown, never a wrong Unsat.
  TermRef F = TM.mkForall({O}, TM.mkEq(O, X));
  SolverContext S(TM, Opts);
  S.assertTerm(F);
  EXPECT_EQ(S.checkSat(), SolverResult::Unknown);
  EXPECT_EQ(S.stats().Why, UnknownReason::Instantiation);
}

/// Property test: random formulas over bounded integer variables agree
/// with a brute-force enumerator. Sat answers must also evaluate true.
TEST_F(SolverTest, PropertyRandomBoundedIntFormulas) {
  std::mt19937 Rng(777);
  for (int Iter = 0; Iter < 60; ++Iter) {
    const int NumVars = 3;
    const int64_t Lo = -2, Hi = 2;
    std::vector<TermRef> Vars;
    for (int I = 0; I < NumVars; ++I)
      Vars.push_back(TM.mkVar("pv" + std::to_string(Iter) + "_" +
                                  std::to_string(I),
                              TM.intSort()));
    // Random conjunction/disjunction tree of comparison atoms.
    std::function<TermRef(int)> Gen = [&](int Depth) -> TermRef {
      if (Depth == 0 || Rng() % 3 == 0) {
        TermRef A = Vars[Rng() % NumVars];
        TermRef B = Rng() % 2 ? Vars[Rng() % NumVars]
                              : TM.mkIntConst(static_cast<int64_t>(
                                    Rng() % 5) - 2);
        switch (Rng() % 3) {
        case 0:
          return TM.mkLe(A, B);
        case 1:
          return TM.mkLt(A, B);
        default:
          return TM.mkEq(A, B);
        }
      }
      TermRef L = Gen(Depth - 1), R = Gen(Depth - 1);
      switch (Rng() % 3) {
      case 0:
        return TM.mkAnd(L, R);
      case 1:
        return TM.mkOr(L, R);
      default:
        return TM.mkNot(L);
      }
    };
    TermRef F = Gen(3);
    // Bound the variables so brute force is exact.
    std::vector<TermRef> Conj = {F};
    for (TermRef V : Vars) {
      Conj.push_back(TM.mkLe(TM.mkIntConst(Lo), V));
      Conj.push_back(TM.mkLe(V, TM.mkIntConst(Hi)));
    }
    TermRef Bounded = TM.mkAnd(Conj);

    // Brute force.
    bool Expected = false;
    for (int64_t A = Lo; A <= Hi && !Expected; ++A)
      for (int64_t B = Lo; B <= Hi && !Expected; ++B)
        for (int64_t C = Lo; C <= Hi && !Expected; ++C) {
          Model M;
          M.set(Vars[0], Value::ofInt(BigInt(A)));
          M.set(Vars[1], Value::ofInt(BigInt(B)));
          M.set(Vars[2], Value::ofInt(BigInt(C)));
          Expected = M.eval(Bounded).B;
        }
    SolverContext S(TM, {});
    S.assertTerm(Bounded);
    SolverResult R = S.checkSat();
    EXPECT_EQ(R == SolverResult::Sat, Expected) << "iter " << Iter;
    if (R == SolverResult::Sat)
      EXPECT_TRUE(S.model().eval(Bounded).B);
  }
}
