//===- examples/smt_quickstart.cpp - Using the SMT layer directly ----------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver substrate is a reusable library: quantifier-free EUF +
/// linear arithmetic + generalized arrays/sets. This example decides the
/// paper's parameterized-map-update frame property (Appendix A.3) and a
/// rank-midpoint repair query directly at the API level.
///
//===----------------------------------------------------------------------===//

#include "smt/SolverContext.h"
#include "smt/TermPrinter.h"

#include <cstdio>

using namespace ids;
using namespace ids::smt;

int main() {
  TermManager TM;

  // Frame property: M' = pwIte(Mod, H, M), o not in Mod => M'[o] = M[o].
  const Sort *ArrS = TM.getArraySort(TM.locSort(), TM.intSort());
  const Sort *SetS = TM.getArraySort(TM.locSort(), TM.boolSort());
  TermRef M = TM.mkVar("M", ArrS);
  TermRef H = TM.mkVar("H", ArrS);
  TermRef Mod = TM.mkVar("Mod", SetS);
  TermRef O = TM.mkVar("o", TM.locSort());
  TermRef Claim = TM.mkImplies(
      TM.mkNot(TM.mkMember(O, Mod)),
      TM.mkEq(TM.mkSelect(TM.mkPwIte(Mod, H, M), O), TM.mkSelect(M, O)));
  {
    // One context per check: assert, then decide once.
    SolverContext S(TM, {});
    S.assertTerm(TM.mkNot(Claim));
    printf("frame property of parameterized map updates: %s\n",
           S.checkSat() == SolverResult::Unsat ? "VALID" : "not valid?!");
  }

  // Rank repair: rank(z) = (rank(x)+rank(y))/2 with rank(x) < rank(y)
  // puts z strictly between x and y (the Figure 7 repair).
  TermRef RX = TM.mkVar("rank_x", TM.ratSort());
  TermRef RY = TM.mkVar("rank_y", TM.ratSort());
  TermRef RZ = TM.mkMulConst(Rational(1, 2), TM.mkAdd(RX, RY));
  TermRef RankClaim =
      TM.mkImplies(TM.mkLt(RX, RY),
                   TM.mkAnd(TM.mkLt(RX, RZ), TM.mkLt(RZ, RY)));
  {
    SolverContext S(TM, {});
    S.assertTerm(TM.mkNot(RankClaim));
    printf("rank midpoint strictly between: %s\n",
           S.checkSat() == SolverResult::Unsat ? "VALID" : "not valid?!");
  }

  // A satisfiable set constraint, with its model.
  TermRef A = TM.mkVar("A", SetS);
  TermRef X = TM.mkVar("x", TM.locSort());
  TermRef F = TM.mkAnd(
      {TM.mkMember(X, A), TM.mkNot(TM.mkEq(A, TM.mkEmptySet(TM.locSort()))),
       TM.mkDistinct(X, TM.mkNil())});
  SolverContext S(TM, {});
  S.assertTerm(F);
  if (S.checkSat() == SolverResult::Sat) {
    printf("satisfiable; model:\n%s", S.model().toString().c_str());
  }
  return 0;
}
