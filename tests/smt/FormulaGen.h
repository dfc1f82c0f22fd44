//===- tests/smt/FormulaGen.h - Shared random QF formula corpus -*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seeded random formula generator behind the differential fuzzers
/// (theory modes, pipeline transforms, incremental assertion stacks):
/// quantifier-free formulas over booleans, linear Int arithmetic and
/// Int->Int / Int->Bool arrays from a fixed small vocabulary. The draws
/// come from the raw mt19937 engine so the corpus reproduces identically
/// on every standard library.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_TESTS_SMT_FORMULAGEN_H
#define IDS_TESTS_SMT_FORMULAGEN_H

#include "smt/Term.h"

#include <random>
#include <string>
#include <vector>

namespace ids {
namespace smt {

/// Random QF formula generator over a fixed small vocabulary. Sizes are
/// kept small so 500+ instances solve well under the 10s budget.
class FormulaGen {
public:
  FormulaGen(TermManager &TM, std::mt19937 &Rng) : TM(TM), Rng(Rng) {
    for (int I = 0; I < 4; ++I)
      BoolVars.push_back(TM.mkVar("p" + std::to_string(I), TM.boolSort()));
    for (int I = 0; I < 4; ++I)
      IntVars.push_back(TM.mkVar("x" + std::to_string(I), TM.intSort()));
    const Sort *IntInt = TM.getArraySort(TM.intSort(), TM.intSort());
    const Sort *IntBool = TM.getArraySort(TM.intSort(), TM.boolSort());
    for (int I = 0; I < 2; ++I)
      ArrVars.push_back(TM.mkVar("a" + std::to_string(I), IntInt));
    SetVars.push_back(TM.mkVar("s0", IntBool));
  }

  TermRef boolFormula(unsigned Depth) {
    if (Depth == 0)
      return boolLeaf();
    switch (pick(8)) {
    case 0:
      return TM.mkNot(boolFormula(Depth - 1));
    case 1:
      return TM.mkAnd(boolFormula(Depth - 1), boolFormula(Depth - 1));
    case 2:
      return TM.mkOr(boolFormula(Depth - 1), boolFormula(Depth - 1));
    case 3:
      return TM.mkImplies(boolFormula(Depth - 1), boolFormula(Depth - 1));
    case 4:
      return TM.mkEq(boolFormula(Depth - 1), boolFormula(Depth - 1));
    case 5:
      return TM.mkIte(boolFormula(Depth - 1), boolFormula(Depth - 1),
                      boolFormula(Depth - 1));
    case 6:
      return intAtom(Depth - 1);
    default:
      return setAtom(Depth - 1);
    }
  }

private:
  // Drawn from the raw engine rather than uniform_int_distribution: the
  // distribution's mapping is implementation-defined, and the corpus (and
  // the verdict-count thresholds in the fuzz suites) must reproduce
  // identically on every standard library. Modulo bias is irrelevant for
  // fuzzing.
  unsigned pick(unsigned N) { return Rng() % N; }

  TermRef boolLeaf() {
    switch (pick(4)) {
    case 0:
      return TM.mkBool(pick(2) == 0);
    case 1:
      return intAtom(0);
    default:
      return BoolVars[pick(BoolVars.size())];
    }
  }

  TermRef intTerm(unsigned Depth) {
    if (Depth == 0)
      return intLeaf();
    switch (pick(5)) {
    case 0:
      return TM.mkAdd(intTerm(Depth - 1), intTerm(Depth - 1));
    case 1:
      return TM.mkSub(intTerm(Depth - 1), intTerm(Depth - 1));
    case 2:
      return TM.mkMulConst(Rational(BigInt(int64_t(pick(7)) - 3)),
                           intTerm(Depth - 1));
    case 3:
      return TM.mkSelect(arrTerm(Depth - 1), intTerm(Depth - 1));
    default:
      return intLeaf();
    }
  }

  TermRef intLeaf() {
    if (pick(2) == 0)
      return TM.mkIntConst(int64_t(pick(9)) - 4);
    return IntVars[pick(IntVars.size())];
  }

  TermRef arrTerm(unsigned Depth) {
    if (Depth == 0 || pick(3) == 0)
      return ArrVars[pick(ArrVars.size())];
    return TM.mkStore(arrTerm(Depth - 1), intTerm(Depth - 1),
                      intTerm(Depth - 1));
  }

  TermRef setTerm(unsigned Depth) {
    if (Depth == 0 || pick(3) == 0) {
      if (pick(3) == 0)
        return TM.mkEmptySet(TM.intSort());
      return SetVars[pick(SetVars.size())];
    }
    switch (pick(4)) {
    case 0:
      return TM.mkSetUnion(setTerm(Depth - 1), setTerm(Depth - 1));
    case 1:
      return TM.mkSetIntersect(setTerm(Depth - 1), setTerm(Depth - 1));
    case 2:
      return TM.mkSetMinus(setTerm(Depth - 1), setTerm(Depth - 1));
    default:
      return TM.mkSetInsert(setTerm(Depth - 1), intTerm(Depth - 1));
    }
  }

  TermRef intAtom(unsigned Depth) {
    TermRef A = intTerm(Depth), B = intTerm(Depth);
    switch (pick(3)) {
    case 0:
      return TM.mkLe(A, B);
    case 1:
      return TM.mkLt(A, B);
    default:
      return TM.mkEq(A, B);
    }
  }

  TermRef setAtom(unsigned Depth) {
    switch (pick(3)) {
    case 0:
      return TM.mkMember(intTerm(Depth), setTerm(Depth));
    case 1:
      return TM.mkSubset(setTerm(Depth), setTerm(Depth));
    default:
      return TM.mkEq(setTerm(Depth), setTerm(Depth));
    }
  }

  TermManager &TM;
  std::mt19937 &Rng;
  std::vector<TermRef> BoolVars, IntVars, ArrVars, SetVars;
};

} // namespace smt
} // namespace ids

#endif // IDS_TESTS_SMT_FORMULAGEN_H
