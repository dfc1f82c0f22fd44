//===- tests/pipeline/SimplifyFuzzTest.cpp - Pipeline differential fuzz ----===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential fuzzing of the VC pipeline transforms, mirroring
/// tests/smt/FuzzTest.cpp's corpus (same generator shape, same seeds,
/// 600 formulas): for each random quantifier-free formula,
///
///  1. the rewriter must be idempotent and must preserve the solver
///     verdict (decided answers may not flip between the original and
///     simplified formula), and
///  2. random obligations pushed through the full pipeline
///     (simplify + cache + scheduler) must agree with a direct
///     solver call on Guard /\ !Claim, and
///  3. on obligations whose guards begin with chains of eliminable
///     equalities, every model of the simplified query must extend
///     (extendModel) to a model of the unsimplified obligation.
///
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"
#include "pipeline/Simplify.h"
#include "smt/Solver.h"
#include "smt/TermPrinter.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace ids;
using namespace ids::pipeline;
using namespace ids::smt;

namespace {

/// Random QF formula generator over a fixed small vocabulary — the same
/// shape as the solver fuzzer's so the corpus stresses the same
/// operator mix.
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

  // Raw engine draws, as in FuzzTest.cpp: reproducible on every standard
  // library.
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

private:
  TermManager &TM;
  std::mt19937 &Rng;
  std::vector<TermRef> BoolVars, IntVars, ArrVars, SetVars;
};

Solver::Result solveDirect(TermManager &TM, TermRef F) {
  Solver::Options Opts;
  Opts.MaxTheoryChecks = 20000;
  Solver S(TM, Opts);
  return S.checkSat(F);
}

/// Model construction never gives up on a corpus: every Unknown is a
/// budget artifact. Checked when the guard goes out of scope.
struct NoGiveUps {
  trace::Counter &GiveUps = trace::counter("smt.model_give_ups");
  const uint64_t Before = GiveUps.value();
  ~NoGiveUps() {
    EXPECT_EQ(GiveUps.value(), Before) << "model construction gave up";
  }
};

/// Rewrite must be idempotent and may not flip a decided verdict.
void runRewriteDifferential(uint32_t Seed, unsigned Iters, unsigned Depth,
                            unsigned &Decided) {
  NoGiveUps Guard;
  std::mt19937 Rng(Seed);
  for (unsigned I = 0; I < Iters; ++I) {
    TermManager TM;
    FormulaGen Gen(TM, Rng);
    TermRef F = Gen.boolFormula(Depth);

    Simplifier Simp(TM);
    TermRef Simplified = Simp.rewrite(F);
    EXPECT_EQ(Simp.rewrite(Simplified), Simplified)
        << "rewrite not idempotent (seed " << Seed << ", iter " << I
        << ")\n"
        << printTerm(F);

    Solver::Result Direct = solveDirect(TM, F);
    Solver::Result Simp2 = solveDirect(TM, Simplified);
    if (Direct != Solver::Result::Unknown &&
        Simp2 != Solver::Result::Unknown) {
      ++Decided;
      EXPECT_EQ(Direct, Simp2)
          << "simplification flipped the verdict (seed " << Seed
          << ", iter " << I << ")\n"
          << printTerm(F) << "\n-- simplified --\n"
          << printTerm(Simplified);
    }
  }
}

/// Full pipeline (simplify + cache + scheduler) vs direct solve
/// of Guard /\ !Claim on random obligations.
void runPipelineDifferential(uint32_t Seed, unsigned Iters, unsigned Depth,
                             unsigned &Decided) {
  NoGiveUps Guard;
  std::mt19937 Rng(Seed);
  for (unsigned I = 0; I < Iters; ++I) {
    TermManager TM;
    FormulaGen Gen(TM, Rng);
    vcgen::Obligation O;
    O.Guard = TM.mkAnd({Gen.boolFormula(Depth), Gen.boolFormula(Depth),
                        Gen.boolFormula(Depth - 1)});
    O.Claim = Gen.boolFormula(Depth);
    O.Description = "fuzz";

    Solver::Result Direct =
        solveDirect(TM, TM.mkAnd(O.Guard, TM.mkNot(O.Claim)));

    Options Opts;
    Opts.MaxTheoryChecks = 20000;
    Opts.Jobs = (I % 3 == 0) ? 2 : 1; // exercise the pool too
    QueryCache Cache;
    Result R = solveObligations(TM, {O}, Opts, &Cache);

    if (Direct == Solver::Result::Unknown || R.V == Verdict::Unknown)
      continue;
    ++Decided;
    Verdict Expected = Direct == Solver::Result::Unsat ? Verdict::Proved
                                                       : Verdict::Failed;
    EXPECT_EQ(R.V, Expected)
        << "pipeline flipped the verdict (seed " << Seed << ", iter " << I
        << ")\nguard:\n"
        << printTerm(O.Guard) << "\nclaim:\n"
        << printTerm(O.Claim);
  }
}

/// Random obligations whose guards begin with a chain of guard
/// equalities v_i == t_i (each t_i a FormulaGen term over v_{i-1}),
/// plus a set and a boolean definition the claim reads. The simplifier
/// eliminates them; on every Sat answer for the simplified query, the
/// model extended through the eliminations must satisfy the original
/// obligation. \p Extended counts the Sat answers with eliminations.
void runModelExtension(uint32_t Seed, unsigned Iters, unsigned Depth,
                       unsigned &Decided, unsigned &Extended) {
  NoGiveUps Guard;
  std::mt19937 Rng(Seed);
  for (unsigned I = 0; I < Iters; ++I) {
    TermManager TM;
    FormulaGen Gen(TM, Rng);
    std::vector<TermRef> Conjs;
    TermRef Prev = nullptr;
    for (int K = 0; K < 4; ++K) {
      TermRef V = TM.mkVar("v" + std::to_string(K), TM.intSort());
      TermRef T = Gen.intTerm(Depth - 1);
      Conjs.push_back(TM.mkEq(V, Prev ? TM.mkAdd(Prev, T) : T));
      Prev = V;
    }
    TermRef S = TM.mkVar("sv", TM.getArraySort(TM.intSort(), TM.boolSort()));
    Conjs.push_back(
        TM.mkEq(S, TM.mkSetInsert(Gen.setTerm(Depth - 1), Prev)));
    TermRef B = TM.mkVar("b", TM.boolSort());
    Conjs.push_back(TM.mkEq(B, Gen.boolFormula(Depth - 1)));
    Conjs.push_back(Gen.boolFormula(Depth));
    vcgen::Obligation O;
    O.Guard = TM.mkAnd(Conjs);
    O.Claim = TM.mkOr({Gen.boolFormula(Depth - 1),
                       TM.mkLe(Prev, Gen.intTerm(Depth - 1)),
                       TM.mkMember(Gen.intTerm(0), S), B});
    TermRef Orig = TM.mkAnd(O.Guard, TM.mkNot(O.Claim));

    Simplifier Simp(TM);
    std::vector<Elimination> Eliminated;
    if (Simp.simplifyObligation(O.Guard, O.Claim, &Eliminated))
      continue;
    Solver::Options Opts;
    Opts.MaxTheoryChecks = 20000;
    Solver Slv(TM, Opts);
    Solver::Result Res = Slv.checkSat(TM.mkAnd(O.Guard, TM.mkNot(O.Claim)));
    if (Res == Solver::Result::Unknown)
      continue;
    ++Decided;
    if (Res != Solver::Result::Sat)
      continue;
    Extended += !Eliminated.empty();
    Model M = Slv.model();
    extendModel(M, Eliminated, Orig);
    Value V = M.evaluate(Orig);
    EXPECT_TRUE(V.K == Value::Kind::Bool && V.B)
        << "extended model falsifies the original obligation (seed " << Seed
        << ", iter " << I << ")\n"
        << printTerm(Orig) << "\n-- model --\n"
        << M.toString();
  }
}

// The same three seeds and iteration counts as the solver fuzzer: 600
// formulas total per harness.
TEST(PipelineFuzzTest, RewriteShallow) {
  unsigned Decided = 0;
  runRewriteDifferential(/*Seed=*/0xC0FFEE, /*Iters=*/300, /*Depth=*/3,
                         Decided);
  EXPECT_GT(Decided, 200u);
}

TEST(PipelineFuzzTest, RewriteDeep) {
  unsigned Decided = 0;
  runRewriteDifferential(/*Seed=*/0xDECAF, /*Iters=*/200, /*Depth=*/4,
                         Decided);
  EXPECT_GT(Decided, 120u);
}

TEST(PipelineFuzzTest, RewriteArrayHeavy) {
  unsigned Decided = 0;
  runRewriteDifferential(/*Seed=*/0xBADF00D, /*Iters=*/100, /*Depth=*/5,
                         Decided);
  EXPECT_GT(Decided, 50u);
}

TEST(PipelineFuzzTest, ObligationShallow) {
  unsigned Decided = 0;
  runPipelineDifferential(/*Seed=*/0xC0FFEE, /*Iters=*/300, /*Depth=*/3,
                          Decided);
  EXPECT_GT(Decided, 200u);
}

TEST(PipelineFuzzTest, ObligationDeep) {
  unsigned Decided = 0;
  runPipelineDifferential(/*Seed=*/0xDECAF, /*Iters=*/200, /*Depth=*/4,
                          Decided);
  EXPECT_GT(Decided, 120u);
}

TEST(PipelineFuzzTest, ObligationArrayHeavy) {
  unsigned Decided = 0;
  runPipelineDifferential(/*Seed=*/0xBADF00D, /*Iters=*/100, /*Depth=*/5,
                          Decided);
  EXPECT_GT(Decided, 50u);
}

TEST(PipelineFuzzTest, ObligationModelsExtend) {
  unsigned Decided = 0, Extended = 0;
  runModelExtension(/*Seed=*/0xE1A57, /*Iters=*/300, /*Depth=*/3, Decided,
                    Extended);
  runModelExtension(/*Seed=*/0x5EED5, /*Iters=*/100, /*Depth=*/4, Decided,
                    Extended);
  EXPECT_GT(Decided, 200u);
  EXPECT_GT(Extended, 180u);
}

} // namespace
