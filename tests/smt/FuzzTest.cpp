//===- tests/smt/FuzzTest.cpp - Differential SMT fuzzing -------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized differential testing of the SMT solver: generate random
/// quantifier-free formulas over booleans, linear Int arithmetic and
/// Int->Int / Int->Bool arrays from a seeded PRNG, run Solver::checkSat,
/// and cross-check every Sat answer by evaluating the original formula
/// under the produced Model via Model::evaluate. A Sat verdict whose model
/// does not satisfy the formula is a solver soundness bug.
///
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"
#include "smt/SolverContext.h"
#include "smt/TermPrinter.h"
#include "support/Trace.h"

#include "FormulaGen.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace ids;
using namespace ids::smt;

namespace {

/// Model construction never gives up on a corpus: every Unknown is a
/// budget artifact. Checked when the guard goes out of scope.
struct NoGiveUps {
  trace::Counter &GiveUps = trace::counter("smt.model_give_ups");
  const uint64_t Before = GiveUps.value();
  ~NoGiveUps() {
    EXPECT_EQ(GiveUps.value(), Before) << "model construction gave up";
  }
};

/// Runs \p Iters random formulas at \p Depth through a fresh solver each,
/// cross-checking every Sat model. Returns {sat, unsat, unknown} counts.
struct Counts {
  unsigned Sat = 0, Unsat = 0, Unknown = 0;
};

Counts runDifferential(uint32_t Seed, unsigned Iters, unsigned Depth) {
  NoGiveUps Guard;
  std::mt19937 Rng(Seed);
  Counts C;
  for (unsigned I = 0; I < Iters; ++I) {
    TermManager TM;
    FormulaGen Gen(TM, Rng);
    TermRef F = Gen.boolFormula(Depth);

    Solver::Options Opts;
    Opts.MaxTheoryChecks = 20000; // bound pathological instances
    Solver S(TM, Opts);
    Solver::Result R = S.checkSat(F);
    switch (R) {
    case Solver::Result::Sat: {
      ++C.Sat;
      Value V = S.model().evaluate(F);
      EXPECT_EQ(V.K, Value::Kind::Bool)
          << "model evaluation of a Bool formula produced a non-Bool value "
          << "(seed " << Seed << ", iter " << I << ")\n"
          << printTerm(F);
      EXPECT_TRUE(V.B) << "solver said Sat but its model refutes the "
                       << "formula (seed " << Seed << ", iter " << I << ")\n"
                       << printTerm(F) << "\nmodel:\n"
                       << S.model().toString();
      break;
    }
    case Solver::Result::Unsat:
      ++C.Unsat;
      break;
    case Solver::Result::Unknown:
      ++C.Unknown;
      break;
    }
  }
  return C;
}

TEST(SmtFuzzTest, DifferentialShallow) {
  Counts C = runDifferential(/*Seed=*/0xC0FFEE, /*Iters=*/300, /*Depth=*/3);
  // The generator must exercise both verdicts, otherwise it is too easy.
  EXPECT_GT(C.Sat, 25u);
  EXPECT_GT(C.Unsat, 15u);
}

TEST(SmtFuzzTest, DifferentialDeep) {
  Counts C = runDifferential(/*Seed=*/0xDECAF, /*Iters=*/200, /*Depth=*/4);
  EXPECT_GT(C.Sat + C.Unsat, 150u);
}

TEST(SmtFuzzTest, DifferentialArrayHeavy) {
  // A third seed, biased deeper, to stress the array reduction paths.
  Counts C = runDifferential(/*Seed=*/0xBADF00D, /*Iters=*/100, /*Depth=*/5);
  EXPECT_GT(C.Sat + C.Unsat, 60u);
}

/// Solves every formula under two solver configurations and demands
/// verdict agreement (Unknown abstains — a budget artifact, not a
/// soundness statement). Sat models on both sides are still validated
/// against the formula. Returns the number of decided checks.
unsigned runConfigDifferential(uint32_t Seed, unsigned Iters, unsigned Depth,
                               const Solver::Options &OptsA,
                               const Solver::Options &OptsB) {
  NoGiveUps Guard;
  std::mt19937 Rng(Seed);
  unsigned Decided = 0;
  for (unsigned I = 0; I < Iters; ++I) {
    TermManager TM;
    FormulaGen Gen(TM, Rng);
    TermRef F = Gen.boolFormula(Depth);

    Solver::Result RA = Solver(TM, OptsA).checkSat(F);
    Solver::Result RB = Solver(TM, OptsB).checkSat(F);
    bool Mismatch =
        (RA == Solver::Result::Sat && RB == Solver::Result::Unsat) ||
        (RA == Solver::Result::Unsat && RB == Solver::Result::Sat);
    EXPECT_FALSE(Mismatch)
        << "config A says " << (RA == Solver::Result::Sat ? "Sat" : "Unsat")
        << ", config B says "
        << (RB == Solver::Result::Sat ? "Sat" : "Unsat") << " (seed "
        << Seed << ", iter " << I << ")\n"
        << printTerm(F);
    if (RA != Solver::Result::Unknown && RB != Solver::Result::Unknown)
      ++Decided;
  }
  return Decided;
}

Solver::Options fuzzOpts() {
  Solver::Options Opts;
  Opts.MaxTheoryChecks = 20000;
  return Opts;
}

TEST(SmtFuzzTest, EagerInstantiationDifferential) {
  // Blind quadratic array instantiation against the relevancy-driven
  // default — the two one-shot array strategies must agree.
  Solver::Options Eager = fuzzOpts();
  Eager.EagerArrayInstantiation = true;
  unsigned Decided = runConfigDifferential(/*Seed=*/0xEA6E4, /*Iters=*/150,
                                           /*Depth=*/5, Eager, fuzzOpts());
  EXPECT_GT(Decided, 90u);
}

TEST(SmtFuzzTest, TheoryPropDifferential) {
  // DPLL(T) theory propagation on vs off, both through the persistent
  // SolverContext (propagation only runs in persistent mode — one-shot
  // solves never take the partial-trail path). Propagation is an
  // optimization over the same theory stack: lazily explained reason
  // clauses, early conflicts and theory-aware branching must never flip
  // a verdict, and propagation-side Sat models must still satisfy the
  // formula.
  NoGiveUps Guard;
  std::mt19937 Rng(0x7E09);
  unsigned Decided = 0, PropChecks = 0;
  trace::Counter &TheoryProps = trace::counter("smt.theory_propagations");
  for (unsigned I = 0; I < 200; ++I) {
    TermManager TM;
    FormulaGen Gen(TM, Rng);
    TermRef F = Gen.boolFormula(/*Depth=*/4);

    SolverOptions PropOpts;
    PropOpts.MaxTheoryChecks = 20000;
    SolverOptions NoPropOpts = PropOpts;
    NoPropOpts.TheoryPropagation = false;

    SolverContext Prop(TM, PropOpts);
    Prop.assertTerm(F);
    const uint64_t PropsBefore = TheoryProps.value();
    SolverResult RP = Prop.checkSat();
    PropChecks += TheoryProps.value() != PropsBefore;

    SolverContext NoProp(TM, NoPropOpts);
    NoProp.assertTerm(F);
    SolverResult RN = NoProp.checkSat();

    bool Mismatch = (RP == SolverResult::Sat && RN == SolverResult::Unsat) ||
                    (RP == SolverResult::Unsat && RN == SolverResult::Sat);
    EXPECT_FALSE(Mismatch)
        << "theory propagation flipped the verdict: prop says "
        << (RP == SolverResult::Sat ? "Sat" : "Unsat") << ", baseline says "
        << (RN == SolverResult::Sat ? "Sat" : "Unsat") << " (iter " << I
        << ")\n"
        << printTerm(F);
    if (RP == SolverResult::Sat) {
      Value V = Prop.model().evaluate(F);
      EXPECT_TRUE(V.K == Value::Kind::Bool && V.B)
          << "propagating solver's Sat model refutes the formula (iter " << I
          << ")\n"
          << printTerm(F) << "\nmodel:\n"
          << Prop.model().toString();
    }
    if (RP != SolverResult::Unknown && RN != SolverResult::Unknown)
      ++Decided;
  }
  EXPECT_GT(Decided, 120u);
  // The corpus must actually trigger propagations, or the test is vacuous.
  // (Most random instances decide during BCP before any theory entailment
  // can fire; roughly 1 in 20 exercises the propagation path.)
  EXPECT_GT(PropChecks, 5u);
}

} // namespace
