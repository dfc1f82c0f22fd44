//===- tests/smt/IncrFuzzTest.cpp - Incremental differential fuzzing -------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized differential testing of the SolverContext: random push /
/// assert / pop / check scripts over the shared formula corpus maintain an
/// active assertion stack, and every check asserts each active formula on
/// a fresh context, checks it once, and cross-checks the verdict against
/// a reference solve of the active conjunction: one assertion, on the
/// reference engine (TheoryMode::Rebuild, fresh theory engines per full
/// assignment). A Sat-vs-Unsat disagreement is a soundness bug in the
/// context (persistent theory trails, theory propagation, or the
/// incremental array reducer across several assertions); Sat models are
/// additionally validated against the active conjunction.
///
//===----------------------------------------------------------------------===//

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

struct SeqCounts {
  unsigned Checks = 0;
  unsigned Sat = 0, Unsat = 0, Unknown = 0;
  unsigned Mismatches = 0;
};

SolverOptions referenceOpts() {
  SolverOptions Opts;
  Opts.Theory = TheoryMode::Rebuild;
  return Opts;
}

/// Runs \p Sequences random assertion-stack scripts. Each script
/// interleaves push/assert/pop with checks; every check solves the active
/// formulas on a fresh context and is cross-checked against the
/// reference.
SeqCounts runIncrementalDifferential(
    uint32_t Seed, unsigned Sequences, unsigned OpsPerSequence,
    unsigned Depth, const SolverOptions &CtxOpts = SolverOptions(),
    const SolverOptions &RefOpts = referenceOpts()) {
  // Model construction never gives up on a corpus, on either side.
  trace::Counter &GiveUps = trace::counter("smt.model_give_ups");
  const uint64_t GiveUpsBefore = GiveUps.value();
  std::mt19937 Rng(Seed);
  SeqCounts C;
  for (unsigned S = 0; S < Sequences; ++S) {
    TermManager TM;
    FormulaGen Gen(TM, Rng);
    SolverOptions Opts = CtxOpts;
    Opts.MaxTheoryChecks = 20000; // bound pathological instances
    // Active assertion stack: one vector of formulas per level.
    std::vector<std::vector<TermRef>> Stack(1);

    auto CrossCheck = [&]() {
      ++C.Checks;
      std::vector<TermRef> Active;
      for (const auto &Lvl : Stack)
        for (TermRef F : Lvl)
          Active.push_back(F);
      SolverContext Ctx(TM, Opts);
      for (TermRef F : Active)
        Ctx.assertTerm(F);
      SolverResult Inc = Ctx.checkSat();
      TermRef Conj = TM.mkAnd(Active);
      TermManager Fresh;
      SolverOptions ReferenceOpts = RefOpts;
      ReferenceOpts.MaxTheoryChecks = Opts.MaxTheoryChecks;
      SolverContext Reference(Fresh, ReferenceOpts);
      Reference.assertTerm(Fresh.import(Conj));
      SolverResult Ref = Reference.checkSat();
      switch (Inc) {
      case SolverResult::Sat:
        ++C.Sat;
        break;
      case SolverResult::Unsat:
        ++C.Unsat;
        break;
      case SolverResult::Unknown:
        ++C.Unknown;
        break;
      }
      // Unknown (either side) abstains; Sat vs Unsat is a soundness bug.
      bool Mismatch = (Inc == SolverResult::Sat &&
                       Ref == SolverResult::Unsat) ||
                      (Inc == SolverResult::Unsat &&
                       Ref == SolverResult::Sat);
      if (Mismatch)
        ++C.Mismatches;
      EXPECT_FALSE(Mismatch)
          << "incremental " << (Inc == SolverResult::Sat ? "Sat" : "Unsat")
          << " vs reference "
          << (Ref == SolverResult::Sat ? "Sat" : "Unsat") << " (seed "
          << Seed << ", sequence " << S << ", check " << C.Checks << ")\n"
          << printTerm(Conj);
      if (Inc == SolverResult::Sat) {
        Value V = Ctx.model().evaluate(Conj);
        EXPECT_TRUE(V.K == Value::Kind::Bool && V.B)
            << "incremental Sat model refutes the active conjunction "
            << "(seed " << Seed << ", sequence " << S << ")\n"
            << printTerm(Conj) << "\nmodel:\n"
            << Ctx.model().toString();
      }
    };

    for (unsigned Op = 0; Op < OpsPerSequence; ++Op) {
      switch (Rng() % 6) {
      case 0:
        Stack.emplace_back();
        break;
      case 1:
        if (Stack.size() > 1)
          Stack.pop_back();
        else
          Stack.emplace_back();
        break;
      case 2:
      case 3:
        Stack.back().push_back(Gen.boolFormula(Depth));
        break;
      default:
        CrossCheck();
        break;
      }
    }
    CrossCheck(); // every sequence ends with a checked verdict
  }
  EXPECT_EQ(GiveUps.value(), GiveUpsBefore)
      << "model construction gave up (seed " << Seed << ")";
  return C;
}

} // namespace

// 300+ sequences across the three suites, each interleaving push / assert
// / pop / check — the acceptance bar for the SolverContext.
TEST(IncrFuzzTest, DifferentialShallow) {
  SeqCounts C = runIncrementalDifferential(/*Seed=*/0x5EED1, /*Sequences=*/160,
                                           /*OpsPerSequence=*/12,
                                           /*Depth=*/3);
  EXPECT_EQ(C.Mismatches, 0u);
  // The scripts must exercise both verdicts.
  EXPECT_GT(C.Checks, 300u);
  EXPECT_GT(C.Sat, 60u);
  EXPECT_GT(C.Unsat, 30u);
}

TEST(IncrFuzzTest, DifferentialDeepStacks) {
  SeqCounts C = runIncrementalDifferential(/*Seed=*/0x5EED2, /*Sequences=*/80,
                                           /*OpsPerSequence=*/20,
                                           /*Depth=*/3);
  EXPECT_EQ(C.Mismatches, 0u);
  EXPECT_GT(C.Checks, 200u);
}

TEST(IncrFuzzTest, DifferentialArrayHeavy) {
  SeqCounts C = runIncrementalDifferential(/*Seed=*/0x5EED3, /*Sequences=*/60,
                                           /*OpsPerSequence=*/10,
                                           /*Depth=*/4);
  EXPECT_EQ(C.Mismatches, 0u);
  EXPECT_GT(C.Checks, 100u);
}

// The context's array demand closure, checked against the most
// conservative reference (blind eager array instantiation).

TEST(IncrFuzzTest, DifferentialDemandClosure) {
  SolverOptions Ctx;
  SolverOptions Ref = referenceOpts();
  Ref.EagerArrayInstantiation = true;
  SeqCounts C = runIncrementalDifferential(/*Seed=*/0x5EED4, /*Sequences=*/80,
                                           /*OpsPerSequence=*/14,
                                           /*Depth=*/4, Ctx, Ref);
  EXPECT_EQ(C.Mismatches, 0u);
  EXPECT_GT(C.Checks, 150u);
}

TEST(IncrFuzzTest, DifferentialTheoryProp) {
  // Theory propagation over multi-assertion contexts, against the
  // propagation-free reference engine: lazily explained reasons,
  // preRegister across several assertTerm calls and early theory
  // conflicts are all exercised at fuzz scale.
  SolverOptions Ctx;
  Ctx.Theory = TheoryMode::Propagate;
  SolverOptions Ref = referenceOpts();
  SeqCounts C = runIncrementalDifferential(/*Seed=*/0x5EED6, /*Sequences=*/100,
                                           /*OpsPerSequence=*/14,
                                           /*Depth=*/4, Ctx, Ref);
  EXPECT_EQ(C.Mismatches, 0u);
  EXPECT_GT(C.Checks, 150u);
}

