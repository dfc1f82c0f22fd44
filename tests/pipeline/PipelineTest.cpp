//===- tests/pipeline/PipelineTest.cpp - Pipeline facade tests -------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the pipeline facade: term import across managers, the
/// structural query cache (intra-batch dedup and cross-call sharing),
/// parallel dispatch determinism (--jobs), legacy VC split grouping,
/// one solve per obligation, and verdict reporting.
///
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"
#include "smt/Solver.h"

#include <gtest/gtest.h>

using namespace ids;
using namespace ids::pipeline;
using namespace ids::smt;

namespace {

vcgen::Obligation obligation(TermRef Guard, TermRef Claim,
                             const char *Desc) {
  vcgen::Obligation O;
  O.Guard = Guard;
  O.Claim = Claim;
  O.Description = Desc;
  return O;
}

TEST(TermImportTest, RoundTripsAcrossManagers) {
  TermManager Src;
  TermRef X = Src.mkVar("x", Src.intSort());
  TermRef A = Src.mkVar("a", Src.getArraySort(Src.intSort(), Src.intSort()));
  const FuncDecl *F = Src.getFuncDecl("f", {Src.locSort()}, Src.intSort());
  TermRef N = Src.mkApply(F, {Src.mkNil()});
  TermRef Formula = Src.mkAnd(
      {Src.mkLe(Src.mkSelect(Src.mkStore(A, X, N), Src.mkIntConst(3)), X),
       Src.mkEq(X, Src.mkAdd(N, Src.mkIntConst(1)))});

  TermManager Dst;
  TermRef Imported = Dst.import(Formula);
  ASSERT_NE(Imported, nullptr);
  // Import is deterministic: two fresh managers agree term for term
  // (this is what makes cached outcomes valid for every later import of
  // a structurally identical query).
  TermManager Dst2;
  EXPECT_EQ(QueryCache::keyFor(Imported),
            QueryCache::keyFor(Dst2.import(Formula)));
  // Importing twice is stable (memoised).
  EXPECT_EQ(Dst.import(Formula), Imported);
  // And the import is solvable in its new home.
  Solver S(Dst);
  EXPECT_EQ(S.checkSat(Imported), Solver::Result::Sat);
}

TEST(QueryCacheTest, KeyDistinguishesStructure) {
  TermManager TM;
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  EXPECT_NE(QueryCache::keyFor(TM.mkLe(X, Y)),
            QueryCache::keyFor(TM.mkLe(Y, X)));
  EXPECT_NE(QueryCache::keyFor(X), QueryCache::keyFor(Y));
  EXPECT_EQ(QueryCache::keyFor(TM.mkLe(X, Y)),
            QueryCache::keyFor(TM.mkLe(X, Y)));
}

TEST(QueryCacheTest, IdenticalObligationsSolveOnce) {
  TermManager TM;
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  TermRef Guard = TM.mkLe(X, Y);
  TermRef Claim = TM.mkLe(X, TM.mkAdd(Y, TM.mkIntConst(1)));
  std::vector<vcgen::Obligation> Obls = {obligation(Guard, Claim, "one"),
                                         obligation(Guard, Claim, "two")};
  Options Opts;
  Opts.Simplify = false; // keep both obligations solver-bound
  QueryCache Cache;
  Result R = solveObligations(TM, Obls, Opts, &Cache);
  EXPECT_EQ(R.V, Verdict::Proved);
  EXPECT_EQ(R.St.Queries, 1u);
  EXPECT_EQ(R.St.CacheHits, 1u);
}

TEST(QueryCacheTest, SharedAcrossCallsAndManagers) {
  Options Opts;
  Opts.Simplify = false;
  QueryCache Cache;
  Stats FirstStats;
  // The same structural obligation built in two independent managers
  // (as different procedures would) must hit across calls.
  for (int Call = 0; Call < 2; ++Call) {
    TermManager TM;
    TermRef X = TM.mkVar("x", TM.intSort());
    TermRef Guard = TM.mkLe(X, TM.mkIntConst(7));
    TermRef Claim = TM.mkLe(X, TM.mkIntConst(9));
    std::vector<vcgen::Obligation> Obls = {
        obligation(Guard, Claim, "cross-proc")};
    Result R = solveObligations(TM, Obls, Opts, &Cache);
    EXPECT_EQ(R.V, Verdict::Proved);
    if (Call == 0) {
      EXPECT_EQ(R.St.Queries, 1u);
      EXPECT_EQ(R.St.CacheHits, 0u);
    } else {
      EXPECT_EQ(R.St.Queries, 0u);
      EXPECT_EQ(R.St.CacheHits, 1u);
    }
  }
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(QueryCacheTest, DisabledCacheRunsEveryQuery) {
  TermManager TM;
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Guard = TM.mkLe(X, TM.mkIntConst(7));
  TermRef Claim = TM.mkLe(X, TM.mkIntConst(9));
  std::vector<vcgen::Obligation> Obls = {obligation(Guard, Claim, "a"),
                                         obligation(Guard, Claim, "b")};
  Options Opts;
  Opts.Simplify = false;
  Opts.Cache = false;
  Result R = solveObligations(TM, Obls, Opts, nullptr);
  EXPECT_EQ(R.V, Verdict::Proved);
  EXPECT_EQ(R.St.Queries, 2u);
  EXPECT_EQ(R.St.CacheHits, 0u);
}

TEST(QueryCacheTest, UnknownOutcomesAreNotCached) {
  // Regression: BatchSolver used to insert Unknown outcomes into the
  // cache unconditionally, so an Unknown earned under a starved budget
  // would answer a later, unbudgeted solve of the same query — verdict
  // weakening in-process, outright poison once the cache persists.
  // Solve a hard query under --budget 1, then unbudgeted with the SAME
  // cache: the second solve must be a real solve (no hit) and must prove.
  // A pure conjunction is refuted within ONE full-model theory check
  // (conflict clause at level 0), so the query needs disjunctive case
  // splits: each x_i in {1,2}, sum forced out of range. Every
  // propositional model is a distinct arithmetic conflict, so the search
  // needs several theory checks and budget 1 is deterministically
  // exhausted.
  TermManager TM;
  std::vector<TermRef> Conjs;
  std::vector<TermRef> Sum;
  for (int I = 0; I < 4; ++I) {
    TermRef X = TM.mkVar("x" + std::to_string(I), TM.intSort());
    Conjs.push_back(TM.mkOr(TM.mkEq(X, TM.mkIntConst(1)),
                            TM.mkEq(X, TM.mkIntConst(2))));
    Sum.push_back(X);
  }
  Conjs.push_back(TM.mkEq(TM.mkAdd(Sum), TM.mkIntConst(100)));
  std::vector<vcgen::Obligation> Obls = {
      obligation(TM.mkAnd(Conjs), TM.mkFalse(), "range-sum")};

  Options Starved;
  Starved.Simplify = false;
  Starved.MaxTheoryChecks = 1;
  QueryCache Cache;
  Result R1 = solveObligations(TM, Obls, Starved, &Cache);
  ASSERT_EQ(R1.V, Verdict::Unknown)
      << "corpus query was decided within one theory check; strengthen it";
  // The poisoned entry the old code inserted:
  EXPECT_EQ(Cache.size(), 0u);

  Options Full;
  Full.Simplify = false;
  Result R2 = solveObligations(TM, Obls, Full, &Cache);
  EXPECT_EQ(R2.V, Verdict::Proved); // 2v+2w is even, every conjunct odd
  EXPECT_EQ(R2.St.CacheHits, 0u);
  EXPECT_EQ(R2.St.Queries, 1u);
  // The definitive outcome IS cached for the next round.
  EXPECT_EQ(Cache.size(), 1u);
  Result R3 = solveObligations(TM, Obls, Full, &Cache);
  EXPECT_EQ(R3.V, Verdict::Proved);
  EXPECT_EQ(R3.St.CacheHits, 1u);
  EXPECT_EQ(R3.St.Queries, 0u);
}

TEST(PipelineReportTest, UnknownNamesItsCause) {
  // The range-sum query of UnknownOutcomesAreNotCached needs several
  // theory checks, so a budget of one and a time limit that has passed
  // by the first check each stop it, and each says so.
  TermManager TM;
  std::vector<TermRef> Conjs;
  std::vector<TermRef> Sum;
  for (int I = 0; I < 4; ++I) {
    TermRef X = TM.mkVar("x" + std::to_string(I), TM.intSort());
    Conjs.push_back(TM.mkOr(TM.mkEq(X, TM.mkIntConst(1)),
                            TM.mkEq(X, TM.mkIntConst(2))));
    Sum.push_back(X);
  }
  Conjs.push_back(TM.mkEq(TM.mkAdd(Sum), TM.mkIntConst(100)));
  std::vector<vcgen::Obligation> Obls = {
      obligation(TM.mkAnd(Conjs), TM.mkFalse(), "range-sum")};
  auto endsWith = [](const std::string &S, const std::string &Suffix) {
    return S.size() >= Suffix.size() &&
           S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
  };
  for (bool Incremental : {true, false}) {
    Options Budgeted;
    Budgeted.Incremental = Incremental;
    Budgeted.MaxTheoryChecks = 1;
    Result R = solveObligations(TM, Obls, Budgeted, nullptr);
    ASSERT_EQ(R.V, Verdict::Unknown);
    EXPECT_TRUE(endsWith(R.FailedDescription,
                         ": solver resource budget exhausted"))
        << R.FailedDescription;

    Options Timed;
    Timed.Incremental = Incremental;
    Timed.QueryTimeoutSeconds = 1e-9;
    R = solveObligations(TM, Obls, Timed, nullptr);
    ASSERT_EQ(R.V, Verdict::Unknown);
    EXPECT_TRUE(endsWith(R.FailedDescription, ": solver time limit reached"))
        << R.FailedDescription;
  }
}

class PipelineVerdictTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PipelineVerdictTest, JobsAndSplitsPreserveVerdicts) {
  // A mixed batch: provable, failing, and trivially provable
  // obligations. Every (jobs, splits) combination must agree.
  TermManager TM;
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  TermRef Z = TM.mkVar("z", TM.intSort());
  std::vector<vcgen::Obligation> Obls = {
      obligation(TM.mkAnd(TM.mkLe(X, Y), TM.mkLe(Y, Z)), TM.mkLe(X, Z),
                 "transitivity"),
      obligation(TM.mkLe(X, TM.mkIntConst(3)), TM.mkLe(X, TM.mkIntConst(5)),
                 "weaken"),
      obligation(TM.mkLe(X, Y), TM.mkEq(X, Y), "wrong-eq"),
      obligation(TM.mkTrue(), TM.mkEq(X, X), "reflexive")};
  for (unsigned Splits : {0u, 1u, 2u, 8u}) {
    Options Opts;
    Opts.Jobs = GetParam();
    Opts.VcSplits = Splits;
    Result R = solveObligations(TM, Obls, Opts, nullptr);
    EXPECT_EQ(R.V, Verdict::Failed)
        << "jobs=" << GetParam() << " splits=" << Splits;
    EXPECT_NE(R.FailedDescription.find("wrong-eq"), std::string::npos)
        << "jobs=" << GetParam() << " splits=" << Splits;
    EXPECT_FALSE(R.Counterexample.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, PipelineVerdictTest,
                         ::testing::Values(1u, 2u, 4u));

TEST(PipelineTest, EmptyObligationsProve) {
  TermManager TM;
  Options Opts;
  Result R = solveObligations(TM, {}, Opts, nullptr);
  EXPECT_EQ(R.V, Verdict::Proved);
}

TEST(PipelineTest, UnknownOnBudgetExhaustion) {
  // A genuinely hard integer query under a tiny theory-check budget.
  TermManager TM;
  std::vector<TermRef> Conjs;
  TermRef Prev = nullptr;
  for (int I = 0; I < 6; ++I) {
    TermRef V = TM.mkVar("v" + std::to_string(I), TM.intSort());
    TermRef W = TM.mkVar("w" + std::to_string(I), TM.intSort());
    Conjs.push_back(TM.mkEq(TM.mkAdd(TM.mkMulConst(Rational(2), V),
                                     TM.mkMulConst(Rational(2), W)),
                            TM.mkIntConst(2 * I + 1)));
    Prev = V;
  }
  (void)Prev;
  std::vector<vcgen::Obligation> Obls = {
      obligation(TM.mkAnd(Conjs), TM.mkFalse(), "parity")};
  Options Opts;
  Opts.Simplify = false;
  Opts.MaxTheoryChecks = 1;
  Result R = solveObligations(TM, Obls, Opts, nullptr);
  // Either the solver decides it within one theory check (it is Unsat:
  // 2v+2w is even) or reports Unknown; it must never claim Failed.
  EXPECT_NE(R.V, Verdict::Failed);
}

TEST(PipelineTest, ContextAndOneShotSolvesAgree) {
  // Obligations sharing a long guard prefix: the per-query SolverContext
  // and the one-shot reference solver must agree on every verdict,
  // including the failing obligation's counterexample.
  TermManager TM;
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  TermRef Z = TM.mkVar("z", TM.intSort());
  TermRef A =
      TM.mkVar("a", TM.getArraySort(TM.intSort(), TM.intSort()));
  TermRef Prefix = TM.mkAnd(
      {TM.mkLe(X, Y), TM.mkLe(Y, Z),
       TM.mkEq(TM.mkSelect(A, X), TM.mkIntConst(1)),
       TM.mkEq(TM.mkSelect(A, Z), TM.mkIntConst(9))});
  std::vector<vcgen::Obligation> Obls = {
      obligation(Prefix, TM.mkLe(X, Z), "transitive"),
      obligation(Prefix, TM.mkLe(TM.mkSelect(A, X), TM.mkIntConst(5)),
                 "read-one"),
      obligation(Prefix, TM.mkEq(X, Z), "wrong-eq"),
      obligation(Prefix, TM.mkLe(TM.mkIntConst(9), TM.mkSelect(A, Z)),
                 "read-two")};
  for (bool Incremental : {true, false}) {
    Options Opts;
    Opts.Simplify = false; // keep every obligation solver-bound
    Opts.Incremental = Incremental;
    Result R = solveObligations(TM, Obls, Opts, nullptr);
    EXPECT_EQ(R.V, Verdict::Failed) << "incremental=" << Incremental;
    EXPECT_NE(R.FailedDescription.find("wrong-eq"), std::string::npos)
        << "incremental=" << Incremental;
    EXPECT_FALSE(R.Counterexample.empty());
  }
}

TEST(PipelineTest, InfeasibleUnrelatedGuardProvesInOneSolve) {
  // Guard: u <= 5 /\ 6 <= u is infeasible and shares no symbol with the
  // claim x <= y, which is not valid on its own. The query is the whole
  // obligation, so its one solve proves it vacuously.
  TermManager TM;
  TermRef U = TM.mkVar("u", TM.intSort());
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  std::vector<vcgen::Obligation> Obls = {obligation(
      TM.mkAnd(TM.mkLe(U, TM.mkIntConst(5)), TM.mkLe(TM.mkIntConst(6), U)),
      TM.mkLe(X, Y), "vacuous")};
  Options Opts;
  Result R = solveObligations(TM, Obls, Opts, nullptr);
  EXPECT_EQ(R.V, Verdict::Proved);
  EXPECT_EQ(R.St.Queries, 1u);
}

TEST(PipelineTest, FailingObligationFailsInOneSolve) {
  // The simplifier leaves this obligation as it is (no guard equality to
  // substitute), so the Sat answer of its one query is the verdict and
  // the query's model is the counterexample.
  TermManager TM;
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  TermRef A = TM.mkVar("a", TM.intSort());
  TermRef B = TM.mkVar("b", TM.intSort());
  std::vector<vcgen::Obligation> Obls = {
      obligation(TM.mkAnd(TM.mkLe(X, Y), TM.mkLe(A, B)), TM.mkLe(Y, X),
                 "bogus")};
  Options Opts;
  Result R = solveObligations(TM, Obls, Opts, nullptr);
  EXPECT_EQ(R.V, Verdict::Failed);
  EXPECT_NE(R.FailedDescription.find("bogus"), std::string::npos);
  EXPECT_FALSE(R.Counterexample.empty());
  EXPECT_EQ(R.St.Queries, 1u);
}

TEST(PipelineTest, SimplifiedFailureIsReportedOnTheOriginal) {
  // The simplifier substitutes the guard equality x == y + 1 away. Its
  // query is Sat, but its model does not mention x, so the pipeline
  // re-solves the unsimplified obligation for the counterexample.
  TermManager TM;
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  std::vector<vcgen::Obligation> Obls = {obligation(
      TM.mkEq(X, TM.mkAdd({Y, TM.mkIntConst(1)})), TM.mkLe(X, Y), "off")};
  Options Opts;
  Result R = solveObligations(TM, Obls, Opts, nullptr);
  EXPECT_EQ(R.V, Verdict::Failed);
  EXPECT_EQ(R.St.Queries, 2u);
  EXPECT_NE(R.Counterexample.find("x"), std::string::npos)
      << R.Counterexample;
}

TEST(PipelineTest, QuantifierInQfModeIsReportedUnsolved) {
  // Without AllowQuantifiers every obligation is checked to be
  // quantifier-free before it is simplified or solved.
  TermManager TM;
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  TermRef Z = TM.mkVar("z", TM.intSort());
  std::vector<vcgen::Obligation> Obls = {obligation(
      TM.mkForall({X}, TM.mkLe(X, Y)), TM.mkLe(Y, Z), "leaked")};
  Options Opts;
  Result R = solveObligations(TM, Obls, Opts, nullptr);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_NE(R.FailedDescription.find("quantifier leaked"), std::string::npos)
      << R.FailedDescription;
  EXPECT_EQ(R.St.Queries, 0u);
}

TEST(PipelineTest, ProvedBySimplifyskipsSolver) {
  TermManager TM;
  TermRef X = TM.mkVar("x", TM.intSort());
  std::vector<vcgen::Obligation> Obls = {
      obligation(TM.mkEq(X, TM.mkIntConst(4)),
                 TM.mkLe(X, TM.mkIntConst(4)), "const-fold")};
  Options Opts;
  Result R = solveObligations(TM, Obls, Opts, nullptr);
  EXPECT_EQ(R.V, Verdict::Proved);
  EXPECT_EQ(R.St.ProvedBySimplify, 1u);
  EXPECT_EQ(R.St.Queries, 0u);
}

} // namespace
