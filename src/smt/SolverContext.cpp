//===- smt/SolverContext.cpp - Incremental SMT solving --------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "smt/SolverContext.h"

#include "smt/SmtCounters.h"
#include "support/Log.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace ids;
using namespace ids::smt;

SolverContext::SolverContext(TermManager &TM, SolverOptions O)
    : Core(TM, std::move(O)), Reducer(TM), Engine(Core, /*Persistent=*/true) {
  assert(!Core.Opts.AllowQuantifiers &&
         "SolverContext is quantifier-free only");
  assert(!Core.Opts.EagerArrayInstantiation &&
         "the blind array product is a one-shot escalation only");
  LevelAsserts.emplace_back();
  Core.EncodingLog = &EncodingLog;
  Core.Sat.setClauseDeletion(Core.Opts.ClauseDeletion);
  Core.Sat.setTheoryPropagation(Core.Opts.TheoryPropagation);
  if (Core.Opts.ReduceDbLimit)
    Core.Sat.setReduceDbLimit(Core.Opts.ReduceDbLimit);
}

SolverContext::~SolverContext() = default;

void SolverContext::push() {
  if (NeedReset) {
    Core.Sat.resetToRoot();
    NeedReset = false;
  }
  Core.Sat.pushAssertLevel();
  Reducer.push();
  Engine.pushAssertionFrame();
  LevelAsserts.emplace_back();
  EncodingMarks.push_back(EncodingLog.size());
}

void SolverContext::pop() {
  assert(LevelAsserts.size() > 1 && "pop without matching push");
  Core.Sat.resetToRoot();
  NeedReset = false;
  Core.Sat.popAssertLevel();
  Reducer.pop();
  Engine.popAssertionFrame();
  LevelAsserts.pop_back();
  // Invalidate Tseitin encodings whose defining clauses just died.
  size_t Mark = EncodingMarks.back();
  EncodingMarks.pop_back();
  while (EncodingLog.size() > Mark) {
    Core.LitCache.erase(EncodingLog.back());
    EncodingLog.pop_back();
  }
}

void SolverContext::assertTerm(TermRef F) {
  assert(!Core.TM.containsQuantifier(F) &&
         "quantifier asserted into a QF context");
  if (NeedReset) {
    Core.Sat.resetToRoot();
    NeedReset = false;
  }
  TermRef Lifted = liftItes(Core.TM, F);
  LevelAsserts.back().push_back(Lifted);
  // The formula and the array lemmas it demands.
  std::vector<TermRef> Asserted{Lifted};
  std::vector<TermRef> Lemmas = Reducer.assertFormula(Lifted);
  Asserted.insert(Asserted.end(), Lemmas.begin(), Lemmas.end());
  for (TermRef A : Asserted)
    addClauses(A);
  // Pre-register the theory structure of everything just encoded (a no-op
  // under --no-theory-prop): term graph and watches land at the current
  // assertion frame, so assertions above a push re-register only their own
  // delta on top of the pinned lower levels.
  Engine.preRegister(Asserted);
  flushAssertCounters();
}

void SolverContext::addClauses(TermRef F) {
  if (F->getKind() == TermKind::And) {
    for (TermRef C : F->getArgs())
      addClauses(C);
    return;
  }
  if (F->getKind() == TermKind::Or) {
    std::vector<sat::Lit> Clause;
    for (TermRef D : F->getArgs())
      Clause.push_back(Core.litFor(D));
    Core.Sat.addClause(std::move(Clause));
    return;
  }
  Core.Sat.addClause({Core.litFor(F)});
}

void SolverContext::flushAssertCounters() {
  SmtCounters &TC = smtCounters();
  TC.CcRegistrationsReused.add(Core.St.CcRegistrationsReused -
                               CcReusedFlushed);
  CcReusedFlushed = Core.St.CcRegistrationsReused;
  TC.ArrayLemmas.add(Reducer.stats().NumLemmas - ArrayLemmasFlushed);
  ArrayLemmasFlushed = Reducer.stats().NumLemmas;
}

SolverContext::Result SolverContext::checkSat() {
  if (NeedReset) {
    Core.Sat.resetToRoot();
    NeedReset = false;
  }
  // Per-check counter windows (level-safe stats: deltas, not cumulative
  // bleed-through).
  uint64_t ChecksBefore = Core.St.TheoryChecks;
  uint64_t GiveUpsBefore = Core.St.ModelGiveUps;
  uint64_t ReusedBefore = Core.St.TheoryAssertsReused;
  uint64_t DecisionsBefore = Core.Sat.numDecisions();
  uint64_t ConflictsBefore = Core.Sat.numConflicts();
  uint64_t TConflictsBefore = Core.Sat.numTheoryConflicts();
  uint64_t PropsBefore = Core.St.EqualitiesPropagated;
  uint64_t RepairsBefore = Core.St.ModelRepairs;
  uint64_t DeletedBefore = Core.Sat.numLemmasDeleted();
  uint64_t SweepsBefore = Core.Sat.numReduceDbSweeps();
  uint64_t RestartsBefore = Core.Sat.numRestarts();
  uint64_t TheoryPropsBefore = Core.Sat.numTheoryPropagations();
  uint64_t PropConflictsBefore = Core.Sat.numTheoryPropConflicts();
  Core.BudgetExhausted = false;
  Core.TheoryCheckBase = Core.St.TheoryChecks;
  Core.SolveDeadline =
      Core.Opts.TimeoutSeconds == 0
          ? 0
          : std::chrono::duration<double>(
                std::chrono::steady_clock::now().time_since_epoch())
                    .count() +
                Core.Opts.TimeoutSeconds;

  // The evaluation safety net sees exactly the active assertions.
  std::vector<TermRef> Active;
  for (const std::vector<TermRef> &Lvl : LevelAsserts)
    for (TermRef T : Lvl)
      Active.push_back(T);
  Core.EvalFormula = Core.TM.mkAnd(std::move(Active));
  Core.St.NumAtoms = static_cast<unsigned>(Core.Atoms.size());

  Result R;
  if (Core.EvalFormula == Core.TM.mkFalse()) {
    R = Result::Unsat;
  } else if (Core.Sat.unsatAtCurrentLevel()) {
    R = Result::Unsat;
  } else if (Core.EvalFormula == Core.TM.mkTrue()) {
    R = Result::Sat;
    Core.CurrentModel = Model();
  } else {
    logging::debugf("smt",
                    "incremental check: level=%u atoms=%zu satvars=%d "
                    "clauses=%u lemmas=%u\n",
                    Core.Sat.assertLevel(), Core.Atoms.size(),
                    Core.Sat.numVars(), Core.Sat.numClauses(),
                    Reducer.stats().NumLemmas);
    sat::SatSolver::Result SR = Core.Sat.solve(&Engine);
    NeedReset = true;
    Core.St.SatConflicts = Core.Sat.numConflicts();
    Core.St.SatDecisions = Core.Sat.numDecisions();
    Core.St.TheoryConflicts = Core.Sat.numTheoryConflicts();
    if (Core.BudgetExhausted)
      R = Result::Unknown;
    else
      R = SR == sat::SatSolver::Result::Unsat ? Result::Unsat : Result::Sat;
  }

  Core.St.ArrayStats = Reducer.stats();
  LastCheck.R = R;
  LastCheck.TheoryChecks = Core.St.TheoryChecks - ChecksBefore;
  LastCheck.ModelGiveUps = Core.St.ModelGiveUps - GiveUpsBefore;
  LastCheck.TheoryAssertsReused = Core.St.TheoryAssertsReused - ReusedBefore;
  LastCheck.NumAtoms = static_cast<unsigned>(Core.Atoms.size());
  LastCheck.NumArrayLemmas = Reducer.stats().NumLemmas;
  LastCheck.TheoryPropagations =
      Core.Sat.numTheoryPropagations() - TheoryPropsBefore;
  LastCheck.PropagationConflicts =
      Core.Sat.numTheoryPropConflicts() - PropConflictsBefore;

  SmtCounters &TC = smtCounters();
  TC.CheckSats.add();
  TC.Decisions.add(Core.Sat.numDecisions() - DecisionsBefore);
  TC.Conflicts.add(Core.Sat.numConflicts() - ConflictsBefore);
  TC.TheoryConflicts.add(Core.Sat.numTheoryConflicts() - TConflictsBefore);
  TC.TheoryChecks.add(LastCheck.TheoryChecks);
  TC.Propagations.add(Core.St.EqualitiesPropagated - PropsBefore);
  TC.ModelRepairs.add(Core.St.ModelRepairs - RepairsBefore);
  TC.ModelGiveUps.add(LastCheck.ModelGiveUps);
  TC.AssertsReused.add(LastCheck.TheoryAssertsReused);
  TC.MaxAtoms.recordMax(LastCheck.NumAtoms);
  TC.LemmasDeleted.add(Core.Sat.numLemmasDeleted() - DeletedBefore);
  TC.ReduceDbSweeps.add(Core.Sat.numReduceDbSweeps() - SweepsBefore);
  TC.Restarts.add(Core.Sat.numRestarts() - RestartsBefore);
  TC.TheoryPropagations.add(LastCheck.TheoryPropagations);
  TC.PropagationConflicts.add(LastCheck.PropagationConflicts);
  return R;
}

SolverContext::Result SolverContext::checkSatAssuming(TermRef Assumption) {
  push();
  assertTerm(Assumption);
  Result R = checkSat();
  pop();
  return R;
}
