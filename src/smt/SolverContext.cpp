//===- smt/SolverContext.cpp - One-check SMT solving ----------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "smt/SolverContext.h"

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
         "the blind array product is a one-shot reference only");
  Core.Sat.setClauseDeletion(Core.Opts.ClauseDeletion);
  Core.Sat.setTheoryPropagation(Core.Opts.TheoryPropagation);
  if (Core.Opts.ReduceDbLimit)
    Core.Sat.setReduceDbLimit(Core.Opts.ReduceDbLimit);
}

SolverContext::~SolverContext() = default;

void SolverContext::assertTerm(TermRef F) {
  assert(!Core.EvalFormula && "assertTerm after checkSat");
  assert(!Core.TM.containsQuantifier(F) &&
         "quantifier asserted into a QF context");
  TermRef Lifted = liftItes(Core.TM, F);
  Asserted.push_back(Lifted);
  // The formula and the array lemmas it demands.
  std::vector<TermRef> Encoded{Lifted};
  std::vector<TermRef> Lemmas = Reducer.assertFormula(Lifted);
  Encoded.insert(Encoded.end(), Lemmas.begin(), Lemmas.end());
  for (TermRef A : Encoded)
    addClauses(A);
  // Pre-register the theory structure of everything just encoded (a no-op
  // under --no-theory-prop): term graph and watches land at the base of
  // the theory trails.
  Engine.preRegister(Encoded);
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

SolverContext::Result SolverContext::checkSat() {
  assert(!Core.EvalFormula && "a SolverContext is checked once");
  Core.SolveDeadline =
      Core.Opts.TimeoutSeconds == 0
          ? 0
          : std::chrono::duration<double>(
                std::chrono::steady_clock::now().time_since_epoch())
                    .count() +
                Core.Opts.TimeoutSeconds;
  // The evaluation safety net sees exactly the assertions.
  Core.EvalFormula = Core.TM.mkAnd(Asserted);

  Result R;
  if (Core.EvalFormula == Core.TM.mkFalse()) {
    R = Result::Unsat;
  } else if (Core.EvalFormula == Core.TM.mkTrue()) {
    R = Result::Sat;
  } else {
    logging::debugf("smt", "context check: atoms=%zu satvars=%d "
                           "clauses=%u lemmas=%u\n",
                    Core.Atoms.size(), Core.Sat.numVars(),
                    Core.Sat.numClauses(), Reducer.stats().NumLemmas);
    sat::SatSolver::Result SR = Core.Sat.solve(&Engine);
    Core.St.SatConflicts = Core.Sat.numConflicts();
    Core.St.SatDecisions = Core.Sat.numDecisions();
    Core.St.TheoryConflicts = Core.Sat.numTheoryConflicts();
    if (Core.gaveUp())
      R = Result::Unknown;
    else
      R = SR == sat::SatSolver::Result::Unsat ? Result::Unsat : Result::Sat;
  }
  Core.St.NumAtoms = static_cast<unsigned>(Core.Atoms.size());
  Core.St.ArrayStats = Reducer.stats();

  Core.recordCheck();
  return R;
}
