//===- smt/Solver.cpp - CDCL(T) SMT solver --------------------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"

#include "smt/QuantInst.h"
#include "support/Log.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace ids;
using namespace ids::smt;

Solver::Result Solver::checkSat(TermRef Formula) {
  assert(!Core.EvalFormula && "a Solver is checked once");
  Result R = solve(Formula);
  Core.recordCheck();
  return R;
}

Solver::Result Solver::solve(TermRef Formula) {
  Core.Sat.setClauseDeletion(Core.Opts.ClauseDeletion);
  if (Core.Opts.ReduceDbLimit)
    Core.Sat.setReduceDbLimit(Core.Opts.ReduceDbLimit);
  TermManager &TM = Core.TM;
  // A Sat answer is only as good as the instantiation behind it.
  bool CompleteInst = true;
  if (TM.containsQuantifier(Formula)) {
    assert(Core.Opts.AllowQuantifiers &&
           "quantifier encountered in quantifier-free mode");
    QuantInstResult QR = instantiateQuantifiers(
        TM, Formula, Core.Opts.QuantRounds, Core.Opts.MaxInstPerQuant);
    Formula = QR.Formula;
    CompleteInst = QR.Complete;
    Core.St.Instantiations = QR.NumInstantiations;
  }
  auto SatUnlessIncomplete = [&] {
    if (CompleteInst)
      return Result::Sat;
    Core.giveUp(UnknownReason::Instantiation);
    return Result::Unknown;
  };
  TermRef Lifted = liftItes(TM, Formula);
  Core.EvalFormula = Lifted; // lifted vars are assigned by the model builder
  TermRef Reduced = reduceArrays(TM, Lifted, &Core.St.ArrayStats,
                                 Core.Opts.EagerArrayInstantiation);

  if (Reduced == TM.mkTrue())
    return SatUnlessIncomplete();
  if (Reduced == TM.mkFalse())
    return Result::Unsat;

  sat::Lit Root = Core.litFor(Reduced);
  Core.Sat.addClause({Root});
  Core.St.NumAtoms = static_cast<unsigned>(Core.Atoms.size());
  if (Core.Opts.TimeoutSeconds != 0)
    Core.SolveDeadline =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count() +
        Core.Opts.TimeoutSeconds;
  logging::debugf("smt", "atoms=%u satvars=%d arrayLemmas=%u witnesses=%u\n",
                  Core.St.NumAtoms, Core.Sat.numVars(),
                  Core.St.ArrayStats.NumLemmas,
                  Core.St.ArrayStats.NumWitnesses);
  TheoryEngine Check(Core, /*Persistent=*/false);
  sat::SatSolver::Result R = Core.Sat.solve(&Check);
  Core.St.SatConflicts = Core.Sat.numConflicts();
  Core.St.SatDecisions = Core.Sat.numDecisions();
  Core.St.TheoryConflicts = Core.Sat.numTheoryConflicts();
  if (Core.gaveUp())
    return Result::Unknown;
  if (R == sat::SatSolver::Result::Unsat)
    return Result::Unsat;
  return SatUnlessIncomplete();
}
