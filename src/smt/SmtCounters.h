//===- smt/SmtCounters.h - Cached smt.* metric cells -----------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The smt.* registry cells, resolved once per process. Both solver
/// drivers add a check through SolverCore::recordCheck: a Solver or
/// SolverContext is checked once, so its SatSolver and SolverStats totals
/// are the check's counts.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SMT_SMTCOUNTERS_H
#define IDS_SMT_SMTCOUNTERS_H

#include "support/Trace.h"

namespace ids {
namespace smt {

struct SmtCounters {
  trace::Counter &CheckSats = trace::counter("smt.check_sats");
  trace::Counter &Decisions = trace::counter("smt.decisions");
  trace::Counter &Conflicts = trace::counter("smt.conflicts");
  trace::Counter &TheoryConflicts = trace::counter("smt.theory_conflicts");
  trace::Counter &TheoryChecks = trace::counter("smt.theory_checks");
  trace::Counter &Propagations = trace::counter("smt.propagations");
  trace::Counter &ModelRepairs = trace::counter("smt.model_repairs");
  trace::Counter &ModelGiveUps = trace::counter("smt.model_give_ups");
  trace::Counter &Instantiations = trace::counter("smt.instantiations");
  trace::Counter &ArrayLemmas = trace::counter("smt.array_lemmas");
  trace::Counter &AssertsReused = trace::counter("smt.theory_asserts_reused");
  trace::Counter &MaxAtoms = trace::counter("smt.max_atoms");
  trace::Counter &LemmasDeleted = trace::counter("smt.lemmas_deleted");
  trace::Counter &ReduceDbSweeps = trace::counter("smt.reduce_db_sweeps");
  trace::Counter &Restarts = trace::counter("smt.restarts");
  trace::Counter &TheoryPropagations =
      trace::counter("smt.theory_propagations");
  trace::Counter &PropagationConflicts =
      trace::counter("smt.propagation_conflicts");
  trace::Counter &CcRegistrationsReused =
      trace::counter("smt.cc_registrations_reused");
};

inline SmtCounters &smtCounters() {
  static SmtCounters C;
  return C;
}

} // namespace smt
} // namespace ids

#endif // IDS_SMT_SMTCOUNTERS_H
