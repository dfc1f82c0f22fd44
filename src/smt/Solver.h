//===- smt/Solver.h - CDCL(T) SMT solver -----------------------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-shot SMT solver facade: decides quantifier-free formulas over
/// the combination of EUF, linear Int/Rat arithmetic and the generalized
/// array fragment — the decidable combination the paper's verification
/// conditions live in (Section 3.7). Architecture:
///
///   formula --(quantifier instantiation; RQ3 mode only)-->
///           --(ite lifting)--> --(eager array reduction)-->
///           --(Tseitin CNF)--> CDCL SAT core
///
/// and on every full propositional assignment, a theory check
/// (TheoryEngine, one-shot mode) runs congruence closure and simplex to
/// fixpoint with Nelson-Oppen style equality exchange; conflicts come
/// back as small explanation clauses. Sat answers are validated by
/// evaluating the original formula under the constructed model before
/// being reported.
///
/// For the per-query context the VC pipeline uses by default (persistent
/// theory engines with DPLL(T) propagation) see SolverContext.h; this
/// class remains the one-shot reference solver that `--no-incremental`
/// and the quantified encoding use.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SMT_SOLVER_H
#define IDS_SMT_SOLVER_H

#include "smt/TheoryEngine.h"

namespace ids {
namespace smt {

/// One-shot SMT solver over a TermManager.
class Solver {
public:
  using Result = SolverResult;
  using Options = SolverOptions;
  using Stats = SolverStats;

  explicit Solver(TermManager &TM, Options O) : Core(TM, std::move(O)) {}
  explicit Solver(TermManager &TM) : Solver(TM, Options()) {}

  /// Decides satisfiability of \p Formula. At most once per Solver.
  Result checkSat(TermRef Formula);

  /// The model after a Sat result.
  const Model &model() const { return Core.CurrentModel; }
  const Stats &stats() const { return Core.St; }

private:
  Result solve(TermRef Formula);

  SolverCore Core;
};

} // namespace smt
} // namespace ids

#endif // IDS_SMT_SOLVER_H
