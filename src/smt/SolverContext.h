//===- smt/SolverContext.h - One-check SMT solving --------------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One SMT check over a set of quantifier-free assertions: assertTerm()
/// adds a formula at the root, as often as needed, and checkSat() then
/// decides their conjunction once. A context is never re-checked or
/// retracted; the VC pipeline builds a fresh one per query:
///
///   SolverContext Ctx(TM, Opts);
///   Ctx.assertTerm(Query);                 // array demand closure here
///   auto R = Ctx.checkSat();               // Unsat == obligation proved
///
/// What it gains over the one-shot Solver is the persistent,
/// backtrackable theory engines: DPLL(T) theory propagation on partial
/// trails, and congruence-closure and simplex state synced to the SAT
/// trail so consecutive theory checks re-assert only the diverging suffix
/// of the assignment. A Sat model is checked against the assertions
/// before it is reported.
///
/// Quantifier-free only: the quantified (RQ3) encoding instantiates ahead
/// of time and keeps using the one-shot Solver.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SMT_SOLVERCONTEXT_H
#define IDS_SMT_SOLVERCONTEXT_H

#include "smt/SolverTypes.h"
#include "smt/TheoryEngine.h"

#include <memory>
#include <vector>

namespace ids {
namespace smt {

class SolverContext {
public:
  using Result = SolverResult;

  SolverContext(TermManager &TM, SolverOptions O);
  ~SolverContext();

  /// Asserts \p F (quantifier-free). Only before checkSat().
  void assertTerm(TermRef F);

  /// Decides the conjunction of all assertions. At most once per context.
  Result checkSat();

  /// The model after a Sat result.
  const Model &model() const { return Core.CurrentModel; }

  /// Statistics of the context's one check (NumAtoms is set by checkSat).
  const SolverStats &stats() const { return Core.St; }

  /// Array lemmas instantiated so far in this context (all of them are
  /// emitted by assertTerm).
  unsigned numArrayLemmas() const { return Reducer.stats().NumLemmas; }

private:
  SolverCore Core;
  ArrayReducer Reducer;
  TheoryEngine Engine;
  /// Lifted forms of the assertions (for the model-evaluation safety net:
  /// a candidate model must satisfy every assertion).
  std::vector<TermRef> Asserted;
  /// Registration reuse and array lemmas already folded into the metrics
  /// registry: both accrue in assertTerm, which flushes the deltas.
  uint64_t CcReusedFlushed = 0;
  unsigned ArrayLemmasFlushed = 0;
  void flushAssertCounters();
  /// Adds the asserted formula \p F to the SAT core: a top-level
  /// conjunction splits into its conjuncts and a top-level disjunction
  /// becomes one clause, so neither needs a Tseitin variable.
  void addClauses(TermRef F);
};

} // namespace smt
} // namespace ids

#endif // IDS_SMT_SOLVERCONTEXT_H
