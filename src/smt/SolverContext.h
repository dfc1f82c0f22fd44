//===- smt/SolverContext.h - Incremental SMT solving -----------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental SMT solving over an assertion stack: assertTerm() adds a
/// formula at the current level, push()/pop() bracket levels, and
/// checkSat() decides the conjunction of every active assertion.
///
/// The VC pipeline solves every quantifier-free query on a fresh context
/// holding the query as its single assertion:
///
///   SolverContext Ctx(TM, Opts);
///   Ctx.assertTerm(Query);                 // array demand closure here
///   auto R = Ctx.checkSat();               // Unsat == obligation proved
///
/// What it gains over the one-shot Solver is the persistent,
/// backtrackable theory engines: DPLL(T) theory propagation on partial
/// trails, and congruence-closure and simplex state synced to the SAT
/// trail so consecutive theory checks re-assert only the diverging suffix
/// of the assignment. A Sat model is checked against the active
/// assertions before it is reported.
///
/// push()/pop() (SatSolver assertion levels, ArrayReducer levels and
/// TheoryEngine assertion frames) are exercised only by the differential
/// tests against the one-shot Solver; checkSatAssuming() wraps one
/// push/assert/check/pop round.
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

  /// Opens an assertion level.
  void push();
  /// Retracts everything asserted above the matching push.
  void pop();
  unsigned numLevels() const { return Core.Sat.assertLevel(); }

  /// Asserts \p F (quantifier-free) at the current level.
  void assertTerm(TermRef F);

  /// Decides the conjunction of all active assertions.
  Result checkSat();

  /// push(); assertTerm(Assumption); checkSat(); pop() — the verdict of
  /// the active stack strengthened by \p Assumption.
  Result checkSatAssuming(TermRef Assumption);

  /// The model after a Sat result (valid until the next mutating call).
  const Model &model() const { return Core.CurrentModel; }

  /// Cumulative statistics over the whole context lifetime.
  const SolverStats &stats() const { return Core.St; }

  /// Statistics of the most recent checkSat() alone. Counters like
  /// ModelGiveUps are deltas per solve — a give-up while solving one query
  /// must not bleed into the escalation decision of the next (the stats
  /// level-safety the incremental refactor requires).
  struct CheckStats {
    SolverResult R = SolverResult::Unknown;
    uint64_t TheoryChecks = 0;
    uint64_t ModelGiveUps = 0;
    uint64_t TheoryAssertsReused = 0;
    /// Theory-propagation activity inside this check (0 with
    /// --no-theory-prop): literals asserted from partial-trail entailment
    /// and conflicts caught before a full propositional model.
    uint64_t TheoryPropagations = 0;
    uint64_t PropagationConflicts = 0;
    unsigned NumAtoms = 0;       ///< atoms live in the CNF for this check
    unsigned NumArrayLemmas = 0; ///< cumulative reducer lemmas at check time
  };
  const CheckStats &lastCheckStats() const { return LastCheck; }

  /// Array lemmas instantiated so far in this context (all of them are
  /// emitted by assertTerm).
  unsigned numArrayLemmas() const { return Reducer.stats().NumLemmas; }

private:
  SolverCore Core;
  ArrayReducer Reducer;
  TheoryEngine Engine;
  /// Lifted forms of the assertions per level (for the model-evaluation
  /// safety net: a candidate model must satisfy every ACTIVE assertion).
  std::vector<std::vector<TermRef>> LevelAsserts;
  /// Non-atom terms Tseitin-encoded per level: their defining clauses die
  /// with the level, so the cache entries must be invalidated on pop or a
  /// re-assertion would reference an unconstrained auxiliary variable.
  std::vector<TermRef> EncodingLog;
  std::vector<size_t> EncodingMarks;
  CheckStats LastCheck;
  bool NeedReset = false; ///< a solve left its assignment in place
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
