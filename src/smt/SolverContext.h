//===- smt/SolverContext.h - Incremental SMT solving -----------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental SMT solving over an assertion stack: assertTerm() adds a
/// formula at the current level, push()/pop() bracket levels, and
/// checkSat() decides the conjunction of every active assertion. The
/// point is shared-prefix reuse across the many near-identical queries of
/// a verification run:
///
///  - the Tseitin CNF of an assertion is built once and its clauses are
///    retracted exactly when the level that added them pops (SatSolver
///    assertion levels);
///  - theory conflict clauses learned while solving one query are valid
///    theory lemmas (assertion level 0), so they survive pops and prune
///    the search of every later query on the same prefix;
///  - demand-driven array instantiations triggered by prefix assertions
///    are computed once and survive across queries (ArrayReducer levels),
///    while instantiations made above the current level are retracted on
///    pop;
///  - the congruence closure and simplex engines are persistent and
///    backtrackable, synced to the SAT trail so consecutive theory checks
///    re-assert only the diverging suffix of the assignment.
///
/// The intended protocol for a batched obligation group:
///
///   SolverContext Ctx(TM, Opts);
///   Ctx.assertTerm(SharedPrefix);          // level 0, asserted once
///   for (auto &Claim : Claims) {
///     Ctx.push();
///     Ctx.assertTerm(Negate(Claim));
///     auto R = Ctx.checkSat();             // Unsat == claim proved
///     Ctx.pop();
///   }
///
/// checkSatAssuming() wraps one push/assert/check/pop round.
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

  /// Live counter snapshots between checks: the atoms interned and array
  /// lemmas instantiated so far in this context. Callers batching many
  /// queries on one context use these to turn the context-cumulative
  /// CheckStats counters into per-query deltas (e.g. "prefix share +
  /// what this member added"), comparable with a one-shot solve.
  unsigned numAtoms() const {
    return static_cast<unsigned>(Core.Atoms.size());
  }
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
  /// CcRegistrationsReused already folded into the metrics registry
  /// (registration reuse accrues in assertTerm, which flushes the delta).
  uint64_t CcReusedFlushed = 0;
  void flushRegistrationCounter();
};

} // namespace smt
} // namespace ids

#endif // IDS_SMT_SOLVERCONTEXT_H
