//===- smt/SolverTypes.h - Shared solver options/stats ---------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Result/options/statistics types shared by the one-shot Solver and the
/// SolverContext (and the TheoryEngine underneath both).
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SMT_SOLVERTYPES_H
#define IDS_SMT_SOLVERTYPES_H

#include "smt/ArrayReduction.h"

#include <cstdint>

namespace ids {
namespace smt {

enum class SolverResult { Sat, Unsat, Unknown };

struct SolverOptions {
  /// Permit Forall terms and run ground instantiation first (the
  /// "Dafny-style" encoding of RQ3). Off by default: QF-mode asserts
  /// quantifier-freeness, mirroring the paper's cross-check.
  bool AllowQuantifiers = false;
  unsigned QuantRounds = 2;
  unsigned MaxInstPerQuant = 2048;
  /// Iterations of model repair (index-collision separation) before
  /// giving up on the query (SolverResult::Unknown).
  unsigned MaxModelRepairIters = 8;
  /// Resource budget: give up (SolverResult::Unknown) after this many
  /// theory checks per check call. 0 means unlimited. Exhaustion is
  /// reported explicitly — bounded resources, not unpredictable
  /// divergence.
  uint64_t MaxTheoryChecks = 0;
  /// Wall-clock budget per checkSat call in seconds (0 = unlimited).
  double TimeoutSeconds = 0;
  /// One-shot Solver only: use the blind (quadratic) array instantiation
  /// instead of the relevancy-driven one. The VC pipeline escalates to
  /// this when the relevancy-driven attempt gives up on model
  /// construction. A SolverContext always asserts the demand closure.
  bool EagerArrayInstantiation = false;
  /// Activity-based deletion of cold learned clauses (reduceDB) in the
  /// SAT core. On by default; --no-reduce-db is the differential
  /// baseline.
  bool ClauseDeletion = true;
  /// DPLL(T) theory propagation in a SolverContext: assert atoms
  /// entailed by the partial trail (CC equality watches, arithmetic bound
  /// watches) instead of waiting for a full propositional model. On by
  /// default; --no-theory-prop is the differential baseline and restores
  /// the purely lazy full-model behavior bit for bit.
  bool TheoryPropagation = true;
  /// Initial learned-set size that triggers a reduceDB sweep; 0 keeps
  /// the SAT core's default. Tests force frequent sweeps on small
  /// instances with a tiny limit (the limit still grows per sweep, so
  /// search stays terminating).
  unsigned ReduceDbLimit = 0;
};

struct SolverStats {
  uint64_t TheoryChecks = 0;
  uint64_t SatConflicts = 0;
  uint64_t SatDecisions = 0;
  uint64_t TheoryConflicts = 0;
  uint64_t EqualitiesPropagated = 0;
  uint64_t ModelRepairs = 0;
  /// Queries abandoned (Unknown) because model construction failed with
  /// no sound explanation clause available. Formerly these emitted an
  /// unjustified blocking clause, which could manufacture a wrong Unsat.
  uint64_t ModelGiveUps = 0;
  uint64_t Instantiations = 0;
  unsigned NumAtoms = 0;
  /// SolverContext counter: atom assertions skipped because the
  /// persistent theory engines were already synced to a shared SAT-trail
  /// prefix.
  uint64_t TheoryAssertsReused = 0;
  /// SolverContext counter: term registrations skipped because the term
  /// was already in the congruence-closure graph (a subterm shared by
  /// several atoms or lemmas).
  uint64_t CcRegistrationsReused = 0;
  ArrayReductionStats ArrayStats;
};

} // namespace smt
} // namespace ids

#endif // IDS_SMT_SOLVERTYPES_H
