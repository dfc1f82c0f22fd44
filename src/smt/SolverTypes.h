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

/// Why a check answered Unknown.
enum class UnknownReason : uint8_t {
  None,
  Budget,          ///< the theory-check budget ran out
  Timeout,         ///< the wall-clock budget ran out
  ArithUndecided,  ///< branch and bound hit its depth limit
  ModelIncomplete, ///< model construction found no witness
  Instantiation,   ///< quantifier instantiation was incomplete
};

/// The reason as the obligation report prints it.
const char *describe(UnknownReason R);

struct SolverOptions {
  /// Permit Forall terms and run ground instantiation first (the
  /// "Dafny-style" encoding of RQ3). Off by default: QF-mode asserts
  /// quantifier-freeness, mirroring the paper's cross-check.
  bool AllowQuantifiers = false;
  /// Resource budget: give up (SolverResult::Unknown) after this many
  /// theory checks per check call. 0 means unlimited. Exhaustion is
  /// reported explicitly — bounded resources, not unpredictable
  /// divergence.
  uint64_t MaxTheoryChecks = 0;
  /// Wall-clock budget per checkSat call in seconds (0 = unlimited).
  double TimeoutSeconds = 0;
  /// One-shot Solver only: add the blind (quadratic) array product to
  /// the demand closure. The fuzz differentials use it as their
  /// reference; a SolverContext always asserts the demand closure alone.
  bool EagerArrayInstantiation = false;
  /// DPLL(T) theory propagation in a SolverContext: assert atoms
  /// entailed by the partial trail (CC equality watches, arithmetic bound
  /// watches) instead of waiting for a full propositional model. On by
  /// default; --no-theory-prop is the differential baseline and restores
  /// the purely lazy full-model behavior bit for bit.
  bool TheoryPropagation = true;
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
  /// Set by the first give-up; the check then answers Unknown.
  UnknownReason Why = UnknownReason::None;
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
