//===- smt/SolverTypes.h - Shared solver options/stats ---------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Result/options/statistics types of the SolverContext and the
/// TheoryEngine underneath it.
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

/// How the theory engines follow the SAT search (`--theory`).
enum class TheoryMode : uint8_t {
  /// Persistent engines synced to the SAT trail, plus DPLL(T) propagation
  /// of entailed atoms on partial assignments. The default.
  Propagate,
  /// Persistent engines consulted on full assignments only: the lazy
  /// baseline that propagation must agree with.
  Lazy,
  /// Fresh engines rebuilt from the assigned atoms on every full
  /// assignment: the simplest engine, kept as the differential reference.
  Rebuild,
};

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
  /// Add the blind (quadratic) array product to the demand closure. The
  /// fuzz differentials use it as their reference; the pipeline never
  /// sets it.
  bool EagerArrayInstantiation = false;
  TheoryMode Theory = TheoryMode::Propagate;
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
  /// Atom assertions skipped because the persistent theory engines were
  /// already synced to a shared SAT-trail prefix.
  uint64_t TheoryAssertsReused = 0;
  /// Term registrations skipped because the term was already in the
  /// congruence-closure graph (a subterm shared by several atoms or
  /// lemmas).
  uint64_t CcRegistrationsReused = 0;
  ArrayReductionStats ArrayStats;
};

} // namespace smt
} // namespace ids

#endif // IDS_SMT_SOLVERTYPES_H
