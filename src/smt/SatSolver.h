//===- smt/SatSolver.h - CDCL SAT core -------------------------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver: two-watched-literal
/// propagation, 1UIP conflict analysis with backjumping, EVSIDS branching,
/// phase saving and Luby restarts.
///
/// The SMT layer drives it lazily (offline DPLL(T)): whenever the solver
/// reaches a full assignment it invokes a TheoryCallback, which either
/// accepts the model or returns a conflict clause (an explanation from the
/// theory stack) that is learned and search resumes. This is terminating:
/// each theory clause removes at least one total assignment.
///
/// The clause database is organized in assertion levels for incremental
/// solving (pushAssertLevel / popAssertLevel): every clause carries the
/// assertion level it depends on, and popping a level retracts exactly the
/// clauses above it. Learned clauses record the maximum assertion level of
/// their antecedents, so a lemma derived purely from theory reasoning and
/// level-0 input (assertion level 0) survives every pop — this is what lets
/// an incremental SolverContext reuse theory lemmas across queries that
/// share an assertion-stack prefix.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SMT_SATSOLVER_H
#define IDS_SMT_SATSOLVER_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ids {
namespace sat {

/// Boolean variable index (0-based).
using Var = int;

/// A literal: variable + sign, encoded as 2*Var+Sign (Sign==1 is negation).
struct Lit {
  int Code = -1;

  Lit() = default;
  Lit(Var V, bool Negated) : Code(2 * V + (Negated ? 1 : 0)) {}

  Var var() const { return Code >> 1; }
  bool negated() const { return Code & 1; }
  Lit operator~() const {
    Lit Result;
    Result.Code = Code ^ 1;
    return Result;
  }
  bool operator==(const Lit &RHS) const { return Code == RHS.Code; }
  bool operator!=(const Lit &RHS) const { return Code != RHS.Code; }
};

/// Three-valued assignment.
enum class LBool : uint8_t { False, True, Undef };

/// Theory hook invoked on full propositional assignments.
class TheoryCallback {
public:
  virtual ~TheoryCallback();

  /// Returns true to accept the model. Returns false and fills
  /// \p ConflictOut (a clause that is currently all-false) to reject it.
  virtual bool onFullModel(std::vector<Lit> &ConflictOut) = 0;

  /// DPLL(T) theory propagation, called at BCP fixpoints on the partial
  /// trail. Returns false and fills \p ConflictOut (all-false clause) when
  /// the partial assignment is already theory-inconsistent; otherwise
  /// returns true and appends to \p ImpliedOut unassigned literals
  /// entailed by the current trail. Reasons are requested lazily via
  /// explainPropagation. Propagation is an optimization only: a theory
  /// that never propagates is still complete through onFullModel.
  virtual bool propagatePartial(std::vector<Lit> &ImpliedOut,
                                std::vector<Lit> &ConflictOut) {
    (void)ImpliedOut;
    (void)ConflictOut;
    return true;
  }

  /// Produces the reason clause for a literal previously returned by
  /// propagatePartial: ReasonOut[0] == P, every other literal is the
  /// negation of a trail literal that was assigned before P. The clause
  /// must be theory-valid (assertion level 0).
  virtual void explainPropagation(Lit P, std::vector<Lit> &ReasonOut) {
    (void)P;
    (void)ReasonOut;
  }
};

/// CDCL solver with an assertion-level clause database. One-shot callers
/// ignore the level API entirely (everything lives at level 0 and behaves
/// monotonically); incremental callers bracket clause additions with
/// pushAssertLevel / popAssertLevel and may interleave solve() calls.
class SatSolver {
public:
  enum class Result { Sat, Unsat };

  /// Creates a new variable and returns its index.
  Var newVar();
  int numVars() const { return static_cast<int>(Assign.size()); }

  /// Adds a clause at the current assertion level; returns false if the
  /// solver is unsatisfiable at the current level. Must be called at
  /// decision level zero (fresh solver, between solve() calls, or after
  /// resetToRoot()).
  bool addClause(std::vector<Lit> Lits);

  /// Runs CDCL search. \p Theory may be null for pure SAT. After a Sat
  /// result the assignment is left in place for model reads; call
  /// resetToRoot() before mutating the clause database again.
  Result solve(TheoryCallback *Theory = nullptr);

  // ------------------------------------------------- Assertion levels --
  /// Opens a new assertion level; clauses added from now on are retracted
  /// by the matching popAssertLevel().
  unsigned pushAssertLevel();
  /// Retracts every clause (input and learned) whose derivation depends on
  /// the top assertion level, unassigns root literals implied by them, and
  /// clears an "unsat at level" verdict that rested on the popped level.
  void popAssertLevel();
  unsigned assertLevel() const { return CurrentAssertLevel; }
  /// Undoes any in-progress search state (decision levels) so the clause
  /// database can be mutated. Idempotent.
  void resetToRoot() { backtrack(0); }
  /// True when the instance is unsatisfiable at the current assertion
  /// level (a refutation was derived from clauses at or below it).
  bool unsatAtCurrentLevel() const {
    return UnsatAssertLevel >= 0 &&
           UnsatAssertLevel <= static_cast<int>(CurrentAssertLevel);
  }

  /// Model access after Sat.
  bool modelValue(Var V) const {
    assert(Assign[V] != LBool::Undef);
    return Assign[V] == LBool::True;
  }
  LBool value(Lit L) const {
    LBool A = Assign[L.var()];
    if (A == LBool::Undef)
      return LBool::Undef;
    bool B = (A == LBool::True) != L.negated();
    return B ? LBool::True : LBool::False;
  }

  /// The assignment trail (assigned literals in propagation order). The
  /// persistent theory engine uses it to sync its backtrackable state to
  /// the longest unchanged prefix between consecutive full models.
  const std::vector<Lit> &trail() const { return Trail; }

  // ---------------------------------------------- Theory propagation --
  /// Enables the propagatePartial hook and theory-trail maintenance.
  /// Off by default; --no-theory-prop is the differential baseline.
  void setTheoryPropagation(bool Enabled) { TheoryPropEnabled = Enabled; }
  bool theoryPropagation() const { return TheoryPropEnabled; }
  /// Declares \p V a theory atom: its assignments are mirrored onto the
  /// theory trail (the subsequence of the trail the theory cares about).
  void markTheoryVar(Var V) { IsTheoryVar[V] = 1; }
  /// True while the variable occurs in a live clause. The theory engine
  /// uses this to avoid propagating atoms whose clauses all died with
  /// popped assertion levels (stale-atom suppression).
  bool varActive(Var V) const { return VarOcc[V] > 0; }
  /// Theory-atom subsequence of the trail, in assignment order. Valid
  /// only with theory propagation enabled.
  const std::vector<Lit> &theoryTrail() const { return TheoryTrail; }
  /// Bumped whenever the theory trail shrinks (backtrack or pop): the
  /// engine's cue that a previously synced prefix may be gone. While it
  /// is unchanged the theory trail has only grown.
  uint64_t theoryTrailResets() const { return TheoryTrailResetsCount; }

  // ------------------------------------------------- Clause deletion --
  /// Enables/disables the activity-based learned-clause sweep (on by
  /// default). Differential baselines run with it off (--no-reduce-db).
  void setClauseDeletion(bool Enabled) { ClauseDeletionEnabled = Enabled; }
  /// Deletes the cold half of the deletable learned clauses: learned,
  /// longer than two literals, and not locked (a locked clause is the
  /// reason of a currently assigned literal — deleting it would orphan
  /// the implication graph). solve() invokes this automatically when the
  /// live learned set crosses a growing limit; exposed for tests.
  void reduceDB();
  /// Shrinks the learned-set limit that triggers reduceDB() (tests force
  /// frequent sweeps with a tiny limit; the limit still grows 1.2x per
  /// sweep, which keeps search terminating with regenerable theory
  /// lemmas).
  void setReduceDbLimit(unsigned Limit) { MaxLearned = Limit; }

  // Statistics (exposed for the micro-bench harness).
  uint64_t numConflicts() const { return Conflicts; }
  uint64_t numDecisions() const { return Decisions; }
  uint64_t numPropagations() const { return Propagations; }
  uint64_t numTheoryConflicts() const { return TheoryConflicts; }
  uint64_t numTheoryPropagations() const { return TheoryPropagations; }
  uint64_t numTheoryPropConflicts() const { return TheoryPropConflicts; }
  uint64_t numRestarts() const { return Restarts; }
  uint64_t numLemmasDeleted() const { return LemmasDeleted; }
  uint64_t numReduceDbSweeps() const { return ReduceDbSweeps; }
  /// Live learned clauses (dead slots excluded).
  unsigned numLearnedClauses() const { return NumLearnedLive; }
  /// Live clauses in the database (dead slots excluded).
  unsigned numClauses() const { return NumLiveClauses; }

private:
  struct Clause {
    std::vector<Lit> Lits;
    bool Learned = false;
    bool Dead = false;
    /// Lazily materialized theory-propagation reason: never attached to
    /// the watch lists, excluded from VarOcc and the learned-clause
    /// economy, and freed as soon as its literal is unassigned.
    bool ReasonOnly = false;
    /// Maximum assertion level of the clauses this one was derived from
    /// (== the level it was added at, for input clauses).
    unsigned AssertLevel = 0;
    /// EVSIDS-style clause activity: bumped when the clause participates
    /// in a conflict derivation, decayed (via ClaInc scaling) with every
    /// conflict. reduceDB() deletes the cold half by this score.
    double Act = 0.0;
  };
  struct Watcher {
    int ClauseIdx;
    Lit Blocker;
  };

  /// Reason sentinel for a theory-propagated literal whose reason clause
  /// has not been materialized yet (analyze() asks the theory on demand).
  static constexpr int ReasonTheory = -2;

  void enqueue(Lit L, int Reason);
  /// Returns the index of a conflicting clause, or -1.
  int propagate();
  /// Asks the active theory for the reason clause of the propagated
  /// variable \p V and installs it as a ReasonOnly clause; returns its
  /// index (also written back to ReasonIdx[V]).
  int materializeReason(Var V);
  void analyze(int ConflictIdx, std::vector<Lit> &LearnedOut,
               int &BacktrackLevel, unsigned &AssertLevelOut);
  void backtrack(int Level);
  Lit pickBranchLit();
  void bumpVar(Var V);
  void decayActivities();
  void heapSiftUp(int I);
  void heapSiftDown(int I);
  /// Inserts \p V into the branching heap unless already present.
  void heapInsert(Var V);
  void attachClause(int Idx);
  void detachClause(int Idx);
  int allocClause(std::vector<Lit> Lits, bool Learned, unsigned AssertLevel,
                  bool ReasonOnly = false);
  int currentLevel() const { return static_cast<int>(TrailLim.size()); }
  /// Learns a clause whose literals are all currently false (theory
  /// conflict), backjumping appropriately. Returns false on a refutation
  /// at the current assertion level.
  bool learnConflict(std::vector<Lit> Lits);
  /// Records a refutation valid at assertion level \p Level.
  void markUnsat(unsigned Level);
  static uint64_t luby(uint64_t I);

  void bumpOcc(const std::vector<Lit> &Lits, int Delta);

  void bumpClause(int Idx);
  void decayClauseActivities();
  /// A clause is locked while it is the reason of an assigned literal.
  bool clauseLocked(int Idx) const;
  /// Detaches, kills and recycles one clause (shared by popAssertLevel
  /// and reduceDB).
  void removeClause(int Idx);

  std::vector<Clause> Clauses;
  std::vector<int> FreeClauseSlots;
  /// Live-clause occurrence count per variable. A variable with no live
  /// occurrence is unconstrained — the search never branches on it, so
  /// atoms whose clauses all died with popped levels stay unassigned and
  /// cost the theory engines nothing (stale-atom suppression).
  std::vector<unsigned> VarOcc;
  std::vector<std::vector<Watcher>> Watches; // indexed by Lit.Code
  std::vector<LBool> Assign;
  std::vector<int> Level;
  std::vector<int> ReasonIdx; // clause index or -1
  /// Assertion level a root (decision-level-0) assignment depends on;
  /// meaningful only while Level[V] == 0 and V is assigned.
  std::vector<unsigned> RootAssertLevel;
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  size_t PropagateHead = 0;

  std::vector<double> Activity;
  std::vector<bool> SavedPhase;
  /// Indexed binary max-heap over Activity: each variable appears at most
  /// once and bumps sift it in place, so the heap never accumulates stale
  /// duplicate entries the way a lazy heap does.
  std::vector<Var> Heap;
  std::vector<int> HeapPos; // var -> index in Heap, or -1
  double VarInc = 1.0;
  double ClaInc = 1.0;

  bool ClauseDeletionEnabled = true;
  unsigned NumLearnedLive = 0;
  /// Learned-set size that triggers the next reduceDB() sweep; grows 1.2x
  /// per sweep so deletion of regenerable theory lemmas cannot livelock
  /// the search.
  unsigned MaxLearned = 2048;

  unsigned CurrentAssertLevel = 0;
  /// Lowest assertion level at which a refutation was derived, or -1.
  int UnsatAssertLevel = -1;
  unsigned NumLiveClauses = 0;
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t TheoryConflicts = 0;
  uint64_t Restarts = 0;
  uint64_t LemmasDeleted = 0;
  uint64_t ReduceDbSweeps = 0;

  // Theory propagation state.
  bool TheoryPropEnabled = false;
  std::vector<char> IsTheoryVar;
  /// Theory-atom subsequence of the trail, plus each entry's index into
  /// Trail (so backtrack can pop exactly the retracted suffix).
  std::vector<Lit> TheoryTrail;
  std::vector<int> TheoryTrailSrc;
  uint64_t TheoryTrailResetsCount = 0;
  /// Theory-trail size at the last propagatePartial call: the hook is
  /// skipped while no new theory atom was assigned.
  size_t TheoryPropSeen = 0;
  /// The callback of the running solve(), for lazy reason materialization.
  TheoryCallback *ActiveTheory = nullptr;
  uint64_t TheoryPropagations = 0;
  uint64_t TheoryPropConflicts = 0;
  std::vector<Lit> TheoryImpliedBuf;
  std::vector<Lit> TheoryConflictBuf;

  std::vector<char> SeenBuffer; // scratch for analyze()
};

} // namespace sat
} // namespace ids

#endif // IDS_SMT_SATSOLVER_H
