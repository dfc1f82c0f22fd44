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
/// The clause database only grows, apart from the theory-propagation
/// reasons that are freed with their literal: clauses are added at the
/// root, learned clauses are kept, and a refutation, once derived, is
/// final.
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
  /// must be theory-valid.
  virtual void explainPropagation(Lit P, std::vector<Lit> &ReasonOut) {
    (void)P;
    (void)ReasonOut;
  }
};

/// CDCL solver. Clauses may be added between solve() calls (after
/// resetToRoot()); input clauses are never retracted.
class SatSolver {
public:
  enum class Result { Sat, Unsat };

  /// Creates a new variable and returns its index.
  Var newVar();
  int numVars() const { return static_cast<int>(Assign.size()); }

  /// Adds a clause; returns false if the solver is unsatisfiable. Must be
  /// called at decision level zero (fresh solver, between solve() calls,
  /// or after resetToRoot()).
  bool addClause(std::vector<Lit> Lits);

  /// Runs CDCL search. \p Theory may be null for pure SAT. After a Sat
  /// result the assignment is left in place for model reads; call
  /// resetToRoot() before mutating the clause database again.
  Result solve(TheoryCallback *Theory = nullptr);

  /// Undoes any in-progress search state (decision levels) so the clause
  /// database can be mutated. Idempotent.
  void resetToRoot() { backtrack(0); }

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
  /// True while the variable occurs in a live clause. A variable whose
  /// clauses were all satisfied at the root is unconstrained: the search
  /// never branches on it and the theory engine does not propagate it.
  bool varActive(Var V) const { return VarOcc[V] > 0; }
  /// Theory-atom subsequence of the trail, in assignment order. Valid
  /// only with theory propagation enabled.
  const std::vector<Lit> &theoryTrail() const { return TheoryTrail; }
  /// Bumped whenever the theory trail shrinks (backtrack): the
  /// engine's cue that a previously synced prefix may be gone. While it
  /// is unchanged the theory trail has only grown.
  uint64_t theoryTrailResets() const { return TheoryTrailResetsCount; }

  // Statistics (exposed for the micro-bench harness).
  uint64_t numConflicts() const { return Conflicts; }
  uint64_t numDecisions() const { return Decisions; }
  uint64_t numPropagations() const { return Propagations; }
  uint64_t numTheoryConflicts() const { return TheoryConflicts; }
  uint64_t numTheoryPropagations() const { return TheoryPropagations; }
  uint64_t numTheoryPropConflicts() const { return TheoryPropConflicts; }
  uint64_t numRestarts() const { return Restarts; }
  /// Live clauses in the database (dead slots excluded).
  unsigned numClauses() const { return NumLiveClauses; }

private:
  struct Clause {
    std::vector<Lit> Lits;
    /// Lazily materialized theory-propagation reason: never attached to
    /// the watch lists, excluded from VarOcc, and freed as soon as its
    /// literal is unassigned.
    bool ReasonOnly = false;
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
               int &BacktrackLevel);
  void backtrack(int Level);
  Lit pickBranchLit();
  void bumpVar(Var V);
  void decayActivities();
  void heapSiftUp(int I);
  void heapSiftDown(int I);
  /// Inserts \p V into the branching heap unless already present.
  void heapInsert(Var V);
  void attachClause(int Idx);
  int allocClause(std::vector<Lit> Lits, bool ReasonOnly = false);
  int currentLevel() const { return static_cast<int>(TrailLim.size()); }
  /// Learns a clause whose literals are all currently false (theory
  /// conflict), backjumping appropriately. Returns false on a refutation.
  bool learnConflict(std::vector<Lit> Lits);
  static uint64_t luby(uint64_t I);

  void bumpOcc(const std::vector<Lit> &Lits);

  /// Kills and recycles a materialized theory reason (on backtrack).
  void removeClause(int Idx);

  std::vector<Clause> Clauses;
  std::vector<int> FreeClauseSlots;
  /// Clause occurrence count per variable (theory reasons excluded). A
  /// variable with no occurrence is unconstrained — the search never
  /// branches on it, so atoms whose clauses were all satisfied at the
  /// root stay unassigned and cost the theory engines nothing.
  std::vector<unsigned> VarOcc;
  std::vector<std::vector<Watcher>> Watches; // indexed by Lit.Code
  std::vector<LBool> Assign;
  std::vector<int> Level;
  std::vector<int> ReasonIdx; // clause index or -1
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

  /// A refutation was derived; every later solve() answers Unsat.
  bool Unsat = false;
  unsigned NumLiveClauses = 0;
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t TheoryConflicts = 0;
  uint64_t Restarts = 0;

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
