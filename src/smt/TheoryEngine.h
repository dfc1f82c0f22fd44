//===- smt/TheoryEngine.h - DPLL(T) theory integration ---------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The theory side of the CDCL(T) loop, shared by the one-shot Solver and
/// the SolverContext:
///
///  - SolverCore holds the state both drivers own: the SAT core, the
///    Tseitin literal cache, the theory-atom table, the evaluation safety
///    net, the model and the one counter fold of a check.
///  - TheoryEngine is the TheoryCallback invoked on full propositional
///    assignments. It runs congruence closure and simplex to fixpoint
///    with Nelson-Oppen style equality exchange, constructs a candidate
///    model, and validates it against the original formula.
///
/// TheoryEngine has two modes. In one-shot mode (the historical behavior)
/// it rebuilds the theory engines from scratch on every full assignment.
/// In persistent mode it keeps backtrackable CongruenceClosure/ArithSolver
/// instances synced to the SAT assignment trail: one undo level per
/// assigned atom, so consecutive theory checks pop to the longest common
/// trail prefix and re-assert only the diverging suffix — with phase
/// saving and backjumping, that suffix is typically a small fraction of
/// the assignment. Exchange equalities, probes and model-repair
/// separations live in an extra scratch level popped at the start of the
/// next check, so nothing assignment-specific leaks across checks. These
/// CC and simplex levels follow the SAT trail only: a context's
/// assertions are registered once, at the base, and never retracted.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SMT_THEORYENGINE_H
#define IDS_SMT_THEORYENGINE_H

#include "smt/ArithSolver.h"
#include "smt/CongruenceClosure.h"
#include "smt/Model.h"
#include "smt/SatSolver.h"
#include "smt/SolverTypes.h"
#include "smt/Term.h"

#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ids {
namespace smt {

/// State shared between a solver driver (Solver or SolverContext) and its
/// TheoryEngine.
struct SolverCore {
  SolverCore(TermManager &TM, SolverOptions O) : TM(TM), Opts(std::move(O)) {}

  TermManager &TM;
  SolverOptions Opts;
  SolverStats St;
  Model CurrentModel;

  // CNF state.
  sat::SatSolver Sat;
  std::unordered_map<TermRef, int> LitCache; // term -> Lit.Code (positive)
  std::vector<TermRef> Atoms;
  std::unordered_map<TermRef, int> AtomIndex;
  std::vector<sat::Var> AtomVar;
  TermRef EvalFormula = nullptr; // pre-reduction formula for the safety net

  double SolveDeadline = 0; // monotonic seconds; 0 = none

  /// Stops the search: the check answers Unknown for \p R (the first
  /// reason given wins).
  void giveUp(UnknownReason R) {
    if (St.Why == UnknownReason::None)
      St.Why = R;
  }
  bool gaveUp() const { return St.Why != UnknownReason::None; }

  /// Adds this core's one check to the smt.* counters.
  void recordCheck() const;

  /// Tseitin encoding, cached per term: a structure term's defining
  /// clauses are added once, a theory atom becomes a theory variable.
  sat::Lit litFor(TermRef T);
};

/// The per-full-model theory check. Construct once per solve (one-shot
/// mode) or once per context (persistent mode).
class TheoryEngine : public sat::TheoryCallback {
public:
  TheoryEngine(SolverCore &C, bool Persistent);
  ~TheoryEngine() override;

  bool onFullModel(std::vector<sat::Lit> &ConflictOut) override;

  /// DPLL(T) theory propagation (persistent mode with TheoryPropagation
  /// on; a no-op otherwise): syncs the theory stack to the partial SAT
  /// trail, reports conflicts early, and proposes unassigned atoms whose
  /// truth value is already entailed — CC-entailed (dis)equalities via the
  /// equality watches, bound-implied arithmetic atoms via the bound-change
  /// log. Best-effort: every missed propagation is caught by onFullModel.
  bool propagatePartial(std::vector<sat::Lit> &ImpliedOut,
                        std::vector<sat::Lit> &ConflictOut) override;
  void explainPropagation(sat::Lit P,
                          std::vector<sat::Lit> &ReasonOut) override;

  /// Pre-registers the theory atoms reachable in \p Roots, in order
  /// (called after the formulas were Tseitin-encoded, so every atom is
  /// interned): CC term graph and equality watches for Eq/boolean atoms,
  /// slack variables and bound watches for inequality atoms. Registrations
  /// land at the base of the theory trails and are permanent. Idempotent
  /// per atom; one call visits each shared subterm once.
  void preRegister(const std::vector<TermRef> &Roots);

private:
  bool atomValue(int AtomIdx) const {
    return C.Sat.modelValue(C.AtomVar[AtomIdx]);
  }
  /// Unconstrained atoms (no live clause, see SatSolver::varActive) stay
  /// unassigned by design; model construction must not read them.
  bool atomAssigned(int AtomIdx) const {
    return C.Sat.value(sat::Lit(C.AtomVar[AtomIdx], false)) !=
           sat::LBool::Undef;
  }

  /// Converts a numeric term into a polynomial over opaque arith vars,
  /// registering opaque terms with the congruence closure as a side
  /// effect.
  LinTerm polyOf(TermRef T);
  int arithVarFor(TermRef T);

  int newCompositeTag(const std::set<int> &Expl);
  void expandTags(const std::set<int> &In, std::set<int> &Out) const;
  void clauseFromTags(const std::set<int> &Tags,
                      std::vector<sat::Lit> &Out) const;

  bool assertOneAtom(int AtomIdx, std::vector<sat::Lit> &ConflictOut);
  bool equalityFixpoint(std::vector<sat::Lit> &ConflictOut);

  void computeInterfaceTerms();
  bool separateCollisions();
  void buildModel();
  Value valueOfTerm(TermRef T);
  void solveArraySort(const Sort *S);

  /// Persistent mode: pop the scratch level and every synced atom level
  /// that diverges from the current SAT trail, then return the number of
  /// atoms already in sync (the reuse window).
  size_t syncToTrail();
  void popTheoryLevel();
  /// syncToTrail + per-atom push/assert of the diverging suffix (the
  /// shared core of onFullModel and propagatePartial). Returns false with
  /// \p ConflictOut filled on a theory conflict. \p CountReuse guards the
  /// TheoryAssertsReused statistic (full-model checks only, preserving its
  /// historical meaning).
  bool syncAssert(std::vector<sat::Lit> &ConflictOut, bool CountReuse);
  /// Pops the scratch level and every synced atom level, returning the
  /// engines to their base. Registration (preRegister) must happen from
  /// this state so nothing gets trailed under an atom level that a later
  /// sync pops.
  void resetSyncedLevels();
  /// Revalidates and proposes one CC-entailed equality atom: rechecks the
  /// entailment against the live closure, builds the reason clause from
  /// the explanation tags, and appends the implied literal.
  void proposeCcEntailment(int AtomIdx, bool Polarity,
                           std::vector<sat::Lit> &ImpliedOut);
  /// Same for a bound-watched inequality atom: an O(1) compare of the
  /// watched variable's live bound against the atom's precomputed
  /// threshold, reason = the single entailing bound's tag.
  void proposeArithEntailment(int AtomIdx,
                              std::vector<sat::Lit> &ImpliedOut);
  /// Common filter + reason construction for both proposal paths; returns
  /// false when the atom is assigned/unconstrained or a cited tag fails
  /// validation (out of atom range, unassigned, or self-referential).
  bool proposeEntailment(int AtomIdx, bool Polarity,
                         const std::set<int> &Tags,
                         std::vector<sat::Lit> &ImpliedOut);

  SolverCore &C;
  TermManager &TM;
  const bool Persistent;
  std::unique_ptr<CongruenceClosure> CC;
  std::unique_ptr<ArithSolver> Arith;
  std::unordered_map<TermRef, int> ArithVars;
  std::vector<TermRef> OpaqueNumeric;
  /// Arith variable ids survive trail-sync pops (bounds are retracted, the
  /// tableau persists); this map lets a re-asserted term reuse its
  /// variable.
  std::unordered_map<TermRef, int> VarOfTerm;
  std::unordered_set<TermRef> InterfaceTerms;
  std::vector<std::vector<int>> CompositeExpl;
  std::set<std::pair<TermRef, TermRef>> AssertedCCEqualities;

  // Persistent-mode sync state.
  std::vector<std::pair<int, bool>> SyncedAtoms; // (atom idx, polarity)
  std::vector<std::pair<int, bool>> CurAtomTrail; // scratch for syncToTrail
  std::vector<size_t> LevelOpaqueSize; // OpaqueNumeric size per level
  bool ScratchPushed = false;
  std::vector<int> VarToAtom; // sat var -> atom idx (or -1)
  size_t MappedAtoms = 0;     // VarToAtom covers atoms below this index

  // Theory-propagation state (persistent mode, TheoryPropagation on).
  /// Propagation mode: persistent engines plus the propagatePartial hook.
  /// False keeps the engine byte-identical to the propagation-free
  /// behavior (--no-theory-prop, the differential baseline).
  const bool PropMode;
  uint64_t PropCalls = 0; // deadline probe divisor
  /// SatSolver::theoryTrailResets() at the last sync. While unchanged the
  /// theory trail only grew, so the synced prefix is known intact and the
  /// elementwise prefix compare is skipped.
  uint64_t TrailResetsSeen = 0;
  bool PropSyncValid = false;
  std::unordered_set<int> CcWatched; // atom ids with an equality watch
  /// One precomputed bound-entailment test per inequality-atom polarity:
  /// the atom under that polarity asserts (IsUpper ? W <= B : W >= B), so
  /// it is entailed as soon as the live bound on W is at least as strong.
  struct PolarityWatch {
    int W = -1; // arith var; -1 = constant atom, no watch
    bool IsUpper = false;
    DeltaRat B;
  };
  struct ArithWatch {
    PolarityWatch Pos, Neg;
  };
  std::unordered_map<int, ArithWatch> ArithWatchOf; // atom idx -> watch
  std::unordered_map<int, std::vector<int>> VarWatchers; // var -> atom ids
  /// Deferred propagation reason, keyed by the implied literal's code:
  /// either an eagerly captured literal vector (arith single-tag reasons)
  /// or pinned CC endpoints whose frozen proof-forest paths are expanded
  /// only if conflict analysis ever asks for the reason — the vast
  /// majority of propagations never are. Sound because paths between two
  /// connected nodes are frozen while both stay connected, the cited tags
  /// are plain atom indices assigned before the implied literal, and they
  /// stay assigned as long as it is (trail prefix order).
  struct PendingExpl {
    enum class Kind { Lits, CcEq, CcDiseq };
    Kind K = Kind::Lits;
    std::vector<sat::Lit> Lits;        // Kind::Lits: implied literal first
    TermRef X = nullptr, Y = nullptr;  // Kind::CcEq endpoints
    CongruenceClosure::DiseqWitness W; // Kind::CcDiseq pinned witness
  };
  std::unordered_map<int, PendingExpl> PendingReasons;
  std::unordered_set<int> ProposedLits; // per-call dedup scratch

  // Model scratch.
  std::unordered_map<TermRef, Value> TermValues;
  /// Value of every array-sorted CC class, keyed by its representative.
  std::unordered_map<TermRef, Value> ClassArrays;
  /// The CC classes of one array sort and the live terms that define
  /// them, collected by buildModel and solved on first use.
  struct ArraySortModel {
    std::vector<TermRef> Roots;
    std::vector<TermRef> Selects;    ///< live selects on these classes
    std::vector<TermRef> Structured; ///< live store/const/map members
    bool Solved = false;
  };
  std::unordered_map<const Sort *, ArraySortModel> ArraySorts;
  std::unordered_map<TermRef, int> ClassIdx; ///< root -> index in Roots
  std::unordered_map<TermRef, int64_t> LocIds;
  int64_t NextLocId = 1;
};

} // namespace smt
} // namespace ids

#endif // IDS_SMT_THEORYENGINE_H
