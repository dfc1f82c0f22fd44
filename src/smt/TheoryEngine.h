//===- smt/TheoryEngine.h - DPLL(T) theory integration ---------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The theory side of the CDCL(T) loop, shared by the one-shot Solver and
/// the incremental SolverContext:
///
///  - SolverCore holds the state both drivers own: the SAT core, the
///    Tseitin literal cache, the theory-atom table, the evaluation safety
///    net and the model.
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
/// next check, so nothing assignment-specific leaks across checks.
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

#include <map>
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

  bool BudgetExhausted = false;
  double SolveDeadline = 0;      // monotonic seconds; 0 = none
  uint64_t TheoryCheckBase = 0;  // budget window start for the current check

  /// When non-null, litFor logs every NON-atom term it encodes here. The
  /// incremental context uses the log to invalidate cache entries whose
  /// defining clauses die with a popped level (theory atoms stay cached —
  /// their meaning is the theory check, not any clause). One-shot solving
  /// leaves it null.
  std::vector<TermRef> *EncodingLog = nullptr;

  /// Tseitin encoding; defining clauses are added at the current assertion
  /// level, so the cache entry of a structure term is only valid while the
  /// level that created it is alive (see EncodingLog).
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

  // ------------------------------------------- Incremental registration --
  /// Brackets one SolverContext assertion level. Registrations (term
  /// graph, equality watches, arith vars) made while a frame is open are
  /// retracted when it pops; registrations made with no frame open are
  /// pinned permanently, so checks above a push only register their own
  /// delta.
  void pushAssertionFrame();
  void popAssertionFrame();
  /// Pre-registers the theory atoms reachable in \p Roots, in order
  /// (called after the formulas were Tseitin-encoded, so every atom is
  /// interned): CC term graph and equality watches for Eq/boolean atoms,
  /// slack variables and bound watches for inequality atoms. Idempotent
  /// per atom and frame; one call visits each shared subterm once.
  void preRegister(const std::vector<TermRef> &Roots);

private:
  bool atomValue(int AtomIdx) const {
    return C.Sat.modelValue(C.AtomVar[AtomIdx]);
  }
  /// Stale atoms (all their clauses died with popped levels) stay
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
  Value buildClassArray(TermRef Root);

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
  /// engines to the current assertion-frame base. Registration (frames,
  /// preRegister) must happen from this state so nothing gets trailed
  /// under an atom level that a later sync pops.
  void resetSyncedLevels();
  /// True while the equality watch registered for \p AtomIdx is alive
  /// (registered at base, or under a still-open frame).
  bool ccWatchValid(int AtomIdx) const;
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
  /// false when the atom is assigned/stale or a cited tag fails
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
  /// Arith variable ids survive pops (bounds are retracted, the tableau
  /// persists); this map lets a re-asserted term reuse its variable.
  std::unordered_map<TermRef, int> VarOfTerm;
  std::unordered_set<TermRef> InterfaceTerms;
  /// Constant index terms (value keyed by sort): an opaque index whose
  /// model value collides with one of these must be separated too, or
  /// the model builder merges their array entries with no repair.
  std::map<std::pair<const Sort *, Rational>, TermRef> ConstIndexValues;
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
  /// Open assertion frames as monotone epoch ids. An equality watch
  /// registered under epoch E is alive while E is still open (or E == 0,
  /// the permanent base); watches die silently with their frame's CC
  /// trail, so liveness is tracked engine-side to re-register on demand.
  std::vector<int> FrameEpochs;
  int NextEpoch = 1;
  std::unordered_map<int, int> CcWatchEpoch; // atom idx -> epoch
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
  std::unordered_map<TermRef, Value> ClassArrays;
  /// Select terms grouped by their base array's class representative,
  /// built once per model so buildClassArray avoids an all-terms scan
  /// per array class.
  std::unordered_map<TermRef, std::vector<TermRef>> SelectsByRoot;
  bool SelectsIndexValid = false;
  std::unordered_map<TermRef, int64_t> LocIds;
  int64_t NextLocId = 1;
};

} // namespace smt
} // namespace ids

#endif // IDS_SMT_THEORYENGINE_H
