//===- smt/SatSolver.cpp - CDCL SAT core ----------------------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "smt/SatSolver.h"

#include <algorithm>

using namespace ids;
using namespace ids::sat;

TheoryCallback::~TheoryCallback() = default;

Var SatSolver::newVar() {
  Var V = static_cast<Var>(Assign.size());
  Assign.push_back(LBool::Undef);
  Level.push_back(0);
  ReasonIdx.push_back(-1);
  RootAssertLevel.push_back(0);
  VarOcc.push_back(0);
  IsTheoryVar.push_back(0);
  Activity.push_back(0.0);
  SavedPhase.push_back(false);
  SeenBuffer.push_back(0);
  Watches.emplace_back();
  Watches.emplace_back();
  HeapPos.push_back(-1);
  heapInsert(V);
  return V;
}

void SatSolver::heapSiftUp(int I) {
  Var V = Heap[I];
  double Act = Activity[V];
  while (I > 0) {
    int P = (I - 1) >> 1;
    if (Activity[Heap[P]] >= Act)
      break;
    Heap[I] = Heap[P];
    HeapPos[Heap[I]] = I;
    I = P;
  }
  Heap[I] = V;
  HeapPos[V] = I;
}

void SatSolver::heapSiftDown(int I) {
  Var V = Heap[I];
  double Act = Activity[V];
  int N = static_cast<int>(Heap.size());
  for (;;) {
    int C = 2 * I + 1;
    if (C >= N)
      break;
    if (C + 1 < N && Activity[Heap[C + 1]] > Activity[Heap[C]])
      ++C;
    if (Activity[Heap[C]] <= Act)
      break;
    Heap[I] = Heap[C];
    HeapPos[Heap[I]] = I;
    I = C;
  }
  Heap[I] = V;
  HeapPos[V] = I;
}

void SatSolver::heapInsert(Var V) {
  if (HeapPos[V] != -1)
    return;
  HeapPos[V] = static_cast<int>(Heap.size());
  Heap.push_back(V);
  heapSiftUp(static_cast<int>(Heap.size()) - 1);
}

void SatSolver::attachClause(int Idx) {
  Clause &C = Clauses[Idx];
  assert(C.Lits.size() >= 2 && "cannot watch a short clause");
  for (int W = 0; W < 2; ++W) {
    std::vector<Watcher> &List = Watches[C.Lits[W].Code];
    // Tseitin literals collect a handful of watches right away; start
    // with room for them instead of growing 1, 2, 4.
    if (List.capacity() == 0)
      List.reserve(4);
    List.push_back({Idx, C.Lits[1 - W]});
  }
}

void SatSolver::detachClause(int Idx) {
  Clause &C = Clauses[Idx];
  for (int W = 0; W < 2; ++W) {
    std::vector<Watcher> &List = Watches[C.Lits[W].Code];
    for (size_t I = 0; I < List.size(); ++I)
      if (List[I].ClauseIdx == Idx) {
        List[I] = List.back();
        List.pop_back();
        break;
      }
  }
}

void SatSolver::bumpOcc(const std::vector<Lit> &Lits, int Delta) {
  for (Lit L : Lits) {
    Var V = L.var();
    VarOcc[V] += Delta;
    // A 0 -> 1 transition revives a variable that pickBranchLit may have
    // discarded from the heap while it was unconstrained.
    if (Delta > 0 && VarOcc[V] == 1)
      heapInsert(V);
  }
}

int SatSolver::allocClause(std::vector<Lit> Lits, bool Learned,
                           unsigned AssertLevel, bool ReasonOnly) {
  // ReasonOnly clauses are invisible to the clause economy: no watches,
  // no VarOcc (they must not revive stale-atom suppression), no learned
  // count (they are freed on unassignment, not by reduceDB).
  if (!ReasonOnly)
    bumpOcc(Lits, +1);
  int Idx;
  if (!FreeClauseSlots.empty()) {
    Idx = FreeClauseSlots.back();
    FreeClauseSlots.pop_back();
    Clauses[Idx] = {std::move(Lits), Learned, false, ReasonOnly,
                    AssertLevel, 0.0};
  } else {
    Idx = static_cast<int>(Clauses.size());
    Clauses.push_back(
        {std::move(Lits), Learned, false, ReasonOnly, AssertLevel, 0.0});
  }
  ++NumLiveClauses;
  if (Learned && !ReasonOnly) {
    ++NumLearnedLive;
    // Fresh lemmas start hot so a reduceDB sweep right after learning
    // cannot delete them before they had a chance to prune anything.
    Clauses[Idx].Act = ClaInc;
  }
  return Idx;
}

void SatSolver::removeClause(int Idx) {
  Clause &C = Clauses[Idx];
  assert(!C.Dead && "removing a dead clause");
  if (!C.ReasonOnly) {
    if (C.Lits.size() >= 2)
      detachClause(Idx);
    bumpOcc(C.Lits, -1);
  }
  C.Dead = true;
  C.Lits.clear();
  C.Lits.shrink_to_fit();
  --NumLiveClauses;
  if (C.Learned && !C.ReasonOnly)
    --NumLearnedLive;
  FreeClauseSlots.push_back(Idx);
}

void SatSolver::bumpClause(int Idx) {
  Clause &C = Clauses[Idx];
  C.Act += ClaInc;
  if (C.Act > 1e20) {
    for (Clause &D : Clauses)
      D.Act *= 1e-20;
    ClaInc *= 1e-20;
  }
}

void SatSolver::decayClauseActivities() { ClaInc *= (1.0 / 0.999); }

bool SatSolver::clauseLocked(int Idx) const {
  const Clause &C = Clauses[Idx];
  for (Lit L : C.Lits) {
    Var V = L.var();
    if (ReasonIdx[V] == Idx && Assign[V] != LBool::Undef)
      return true;
  }
  return false;
}

void SatSolver::reduceDB() {
  // Deletable: learned, longer than binary (short lemmas are cheap for
  // BCP and typically the distilled theory facts), and not currently the
  // reason of an assigned literal.
  std::vector<int> Deletable;
  for (size_t Idx = 0; Idx < Clauses.size(); ++Idx) {
    const Clause &C = Clauses[Idx];
    if (C.Dead || !C.Learned || C.ReasonOnly || C.Lits.size() <= 2)
      continue;
    if (clauseLocked(static_cast<int>(Idx)))
      continue;
    Deletable.push_back(static_cast<int>(Idx));
  }
  std::sort(Deletable.begin(), Deletable.end(),
            [&](int A, int B) { return Clauses[A].Act < Clauses[B].Act; });
  size_t Kill = Deletable.size() / 2;
  for (size_t I = 0; I < Kill; ++I) {
    removeClause(Deletable[I]);
    ++LemmasDeleted;
  }
  ++ReduceDbSweeps;
  // Grow the limit so deleted-but-still-needed theory lemmas (which the
  // theory callback will regenerate) cannot make the search thrash.
  MaxLearned += MaxLearned / 5 + 1;
}

void SatSolver::markUnsat(unsigned Level_) {
  if (UnsatAssertLevel < 0 || static_cast<unsigned>(UnsatAssertLevel) > Level_)
    UnsatAssertLevel = static_cast<int>(Level_);
}

bool SatSolver::addClause(std::vector<Lit> Lits) {
  assert(currentLevel() == 0 && "clauses must be added at level zero");
  if (unsatAtCurrentLevel())
    return false;
  // Simplify: drop duplicate/false literals, detect tautologies. Root
  // assignments consulted here were all derived at assertion levels at or
  // below the current one (assertions only happen at the top level), so
  // the simplified clause is valid exactly as long as its own level.
  std::sort(Lits.begin(), Lits.end(),
            [](Lit A, Lit B) { return A.Code < B.Code; });
  Lits.erase(std::unique(Lits.begin(), Lits.end()), Lits.end());
  // Root-false literals are dropped in place.
  size_t NumKept = 0;
  unsigned ClauseLevel = CurrentAssertLevel;
  for (size_t I = 0; I < Lits.size(); ++I) {
    if (I + 1 < Lits.size() && Lits[I + 1] == ~Lits[I])
      return true; // tautology
    LBool V = value(Lits[I]);
    if (V == LBool::True)
      return true; // already satisfied at level 0
    if (V == LBool::Undef)
      Lits[NumKept++] = Lits[I];
  }
  Lits.resize(NumKept);
  if (Lits.empty()) {
    markUnsat(ClauseLevel);
    return false;
  }
  if (Lits.size() == 1) {
    // The unit conclusion rests on the clause plus the dropped root-false
    // literals; record that so a later pop can retract the assignment.
    // (All contributing levels are <= ClauseLevel; being exact does not
    // matter here, only soundness of retraction.)
    enqueue(Lits[0], -1);
    RootAssertLevel[Lits[0].var()] = ClauseLevel;
    if (propagate() != -1) {
      markUnsat(CurrentAssertLevel);
      return false;
    }
    return true;
  }
  int Idx = allocClause(std::move(Lits), false, ClauseLevel);
  attachClause(Idx);
  return true;
}

void SatSolver::enqueue(Lit L, int Reason) {
  assert(value(L) == LBool::Undef && "enqueueing an assigned literal");
  Var V = L.var();
  Assign[V] = L.negated() ? LBool::False : LBool::True;
  Level[V] = currentLevel();
  ReasonIdx[V] = Reason;
  if (currentLevel() == 0) {
    // Root assignment: track the assertion level it depends on so pops can
    // retract exactly the assignments that lose their justification.
    unsigned AL = 0;
    if (Reason >= 0) {
      const Clause &C = Clauses[Reason];
      AL = C.AssertLevel;
      for (Lit Q : C.Lits)
        if (Q.var() != V)
          AL = std::max(AL, RootAssertLevel[Q.var()]);
    } else {
      AL = CurrentAssertLevel;
    }
    RootAssertLevel[V] = AL;
  }
  Trail.push_back(L);
  if (TheoryPropEnabled && IsTheoryVar[V]) {
    TheoryTrail.push_back(L);
    TheoryTrailSrc.push_back(static_cast<int>(Trail.size()) - 1);
  }
}

int SatSolver::propagate() {
  while (PropagateHead < Trail.size()) {
    Lit P = Trail[PropagateHead++];
    ++Propagations;
    // Clauses watching ~P must find a new watch or propagate/conflict.
    std::vector<Watcher> &WatchList = Watches[(~P).Code];
    size_t Keep = 0;
    for (size_t I = 0; I < WatchList.size(); ++I) {
      Watcher W = WatchList[I];
      if (value(W.Blocker) == LBool::True) {
        WatchList[Keep++] = W;
        continue;
      }
      Clause &C = Clauses[W.ClauseIdx];
      // Normalize so that the falsified watch is Lits[1].
      if (C.Lits[0] == ~P)
        std::swap(C.Lits[0], C.Lits[1]);
      assert(C.Lits[1] == ~P);
      if (value(C.Lits[0]) == LBool::True) {
        WatchList[Keep++] = {W.ClauseIdx, C.Lits[0]};
        continue;
      }
      bool FoundWatch = false;
      for (size_t K = 2; K < C.Lits.size(); ++K) {
        if (value(C.Lits[K]) != LBool::False) {
          std::swap(C.Lits[1], C.Lits[K]);
          Watches[C.Lits[1].Code].push_back({W.ClauseIdx, C.Lits[0]});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;
      // Unit or conflicting.
      WatchList[Keep++] = W;
      if (value(C.Lits[0]) == LBool::False) {
        // Conflict: keep remaining watchers and report.
        for (size_t K = I + 1; K < WatchList.size(); ++K)
          WatchList[Keep++] = WatchList[K];
        WatchList.resize(Keep);
        PropagateHead = Trail.size();
        return W.ClauseIdx;
      }
      enqueue(C.Lits[0], W.ClauseIdx);
    }
    WatchList.resize(Keep);
  }
  return -1;
}

void SatSolver::bumpVar(Var V) {
  Activity[V] += VarInc;
  if (Activity[V] > 1e100) {
    // Uniform rescale preserves the heap order, so no fix-up is needed.
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapPos[V] != -1)
    heapSiftUp(HeapPos[V]);
}

void SatSolver::decayActivities() { VarInc *= (1.0 / 0.95); }

void SatSolver::analyze(int ConflictIdx, std::vector<Lit> &LearnedOut,
                        int &BacktrackLevel, unsigned &AssertLevelOut) {
  LearnedOut.clear();
  LearnedOut.push_back(Lit()); // slot for the asserting (1UIP) literal
  std::vector<char> &Seen = SeenBuffer;
  std::fill(Seen.begin(), Seen.end(), 0);
  int Counter = 0;
  Lit P;
  bool HaveP = false;
  size_t TrailIdx = Trail.size();
  int Reason = ConflictIdx;
  // The learned clause is derived by resolution from the conflicting
  // clause, the reason clauses, and the root-false literals it drops; its
  // assertion level is the max over all of them.
  AssertLevelOut = 0;

  do {
    if (Reason == ReasonTheory)
      Reason = materializeReason(P.var());
    assert(Reason != -1 && "conflict analysis ran past a decision");
    Clause &C = Clauses[Reason];
    if (C.Learned)
      bumpClause(Reason);
    AssertLevelOut = std::max(AssertLevelOut, C.AssertLevel);
    for (Lit Q : C.Lits) {
      if (HaveP && Q == P)
        continue;
      Var V = Q.var();
      if (Seen[V])
        continue;
      if (Level[V] == 0) {
        AssertLevelOut = std::max(AssertLevelOut, RootAssertLevel[V]);
        continue;
      }
      Seen[V] = 1;
      bumpVar(V);
      if (Level[V] == currentLevel())
        ++Counter;
      else
        LearnedOut.push_back(Q);
    }
    // Walk back to the most recent seen literal on the trail.
    while (!Seen[Trail[TrailIdx - 1].var()])
      --TrailIdx;
    P = Trail[--TrailIdx];
    HaveP = true;
    Seen[P.var()] = 0;
    Reason = ReasonIdx[P.var()];
    --Counter;
  } while (Counter > 0);
  LearnedOut[0] = ~P;

  // Backtrack level: highest level among the non-asserting literals.
  BacktrackLevel = 0;
  size_t MaxIdx = 1;
  for (size_t I = 1; I < LearnedOut.size(); ++I) {
    if (Level[LearnedOut[I].var()] > BacktrackLevel) {
      BacktrackLevel = Level[LearnedOut[I].var()];
      MaxIdx = I;
    }
  }
  if (LearnedOut.size() > 1)
    std::swap(LearnedOut[1], LearnedOut[MaxIdx]);
}

int SatSolver::materializeReason(Var V) {
  assert(ActiveTheory && "theory-propagated literal without a theory");
  assert(Assign[V] != LBool::Undef && "materializing for an unassigned var");
  Lit P(V, Assign[V] == LBool::False);
  std::vector<Lit> Reason;
  ActiveTheory->explainPropagation(P, Reason);
  assert(!Reason.empty() && Reason[0] == P &&
         "theory reason must lead with the propagated literal");
  int Idx = allocClause(std::move(Reason), /*Learned=*/true,
                        /*AssertLevel=*/0, /*ReasonOnly=*/true);
  ReasonIdx[V] = Idx;
  return Idx;
}

void SatSolver::backtrack(int TargetLevel) {
  if (currentLevel() <= TargetLevel)
    return;
  size_t Bound = TrailLim[TargetLevel];
  for (size_t I = Trail.size(); I-- > Bound;) {
    Var V = Trail[I].var();
    SavedPhase[V] = Assign[V] == LBool::True;
    Assign[V] = LBool::Undef;
    // A materialized theory reason lives exactly as long as its literal's
    // assignment; free it here so reasons cannot pile up across restarts.
    int RIdx = ReasonIdx[V];
    if (RIdx >= 0 && Clauses[RIdx].ReasonOnly)
      removeClause(RIdx);
    ReasonIdx[V] = -1;
    heapInsert(V);
  }
  Trail.resize(Bound);
  TrailLim.resize(TargetLevel);
  PropagateHead = Trail.size();
  // Pop the retracted theory-trail suffix and flag the shrink.
  size_t N = TheoryTrail.size();
  while (N > 0 && TheoryTrailSrc[N - 1] >= static_cast<int>(Bound))
    --N;
  if (N != TheoryTrail.size()) {
    TheoryTrail.resize(N);
    TheoryTrailSrc.resize(N);
    ++TheoryTrailResetsCount;
  }
  if (TheoryPropSeen > N)
    TheoryPropSeen = N;
}

Lit SatSolver::pickBranchLit() {
  while (!Heap.empty()) {
    Var V = Heap[0];
    Var Last = Heap.back();
    Heap.pop_back();
    HeapPos[V] = -1;
    if (!Heap.empty()) {
      Heap[0] = Last;
      HeapPos[Last] = 0;
      heapSiftDown(0);
    }
    // Variables with no live clause are unconstrained: leaving them
    // unassigned keeps popped levels' atoms out of the theory entirely.
    if (Assign[V] == LBool::Undef && VarOcc[V] > 0)
      return Lit(V, !SavedPhase[V]);
  }
  return Lit();
}

bool SatSolver::learnConflict(std::vector<Lit> Lits) {
  ++TheoryConflicts;
  // A theory conflict clause is theory-valid over its atoms: it depends on
  // no input clause at all, so its base assertion level is 0 and it is
  // retained across pops (lemma reuse). Dropping literals that are false
  // at level 0 reintroduces a dependency on their root justification.
  unsigned AssertLv = 0;
  std::vector<Lit> Final;
  for (Lit L : Lits) {
    assert(value(L) == LBool::False && "theory conflict literal not false");
    if (Level[L.var()] > 0)
      Final.push_back(L);
    else
      AssertLv = std::max(AssertLv, RootAssertLevel[L.var()]);
  }
  if (Final.empty()) {
    markUnsat(AssertLv);
    return false;
  }
  // Theory-aware branching: atoms the theory had to refute are the ones
  // worth deciding early. Gated on the propagation flag so the
  // --no-theory-prop baseline keeps the historical branching order.
  if (TheoryPropEnabled) {
    for (Lit L : Final)
      bumpVar(L.var());
    decayActivities();
  }
  // Find the two highest levels.
  std::sort(Final.begin(), Final.end(), [&](Lit A, Lit B) {
    return Level[A.var()] > Level[B.var()];
  });
  int TopLevel = Level[Final[0].var()];
  bool TopUnique = Final.size() == 1 || Level[Final[1].var()] < TopLevel;
  if (Final.size() == 1) {
    backtrack(0);
    enqueue(Final[0], -1);
    RootAssertLevel[Final[0].var()] = AssertLv;
    if (propagate() != -1) {
      markUnsat(CurrentAssertLevel);
      return false;
    }
    return true;
  }
  int ClauseIdx = allocClause(Final, true, AssertLv);
  attachClause(ClauseIdx);
  if (TopUnique) {
    // Asserting clause: jump to the second-highest level and propagate.
    backtrack(Level[Clauses[ClauseIdx].Lits[1].var()]);
    enqueue(Clauses[ClauseIdx].Lits[0], ClauseIdx);
  } else {
    // Not asserting; retreat below the top level so the watches are sound.
    backtrack(TopLevel - 1);
  }
  return true;
}

unsigned SatSolver::pushAssertLevel() {
  assert(currentLevel() == 0 && "push during search");
  return ++CurrentAssertLevel;
}

void SatSolver::popAssertLevel() {
  assert(CurrentAssertLevel > 0 && "pop without matching push");
  backtrack(0);
  unsigned NewLevel = --CurrentAssertLevel;

  // Retract clauses above the new level.
  for (size_t Idx = 0; Idx < Clauses.size(); ++Idx) {
    Clause &C = Clauses[Idx];
    if (!C.Dead && C.AssertLevel > NewLevel)
      removeClause(static_cast<int>(Idx));
  }

  // Retract root assignments whose justification depended on a popped
  // level. Surviving entries keep their order; propagation is replayed
  // from scratch on the next solve (idempotent and cheap relative to a
  // query).
  std::vector<Lit> NewTrail;
  NewTrail.reserve(Trail.size());
  for (Lit L : Trail) {
    Var V = L.var();
    // Free the materialized theory reason either way: survivors never
    // consult their reason again at level 0, and retracted entries lose
    // their assignment.
    int RIdx = ReasonIdx[V];
    if (RIdx >= 0 && !Clauses[RIdx].Dead && Clauses[RIdx].ReasonOnly)
      removeClause(RIdx);
    if (RootAssertLevel[V] <= NewLevel) {
      // Reason clauses of surviving entries may have been freed and their
      // slots reused; the reason is never consulted again at level 0, but
      // scrub it so no stale index can ever be dereferenced.
      ReasonIdx[V] = -1;
      NewTrail.push_back(L);
      continue;
    }
    SavedPhase[V] = Assign[V] == LBool::True;
    Assign[V] = LBool::Undef;
    ReasonIdx[V] = -1;
    heapInsert(V);
  }
  Trail = std::move(NewTrail);
  PropagateHead = 0;

  // Rebuild the theory trail from the surviving root assignments.
  TheoryTrail.clear();
  TheoryTrailSrc.clear();
  if (TheoryPropEnabled) {
    for (size_t I = 0; I < Trail.size(); ++I)
      if (IsTheoryVar[Trail[I].var()]) {
        TheoryTrail.push_back(Trail[I]);
        TheoryTrailSrc.push_back(static_cast<int>(I));
      }
  }
  ++TheoryTrailResetsCount;
  TheoryPropSeen = 0;

  if (UnsatAssertLevel >= 0 &&
      static_cast<unsigned>(UnsatAssertLevel) > NewLevel)
    UnsatAssertLevel = -1;
}

uint64_t SatSolver::luby(uint64_t I) {
  // Classic MiniSat formulation: find the finite subsequence containing
  // index I and the position within it.
  uint64_t Size = 1, Seq = 0;
  while (Size < I + 1) {
    ++Seq;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != I) {
    Size = (Size - 1) >> 1;
    --Seq;
    I = I % Size;
  }
  return 1ull << Seq;
}

SatSolver::Result SatSolver::solve(TheoryCallback *Theory) {
  if (unsatAtCurrentLevel())
    return Result::Unsat;
  ActiveTheory = Theory;
  backtrack(0);
  PropagateHead = 0; // replay root propagation (clauses may have changed)
  uint64_t RestartCount = 0;
  uint64_t ConflictBudget = 128 * luby(RestartCount);
  uint64_t ConflictsThisRestart = 0;

  for (;;) {
    int ConflictIdx = propagate();
    if (ConflictIdx != -1) {
      ++Conflicts;
      ++ConflictsThisRestart;
      if (currentLevel() == 0) {
        markUnsat(CurrentAssertLevel);
        return Result::Unsat;
      }
      std::vector<Lit> Learned;
      int BtLevel = 0;
      unsigned AssertLv = 0;
      analyze(ConflictIdx, Learned, BtLevel, AssertLv);
      backtrack(BtLevel);
      if (Learned.size() == 1) {
        enqueue(Learned[0], -1);
        if (currentLevel() == 0)
          RootAssertLevel[Learned[0].var()] = AssertLv;
      } else {
        int Idx = allocClause(std::move(Learned), true, AssertLv);
        attachClause(Idx);
        enqueue(Clauses[Idx].Lits[0], Idx);
      }
      decayActivities();
      decayClauseActivities();
      if (ClauseDeletionEnabled && NumLearnedLive >= MaxLearned)
        reduceDB();
      continue;
    }

    // DPLL(T) theory propagation at the BCP fixpoint: ask the theory for
    // literals entailed by the partial trail (or an outright conflict)
    // before spending a decision. Skipped while no new theory atom was
    // assigned since the last call. This is an optimization only — the
    // full-model check below remains the soundness backstop.
    if (Theory && TheoryPropEnabled && TheoryPropSeen != TheoryTrail.size()) {
      TheoryPropSeen = TheoryTrail.size();
      TheoryImpliedBuf.clear();
      TheoryConflictBuf.clear();
      if (!Theory->propagatePartial(TheoryImpliedBuf, TheoryConflictBuf)) {
        ++TheoryPropConflicts;
        if (!learnConflict(std::move(TheoryConflictBuf)))
          return Result::Unsat;
        if (ClauseDeletionEnabled && NumLearnedLive >= MaxLearned)
          reduceDB();
        continue;
      }
      bool Changed = false;
      bool PropConflict = false;
      for (Lit L : TheoryImpliedBuf) {
        LBool Val = value(L);
        if (Val == LBool::True)
          continue;
        if (Val == LBool::False) {
          // Two theories entailed opposite polarities (e.g. CC says equal,
          // arithmetic says apart): the reason clause for L is all-false —
          // a genuine theory conflict on the current trail.
          std::vector<Lit> Reason;
          Theory->explainPropagation(L, Reason);
          ++TheoryPropConflicts;
          if (!learnConflict(std::move(Reason)))
            return Result::Unsat;
          PropConflict = true;
          break;
        }
        ++TheoryPropagations;
        if (currentLevel() == 0) {
          // Root propagation: materialize the reason eagerly so enqueue
          // derives the assignment's RootAssertLevel from the cited atoms
          // (a lazy reason could outlive a pop otherwise).
          std::vector<Lit> Reason;
          Theory->explainPropagation(L, Reason);
          int Idx = allocClause(std::move(Reason), /*Learned=*/true,
                                /*AssertLevel=*/0, /*ReasonOnly=*/true);
          enqueue(L, Idx);
        } else {
          enqueue(L, ReasonTheory);
        }
        Changed = true;
      }
      if (PropConflict || Changed)
        continue; // run BCP over the new assignments before deciding
    }

    if (ConflictsThisRestart >= ConflictBudget && currentLevel() > 0) {
      ++RestartCount;
      ++Restarts;
      ConflictBudget = 128 * luby(RestartCount);
      ConflictsThisRestart = 0;
      backtrack(0);
      continue;
    }

    Lit Next = pickBranchLit();
    if (Next.Code == -1) {
      // Full assignment; consult the theory.
      if (!Theory)
        return Result::Sat;
      std::vector<Lit> TheoryConflict;
      if (Theory->onFullModel(TheoryConflict))
        return Result::Sat;
      if (!learnConflict(std::move(TheoryConflict)))
        return Result::Unsat;
      if (ClauseDeletionEnabled && NumLearnedLive >= MaxLearned)
        reduceDB();
      continue;
    }
    ++Decisions;
    TrailLim.push_back(static_cast<int>(Trail.size()));
    enqueue(Next, -1);
  }
}
