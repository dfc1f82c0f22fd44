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

void SatSolver::bumpOcc(const std::vector<Lit> &Lits) {
  for (Lit L : Lits) {
    // A 0 -> 1 transition revives a variable that pickBranchLit may have
    // discarded from the heap while it was unconstrained.
    if (VarOcc[L.var()]++ == 0)
      heapInsert(L.var());
  }
}

int SatSolver::allocClause(std::vector<Lit> Lits, bool ReasonOnly) {
  // ReasonOnly clauses are invisible to the clause economy: no watches,
  // no VarOcc (they must not revive an unconstrained variable).
  if (!ReasonOnly)
    bumpOcc(Lits);
  int Idx;
  if (!FreeClauseSlots.empty()) {
    Idx = FreeClauseSlots.back();
    FreeClauseSlots.pop_back();
    Clauses[Idx] = {std::move(Lits), ReasonOnly};
  } else {
    Idx = static_cast<int>(Clauses.size());
    Clauses.push_back({std::move(Lits), ReasonOnly});
  }
  ++NumLiveClauses;
  return Idx;
}

void SatSolver::removeClause(int Idx) {
  Clause &C = Clauses[Idx];
  assert(C.ReasonOnly && !C.Lits.empty() && "removing a dead or input clause");
  C.Lits.clear();
  C.Lits.shrink_to_fit();
  --NumLiveClauses;
  FreeClauseSlots.push_back(Idx);
}

bool SatSolver::addClause(std::vector<Lit> Lits) {
  assert(currentLevel() == 0 && "clauses must be added at level zero");
  if (Unsat)
    return false;
  // Simplify: drop duplicate/false literals, detect tautologies.
  std::sort(Lits.begin(), Lits.end(),
            [](Lit A, Lit B) { return A.Code < B.Code; });
  Lits.erase(std::unique(Lits.begin(), Lits.end()), Lits.end());
  // Root-false literals are dropped in place.
  size_t NumKept = 0;
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
    Unsat = true;
    return false;
  }
  if (Lits.size() == 1) {
    enqueue(Lits[0], -1);
    if (propagate() != -1) {
      Unsat = true;
      return false;
    }
    return true;
  }
  int Idx = allocClause(std::move(Lits));
  attachClause(Idx);
  return true;
}

void SatSolver::enqueue(Lit L, int Reason) {
  assert(value(L) == LBool::Undef && "enqueueing an assigned literal");
  Var V = L.var();
  Assign[V] = L.negated() ? LBool::False : LBool::True;
  Level[V] = currentLevel();
  ReasonIdx[V] = Reason;
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
                        int &BacktrackLevel) {
  LearnedOut.clear();
  LearnedOut.push_back(Lit()); // slot for the asserting (1UIP) literal
  std::vector<char> &Seen = SeenBuffer;
  std::fill(Seen.begin(), Seen.end(), 0);
  int Counter = 0;
  Lit P;
  bool HaveP = false;
  size_t TrailIdx = Trail.size();
  int Reason = ConflictIdx;

  do {
    if (Reason == ReasonTheory)
      Reason = materializeReason(P.var());
    assert(Reason != -1 && "conflict analysis ran past a decision");
    Clause &C = Clauses[Reason];
    for (Lit Q : C.Lits) {
      if (HaveP && Q == P)
        continue;
      Var V = Q.var();
      if (Seen[V] || Level[V] == 0)
        continue;
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
  int Idx = allocClause(std::move(Reason), /*ReasonOnly=*/true);
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
    // unassigned keeps their atoms out of the theory entirely.
    if (Assign[V] == LBool::Undef && VarOcc[V] > 0)
      return Lit(V, !SavedPhase[V]);
  }
  return Lit();
}

bool SatSolver::learnConflict(std::vector<Lit> Lits) {
  ++TheoryConflicts;
  std::vector<Lit> Final;
  for (Lit L : Lits) {
    assert(value(L) == LBool::False && "theory conflict literal not false");
    if (Level[L.var()] > 0)
      Final.push_back(L);
  }
  if (Final.empty()) {
    Unsat = true;
    return false;
  }
  // Theory-aware branching: atoms the theory had to refute are the ones
  // worth deciding early. Gated on the propagation flag so the
  // lazy baseline (--theory lazy) keeps the historical branching order.
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
    if (propagate() != -1) {
      Unsat = true;
      return false;
    }
    return true;
  }
  int ClauseIdx = allocClause(Final);
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
  if (Unsat)
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
        Unsat = true;
        return Result::Unsat;
      }
      std::vector<Lit> Learned;
      int BtLevel = 0;
      analyze(ConflictIdx, Learned, BtLevel);
      backtrack(BtLevel);
      if (Learned.size() == 1) {
        enqueue(Learned[0], -1);
      } else {
        int Idx = allocClause(std::move(Learned));
        attachClause(Idx);
        enqueue(Clauses[Idx].Lits[0], Idx);
      }
      decayActivities();
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
        enqueue(L, ReasonTheory);
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
      continue;
    }
    ++Decisions;
    TrailLim.push_back(static_cast<int>(Trail.size()));
    enqueue(Next, -1);
  }
}
