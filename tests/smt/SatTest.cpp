//===- tests/smt/SatTest.cpp - CDCL SAT core tests -------------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "smt/SatSolver.h"

#include <gtest/gtest.h>

#include <random>

using namespace ids::sat;

TEST(SatTest, TrivialSat) {
  SatSolver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause({Lit(A, false)}));
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(A));
}

TEST(SatTest, TrivialUnsat) {
  SatSolver S;
  Var A = S.newVar();
  S.addClause({Lit(A, false)});
  S.addClause({Lit(A, true)});
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(SatTest, UnitPropagationChain) {
  SatSolver S;
  std::vector<Var> Vs;
  for (int I = 0; I < 20; ++I)
    Vs.push_back(S.newVar());
  // v0, v_i -> v_{i+1}, and finally !v19: unsat.
  S.addClause({Lit(Vs[0], false)});
  for (int I = 0; I + 1 < 20; ++I)
    S.addClause({Lit(Vs[I], true), Lit(Vs[I + 1], false)});
  S.addClause({Lit(Vs[19], true)});
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(SatTest, PigeonHole43Unsat) {
  // 4 pigeons, 3 holes: classic small UNSAT instance exercising learning.
  SatSolver S;
  Var P[4][3];
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (auto &Row : P)
    S.addClause({Lit(Row[0], false), Lit(Row[1], false), Lit(Row[2], false)});
  for (int H = 0; H < 3; ++H)
    for (int I = 0; I < 4; ++I)
      for (int J = I + 1; J < 4; ++J)
        S.addClause({Lit(P[I][H], true), Lit(P[J][H], true)});
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(SatTest, TautologyClauseIgnored) {
  SatSolver S;
  Var A = S.newVar();
  Var B = S.newVar();
  EXPECT_TRUE(S.addClause({Lit(A, false), Lit(A, true), Lit(B, false)}));
  S.addClause({Lit(B, true)});
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
}

namespace {
/// Brute-force 3-SAT oracle.
bool bruteForceSat(int NumVars, const std::vector<std::vector<Lit>> &Clauses) {
  for (uint32_t Mask = 0; Mask < (1u << NumVars); ++Mask) {
    bool AllSat = true;
    for (const auto &C : Clauses) {
      bool CSat = false;
      for (Lit L : C) {
        bool V = (Mask >> L.var()) & 1;
        if (V != L.negated()) {
          CSat = true;
          break;
        }
      }
      if (!CSat) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}
} // namespace

/// Property test: random 3-SAT instances around the phase transition agree
/// with a brute-force oracle, and Sat models actually satisfy the clauses.
TEST(SatTest, PropertyRandom3SatVsBruteForce) {
  std::mt19937 Rng(4242);
  for (int Iter = 0; Iter < 400; ++Iter) {
    int NumVars = 5 + static_cast<int>(Rng() % 8); // 5..12
    int NumClauses = static_cast<int>(NumVars * 4.3);
    std::vector<std::vector<Lit>> Clauses;
    SatSolver S;
    for (int I = 0; I < NumVars; ++I)
      S.newVar();
    bool AddedOk = true;
    for (int I = 0; I < NumClauses; ++I) {
      std::vector<Lit> C;
      for (int K = 0; K < 3; ++K)
        C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() % 2 == 0));
      Clauses.push_back(C);
      AddedOk = S.addClause(C) && AddedOk;
    }
    bool Expected = bruteForceSat(NumVars, Clauses);
    SatSolver::Result R =
        AddedOk ? S.solve() : SatSolver::Result::Unsat;
    EXPECT_EQ(R == SatSolver::Result::Sat, Expected) << "iter " << Iter;
    if (R == SatSolver::Result::Sat) {
      for (const auto &C : Clauses) {
        bool CSat = false;
        for (Lit L : C)
          CSat = CSat || (S.modelValue(L.var()) != L.negated());
        EXPECT_TRUE(CSat) << "model does not satisfy clause, iter " << Iter;
      }
    }
  }
}

namespace {
/// A theory that forbids a specific combination of two variables, to
/// exercise the theory-conflict path.
class ForbidBoth : public TheoryCallback {
public:
  ForbidBoth(Var A, Var B, const SatSolver &S) : A(A), B(B), S(S) {}
  bool onFullModel(std::vector<Lit> &ConflictOut) override {
    if (S.modelValue(A) && S.modelValue(B)) {
      ConflictOut = {Lit(A, true), Lit(B, true)};
      return false;
    }
    return true;
  }
  Var A, B;
  const SatSolver &S;
};
} // namespace

TEST(SatTest, TheoryCallbackConflicts) {
  SatSolver S;
  Var C = S.newVar(), A = S.newVar(), B = S.newVar();
  S.addClause({Lit(A, false)});               // A forced true
  S.addClause({Lit(B, false), Lit(C, false)}); // B or C
  ForbidBoth T(A, B, S);
  EXPECT_EQ(S.solve(&T), SatSolver::Result::Sat);
  // C is decided first (false), which forces B: the theory must refute
  // A && B and the search then settles on C.
  EXPECT_GE(S.numTheoryConflicts(), 1u);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_FALSE(S.modelValue(B));
  EXPECT_TRUE(S.modelValue(C));
}

TEST(SatTest, TheoryCallbackUnsat) {
  SatSolver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause({Lit(A, false)});
  S.addClause({Lit(B, false)});
  ForbidBoth T(A, B, S);
  EXPECT_EQ(S.solve(&T), SatSolver::Result::Unsat);
}

namespace {
/// Adds the pigeonhole clauses (\p Pigeons into \p Holes) over fresh
/// variables; unsat iff Pigeons > Holes, and either way the search has
/// to learn clauses to decide it.
void addPigeonhole(SatSolver &S, int Pigeons, int Holes) {
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (auto &Row : P) {
    std::vector<Lit> AtLeastOne;
    for (Var V : Row)
      AtLeastOne.push_back(Lit(V, false));
    S.addClause(AtLeastOne);
  }
  for (int H = 0; H < Holes; ++H)
    for (int I = 0; I < Pigeons; ++I)
      for (int J = I + 1; J < Pigeons; ++J)
        S.addClause({Lit(P[I][H], true), Lit(P[J][H], true)});
}
} // namespace

TEST(SatTest, ReduceDbSparesLockedAndInputClauses) {
  // Pigeonhole 4/4 is satisfiable but needs real conflict learning, so
  // the Sat assignment's trail has learned clauses as reasons (locked).
  SatSolver S;
  addPigeonhole(S, 4, 4);
  ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
  unsigned InputClauses = S.numClauses() - S.numLearnedClauses();

  // Sweeping at the full assignment must not touch input clauses, and
  // must skip locked ones — deleting the reason of an assigned literal
  // would orphan the implication graph and corrupt the next backtrack.
  S.reduceDB();
  S.reduceDB();
  EXPECT_EQ(S.numClauses() - S.numLearnedClauses(), InputClauses);

  // Force a genuinely different search: block the current model and
  // re-solve. A corrupted trail/reason state would surface here.
  std::vector<Lit> Blocker;
  for (Var V = 0; V < S.numVars(); ++V)
    Blocker.push_back(Lit(V, S.modelValue(V)));
  S.resetToRoot();
  ASSERT_TRUE(S.addClause(Blocker));
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
}

namespace {
/// External-propagation theory: whenever A is false on the partial trail,
/// every variable in Implied is propagated true. Reason clauses
/// (A or V) are only materialized through explainPropagation — the lazy
/// DPLL(T) contract — and the full-model hook is the semantic backstop
/// that rejects models violating an implication.
class ImplyOnFalse : public TheoryCallback {
public:
  ImplyOnFalse(Var A, std::vector<Var> Implied, const SatSolver &S)
      : A(A), Implied(std::move(Implied)), S(S) {}
  bool onFullModel(std::vector<Lit> &ConflictOut) override {
    if (!S.modelValue(A))
      for (Var V : Implied)
        if (!S.modelValue(V)) {
          ConflictOut = {Lit(A, false), Lit(V, false)};
          return false;
        }
    return true;
  }
  bool propagatePartial(std::vector<Lit> &ImpliedOut,
                        std::vector<Lit> &ConflictOut) override {
    (void)ConflictOut;
    if (S.value(Lit(A, false)) == LBool::False)
      for (Var V : Implied)
        if (S.value(Lit(V, false)) == LBool::Undef)
          ImpliedOut.push_back(Lit(V, false));
    return true;
  }
  void explainPropagation(Lit P, std::vector<Lit> &ReasonOut) override {
    ++Explains;
    LastExplained = P;
    ReasonOut = {P, Lit(A, false)};
  }
  Var A;
  std::vector<Var> Implied;
  const SatSolver &S;
  unsigned Explains = 0;
  Lit LastExplained;
};
} // namespace

TEST(SatTest, TheoryPropagationLazyReason) {
  // Decision order is deterministic (equal activities break ties by
  // variable index, initial phase false): A is decided false, the theory
  // propagates both B and E true at the BCP fixpoint, and the clause
  // (not-B or not-E) is then conflicting. Because both current-level
  // antecedents are theory-propagated, 1UIP analysis must fetch their
  // reasons lazily, resolve through them and learn the unit (A). A
  // binary clause over a single propagated literal would not do: BCP
  // wins the race and derives its negation before the theory runs.
  SatSolver S;
  S.setTheoryPropagation(true);
  Var A = S.newVar(), B = S.newVar(), E = S.newVar(), C = S.newVar();
  S.markTheoryVar(A);
  S.markTheoryVar(B);
  S.markTheoryVar(E);
  ASSERT_TRUE(S.addClause({Lit(A, false), Lit(C, false)})); // keeps A alive
  ASSERT_TRUE(S.addClause({Lit(B, true), Lit(E, true)}));
  ImplyOnFalse T(A, {B, E}, S);
  EXPECT_EQ(S.solve(&T), SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_GT(T.Explains, 0u);
}

/// Property test: aggressive deletion agrees with the brute-force oracle
/// on a base clause set and again after more clauses are added at the
/// root — the deleted-then-repropagated interaction (a lemma deleted
/// during the first search may have its implications re-derived in the
/// second from input clauses alone).
TEST(SatTest, PropertyDeletionVsBruteForce) {
  std::mt19937 Rng(1337);
  uint64_t TotalDeleted = 0;
  for (int Iter = 0; Iter < 200; ++Iter) {
    int NumVars = 6 + static_cast<int>(Rng() % 6); // 6..11
    int NumBase = static_cast<int>(NumVars * 2.2);
    int NumExtra = static_cast<int>(NumVars * 2.1);
    auto RandomClause = [&] {
      std::vector<Lit> C;
      for (int K = 0; K < 3; ++K)
        C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() % 2 == 0));
      return C;
    };
    std::vector<std::vector<Lit>> Base, Extra;
    for (int I = 0; I < NumBase; ++I)
      Base.push_back(RandomClause());
    for (int I = 0; I < NumExtra; ++I)
      Extra.push_back(RandomClause());

    SatSolver S;
    S.setReduceDbLimit(2);
    for (int I = 0; I < NumVars; ++I)
      S.newVar();
    bool Ok = true;
    for (const std::vector<Lit> &C : Base)
      Ok = S.addClause(C) && Ok;
    bool ExpectBase = bruteForceSat(NumVars, Base);
    SatSolver::Result R1 = Ok ? S.solve() : SatSolver::Result::Unsat;
    EXPECT_EQ(R1 == SatSolver::Result::Sat, ExpectBase) << "iter " << Iter;

    S.resetToRoot();
    for (const std::vector<Lit> &C : Extra)
      Ok = S.addClause(C) && Ok;
    std::vector<std::vector<Lit>> All = Base;
    All.insert(All.end(), Extra.begin(), Extra.end());
    bool ExpectAll = bruteForceSat(NumVars, All);
    SatSolver::Result R2 = Ok ? S.solve() : SatSolver::Result::Unsat;
    EXPECT_EQ(R2 == SatSolver::Result::Sat, ExpectAll) << "iter " << Iter;
    TotalDeleted += S.numLemmasDeleted();
  }
  // The tiny limit must have made the sweeps actually delete lemmas
  // somewhere in the run, or this property test is vacuous.
  EXPECT_GT(TotalDeleted, 0u);
}
