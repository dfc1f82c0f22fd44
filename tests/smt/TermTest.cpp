//===- tests/smt/TermTest.cpp - Term manager tests -------------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "FormulaGen.h"
#include "smt/Term.h"
#include "smt/TermPrinter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <random>
#include <thread>
#include <unordered_set>
#include <vector>

using namespace ids;
using namespace ids::smt;

namespace {
class TermTest : public ::testing::Test {
protected:
  TermManager TM;
};
} // namespace

TEST_F(TermTest, HashConsingSharesStructure) {
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  EXPECT_EQ(TM.mkAdd(X, Y), TM.mkAdd(Y, X)); // canonical ordering
  EXPECT_EQ(TM.mkEq(X, Y), TM.mkEq(Y, X));
  EXPECT_EQ(TM.mkVar("x", TM.intSort()), X);
}

TEST_F(TermTest, BooleanSimplification) {
  TermRef P = TM.mkVar("p", TM.boolSort());
  EXPECT_EQ(TM.mkNot(TM.mkNot(P)), P);
  EXPECT_EQ(TM.mkAnd(P, TM.mkTrue()), P);
  EXPECT_EQ(TM.mkAnd(P, TM.mkFalse()), TM.mkFalse());
  EXPECT_EQ(TM.mkOr(P, TM.mkTrue()), TM.mkTrue());
  EXPECT_EQ(TM.mkOr(P, P), P);
  EXPECT_EQ(TM.mkImplies(TM.mkFalse(), P), TM.mkTrue());
  EXPECT_EQ(TM.mkIte(TM.mkTrue(), P, TM.mkFalse()), P);
}

TEST_F(TermTest, AndFlattening) {
  TermRef P = TM.mkVar("p", TM.boolSort());
  TermRef Q = TM.mkVar("q", TM.boolSort());
  TermRef R = TM.mkVar("r", TM.boolSort());
  TermRef Nested = TM.mkAnd(P, TM.mkAnd(Q, R));
  EXPECT_EQ(Nested->getKind(), TermKind::And);
  EXPECT_EQ(Nested->getNumArgs(), 3u);
}

TEST_F(TermTest, ArithmeticFolding) {
  TermRef X = TM.mkVar("x", TM.intSort());
  EXPECT_EQ(TM.mkAdd(TM.mkIntConst(2), TM.mkIntConst(3)), TM.mkIntConst(5));
  EXPECT_EQ(TM.mkMulConst(Rational(0), X), TM.mkIntConst(0));
  EXPECT_EQ(TM.mkMulConst(Rational(1), X), X);
  EXPECT_EQ(TM.mkSub(X, X), TM.mkIntConst(0));
  EXPECT_EQ(TM.mkLe(TM.mkIntConst(1), TM.mkIntConst(2)), TM.mkTrue());
  EXPECT_EQ(TM.mkLt(TM.mkIntConst(2), TM.mkIntConst(2)), TM.mkFalse());
  // -( -x ) == x through nested Mul folding
  EXPECT_EQ(TM.mkNeg(TM.mkNeg(X)), X);
}

TEST_F(TermTest, EqualityFolding) {
  TermRef X = TM.mkVar("x", TM.intSort());
  EXPECT_EQ(TM.mkEq(X, X), TM.mkTrue());
  EXPECT_EQ(TM.mkEq(TM.mkIntConst(1), TM.mkIntConst(2)), TM.mkFalse());
  TermRef P = TM.mkVar("p", TM.boolSort());
  EXPECT_EQ(TM.mkEq(P, TM.mkTrue()), P);
  EXPECT_EQ(TM.mkEq(P, TM.mkFalse()), TM.mkNot(P));
}

TEST_F(TermTest, SelectOverStore) {
  const Sort *ArrS = TM.getArraySort(TM.locSort(), TM.intSort());
  TermRef M = TM.mkVar("M", ArrS);
  TermRef X = TM.mkVar("x", TM.locSort());
  TermRef V = TM.mkIntConst(7);
  EXPECT_EQ(TM.mkSelect(TM.mkStore(M, X, V), X), V);
  EXPECT_EQ(TM.mkSelect(TM.mkConstArray(ArrS, V), X), V);
  // store-over-store on the same index collapses
  TermRef S2 = TM.mkStore(TM.mkStore(M, X, V), X, TM.mkIntConst(9));
  EXPECT_EQ(S2->getArg(0), M);
}

TEST_F(TermTest, SetSugar) {
  TermRef X = TM.mkVar("x", TM.locSort());
  TermRef S = TM.mkSingleton(X);
  EXPECT_EQ(TM.mkMember(X, S), TM.mkTrue());
  TermRef Empty = TM.mkEmptySet(TM.locSort());
  EXPECT_EQ(TM.mkSetUnion(S, Empty), S);
  EXPECT_EQ(TM.mkSetIntersect(S, Empty), Empty);
  EXPECT_EQ(TM.mkSetMinus(Empty, S), Empty);
}

TEST_F(TermTest, Substitution) {
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef Y = TM.mkVar("y", TM.intSort());
  TermRef F = TM.mkLe(TM.mkAdd(X, TM.mkIntConst(1)), Y);
  std::unordered_map<TermRef, TermRef> Map = {{X, TM.mkIntConst(4)}};
  TermRef G = TM.substitute(F, Map);
  EXPECT_EQ(G, TM.mkLe(TM.mkIntConst(5), Y));
}

TEST_F(TermTest, QuantifierDetection) {
  TermRef X = TM.mkVar("x", TM.locSort());
  TermRef Body = TM.mkEq(X, TM.mkNil());
  TermRef Q = TM.mkForall({X}, Body);
  EXPECT_TRUE(TM.containsQuantifier(Q));
  EXPECT_FALSE(TM.containsQuantifier(Body));
  EXPECT_TRUE(TM.containsQuantifier(TM.mkAnd(Q, Body)));
}

namespace {
/// The walk containsQuantifier did before the bit: a DFS for a Forall.
bool hasForallByDfs(TermRef T) {
  std::vector<TermRef> Work = {T};
  std::unordered_set<TermRef> Seen;
  while (!Work.empty()) {
    TermRef Cur = Work.back();
    Work.pop_back();
    if (!Seen.insert(Cur).second)
      continue;
    if (Cur->getKind() == TermKind::Forall)
      return true;
    for (TermRef Arg : Cur->getArgs())
      Work.push_back(Arg);
  }
  return false;
}
} // namespace

TEST_F(TermTest, QuantifierBitPropagatesThroughEveryNode) {
  TermRef X = TM.mkVar("x", TM.locSort());
  TermRef P = TM.mkVar("p", TM.boolSort());
  TermRef I = TM.mkVar("i", TM.intSort());
  TermRef Q = TM.mkForall({X}, TM.mkEq(X, TM.mkNil()));
  const Sort *IntBool = TM.getArraySort(TM.intSort(), TM.boolSort());
  TermRef S = TM.mkVar("s", IntBool);
  const FuncDecl *F = TM.getFuncDecl("f", {TM.boolSort()}, TM.intSort());
  TermRef InAnd = TM.mkAnd(P, Q);
  TermRef InIte = TM.mkIte(P, Q, TM.mkNot(P));
  TermRef InApply = TM.mkLe(TM.mkApply(F, {Q}), I);
  TermRef InStore = TM.mkStore(S, I, Q);
  for (TermRef T : {InAnd, InIte, InApply, InStore})
    EXPECT_TRUE(TM.containsQuantifier(T)) << printTerm(T);
  EXPECT_FALSE(TM.containsQuantifier(TM.mkAnd(P, TM.mkNot(P))));
  EXPECT_FALSE(TM.containsQuantifier(TM.mkApply(F, {P})));

  // substitute rebuilds through the smart constructors: the bit follows.
  std::unordered_map<TermRef, TermRef> Map = {{P, TM.mkNot(P)},
                                              {I, TM.mkIntConst(3)}};
  for (TermRef T : {InAnd, InIte, InApply, InStore}) {
    TermRef Sub = TM.substitute(T, Map);
    EXPECT_NE(Sub, T);
    EXPECT_TRUE(TM.containsQuantifier(Sub)) << printTerm(Sub);
  }
  // A substitution that folds the quantifier away clears it.
  EXPECT_FALSE(TM.containsQuantifier(
      TM.substitute(InAnd, {{P, TM.mkFalse()}})));

  // import rebuilds in another manager.
  TermManager Other;
  for (TermRef T : {InAnd, InIte, InApply, InStore, Q}) {
    TermRef Imported = Other.import(T);
    EXPECT_TRUE(Other.containsQuantifier(Imported)) << printTerm(T);
  }
  EXPECT_FALSE(Other.containsQuantifier(Other.import(TM.mkApply(F, {P}))));

  // An overlay's own terms over base terms carry the bit of their
  // arguments.
  TM.freeze();
  {
    TermManager Overlay(TM, TermManager::Snapshot{});
    TermRef Y = Overlay.mkVar("y", Overlay.boolSort());
    TermRef New = Overlay.mkOr(Y, InAnd);
    EXPECT_GE(New->getId(), TM.numTerms());
    EXPECT_TRUE(Overlay.containsQuantifier(New));
    TermRef Sel = Overlay.mkSelect(InStore, Overlay.mkIntConst(7));
    EXPECT_GE(Sel->getId(), TM.numTerms());
    EXPECT_TRUE(Overlay.containsQuantifier(Sel));
    EXPECT_FALSE(Overlay.containsQuantifier(Overlay.mkAnd(Y, P)));
  }
  TM.thaw();
}

TEST_F(TermTest, QuantifierBitAgreesWithDfs) {
  std::mt19937 Rng(0xF0A11);
  FormulaGen Gen(TM, Rng);
  const Sort *IntBool = TM.getArraySort(TM.intSort(), TM.boolSort());
  TermRef S = TM.mkVar("s", IntBool);
  TermRef I = TM.mkVar("i", TM.intSort());
  TermRef Bound = TM.mkVar("q", TM.intSort());
  const FuncDecl *F = TM.getFuncDecl("f", {TM.boolSort()}, TM.intSort());
  // Random formulas with Foralls anywhere in them, including under
  // array stores and function applications.
  std::function<TermRef(unsigned)> Mixed = [&](unsigned Depth) -> TermRef {
    if (Depth == 0)
      return Gen.boolFormula(2);
    switch (Rng() % 6) {
    case 0:
      return TM.mkForall({Bound}, TM.mkOr(TM.mkLe(Bound, I), Mixed(Depth - 1)));
    case 1:
      return TM.mkAnd(Mixed(Depth - 1), Mixed(Depth - 1));
    case 2:
      return TM.mkIte(Mixed(Depth - 1), Mixed(Depth - 1), Mixed(Depth - 1));
    case 3:
      return TM.mkSelect(TM.mkStore(S, I, Mixed(Depth - 1)),
                         TM.mkIntConst(int64_t(Rng() % 3)));
    case 4:
      return TM.mkLe(TM.mkApply(F, {Mixed(Depth - 1)}), I);
    default:
      return TM.mkNot(Mixed(Depth - 1));
    }
  };
  unsigned WithForall = 0;
  for (unsigned K = 0; K < 400; ++K) {
    TermRef T = Mixed(1 + K % 4);
    bool Expected = hasForallByDfs(T);
    WithForall += Expected;
    EXPECT_EQ(TM.containsQuantifier(T), Expected) << printTerm(T);
  }
  EXPECT_GT(WithForall, 50u);
  EXPECT_LT(WithForall, 350u);
}

TEST_F(TermTest, PrinterRoundTripish) {
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef F = TM.mkLt(X, TM.mkIntConst(3));
  EXPECT_EQ(printTerm(F), "(< x 3)");
  std::string Query = printQuery(F);
  EXPECT_NE(Query.find("(declare-const x Int)"), std::string::npos);
  EXPECT_NE(Query.find("(check-sat)"), std::string::npos);
}

TEST_F(TermTest, FreshVarsAreFresh) {
  TermRef A = TM.mkFreshVar("tmp", TM.intSort());
  TermRef B = TM.mkFreshVar("tmp", TM.intSort());
  EXPECT_NE(A, B);
  EXPECT_NE(A->getName(), B->getName());
}

// ---------------------------------------------------------------------------
// Snapshot overlays: a frozen base shared read-only by worker-side
// overlay managers (the --jobs term-sharing machinery).

TEST_F(TermTest, SnapshotSharesBaseTerms) {
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef F = TM.mkLe(TM.mkAdd(X, TM.mkIntConst(1)), TM.mkIntConst(5));
  TM.freeze();
  {
    TermManager Overlay(TM, TermManager::Snapshot{});
    // Shared singletons and sorts are the very same pointers.
    EXPECT_EQ(Overlay.mkTrue(), TM.mkTrue());
    EXPECT_EQ(Overlay.mkNil(), TM.mkNil());
    EXPECT_EQ(Overlay.intSort(), TM.intSort());
    // Rebuilding a base term through the overlay's smart constructors
    // hits the base table: identical pointer, no copy.
    TermRef OX = Overlay.mkVar("x", Overlay.intSort());
    EXPECT_EQ(OX, X);
    TermRef OF =
        Overlay.mkLe(Overlay.mkAdd(OX, Overlay.mkIntConst(1)),
                     Overlay.mkIntConst(5));
    EXPECT_EQ(OF, F);
    EXPECT_EQ(Overlay.numTerms(), TM.numTerms());
  }
  TM.thaw();
}

TEST_F(TermTest, SnapshotDeltaStaysPrivate) {
  TermRef X = TM.mkVar("x", TM.intSort());
  unsigned BaseCount = TM.numTerms();
  TM.freeze();
  {
    TermManager Overlay(TM, TermManager::Snapshot{});
    TermRef Y = Overlay.mkVar("y", Overlay.intSort());
    TermRef G = Overlay.mkLt(X, Y);
    // Overlay ids continue past the base's id space.
    EXPECT_GE(Y->getId(), BaseCount);
    EXPECT_GE(G->getId(), BaseCount);
    // Mixing base and overlay terms in one node is fine.
    EXPECT_EQ(G->getArg(0), X);
    // The base is untouched.
    EXPECT_EQ(TM.numTerms(), BaseCount);
  }
  TM.thaw();
  // After thawing, the base can intern again and never saw the delta.
  EXPECT_EQ(TM.numTerms(), BaseCount);
  TermRef Z = TM.mkVar("z", TM.intSort());
  EXPECT_EQ(Z->getName(), "z");
}

TEST_F(TermTest, SnapshotSharesSortsAndDecls) {
  const Sort *Elem = TM.getUninterpretedSort("Elem");
  const Sort *SetSort = TM.getArraySort(Elem, TM.boolSort());
  const FuncDecl *D = TM.getFuncDecl("key", {TM.locSort()}, TM.intSort());
  TM.freeze();
  {
    TermManager Overlay(TM, TermManager::Snapshot{});
    EXPECT_EQ(Overlay.getUninterpretedSort("Elem"), Elem);
    EXPECT_EQ(Overlay.getArraySort(Elem, Overlay.boolSort()), SetSort);
    EXPECT_EQ(Overlay.getFuncDecl("key", {Overlay.locSort()},
                                  Overlay.intSort()),
              D);
    // An overlay-new sort composes with shared ones.
    const Sort *Fresh = Overlay.getUninterpretedSort("OverlayOnly");
    EXPECT_NE(Fresh, nullptr);
    EXPECT_NE(Overlay.getArraySort(Fresh, Overlay.boolSort()), SetSort);
  }
  TM.thaw();
}

TEST_F(TermTest, SnapshotFreshVarsAvoidBaseNames) {
  TermRef BaseFresh = TM.mkFreshVar("tmp", TM.intSort());
  TM.freeze();
  {
    TermManager Overlay(TM, TermManager::Snapshot{});
    TermRef A = Overlay.mkFreshVar("tmp", Overlay.intSort());
    TermRef B = Overlay.mkFreshVar("tmp", Overlay.intSort());
    EXPECT_NE(A->getName(), BaseFresh->getName());
    EXPECT_NE(A->getName(), B->getName());
  }
  TM.thaw();
}

TEST_F(TermTest, SnapshotStructHashesMatchImport) {
  // The overlay view and a full import into a fresh manager must agree
  // on the 128-bit structural hash — QueryCache keys are view-invariant.
  TermRef X = TM.mkVar("x", TM.locSort());
  TermRef S = TM.mkSetInsert(TM.mkEmptySet(TM.locSort()), X);
  TermRef F = TM.mkAnd(TM.mkMember(X, S), TM.mkNot(TM.mkEq(X, TM.mkNil())));
  TM.freeze();
  TermManager Overlay(TM, TermManager::Snapshot{});
  TermRef G = Overlay.mkOr(F, Overlay.mkEq(X, Overlay.mkNil()));
  TermManager Fresh;
  TermRef Imported = Fresh.import(G);
  EXPECT_EQ(G->getStructHashLo(), Imported->getStructHashLo());
  EXPECT_EQ(G->getStructHashHi(), Imported->getStructHashHi());
  TM.thaw();
}

TEST_F(TermTest, ConcurrentOverlaysShareFrozenBase) {
  // Many threads, each with a private overlay, hammer the same frozen
  // base: every rebuild of a base term must resolve to the base pointer.
  TermRef X = TM.mkVar("x", TM.intSort());
  TermRef F = TM.mkLe(X, TM.mkIntConst(10));
  TM.freeze();
  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([&] {
      TermManager Overlay(TM, TermManager::Snapshot{});
      for (int I = 0; I < 200; ++I) {
        TermRef OX = Overlay.mkVar("x", Overlay.intSort());
        TermRef OF = Overlay.mkLe(OX, Overlay.mkIntConst(10));
        if (OX != X || OF != F)
          Failures.fetch_add(1);
        // Private delta per iteration, mixing shared structure.
        TermRef D = Overlay.mkAdd(OX, Overlay.mkIntConst(I));
        if (D->getSort() != Overlay.intSort())
          Failures.fetch_add(1);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  TM.thaw();
  EXPECT_EQ(Failures.load(), 0);
}
