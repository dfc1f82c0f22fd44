//===- tests/pipeline/SimplifyFuzzTest.cpp - Pipeline differential fuzz ----===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential fuzzing of the VC pipeline transforms, mirroring
/// tests/smt/FuzzTest.cpp's corpus (same generator shape, same seeds,
/// 600 formulas): for each random quantifier-free formula,
///
///  1. the rewriter must be idempotent and must preserve the solver
///     verdict (decided answers may not flip between the original and
///     simplified formula), and
///  2. random obligations pushed through the full pipeline
///     (simplify + cache + scheduler) must agree with a direct
///     solver call on Guard /\ !Claim, and
///  3. on obligations whose guards begin with chains of eliminable
///     equalities, every model of the simplified query must extend
///     (extendModel) to a model of the unsimplified obligation, and
///  4. a batch simplified by one Simplifier, which shares guard runs
///     across obligations with the same guard, must give the same
///     terms, with the same ids, as the guard-equality loop run per
///     obligation in a second manager.
///
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"
#include "pipeline/Simplify.h"
#include "smt/SolverContext.h"
#include "smt/TermPrinter.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace ids;
using namespace ids::pipeline;
using namespace ids::smt;

namespace {

/// Random QF formula generator over a fixed small vocabulary — the same
/// shape as the solver fuzzer's so the corpus stresses the same
/// operator mix.
class FormulaGen {
public:
  FormulaGen(TermManager &TM, std::mt19937 &Rng) : TM(TM), Rng(Rng) {
    for (int I = 0; I < 4; ++I)
      BoolVars.push_back(TM.mkVar("p" + std::to_string(I), TM.boolSort()));
    for (int I = 0; I < 4; ++I)
      IntVars.push_back(TM.mkVar("x" + std::to_string(I), TM.intSort()));
    const Sort *IntInt = TM.getArraySort(TM.intSort(), TM.intSort());
    const Sort *IntBool = TM.getArraySort(TM.intSort(), TM.boolSort());
    for (int I = 0; I < 2; ++I)
      ArrVars.push_back(TM.mkVar("a" + std::to_string(I), IntInt));
    SetVars.push_back(TM.mkVar("s0", IntBool));
  }

  TermRef boolFormula(unsigned Depth) {
    if (Depth == 0)
      return boolLeaf();
    switch (pick(8)) {
    case 0:
      return TM.mkNot(boolFormula(Depth - 1));
    case 1:
      return TM.mkAnd(boolFormula(Depth - 1), boolFormula(Depth - 1));
    case 2:
      return TM.mkOr(boolFormula(Depth - 1), boolFormula(Depth - 1));
    case 3:
      return TM.mkImplies(boolFormula(Depth - 1), boolFormula(Depth - 1));
    case 4:
      return TM.mkEq(boolFormula(Depth - 1), boolFormula(Depth - 1));
    case 5:
      return TM.mkIte(boolFormula(Depth - 1), boolFormula(Depth - 1),
                      boolFormula(Depth - 1));
    case 6:
      return intAtom(Depth - 1);
    default:
      return setAtom(Depth - 1);
    }
  }

  // Raw engine draws, as in FuzzTest.cpp: reproducible on every standard
  // library.
  unsigned pick(unsigned N) { return Rng() % N; }

  TermRef boolLeaf() {
    switch (pick(4)) {
    case 0:
      return TM.mkBool(pick(2) == 0);
    case 1:
      return intAtom(0);
    default:
      return BoolVars[pick(BoolVars.size())];
    }
  }

  TermRef intTerm(unsigned Depth) {
    if (Depth == 0)
      return intLeaf();
    switch (pick(5)) {
    case 0:
      return TM.mkAdd(intTerm(Depth - 1), intTerm(Depth - 1));
    case 1:
      return TM.mkSub(intTerm(Depth - 1), intTerm(Depth - 1));
    case 2:
      return TM.mkMulConst(Rational(BigInt(int64_t(pick(7)) - 3)),
                           intTerm(Depth - 1));
    case 3:
      return TM.mkSelect(arrTerm(Depth - 1), intTerm(Depth - 1));
    default:
      return intLeaf();
    }
  }

  TermRef intLeaf() {
    if (pick(2) == 0)
      return TM.mkIntConst(int64_t(pick(9)) - 4);
    return IntVars[pick(IntVars.size())];
  }

  TermRef arrTerm(unsigned Depth) {
    if (Depth == 0 || pick(3) == 0)
      return ArrVars[pick(ArrVars.size())];
    return TM.mkStore(arrTerm(Depth - 1), intTerm(Depth - 1),
                      intTerm(Depth - 1));
  }

  TermRef setTerm(unsigned Depth) {
    if (Depth == 0 || pick(3) == 0) {
      if (pick(3) == 0)
        return TM.mkEmptySet(TM.intSort());
      return SetVars[pick(SetVars.size())];
    }
    switch (pick(4)) {
    case 0:
      return TM.mkSetUnion(setTerm(Depth - 1), setTerm(Depth - 1));
    case 1:
      return TM.mkSetIntersect(setTerm(Depth - 1), setTerm(Depth - 1));
    case 2:
      return TM.mkSetMinus(setTerm(Depth - 1), setTerm(Depth - 1));
    default:
      return TM.mkSetInsert(setTerm(Depth - 1), intTerm(Depth - 1));
    }
  }

  TermRef intAtom(unsigned Depth) {
    TermRef A = intTerm(Depth), B = intTerm(Depth);
    switch (pick(3)) {
    case 0:
      return TM.mkLe(A, B);
    case 1:
      return TM.mkLt(A, B);
    default:
      return TM.mkEq(A, B);
    }
  }

  TermRef setAtom(unsigned Depth) {
    switch (pick(3)) {
    case 0:
      return TM.mkMember(intTerm(Depth), setTerm(Depth));
    case 1:
      return TM.mkSubset(setTerm(Depth), setTerm(Depth));
    default:
      return TM.mkEq(setTerm(Depth), setTerm(Depth));
    }
  }

private:
  TermManager &TM;
  std::mt19937 &Rng;
  std::vector<TermRef> BoolVars, IntVars, ArrVars, SetVars;
};

/// Solves \p F on the reference engine (fresh theory engines per full
/// assignment), so the pipeline differential compares two engines.
SolverResult solveDirect(TermManager &TM, TermRef F) {
  SolverOptions Opts;
  Opts.MaxTheoryChecks = 20000;
  Opts.Theory = TheoryMode::Rebuild;
  SolverContext S(TM, Opts);
  S.assertTerm(F);
  return S.checkSat();
}

/// Model construction never gives up on a corpus: every Unknown is a
/// budget artifact. Checked when the guard goes out of scope.
struct NoGiveUps {
  trace::Counter &GiveUps = trace::counter("smt.model_give_ups");
  const uint64_t Before = GiveUps.value();
  ~NoGiveUps() {
    EXPECT_EQ(GiveUps.value(), Before) << "model construction gave up";
  }
};

/// Rewrite must be idempotent and may not flip a decided verdict.
void runRewriteDifferential(uint32_t Seed, unsigned Iters, unsigned Depth,
                            unsigned &Decided) {
  NoGiveUps Guard;
  std::mt19937 Rng(Seed);
  for (unsigned I = 0; I < Iters; ++I) {
    TermManager TM;
    FormulaGen Gen(TM, Rng);
    TermRef F = Gen.boolFormula(Depth);

    Simplifier Simp(TM);
    TermRef Simplified = Simp.rewrite(F);
    EXPECT_EQ(Simp.rewrite(Simplified), Simplified)
        << "rewrite not idempotent (seed " << Seed << ", iter " << I
        << ")\n"
        << printTerm(F);

    SolverResult Direct = solveDirect(TM, F);
    SolverResult Simp2 = solveDirect(TM, Simplified);
    if (Direct != SolverResult::Unknown &&
        Simp2 != SolverResult::Unknown) {
      ++Decided;
      EXPECT_EQ(Direct, Simp2)
          << "simplification flipped the verdict (seed " << Seed
          << ", iter " << I << ")\n"
          << printTerm(F) << "\n-- simplified --\n"
          << printTerm(Simplified);
    }
  }
}

/// Full pipeline (simplify + cache + scheduler) vs direct solve
/// of Guard /\ !Claim on random obligations.
void runPipelineDifferential(uint32_t Seed, unsigned Iters, unsigned Depth,
                             unsigned &Decided) {
  NoGiveUps Guard;
  std::mt19937 Rng(Seed);
  for (unsigned I = 0; I < Iters; ++I) {
    TermManager TM;
    FormulaGen Gen(TM, Rng);
    vcgen::Obligation O;
    O.Guard = TM.mkAnd({Gen.boolFormula(Depth), Gen.boolFormula(Depth),
                        Gen.boolFormula(Depth - 1)});
    O.Claim = Gen.boolFormula(Depth);
    O.Description = "fuzz";

    SolverResult Direct =
        solveDirect(TM, TM.mkAnd(O.Guard, TM.mkNot(O.Claim)));

    Options Opts;
    Opts.MaxTheoryChecks = 20000;
    Opts.Jobs = (I % 3 == 0) ? 2 : 1; // exercise the pool too
    QueryCache Cache;
    Result R = solveObligations(TM, {O}, Opts, &Cache);

    if (Direct == SolverResult::Unknown || R.V == Verdict::Unknown)
      continue;
    ++Decided;
    Verdict Expected = Direct == SolverResult::Unsat ? Verdict::Proved
                                                       : Verdict::Failed;
    EXPECT_EQ(R.V, Expected)
        << "pipeline flipped the verdict (seed " << Seed << ", iter " << I
        << ")\nguard:\n"
        << printTerm(O.Guard) << "\nclaim:\n"
        << printTerm(O.Claim);
  }
}

/// Random obligations whose guards begin with a chain of guard
/// equalities v_i == t_i (each t_i a FormulaGen term over v_{i-1}),
/// plus a set and a boolean definition the claim reads. The simplifier
/// eliminates them; on every Sat answer for the simplified query, the
/// model extended through the eliminations must satisfy the original
/// obligation. \p Extended counts the Sat answers with eliminations.
void runModelExtension(uint32_t Seed, unsigned Iters, unsigned Depth,
                       unsigned &Decided, unsigned &Extended) {
  NoGiveUps Guard;
  std::mt19937 Rng(Seed);
  for (unsigned I = 0; I < Iters; ++I) {
    TermManager TM;
    FormulaGen Gen(TM, Rng);
    std::vector<TermRef> Conjs;
    TermRef Prev = nullptr;
    for (int K = 0; K < 4; ++K) {
      TermRef V = TM.mkVar("v" + std::to_string(K), TM.intSort());
      TermRef T = Gen.intTerm(Depth - 1);
      Conjs.push_back(TM.mkEq(V, Prev ? TM.mkAdd(Prev, T) : T));
      Prev = V;
    }
    TermRef S = TM.mkVar("sv", TM.getArraySort(TM.intSort(), TM.boolSort()));
    Conjs.push_back(
        TM.mkEq(S, TM.mkSetInsert(Gen.setTerm(Depth - 1), Prev)));
    TermRef B = TM.mkVar("b", TM.boolSort());
    Conjs.push_back(TM.mkEq(B, Gen.boolFormula(Depth - 1)));
    Conjs.push_back(Gen.boolFormula(Depth));
    vcgen::Obligation O;
    O.Guard = TM.mkAnd(Conjs);
    O.Claim = TM.mkOr({Gen.boolFormula(Depth - 1),
                       TM.mkLe(Prev, Gen.intTerm(Depth - 1)),
                       TM.mkMember(Gen.intTerm(0), S), B});
    TermRef Orig = TM.mkAnd(O.Guard, TM.mkNot(O.Claim));

    Simplifier Simp(TM);
    std::vector<Elimination> Eliminated;
    if (Simp.simplifyObligation(O.Guard, O.Claim, &Eliminated))
      continue;
    // On the reference engine (fresh theory engines per full
    // assignment).
    SolverOptions Opts;
    Opts.MaxTheoryChecks = 20000;
    Opts.Theory = TheoryMode::Rebuild;
    SolverContext Slv(TM, Opts);
    Slv.assertTerm(TM.mkAnd(O.Guard, TM.mkNot(O.Claim)));
    SolverResult Res = Slv.checkSat();
    if (Res == SolverResult::Unknown)
      continue;
    ++Decided;
    if (Res != SolverResult::Sat)
      continue;
    Extended += !Eliminated.empty();
    Model M = Slv.model();
    extendModel(M, Eliminated, Orig);
    Value V = M.evaluate(Orig);
    EXPECT_TRUE(V.K == Value::Kind::Bool && V.B)
        << "extended model falsifies the original obligation (seed " << Seed
        << ", iter " << I << ")\n"
        << printTerm(Orig) << "\n-- model --\n"
        << M.toString();
  }
}

/// A guard and a claim, before simplification.
struct GuardClaim {
  TermRef Guard;
  TermRef Claim;
};

/// Builds a batch of obligations whose guards share work three ways:
/// exact repeats of one guard, guards that are conjunct-prefixes of each
/// other, and a guard with a chain of equalities v0 == t0, v_k == v_{k-1}
/// + t_k that takes three rounds to eliminate, first under a claim that
/// folds to true in round 1 (v0 == t0 itself), then under one that needs
/// every round. Deterministic in \p Rng: the same seed builds the same
/// terms, with the same ids, in any fresh manager.
std::vector<GuardClaim> makeSharedGuardBatch(TermManager &TM,
                                             std::mt19937 &Rng,
                                             unsigned Depth) {
  FormulaGen Gen(TM, Rng);
  auto Definition = [&](const std::string &Name) {
    TermRef T = Gen.intTerm(Depth - 1);
    return TM.mkEq(TM.mkVar(Name, TM.intSort()), T);
  };
  TermRef Repeated = TM.mkAnd({Definition("u0"), Gen.boolFormula(Depth - 1),
                               Definition("u1"), Gen.boolFormula(Depth)});
  std::vector<TermRef> Prefix;
  std::vector<TermRef> Prefixes;
  for (int K = 0; K < 3; ++K) {
    Prefix.push_back(Definition("w" + std::to_string(K)));
    Prefix.push_back(Gen.boolFormula(Depth - 1));
    Prefixes.push_back(TM.mkAnd(Prefix));
  }
  std::vector<TermRef> Chain;
  TermRef Prev = nullptr;
  for (int K = 0; K < 4; ++K) {
    TermRef T = Gen.intTerm(Depth - 1);
    TermRef V = TM.mkVar("v" + std::to_string(K), TM.intSort());
    Chain.push_back(TM.mkEq(V, Prev ? TM.mkAdd(Prev, T) : T));
    Prev = V;
  }
  TermRef Chained = TM.mkAnd({TM.mkAnd(Chain), Gen.boolFormula(Depth - 1)});

  std::vector<GuardClaim> Batch;
  for (unsigned J = 0; J < 10; ++J) {
    switch (Gen.pick(4)) {
    case 0:
      Batch.push_back({Repeated, Gen.boolFormula(Depth)});
      break;
    case 1:
      Batch.push_back({Prefixes[Gen.pick(Prefixes.size())],
                       TM.mkOr(Gen.boolFormula(Depth - 1),
                               Gen.intAtom(Depth - 1))});
      break;
    case 2:
      Batch.push_back({Chained, Chain[0]});
      Batch.push_back({Chained, TM.mkLe(Prev, Gen.intTerm(Depth - 1))});
      break;
    default:
      Batch.push_back({TM.mkAnd(Gen.boolFormula(Depth), Definition("u0")),
                       Gen.boolFormula(Depth - 1)});
      break;
    }
  }
  return Batch;
}

/// The guard-equality loop one obligation at a time, interning in the
/// order that fixes term ids: each round substitutes every remaining
/// guard conjunct with a memo of its own, then the claim, then builds the
/// next guard. Rewriting uses a fresh Simplifier. Returns
/// whether the obligation is discharged; \p Rounds counts the rounds
/// that eliminated something.
bool simplifyPerObligation(TermManager &TM, TermRef &Guard, TermRef &Claim,
                           std::vector<Elimination> &Eliminated,
                           unsigned &Rounds) {
  Simplifier Simp(TM);
  Guard = Simp.rewrite(Guard);
  Claim = Simp.rewrite(Claim);
  auto Conjuncts = [](TermRef G) {
    return G->getKind() == TermKind::And ? G->getArgs()
                                         : std::vector<TermRef>{G};
  };
  auto VarsOf = [](TermRef T) {
    std::unordered_set<TermRef> Vars, Seen;
    std::vector<TermRef> Work = {T};
    while (!Work.empty()) {
      TermRef Cur = Work.back();
      Work.pop_back();
      if (!Seen.insert(Cur).second)
        continue;
      if (Cur->getKind() == TermKind::Var)
        Vars.insert(Cur);
      Work.insert(Work.end(), Cur->getArgs().begin(), Cur->getArgs().end());
    }
    return Vars;
  };
  Rounds = 0;
  for (; Rounds < 8; ++Rounds) {
    if (Claim == TM.mkTrue() || Guard == TM.mkFalse())
      break;
    std::vector<TermRef> Conjs = Conjuncts(Guard);
    std::unordered_map<TermRef, TermRef> Map;
    std::unordered_set<TermRef> RhsVars;
    std::vector<TermRef> Kept;
    for (TermRef C : Conjs) {
      TermRef Key = nullptr, Rhs = nullptr;
      if (C->getKind() == TermKind::Eq) {
        if (C->getArg(1)->getKind() == TermKind::Var) {
          Key = C->getArg(1);
          Rhs = C->getArg(0);
        } else if (C->getArg(0)->getKind() == TermKind::Var) {
          Key = C->getArg(0);
          Rhs = C->getArg(1);
        }
      } else if (C->getKind() == TermKind::Var) {
        Key = C;
        Rhs = TM.mkTrue();
      } else if (C->getKind() == TermKind::Not &&
                 C->getArg(0)->getKind() == TermKind::Var) {
        Key = C->getArg(0);
        Rhs = TM.mkFalse();
      }
      bool Accept = Key && !Map.count(Key) && !RhsVars.count(Key);
      std::unordered_set<TermRef> CandVars;
      if (Accept) {
        CandVars = VarsOf(Rhs);
        Accept = !CandVars.count(Key) &&
                 std::none_of(CandVars.begin(), CandVars.end(),
                              [&](TermRef V) { return Map.count(V) != 0; });
      }
      if (!Accept) {
        Kept.push_back(C);
        continue;
      }
      Map.emplace(Key, Rhs);
      Eliminated.emplace_back(Key, Rhs);
      RhsVars.insert(CandVars.begin(), CandVars.end());
    }
    if (Map.empty())
      break;
    std::vector<TermRef> Next;
    for (TermRef C : Kept)
      Next.push_back(Simp.rewrite(TM.substitute(C, Map)));
    Claim = Simp.rewrite(TM.substitute(Claim, Map));
    Guard = TM.mkAnd(Next);
  }
  if (Claim == TM.mkTrue() || Guard == TM.mkFalse())
    return true;
  std::vector<TermRef> Conjs = Conjuncts(Guard);
  std::unordered_set<TermRef> GuardSet(Conjs.begin(), Conjs.end());
  auto InGuard = [&](TermRef C) { return GuardSet.count(C) != 0; };
  if (InGuard(Claim))
    return true;
  const std::vector<TermRef> &Parts = Claim->getArgs();
  if (Claim->getKind() == TermKind::And)
    return std::all_of(Parts.begin(), Parts.end(), InGuard);
  if (Claim->getKind() == TermKind::Or)
    return std::any_of(Parts.begin(), Parts.end(), InGuard);
  return false;
}

/// One Simplifier for a whole batch (guard runs shared across the
/// batch) against the per-obligation loop in a second manager built by
/// the same construction sequence: same discharges, same eliminations,
/// same result terms by id, and the same number of terms in the end.
/// \p Replays counts obligations whose guard an earlier one of the batch
/// had; \p LazyExtensions counts those that needed round 3 or later
/// while every earlier obligation with their guard stopped after round 1.
void runSharedGuardDifferential(uint32_t Seed, unsigned Iters,
                                unsigned Depth, unsigned &Replays,
                                unsigned &LazyExtensions) {
  std::mt19937 RngA(Seed), RngB(Seed);
  for (unsigned I = 0; I < Iters; ++I) {
    TermManager A, B;
    std::vector<GuardClaim> BatchA = makeSharedGuardBatch(A, RngA, Depth);
    std::vector<GuardClaim> BatchB = makeSharedGuardBatch(B, RngB, Depth);
    ASSERT_EQ(BatchA.size(), BatchB.size());
    ASSERT_EQ(A.numTerms(), B.numTerms());
    Simplifier Batch(A);
    std::unordered_map<unsigned, unsigned> MostRounds; // guard id -> rounds
    for (size_t K = 0; K < BatchA.size(); ++K) {
      TermRef GA = BatchA[K].Guard, CA = BatchA[K].Claim;
      TermRef GB = BatchB[K].Guard, CB = BatchB[K].Claim;
      ASSERT_EQ(GA->getId(), GB->getId());
      std::vector<Elimination> ElimA, ElimB;
      unsigned Rounds = 0;
      bool ProvedA = Batch.simplifyObligation(GA, CA, &ElimA);
      bool ProvedB = simplifyPerObligation(B, GB, CB, ElimB, Rounds);
      std::string Where = "seed " + std::to_string(Seed) + ", batch " +
                          std::to_string(I) + ", obligation " +
                          std::to_string(K);
      EXPECT_EQ(ProvedA, ProvedB) << Where;
      EXPECT_EQ(GA->getId(), GB->getId()) << Where;
      EXPECT_EQ(CA->getId(), CB->getId()) << Where;
      ASSERT_EQ(ElimA.size(), ElimB.size()) << Where;
      for (size_t E = 0; E < ElimA.size(); ++E) {
        EXPECT_EQ(ElimA[E].first->getId(), ElimB[E].first->getId()) << Where;
        EXPECT_EQ(ElimA[E].second->getId(), ElimB[E].second->getId())
            << Where;
      }
      auto [It, First] = MostRounds.emplace(BatchB[K].Guard->getId(), Rounds);
      if (!First) {
        ++Replays;
        LazyExtensions += It->second == 1 && Rounds >= 3;
        It->second = std::max(It->second, Rounds);
      }
    }
    EXPECT_EQ(A.numTerms(), B.numTerms()) << "seed " << Seed << ", batch "
                                          << I;
  }
}

// The same three seeds and iteration counts as the solver fuzzer: 600
// formulas total per harness.
TEST(PipelineFuzzTest, RewriteShallow) {
  unsigned Decided = 0;
  runRewriteDifferential(/*Seed=*/0xC0FFEE, /*Iters=*/300, /*Depth=*/3,
                         Decided);
  EXPECT_GT(Decided, 200u);
}

TEST(PipelineFuzzTest, RewriteDeep) {
  unsigned Decided = 0;
  runRewriteDifferential(/*Seed=*/0xDECAF, /*Iters=*/200, /*Depth=*/4,
                         Decided);
  EXPECT_GT(Decided, 120u);
}

TEST(PipelineFuzzTest, RewriteArrayHeavy) {
  unsigned Decided = 0;
  runRewriteDifferential(/*Seed=*/0xBADF00D, /*Iters=*/100, /*Depth=*/5,
                         Decided);
  EXPECT_GT(Decided, 50u);
}

TEST(PipelineFuzzTest, ObligationShallow) {
  unsigned Decided = 0;
  runPipelineDifferential(/*Seed=*/0xC0FFEE, /*Iters=*/300, /*Depth=*/3,
                          Decided);
  EXPECT_GT(Decided, 200u);
}

TEST(PipelineFuzzTest, ObligationDeep) {
  unsigned Decided = 0;
  runPipelineDifferential(/*Seed=*/0xDECAF, /*Iters=*/200, /*Depth=*/4,
                          Decided);
  EXPECT_GT(Decided, 120u);
}

TEST(PipelineFuzzTest, ObligationArrayHeavy) {
  unsigned Decided = 0;
  runPipelineDifferential(/*Seed=*/0xBADF00D, /*Iters=*/100, /*Depth=*/5,
                          Decided);
  EXPECT_GT(Decided, 50u);
}

TEST(PipelineFuzzTest, ObligationModelsExtend) {
  unsigned Decided = 0, Extended = 0;
  runModelExtension(/*Seed=*/0xE1A57, /*Iters=*/300, /*Depth=*/3, Decided,
                    Extended);
  runModelExtension(/*Seed=*/0x5EED5, /*Iters=*/100, /*Depth=*/4, Decided,
                    Extended);
  EXPECT_GT(Decided, 200u);
  EXPECT_GT(Extended, 180u);
}

TEST(PipelineFuzzTest, SharedGuardRunsMatchPerObligation) {
  unsigned Replays = 0, LazyExtensions = 0;
  runSharedGuardDifferential(/*Seed=*/0x6A4D5, /*Iters=*/150, /*Depth=*/3,
                             Replays, LazyExtensions);
  runSharedGuardDifferential(/*Seed=*/0x5A4ED, /*Iters=*/50, /*Depth=*/4,
                             Replays, LazyExtensions);
  EXPECT_GT(Replays, 1000u);
  EXPECT_GT(LazyExtensions, 120u);
}

} // namespace
