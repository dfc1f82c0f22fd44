//===- bench/bench_smt_micro.cpp - Solver substrate micro-benchmarks -------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E7 (DESIGN.md): google-benchmark micro-benchmarks for the solver
/// substrate the reproduction is built on — SAT search (pigeonhole), EUF
/// congruence chains, simplex feasibility, and the generalized-array
/// reduction pattern used by parameterized map updates (Appendix A.3).
///
//===----------------------------------------------------------------------===//

#include "smt/SolverContext.h"

#include <benchmark/benchmark.h>

using namespace ids;
using namespace ids::smt;

static void BM_SatPigeonhole(benchmark::State &State) {
  const int Holes = static_cast<int>(State.range(0));
  for (auto _ : State) {
    sat::SatSolver S;
    std::vector<std::vector<sat::Var>> P(Holes + 1);
    for (auto &Row : P)
      for (int H = 0; H < Holes; ++H)
        Row.push_back(S.newVar());
    for (auto &Row : P) {
      std::vector<sat::Lit> C;
      for (int H = 0; H < Holes; ++H)
        C.push_back(sat::Lit(Row[H], false));
      S.addClause(C);
    }
    for (int H = 0; H < Holes; ++H)
      for (int I = 0; I <= Holes; ++I)
        for (int J = I + 1; J <= Holes; ++J)
          S.addClause({sat::Lit(P[I][H], true), sat::Lit(P[J][H], true)});
    benchmark::DoNotOptimize(S.solve());
  }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(6)->Arg(7);

static void BM_EufCongruenceChain(benchmark::State &State) {
  const int Depth = static_cast<int>(State.range(0));
  for (auto _ : State) {
    TermManager TM;
    const FuncDecl *F =
        TM.getFuncDecl("f", {TM.locSort()}, TM.locSort());
    TermRef A = TM.mkVar("a", TM.locSort());
    TermRef B = TM.mkVar("b", TM.locSort());
    TermRef FA = A, FB = B;
    for (int I = 0; I < Depth; ++I) {
      FA = TM.mkApply(F, {FA});
      FB = TM.mkApply(F, {FB});
    }
    // a = b && f^n(a) != f^n(b): UNSAT via congruence.
    SolverContext S(TM, {});
    S.assertTerm(TM.mkAnd(TM.mkEq(A, B), TM.mkDistinct(FA, FB)));
    benchmark::DoNotOptimize(S.checkSat());
  }
}
BENCHMARK(BM_EufCongruenceChain)->Arg(8)->Arg(32)->Arg(128);

static void BM_SimplexChain(benchmark::State &State) {
  const int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    TermManager TM;
    std::vector<TermRef> Xs;
    for (int I = 0; I < N; ++I)
      Xs.push_back(TM.mkVar("x" + std::to_string(I), TM.ratSort()));
    // x0 < x1 < ... < x_{n-1} < x0: UNSAT cycle.
    std::vector<TermRef> Cs;
    for (int I = 0; I + 1 < N; ++I)
      Cs.push_back(TM.mkLt(Xs[I], Xs[I + 1]));
    Cs.push_back(TM.mkLt(Xs[N - 1], Xs[0]));
    SolverContext S(TM, {});
    S.assertTerm(TM.mkAnd(Cs));
    benchmark::DoNotOptimize(S.checkSat());
  }
}
BENCHMARK(BM_SimplexChain)->Arg(8)->Arg(32)->Arg(64);

static void BM_ParameterizedMapUpdate(benchmark::State &State) {
  const int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    TermManager TM;
    const Sort *ArrS = TM.getArraySort(TM.locSort(), TM.intSort());
    const Sort *SetS = TM.getArraySort(TM.locSort(), TM.boolSort());
    TermRef M = TM.mkVar("M", ArrS);
    TermRef H = TM.mkVar("H", ArrS);
    TermRef Mod = TM.mkVar("Mod", SetS);
    TermRef Upd = TM.mkPwIte(Mod, H, M);
    std::vector<TermRef> Cs;
    for (int I = 0; I < N; ++I) {
      TermRef O = TM.mkVar("o" + std::to_string(I), TM.locSort());
      Cs.push_back(TM.mkNot(TM.mkMember(O, Mod)));
      Cs.push_back(TM.mkEq(TM.mkSelect(Upd, O), TM.mkSelect(M, O)));
    }
    // All frame equalities hold: SAT query exercising the reduction.
    SolverContext S(TM, {});
    S.assertTerm(TM.mkAnd(Cs));
    benchmark::DoNotOptimize(S.checkSat());
  }
}
BENCHMARK(BM_ParameterizedMapUpdate)->Arg(4)->Arg(16)->Arg(32);

BENCHMARK_MAIN();
