//===- perfbench/SelfTest.cpp - The benchmark's own tests ------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the benchmark itself, not the verifier: the tail-percentile
/// rule, that a seed fixes the request script, and that every generated
/// edit is well-formed and changes exactly its procedure's VC key. Exits
/// nonzero when any check fails.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

using namespace ids;
using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  if (!Ok) {
    ++Failures;
    std::printf("FAIL: %s\n", What.c_str());
  }
}

void testTailRule() {
  // 1..1000: the highest percentile with ten samples beyond it is p99,
  // value 990, with exactly ten samples (991..1000) above.
  std::vector<double> V;
  for (int I = 1000; I >= 1; --I)
    V.push_back(I);
  Tail T = tailOf(V);
  check(T.Valid && T.Value == 990 && T.Beyond == 10 && T.Samples == 1000 &&
            std::fabs(T.Percentile - 99.0) < 1e-9,
        "tail of 1..1000 is p99 = 990 with 10 beyond");
  // 5000 samples: p99.8, the percentile the rule names at that size.
  V.clear();
  for (int I = 1; I <= 5000; ++I)
    V.push_back(I);
  T = tailOf(V);
  check(T.Valid && T.Value == 4990 && std::fabs(T.Percentile - 99.8) < 1e-9,
        "tail of 1..5000 is p99.8");
  // Eleven samples is the smallest valid size: the minimum, ten beyond.
  V.assign(11, 0);
  for (int I = 0; I < 11; ++I)
    V[I] = 11 - I;
  T = tailOf(V);
  check(T.Valid && T.Value == 1 && T.Beyond == 10, "tail of 11 samples");
  V.pop_back();
  check(!tailOf(V).Valid, "no tail below 11 samples");
  check(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5, "median");
}

std::string fingerprint(const Round &R) {
  std::string S;
  for (const Group &G : R.Groups) {
    S += "|";
    for (const Request &Q : G.Requests)
      S += std::string(kindName(Q.K)) + ":" + Q.Bench->Name + ":" +
           Q.Opts.OnlyProc + ":" + Q.Edited + ":" +
           std::to_string(std::hash<std::string>()(Q.Source)) + ";";
  }
  return S;
}

void testSeedFixesScript() {
  for (Workload W : {Workload::LightCold, Workload::EditLoop}) {
    ScriptGen A(W, 7), B(W, 7), C(W, 8);
    bool Same = true, Differs = false;
    for (int I = 0; I < 3; ++I) {
      std::string FA = fingerprint(A.next());
      Same = Same && FA == fingerprint(B.next());
      Differs = Differs || FA != fingerprint(C.next());
    }
    check(Same, std::string(workloadName(W)) + ": same seed, same script");
    check(Differs,
          std::string(workloadName(W)) + ": another seed, another script");
  }
}

/// An edit round opens every edit module once and refutes each definitive
/// mutant once.
void testEditRoundMix() {
  ScriptGen G(Workload::EditLoop, 3);
  Round R = G.next();
  size_t Refutes = 0, Edits = 0;
  std::set<std::string> Modules;
  for (const Group &Gr : R.Groups) {
    Modules.insert(Gr.Requests.front().Bench->Name);
    check(Gr.Requests.front().K == Kind::Open, "a session starts open");
    for (size_t I = 1; I < Gr.Requests.size(); ++I) {
      ++Edits;
      Refutes += Gr.Requests[I].K == Kind::Refute;
    }
  }
  check(Modules.size() == editModules().size(),
        "an edit round opens every edit module once");
  size_t Definitive = 0;
  for (const Mutant &M : mutantTable())
    Definitive += !M.KnownUnknown;
  check(Refutes == Definitive, "an edit round refutes each mutant once");
  check(4 * Refutes >= Edits - 8 && 4 * Refutes <= Edits + 8,
        "about one edit in four is a refute");
}

/// Keys of \p Edited against the base keys: same names, and only \p Proc
/// differs.
void checkOnlyKeyChanged(const std::string &What, const std::string &Base,
                         const std::string &Edited, const std::string &Proc) {
  auto KB = vcKeys(Base), KE = vcKeys(Edited);
  check(!KE.empty(), What + ": parses and type-checks");
  if (KE.size() != KB.size())
    return check(false, What + ": same procedures and impact sets");
  for (size_t I = 0; I < KB.size(); ++I) {
    bool Changed = KB[I].second != KE[I].second;
    check(KB[I].first == KE[I].first, What + ": same declaration order");
    check(Changed == (KB[I].first == Proc),
          What + ": key of " + KB[I].first +
              (Changed ? " changed" : " unchanged"));
  }
}

void testEditsChangeOnlyTheirKey() {
  for (const structures::Benchmark *B : editModules()) {
    for (const structures::ProcExpectation &E : B->Expected) {
      std::string What = std::string(B->Name) + ":" + E.Proc + " prove edit";
      std::string A1 = proveEdit(*B, E.Proc, 1001);
      std::string A2 = proveEdit(*B, E.Proc, 1002);
      check(A1 != A2, What + ": literal makes the edit fresh");
      checkOnlyKeyChanged(What, B->Source, A1, E.Proc);
      check(vcKeys(A1) != vcKeys(A2), What + ": fresh literal, fresh key");
    }
  }
  for (const Mutant &M : mutantTable()) {
    const structures::Benchmark *B = structures::findBenchmark(M.Module);
    std::string What = std::string(M.Module) + ":" + M.Proc + " drop `" +
                       M.DroppedLine + "`";
    std::string Src = refuteEdit(*B, M);
    check(!Src.empty(), What + ": dropped line occurs once");
    checkOnlyKeyChanged(What, B->Source, Src, M.Proc);
    check(std::strlen(M.Breaks) > 0, What + ": names the broken conjunct");
  }
}

} // namespace

int main() {
  testTailRule();
  testSeedFixesScript();
  testEditRoundMix();
  testEditsChangeOnlyTheirKey();
  std::printf("%s: %d failed checks\n", Failures ? "FAILED" : "passed",
              Failures);
  return Failures ? 1 : 0;
}
