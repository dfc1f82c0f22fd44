//===- tests/pipeline/ParallelStressTest.cpp - --jobs differential test ----===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel dispatch must be invisible in the verdicts: the full embedded
/// suite (procedures and impact checks) run at --jobs 8 — the shared task
/// queue, snapshot term managers and all — must produce exactly the
/// verdicts of the serial --jobs 1 run, which in turn must match each
/// benchmark's registry expectations. Eight workers on any host forces
/// heavy oversubscription even on small core counts, which is the point
/// of the stress.
///
//===----------------------------------------------------------------------===//

#include "driver/Verifier.h"
#include "structures/Registry.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

using namespace ids;

namespace {

const char *statusName(driver::Status St) {
  switch (St) {
  case driver::Status::Verified:
    return "verified";
  case driver::Status::Failed:
    return "failed";
  case driver::Status::Unknown:
    break;
  }
  return "unknown";
}

/// Every verdict the suite produces under --jobs N, keyed
/// "bench:proc" / "bench!field/group" so omissions surface as missing
/// keys rather than silently shrinking the comparison.
std::map<std::string, std::string> runSuite(unsigned Jobs) {
  std::map<std::string, std::string> Verdicts;
  for (const structures::Benchmark &B : structures::allBenchmarks()) {
    DiagEngine Diags;
    driver::VerifyOptions Opts;
    Opts.Jobs = Jobs;
    Opts.QueryTimeoutSeconds = 300;
    if (B.DefaultBudget > 0)
      Opts.MaxTheoryChecks = B.DefaultBudget;
    driver::ModuleResult M = driver::verifySource(B.Source, Opts, Diags);
    EXPECT_TRUE(M.FrontEndOk) << B.Name << ": " << Diags.toString();
    for (const driver::ProcResult &P : M.Procs)
      Verdicts[std::string(B.Name) + ":" + P.Name] = statusName(P.St);
    for (const driver::ImpactResult &I : M.Impacts)
      Verdicts[std::string(B.Name) + "!" + I.Field + "/" + I.Group] =
          I.Ok ? "ok" : "refuted";
  }
  return Verdicts;
}

TEST(ParallelStressTest, Jobs8MatchesJobs1AcrossFullSuite) {
  std::map<std::string, std::string> Serial = runSuite(1);
  std::map<std::string, std::string> Parallel = runSuite(8);

  ASSERT_FALSE(Serial.empty());
  EXPECT_EQ(Serial.size(), Parallel.size());
  for (const auto &KV : Serial) {
    auto It = Parallel.find(KV.first);
    ASSERT_NE(It, Parallel.end()) << "missing under --jobs 8: " << KV.first;
    EXPECT_EQ(It->second, KV.second) << KV.first;
  }

  // And the serial baseline itself matches the registry's expectations,
  // so "both wrong the same way" can't pass.
  for (const structures::Benchmark &B : structures::allBenchmarks())
    for (const structures::ProcExpectation &E : B.Expected) {
      auto It = Serial.find(std::string(B.Name) + ":" + E.Proc);
      ASSERT_NE(It, Serial.end()) << B.Name << ":" << E.Proc;
      EXPECT_EQ(It->second, E.Status) << B.Name << ":" << E.Proc;
    }
}

} // namespace
