//===- tests/driver/MainTest.cpp - Driver facade / CLI-surface tests -------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the driver-layer surface the `ids-verify` CLI is built on: the
/// embedded benchmark registry (--list / --benchmark resolution), the
/// front-end entry points including the bad-input paths that map to CLI
/// exit code 2, command-line parsing (strict numeric validation and
/// missing-argument reporting), and the VerifierInstance warm state —
/// procedure-verdict replay within a process and across processes via
/// --cache-dir. Process-level exit codes themselves are pinned by the
/// driver_cli_* ctest entries registered in CMakeLists.txt.
///
//===----------------------------------------------------------------------===//

#include "driver/Cli.h"
#include "driver/Verifier.h"
#include "driver/VerifierInstance.h"
#include "structures/Registry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <unistd.h>
#include <vector>

using namespace ids;

namespace {

TEST(RegistryTest, ListIsNonEmptyAndUnique) {
  const std::vector<structures::Benchmark> &All = structures::allBenchmarks();
  ASSERT_FALSE(All.empty());
  std::set<std::string> Names;
  for (const structures::Benchmark &B : All) {
    ASSERT_NE(B.Name, nullptr);
    ASSERT_NE(B.Table2Name, nullptr);
    ASSERT_NE(B.Source, nullptr);
    EXPECT_TRUE(Names.insert(B.Name).second)
        << "duplicate registry key: " << B.Name;
  }
}

TEST(RegistryTest, FindBenchmarkRoundTrips) {
  for (const structures::Benchmark &B : structures::allBenchmarks()) {
    const structures::Benchmark *Found = structures::findBenchmark(B.Name);
    ASSERT_NE(Found, nullptr) << B.Name;
    EXPECT_EQ(Found->Source, B.Source) << B.Name;
    EXPECT_EQ(structures::findBenchmarkSource(B.Name), B.Source) << B.Name;
  }
}

TEST(RegistryTest, FindBenchmarkUnknownIsNull) {
  EXPECT_EQ(structures::findBenchmark("no-such-structure"), nullptr);
  EXPECT_EQ(structures::findBenchmark(""), nullptr);
  EXPECT_EQ(structures::findBenchmarkSource("no-such-structure"), nullptr);
}

TEST(RegistryTest, MetadataIsComplete) {
  // The metadata-driven registry: every entry carries a description,
  // tags and at least one expected per-procedure verdict, and every
  // expectation names a legal status.
  for (const structures::Benchmark &B : structures::allBenchmarks()) {
    EXPECT_NE(B.Description, nullptr) << B.Name;
    EXPECT_NE(B.Tags, nullptr) << B.Name;
    ASSERT_FALSE(B.Expected.empty()) << B.Name;
    for (const structures::ProcExpectation &E : B.Expected) {
      std::string St = E.Status;
      EXPECT_TRUE(St == "verified" || St == "unknown" || St == "failed")
          << B.Name << "." << E.Proc << ": " << St;
    }
    EXPECT_EQ(B.expectedStatus("no-such-proc"), nullptr);
  }
}

TEST(DriverTest, FrontEndAcceptsEveryBenchmark) {
  for (const structures::Benchmark &B : structures::allBenchmarks()) {
    DiagEngine Diags;
    std::unique_ptr<lang::Module> M = driver::frontEnd(B.Source, Diags);
    EXPECT_NE(M, nullptr) << B.Name << ": " << Diags.toString();
  }
}

TEST(DriverTest, FrontEndRejectsGarbage) {
  DiagEngine Diags;
  std::unique_ptr<lang::Module> M =
      driver::frontEnd("this is not an ids module", Diags);
  EXPECT_EQ(M, nullptr);
  EXPECT_FALSE(Diags.toString().empty());
}

TEST(DriverTest, VerifySourceReportsFrontEndFailure) {
  DiagEngine Diags;
  driver::VerifyOptions Opts;
  driver::ModuleResult R = driver::verifySource("garbage {", Opts, Diags);
  EXPECT_FALSE(R.FrontEndOk);
  EXPECT_FALSE(R.allVerified());
}

//===----------------------------------------------------------------------===//
// CLI parsing
//===----------------------------------------------------------------------===//

driver::CliArgs parse(std::vector<const char *> Args) {
  Args.insert(Args.begin(), "ids-verify");
  return driver::parseCli(static_cast<int>(Args.size()), Args.data());
}

TEST(CliTest, NoInputMeansUsage) {
  driver::CliArgs A = parse({});
  EXPECT_TRUE(A.ok());
  EXPECT_EQ(A.Cmd, driver::CliArgs::Command::Usage);
}

TEST(CliTest, CommandsResolve) {
  EXPECT_EQ(parse({"--list"}).Cmd, driver::CliArgs::Command::List);
  EXPECT_EQ(parse({"foo.ids"}).Cmd, driver::CliArgs::Command::OneShot);
  EXPECT_EQ(parse({"--benchmark", "bst"}).Cmd,
            driver::CliArgs::Command::OneShot);
  EXPECT_EQ(parse({"--benchmark", "all"}).Cmd,
            driver::CliArgs::Command::BenchAll);
  EXPECT_EQ(parse({"serve"}).Cmd, driver::CliArgs::Command::Serve);
}

TEST(CliTest, ServeTakesNoInputArgument) {
  EXPECT_FALSE(parse({"serve", "--benchmark", "bst"}).ok());
  EXPECT_FALSE(parse({"serve", "--list"}).ok());
  EXPECT_FALSE(parse({"--benchmark", "bst", "serve"}).ok());
  // But serve composes with option flags.
  driver::CliArgs A = parse({"serve", "--cache-dir", "/tmp/c", "--jobs", "2"});
  EXPECT_TRUE(A.ok()) << A.Error;
  EXPECT_EQ(A.Cmd, driver::CliArgs::Command::Serve);
  EXPECT_EQ(A.CacheDir, "/tmp/c");
}

TEST(CliTest, NumericFlagsRejectGarbage) {
  // The regression this parser exists for: atoi("abc") == 0 used to mean
  // "every core", and (unsigned)atoi("-4") was ~4 billion workers.
  for (const char *Flag :
       {"--jobs", "--splits", "--budget", "--timeout", "--request-timeout"}) {
    for (const char *Bad : {"abc", "-4", "", "12x", "--stats"}) {
      driver::CliArgs A = parse({Flag, Bad});
      EXPECT_FALSE(A.ok()) << Flag << " " << Bad;
      EXPECT_NE(A.Error.find(std::string("invalid value for ") + Flag),
                std::string::npos)
          << Flag << " " << Bad << " -> " << A.Error;
    }
  }
  // Integer flags additionally reject fractions; the seconds flags accept
  // them.
  EXPECT_FALSE(parse({"--jobs", "1.5"}).ok());
  EXPECT_FALSE(parse({"--budget", "1e3"}).ok());
  EXPECT_TRUE(parse({"--timeout", "1.5", "--list"}).ok());
  EXPECT_FALSE(parse({"--jobs", "2000"}).ok()); // above the worker cap
}

TEST(CliTest, MissingArgumentNamesTheFlag) {
  for (const char *Flag :
       {"--jobs", "--splits", "--budget", "--timeout", "--request-timeout",
        "--proc", "--benchmark", "--cache-dir", "--trace-out",
        "--stats-json", "--slow-query-ms", "--slow-query-log"}) {
    driver::CliArgs A = parse({Flag});
    EXPECT_FALSE(A.ok()) << Flag;
    EXPECT_EQ(A.Error, std::string("missing argument for ") + Flag);
  }
}

TEST(CliTest, UnknownOptionRejected) {
  driver::CliArgs A = parse({"--no-such-flag"});
  EXPECT_FALSE(A.ok());
  EXPECT_NE(A.Error.find("unknown option"), std::string::npos);
}

TEST(CliTest, ValuesLandInOptions) {
  driver::CliArgs A =
      parse({"--jobs", "4", "--splits", "8", "--budget", "100", "--timeout",
             "1.5", "--request-timeout", "30", "--proc", "insert",
             "--cache-dir", "/tmp/c", "--no-reverify-cache", "--stats",
             "--benchmark", "bst"});
  ASSERT_TRUE(A.ok()) << A.Error;
  EXPECT_EQ(A.Opts.Jobs, 4u);
  EXPECT_EQ(A.Opts.VcSplits, 8u);
  EXPECT_EQ(A.Opts.MaxTheoryChecks, 100u);
  EXPECT_DOUBLE_EQ(A.Opts.QueryTimeoutSeconds, 1.5);
  EXPECT_DOUBLE_EQ(A.Opts.TotalTimeoutSeconds, 30.0);
  EXPECT_EQ(A.Opts.OnlyProc, "insert");
  EXPECT_EQ(A.CacheDir, "/tmp/c");
  EXPECT_FALSE(A.Opts.ReuseProcVerdicts);
  EXPECT_TRUE(A.ShowStats);
  EXPECT_EQ(A.BenchName, "bst");
}

TEST(CliTest, ObservabilityFlagsLand) {
  driver::CliArgs A = parse({"--benchmark", "bst", "--trace-out", "t.json",
                             "--stats-json", "s.json", "--slow-query-ms",
                             "250", "--slow-query-log", "slow.jsonl"});
  ASSERT_TRUE(A.ok()) << A.Error;
  EXPECT_EQ(A.TraceOut, "t.json");
  EXPECT_EQ(A.StatsJson, "s.json");
  EXPECT_DOUBLE_EQ(A.SlowQueryMs, 250.0);
  EXPECT_EQ(A.SlowQueryLog, "slow.jsonl");
}

TEST(CliTest, SlowQueryThresholdDefaultsTheSink) {
  driver::CliArgs A = parse({"--benchmark", "bst", "--slow-query-ms", "10"});
  ASSERT_TRUE(A.ok()) << A.Error;
  EXPECT_EQ(A.SlowQueryLog, "ids-slow-queries.jsonl");
  // ...but a sink without a threshold would silently never record.
  driver::CliArgs B =
      parse({"--benchmark", "bst", "--slow-query-log", "slow.jsonl"});
  EXPECT_FALSE(B.ok());
  EXPECT_NE(B.Error.find("--slow-query-ms"), std::string::npos);
  // Off stays off: no default sink materializes.
  driver::CliArgs C = parse({"--benchmark", "bst"});
  ASSERT_TRUE(C.ok());
  EXPECT_TRUE(C.SlowQueryLog.empty());
  EXPECT_FALSE(parse({"--slow-query-ms", "-5", "--benchmark", "bst"}).ok());
}

//===----------------------------------------------------------------------===//
// VerifierInstance warm state
//===----------------------------------------------------------------------===//

class VerifierInstanceTest : public ::testing::Test {
protected:
  void SetUp() override {
    Source = structures::findBenchmarkSource("singly-linked-list");
    ASSERT_NE(Source, nullptr);
    Dir = std::filesystem::temp_directory_path() /
          ("idsvi_test_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  const char *Source = nullptr;
  std::filesystem::path Dir;
};

TEST_F(VerifierInstanceTest, SecondVerifyReplaysVerdicts) {
  driver::VerifierInstance Inst;
  driver::VerifyOptions Opts;
  DiagEngine D1, D2;
  driver::ModuleResult R1 = Inst.verify(Source, Opts, D1);
  ASSERT_TRUE(R1.FrontEndOk) << D1.toString();
  for (const driver::ProcResult &P : R1.Procs)
    EXPECT_FALSE(P.Cached) << P.Name;

  driver::ModuleResult R2 = Inst.verify(Source, Opts, D2);
  ASSERT_TRUE(R2.FrontEndOk) << D2.toString();
  ASSERT_EQ(R2.Procs.size(), R1.Procs.size());
  for (size_t I = 0; I < R2.Procs.size(); ++I) {
    EXPECT_TRUE(R2.Procs[I].Cached) << R2.Procs[I].Name;
    EXPECT_EQ(R2.Procs[I].St, R1.Procs[I].St) << R2.Procs[I].Name;
    EXPECT_EQ(R2.Procs[I].Name, R1.Procs[I].Name);
  }
  ASSERT_EQ(R2.Impacts.size(), R1.Impacts.size());
  for (const driver::ImpactResult &I : R2.Impacts) {
    EXPECT_TRUE(I.Cached) << I.Field;
    EXPECT_TRUE(I.Ok) << I.Field;
  }
  EXPECT_EQ(Inst.stats().ProcsCached, R1.Procs.size());
  EXPECT_EQ(Inst.stats().Requests, 2u);
}

TEST_F(VerifierInstanceTest, ReuseDisabledForcesResolve) {
  driver::VerifierInstance Inst;
  driver::VerifyOptions Opts;
  DiagEngine D1, D2;
  driver::ModuleResult R1 = Inst.verify(Source, Opts, D1);
  ASSERT_TRUE(R1.FrontEndOk) << D1.toString();

  Opts.ReuseProcVerdicts = false;
  driver::ModuleResult R2 = Inst.verify(Source, Opts, D2);
  ASSERT_TRUE(R2.FrontEndOk) << D2.toString();
  for (const driver::ProcResult &P : R2.Procs) {
    EXPECT_FALSE(P.Cached) << P.Name;
    EXPECT_EQ(P.St, driver::Status::Verified) << P.Name;
  }
  // Even re-solving, the structural query cache still serves the repeat
  // queries.
  EXPECT_GT(Inst.queryCache().diskStats().Hits, 0u);
}

TEST_F(VerifierInstanceTest, VerdictsRoundTripAcrossInstances) {
  driver::VerifyOptions Opts;
  size_t NumProcs = 0;
  {
    driver::VerifierInstance A;
    std::string Err;
    ASSERT_TRUE(A.attachCacheDir(Dir.string(), Err)) << Err;
    DiagEngine D;
    driver::ModuleResult R = A.verify(Source, Opts, D);
    ASSERT_TRUE(R.FrontEndOk) << D.toString();
    NumProcs = R.Procs.size();
    EXPECT_GT(A.stats().VerdictsRecorded, 0u);
  }
  driver::VerifierInstance B;
  std::string Err;
  ASSERT_TRUE(B.attachCacheDir(Dir.string(), Err)) << Err;
  EXPECT_GT(B.stats().VerdictsLoadedFromDisk, 0u);
  DiagEngine D;
  driver::ModuleResult R = B.verify(Source, Opts, D);
  ASSERT_TRUE(R.FrontEndOk) << D.toString();
  ASSERT_EQ(R.Procs.size(), NumProcs);
  for (const driver::ProcResult &P : R.Procs) {
    EXPECT_TRUE(P.Cached) << P.Name;
    EXPECT_EQ(P.St, driver::Status::Verified) << P.Name;
  }
}

TEST_F(VerifierInstanceTest, LaterAttachAppendsAfterEarlierWriter) {
  // A creates verdicts.v1, B attaches to it and records its verdicts
  // first, then A records verdicts of another module: A must append at
  // the end of file, not at its own offset over B's records.
  const char *Other = structures::findBenchmarkSource("circular-list");
  ASSERT_NE(Other, nullptr);
  driver::VerifyOptions Opts;
  uint64_t Recorded = 0;
  {
    driver::VerifierInstance A, B;
    std::string Err;
    ASSERT_TRUE(A.attachCacheDir(Dir.string(), Err)) << Err;
    ASSERT_TRUE(B.attachCacheDir(Dir.string(), Err)) << Err;
    DiagEngine DB, DA;
    ASSERT_TRUE(B.verify(Source, Opts, DB).FrontEndOk) << DB.toString();
    ASSERT_TRUE(A.verify(Other, Opts, DA).FrontEndOk) << DA.toString();
    ASSERT_GT(B.stats().VerdictsRecorded, 0u);
    ASSERT_GT(A.stats().VerdictsRecorded, 0u);
    Recorded = A.stats().VerdictsRecorded + B.stats().VerdictsRecorded;
  }
  driver::VerifierInstance Reload;
  std::string Err;
  ASSERT_TRUE(Reload.attachCacheDir(Dir.string(), Err)) << Err;
  EXPECT_EQ(Reload.stats().VerdictsLoadedFromDisk, Recorded);
}

TEST_F(VerifierInstanceTest, RequestDeadlineReportsUnknown) {
  driver::VerifierInstance Inst;
  driver::VerifyOptions Opts;
  Opts.TotalTimeoutSeconds = 1e-9; // expires before any procedure runs
  DiagEngine D;
  driver::ModuleResult R = Inst.verify(Source, Opts, D);
  ASSERT_TRUE(R.FrontEndOk) << D.toString();
  EXPECT_FALSE(R.allVerified());
  for (const driver::ProcResult &P : R.Procs) {
    EXPECT_EQ(P.St, driver::Status::Unknown) << P.Name;
    EXPECT_NE(P.FailedObligation.find("wall-clock"), std::string::npos)
        << P.Name;
  }
  for (const driver::ImpactResult &I : R.Impacts) {
    EXPECT_FALSE(I.Ok) << I.Field;
    EXPECT_TRUE(I.TimedOut) << I.Field;
  }
  // Deadline Unknowns are budget artifacts: none may enter the verdict
  // cache, so a later unbudgeted verify must actually solve — and prove.
  Opts.TotalTimeoutSeconds = 0;
  DiagEngine D2;
  driver::ModuleResult R2 = Inst.verify(Source, Opts, D2);
  ASSERT_TRUE(R2.FrontEndOk) << D2.toString();
  EXPECT_TRUE(R2.allVerified());
  for (const driver::ProcResult &P : R2.Procs)
    EXPECT_FALSE(P.Cached) << P.Name;
}

TEST(DriverTest, OnlyProcRestrictsVerification) {
  // Verify a single procedure of the first benchmark; the result must
  // contain exactly the requested procedure.
  const std::vector<structures::Benchmark> &All = structures::allBenchmarks();
  ASSERT_FALSE(All.empty());
  DiagEngine ParseDiags;
  std::unique_ptr<lang::Module> M =
      driver::frontEnd(All[0].Source, ParseDiags);
  ASSERT_NE(M, nullptr) << ParseDiags.toString();
  ASSERT_FALSE(M->Procs.empty());
  const std::string Target = M->Procs[0].Name;

  DiagEngine Diags;
  driver::VerifyOptions Opts;
  Opts.OnlyProc = Target;
  Opts.CheckImpacts = false;
  driver::ModuleResult R = driver::verifySource(All[0].Source, Opts, Diags);
  ASSERT_TRUE(R.FrontEndOk) << Diags.toString();
  ASSERT_EQ(R.Procs.size(), 1u);
  EXPECT_EQ(R.Procs[0].Name, Target);
}

} // namespace
