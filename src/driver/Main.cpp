//===- driver/Main.cpp - ids-verify command line tool ----------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command line front end — a thin dispatcher over the reusable
/// VerifierInstance (parse → typecheck → vcgen → VC pipeline over the
/// instance's warm caches):
///
///   ids-verify FILE.ids            verify a module from a file
///   ids-verify --benchmark NAME    verify an embedded Table 2 benchmark
///   ids-verify --benchmark all     verify the whole embedded suite
///   ids-verify --list              list embedded benchmarks
///   ids-verify serve               line-JSON daemon on stdin/stdout
///
/// Argument parsing/validation lives in Cli.cpp, the serve loop in
/// Serve.cpp. `--cache-dir DIR` makes the instance's caches persistent
/// across runs (solver outcomes + procedure verdicts, versioned
/// append-only files).
///
//===----------------------------------------------------------------------===//

#include "driver/Cli.h"
#include "driver/Serve.h"
#include "driver/VerifierInstance.h"
#include "structures/Registry.h"
#include "support/Trace.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace ids;

static void printPipelineStats(const pipeline::Stats &St) {
  printf("    pipeline: %u obligations (%u simplified away), "
         "%u queries (%u cache hits), max %u atoms / %u array lemmas\n",
         St.Obligations, St.ProvedBySimplify, St.Queries, St.CacheHits,
         St.MaxAtoms, St.MaxArrayLemmas);
}

/// Registry-comparable status key; must produce exactly the strings
/// structures::ProcExpectation::Status uses.
static const char *statusKey(driver::Status St) {
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

static void printResult(const driver::ModuleResult &R, bool ShowStats) {
  printf("structure %s  (LC size: %u conjuncts)\n", R.StructureName.c_str(),
         R.LcSize);
  if (!R.Impacts.empty()) {
    unsigned Bad = 0;
    for (const driver::ImpactResult &I : R.Impacts)
      if (!I.Ok)
        ++Bad;
    printf("impact sets: %zu checked, %u failed (%.2fs)\n",
           R.Impacts.size(), Bad, R.ImpactSeconds);
    if (ShowStats) {
      pipeline::Stats Agg;
      for (const driver::ImpactResult &I : R.Impacts)
        Agg.merge(I.Pipeline);
      printPipelineStats(Agg);
    }
    for (const driver::ImpactResult &I : R.Impacts)
      if (!I.Ok)
        printf("  %s impact %s [%s]\n",
               I.TimedOut ? "TIMEOUT (unchecked)" : "FAILED",
               I.Field.c_str(), I.Group.c_str());
  }
  for (const driver::ProcResult &P : R.Procs) {
    const char *St = P.St == driver::Status::Verified ? "verified"
                     : P.St == driver::Status::Failed ? "FAILED"
                                                      : "unknown";
    printf("  %-24s %3u+%u+%-3u  %3u obligations  %7.2fs  %s\n",
           P.Name.c_str(), P.Metrics.CodeLines, P.Metrics.SpecLines,
           P.Metrics.AnnotLines, P.NumObligations, P.Seconds, St);
    if (ShowStats) {
      if (P.Cached)
        printf("    pipeline: verdict replayed from the procedure cache\n");
      else
        printPipelineStats(P.Pipeline);
    }
    if (P.St != driver::Status::Verified) {
      printf("    obligation: %s\n", P.FailedObligation.c_str());
      if (!P.Counterexample.empty()) {
        printf("    counterexample:\n");
        std::istringstream In(P.Counterexample);
        std::string Line;
        while (std::getline(In, Line))
          printf("      %s\n", Line.c_str());
      }
    }
  }
}

/// Attaches --cache-dir when given; exits 2 on I/O failure.
static bool setupCache(driver::VerifierInstance &Inst,
                       const driver::CliArgs &A) {
  if (A.CacheDir.empty())
    return true;
  std::string Error;
  if (!Inst.attachCacheDir(A.CacheDir, Error)) {
    fprintf(stderr, "%s\n", Error.c_str());
    return false;
  }
  return true;
}

static void printCacheSummary(const driver::VerifierInstance &Inst,
                              const driver::CliArgs &A) {
  if (!A.CacheDir.empty())
    printf("%s\n", Inst.cacheSummary().c_str());
}

static int runList() {
  for (const structures::Benchmark &B : structures::allBenchmarks()) {
    printf("%s  (%s)\n", B.Name, B.Table2Name);
    printf("    %s\n", B.Description);
    printf("    tags: %s", B.Tags);
    if (B.DefaultBudget > 0)
      printf("  [default budget: %llu]",
             (unsigned long long)B.DefaultBudget);
    printf("\n    expected:");
    for (const structures::ProcExpectation &E : B.Expected)
      printf(" %s=%s", E.Proc, E.Status);
    printf("\n");
  }
  return 0;
}

static int runBenchAll(const driver::CliArgs &A) {
  // Verify the whole embedded suite in one invocation on ONE instance
  // (identical queries across benchmarks share the warm cache), applying
  // each benchmark's registry default budget unless the user chose one.
  // Success means every procedure lands on its registry-expected verdict
  // (a budgeted "unknown" on record is not a regression).
  driver::VerifierInstance Inst;
  if (!setupCache(Inst, A))
    return 2;
  int Worst = 0;
  for (const structures::Benchmark &B : structures::allBenchmarks()) {
    driver::VerifyOptions BOpts = A.Opts;
    if (BOpts.MaxTheoryChecks == 0 && B.DefaultBudget > 0)
      BOpts.MaxTheoryChecks = B.DefaultBudget;
    printf("=== %s (%s) ===\n", B.Name, B.Table2Name);
    DiagEngine Diags;
    driver::ModuleResult R = Inst.verify(B.Source, BOpts, Diags);
    if (!R.FrontEndOk) {
      fprintf(stderr, "%s", Diags.toString().c_str());
      return 2;
    }
    printResult(R, A.ShowStats);
    for (const driver::ImpactResult &I : R.Impacts)
      if (!I.Ok)
        Worst = 1;
    for (const driver::ProcResult &P : R.Procs) {
      const char *St = statusKey(P.St);
      const char *Want = B.expectedStatus(P.Name);
      if (std::string(St) != (Want ? Want : "verified")) {
        printf("  MISMATCH: %s expected %s, got %s\n", P.Name.c_str(),
               Want ? Want : "verified", St);
        Worst = 1;
      }
    }
    // The reverse direction (skipped under --proc, which restricts the
    // run on purpose): every registry-expected procedure must have
    // actually run, or a renamed/removed procedure would pass silently.
    if (A.Opts.OnlyProc.empty()) {
      for (const structures::ProcExpectation &E : B.Expected) {
        bool Ran = false;
        for (const driver::ProcResult &P : R.Procs)
          Ran = Ran || P.Name == E.Proc;
        if (!Ran) {
          printf("  MISSING: expected procedure '%s' did not run\n",
                 E.Proc);
          Worst = 1;
        }
      }
    }
  }
  printCacheSummary(Inst, A);
  return Worst;
}

static int runOneShot(const driver::CliArgs &A) {
  std::string Source;
  if (!A.BenchName.empty()) {
    const char *Src = structures::findBenchmarkSource(A.BenchName);
    if (!Src) {
      fprintf(stderr, "unknown benchmark '%s' (try --list)\n",
              A.BenchName.c_str());
      return 2;
    }
    Source = Src;
  } else {
    std::ifstream In(A.File);
    if (!In) {
      fprintf(stderr, "cannot open '%s'\n", A.File.c_str());
      return 2;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
  }
  driver::VerifierInstance Inst;
  if (!setupCache(Inst, A))
    return 2;
  DiagEngine Diags;
  driver::ModuleResult R = Inst.verify(Source, A.Opts, Diags);
  if (!R.FrontEndOk) {
    fprintf(stderr, "%s", Diags.toString().c_str());
    return 2;
  }
  printResult(R, A.ShowStats);
  printCacheSummary(Inst, A);
  return R.allVerified() ? 0 : 1;
}

/// The cumulative metrics footer under --stats: every registry counter,
/// name-sorted — the human rendering of the exact snapshot that
/// --stats-json and serve's {"cmd":"stats"} serialize.
static void printMetricsRegistry() {
  auto Snap = trace::counterSnapshot();
  if (Snap.empty())
    return;
  printf("cumulative metrics:\n");
  for (const auto &[Name, V] : Snap)
    printf("  %s = %llu\n", Name.c_str(), (unsigned long long)V);
}

int main(int Argc, char **Argv) {
  driver::CliArgs A = driver::parseCli(Argc, Argv);
  if (!A.ok()) {
    fprintf(stderr, "%s\n", A.Error.c_str());
    return 2;
  }
  if (!A.TraceOut.empty())
    trace::setSpansEnabled(true);
  if (A.SlowQueryMs > 0) {
    trace::setSlowQueryThresholdMs(A.SlowQueryMs);
    std::string Error;
    if (!trace::openSlowQueryLog(A.SlowQueryLog, Error)) {
      fprintf(stderr, "%s\n", Error.c_str());
      return 2;
    }
  }

  int Ret = 2;
  switch (A.Cmd) {
  case driver::CliArgs::Command::List:
    Ret = runList();
    break;
  case driver::CliArgs::Command::Serve:
    Ret = driver::runServe(A, std::cin, std::cout);
    break;
  case driver::CliArgs::Command::BenchAll:
    Ret = runBenchAll(A);
    break;
  case driver::CliArgs::Command::OneShot:
    Ret = runOneShot(A);
    break;
  case driver::CliArgs::Command::Usage:
    fprintf(stderr, "%s", driver::usageText());
    return 2;
  }

  // Observability epilogue: the exporters must not change a verification
  // verdict, but an unwritable output file is still a CLI error.
  if (A.ShowStats)
    printMetricsRegistry();
  std::string Error;
  if (!A.StatsJson.empty() && !trace::writeStatsJson(A.StatsJson, Error)) {
    fprintf(stderr, "%s\n", Error.c_str());
    Ret = 2;
  }
  if (!A.TraceOut.empty() && !trace::writeChromeTrace(A.TraceOut, Error)) {
    fprintf(stderr, "%s\n", Error.c_str());
    Ret = 2;
  }
  trace::closeSlowQueryLog();
  return Ret;
}
