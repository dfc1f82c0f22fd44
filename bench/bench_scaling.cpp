//===- bench/bench_scaling.cpp - Parallel dispatch scaling bench -----------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel-scaling benchmark for the thread pool behind
/// --jobs: runs the full embedded suite (the `--benchmark all` workload,
/// procedures + impact checks) at --jobs 1, 2, 4 and 8, records the
/// wall-clock of each sweep plus every per-procedure verdict, and writes
/// BENCH_scaling.json.
///
/// The run doubles as the cross-jobs differential check CI gates on:
///
///  - every jobs level must produce verdicts identical to --jobs 1 (a
///    parallelism-induced verdict flip is exactly the regression this
///    benchmark exists to catch), and
///  - on hardware with >= 4 cores, the --jobs 4 sweep must not be slower
///    than --jobs 1 (dispatch overhead must be paid for).
///
/// Any violation makes the exit code nonzero. On boxes with fewer than 4
/// cores the speedup gate is skipped with a warning (the verdict gate
/// always applies) so the bench stays meaningful in 1-core containers.
///
/// Usage: bench_scaling [jobs ...]   (default: 1 2 4 8)
///
//===----------------------------------------------------------------------===//

#include "driver/Verifier.h"
#include "structures/Registry.h"
#include "support/Json.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

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

/// One "bench:proc -> status" row; impact checks ride along as
/// "bench!field/group -> ok|refuted" so a parallelism bug in the impact
/// path cannot hide behind matching procedure verdicts.
struct VerdictRow {
  std::string Key;
  std::string Status;
};

struct SweepResult {
  unsigned Jobs = 0;
  double Seconds = 0;
  bool FrontEndOk = true;
  std::vector<VerdictRow> Verdicts;
};

SweepResult runSweep(unsigned Jobs) {
  SweepResult R;
  R.Jobs = Jobs;
  auto Start = std::chrono::steady_clock::now();
  for (const structures::Benchmark &B : structures::allBenchmarks()) {
    DiagEngine Diags;
    driver::VerifyOptions Opts;
    Opts.Jobs = Jobs;
    // Same guard rails as --benchmark all: per-benchmark budget and a
    // bounded per-query timeout so a regression reports 'unknown'
    // instead of hanging the sweep.
    Opts.QueryTimeoutSeconds = 300;
    if (B.DefaultBudget > 0)
      Opts.MaxTheoryChecks = B.DefaultBudget;
    driver::ModuleResult M = driver::verifySource(B.Source, Opts, Diags);
    if (!M.FrontEndOk) {
      fprintf(stderr, "front-end error on '%s':\n%s", B.Name,
              Diags.toString().c_str());
      R.FrontEndOk = false;
      continue;
    }
    for (const driver::ProcResult &P : M.Procs)
      R.Verdicts.push_back(
          {std::string(B.Name) + ":" + P.Name, statusName(P.St)});
    for (const driver::ImpactResult &I : M.Impacts)
      R.Verdicts.push_back({std::string(B.Name) + "!" + I.Field + "/" +
                                I.Group,
                            I.Ok ? "ok" : "refuted"});
  }
  R.Seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            Start)
                  .count();
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<unsigned> JobLevels;
  for (int I = 1; I < Argc; ++I) {
    char *End = nullptr;
    unsigned long J = strtoul(Argv[I], &End, 10);
    if (!End || *End || J == 0 || J > 1024) {
      fprintf(stderr, "usage: bench_scaling [jobs ...]\n");
      return 2;
    }
    JobLevels.push_back(unsigned(J));
  }
  if (JobLevels.empty())
    JobLevels = {1, 2, 4, 8};

  unsigned Hw = std::thread::hardware_concurrency();
  printf("bench_scaling: %u hardware thread(s)\n", Hw ? Hw : 1);

  bool Ok = true;
  std::vector<SweepResult> Sweeps;
  for (unsigned Jobs : JobLevels) {
    SweepResult S = runSweep(Jobs);
    if (!S.FrontEndOk)
      Ok = false;
    printf("  --jobs %-2u  %8.2fs  (%zu verdicts)\n", Jobs, S.Seconds,
           S.Verdicts.size());
    Sweeps.push_back(std::move(S));
  }

  // Gate 1: every sweep agrees with the first (serial baseline when the
  // default levels run). Order is deterministic — the registry and each
  // module's procedure list are fixed — so rows compare positionally.
  const SweepResult &Base = Sweeps.front();
  for (size_t S = 1; S < Sweeps.size(); ++S) {
    const SweepResult &Cur = Sweeps[S];
    if (Cur.Verdicts.size() != Base.Verdicts.size()) {
      fprintf(stderr,
              "VERDICT MISMATCH: --jobs %u produced %zu verdicts, --jobs "
              "%u produced %zu\n",
              Base.Jobs, Base.Verdicts.size(), Cur.Jobs,
              Cur.Verdicts.size());
      Ok = false;
      continue;
    }
    for (size_t I = 0; I < Base.Verdicts.size(); ++I)
      if (Base.Verdicts[I].Key != Cur.Verdicts[I].Key ||
          Base.Verdicts[I].Status != Cur.Verdicts[I].Status) {
        fprintf(stderr,
                "VERDICT MISMATCH on %s: '%s' under --jobs %u, '%s' (%s) "
                "under --jobs %u\n",
                Base.Verdicts[I].Key.c_str(),
                Base.Verdicts[I].Status.c_str(), Base.Jobs,
                Cur.Verdicts[I].Status.c_str(), Cur.Verdicts[I].Key.c_str(),
                Cur.Jobs);
        Ok = false;
      }
  }

  // Gate 2: --jobs 4 must not be slower than --jobs 1 when the hardware
  // can actually run 4 workers.
  const SweepResult *J1 = nullptr, *J4 = nullptr;
  for (const SweepResult &S : Sweeps) {
    if (S.Jobs == 1)
      J1 = &S;
    if (S.Jobs == 4)
      J4 = &S;
  }
  double Speedup4 = 0;
  if (J1 && J4 && J4->Seconds > 0)
    Speedup4 = J1->Seconds / J4->Seconds;
  if (J1 && J4) {
    if (Hw >= 4) {
      printf("  --jobs 4 speedup over --jobs 1: %.2fx\n", Speedup4);
      if (J4->Seconds > J1->Seconds) {
        fprintf(stderr,
                "SCALING REGRESSION: --jobs 4 (%.2fs) slower than --jobs 1 "
                "(%.2fs) on %u-core hardware\n",
                J4->Seconds, J1->Seconds, Hw);
        Ok = false;
      }
    } else {
      printf("  (speedup gate skipped: only %u hardware thread(s))\n",
             Hw ? Hw : 1);
    }
  }

  json::Value Root = json::Value::object();
  Root.set("bench", json::Value::string("scaling"));
  Root.set("hardware_concurrency", json::Value::number(double(Hw)));
  Root.set("speedup_jobs4_over_jobs1", json::Value::number(Speedup4));
  json::Value Runs = json::Value::array();
  for (const SweepResult &S : Sweeps) {
    json::Value Run = json::Value::object();
    Run.set("jobs", json::Value::number(double(S.Jobs)));
    Run.set("seconds", json::Value::number(S.Seconds));
    json::Value Rows = json::Value::array();
    for (const VerdictRow &V : S.Verdicts) {
      json::Value Row = json::Value::object();
      Row.set("target", json::Value::string(V.Key));
      Row.set("status", json::Value::string(V.Status));
      Rows.push(std::move(Row));
    }
    Run.set("verdicts", std::move(Rows));
    Runs.push(std::move(Run));
  }
  Root.set("runs", std::move(Runs));

  FILE *Json = fopen("BENCH_scaling.json", "w");
  if (!Json) {
    fprintf(stderr, "cannot open BENCH_scaling.json for writing\n");
    return 1;
  }
  fprintf(Json, "%s\n", Root.serialize().c_str());
  fclose(Json);
  printf("Wrote BENCH_scaling.json (%zu jobs levels).\n", Sweeps.size());
  return Ok ? 0 : 1;
}
