//===- bench/bench_solver.cpp - Solver-config differential bench -----------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-procedure solver benchmark across the SAT-core configurations:
/// the default (`--theory propagate`) and `--theory lazy` (full-model
/// theory checks only). For every target procedure and
/// configuration it reports wall-clock seconds plus the solver counters
/// that explain the difference — conflicts, propagations, restarts,
/// theory propagations — and writes everything to BENCH_solver.json.
///
/// The run doubles as a differential check: the two configurations must
/// agree on every verdict (a propagation-induced verdict flip is exactly
/// the regression this benchmark exists to catch), and any disagreement
/// or Failed verdict makes the exit code nonzero.
///
/// Usage: bench_solver [benchmark:procedure ...]
/// Default targets are the two heaviest procedures of the suite
/// (sorted-list:insert and bst:rotate_right) — the set CI runs.
///
//===----------------------------------------------------------------------===//

#include "driver/Verifier.h"
#include "structures/Registry.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace ids;

namespace {

struct Target {
  std::string Bench;
  std::string Proc;
};

struct ConfigSpec {
  const char *Name;
  smt::TheoryMode Theory;
};

// The production solver and its propagation-free baseline.
const ConfigSpec Configs[] = {
    {"default", smt::TheoryMode::Propagate},
    {"lazy", smt::TheoryMode::Lazy},
};

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

// Solver counters snapshotted around each run; the delta is the
// per-procedure cost under that configuration.
const char *const CounterKeys[] = {
    "smt.conflicts",     "smt.propagations",        "smt.restarts",
    "smt.decisions",     "smt.theory_checks",       "smt.theory_propagations",
    "smt.propagation_conflicts", "smt.cc_registrations_reused",
};

std::vector<uint64_t> snapshotCounters() {
  std::vector<uint64_t> Vals;
  for (const char *Key : CounterKeys)
    Vals.push_back(trace::counter(Key).value());
  return Vals;
}

const structures::Benchmark *findBenchmark(const std::string &Name) {
  for (const structures::Benchmark &B : structures::allBenchmarks())
    if (B.Name == Name)
      return &B;
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<Target> Targets;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    size_t Colon = Arg.find(':');
    if (Colon == std::string::npos || Colon == 0 || Colon + 1 == Arg.size()) {
      fprintf(stderr, "usage: bench_solver [benchmark:procedure ...]\n");
      return 2;
    }
    Targets.push_back({Arg.substr(0, Colon), Arg.substr(Colon + 1)});
  }
  if (Targets.empty())
    Targets = {{"sorted-list", "insert"}, {"bst", "rotate_right"}};

  FILE *Json = fopen("BENCH_solver.json", "w");
  if (!Json) {
    fprintf(stderr, "cannot open BENCH_solver.json for writing\n");
    return 1;
  }

  json::Value Root = json::Value::object();
  Root.set("bench", json::Value::string("solver"));
  json::Value Procs = json::Value::array();

  bool Ok = true;
  for (const Target &T : Targets) {
    const structures::Benchmark *B = findBenchmark(T.Bench);
    if (!B) {
      fprintf(stderr, "unknown benchmark '%s' (see ids-verify --list)\n",
              T.Bench.c_str());
      Ok = false;
      continue;
    }

    printf("%s:%s\n", T.Bench.c_str(), T.Proc.c_str());
    json::Value ProcObj = json::Value::object();
    ProcObj.set("benchmark", json::Value::string(T.Bench));
    ProcObj.set("procedure", json::Value::string(T.Proc));
    json::Value Runs = json::Value::array();

    std::string FirstStatus;
    bool ProcFound = true;
    for (const ConfigSpec &C : Configs) {
      DiagEngine Diags;
      driver::VerifyOptions Opts;
      Opts.OnlyProc = T.Proc;
      // Solver-only measurement: the impact checks are a separate,
      // uniformly cheap workload and would just add noise here.
      Opts.CheckImpacts = false;
      Opts.Theory = C.Theory;
      // Same guard rails as bench_table2: a configuration that cannot
      // finish reports a bounded 'unknown', not an open-ended run.
      Opts.QueryTimeoutSeconds = 300;
      if (B->DefaultBudget > 0)
        Opts.MaxTheoryChecks = B->DefaultBudget;

      std::vector<uint64_t> Before = snapshotCounters();
      auto Start = std::chrono::steady_clock::now();
      driver::ModuleResult R = driver::verifySource(B->Source, Opts, Diags);
      double Seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Start)
              .count();
      std::vector<uint64_t> After = snapshotCounters();

      if (!R.FrontEndOk) {
        fprintf(stderr, "front-end error on '%s':\n%s", T.Bench.c_str(),
                Diags.toString().c_str());
        Ok = false;
        break;
      }
      const driver::ProcResult *P = nullptr;
      for (const driver::ProcResult &Candidate : R.Procs)
        if (Candidate.Name == T.Proc)
          P = &Candidate;
      if (!P) {
        fprintf(stderr, "benchmark '%s' has no procedure '%s'\n",
                T.Bench.c_str(), T.Proc.c_str());
        Ok = false;
        ProcFound = false;
        break;
      }

      json::Value Run = json::Value::object();
      Run.set("config", json::Value::string(C.Name));
      Run.set("status", json::Value::string(statusName(P->St)));
      Run.set("seconds", json::Value::number(Seconds));
      for (size_t I = 0; I < sizeof(CounterKeys) / sizeof(CounterKeys[0]);
           ++I)
        Run.set(CounterKeys[I],
                json::Value::number(double(After[I] - Before[I])));
      Runs.push(std::move(Run));

      printf("  %-14s %-9s %8.2fs  conflicts=%llu propagations=%llu "
             "theory_props=%llu theory_checks=%llu\n",
             C.Name, statusName(P->St), Seconds,
             (unsigned long long)(After[0] - Before[0]),
             (unsigned long long)(After[1] - Before[1]),
             (unsigned long long)(After[5] - Before[5]),
             (unsigned long long)(After[4] - Before[4]));

      if (P->St == driver::Status::Failed)
        Ok = false;
      if (FirstStatus.empty())
        FirstStatus = statusName(P->St);
      else if (FirstStatus != statusName(P->St)) {
        // The whole point of the matrix: every solver
        // configurations must reach the same verdict.
        fprintf(stderr,
                "VERDICT MISMATCH on %s:%s — '%s' under default, '%s' "
                "under %s\n",
                T.Bench.c_str(), T.Proc.c_str(), FirstStatus.c_str(),
                statusName(P->St), C.Name);
        Ok = false;
      }
    }
    if (!ProcFound)
      continue;
    ProcObj.set("runs", std::move(Runs));
    Procs.push(std::move(ProcObj));
  }

  Root.set("procs", std::move(Procs));
  fprintf(Json, "%s\n", Root.serialize().c_str());
  fclose(Json);
  printf("Wrote BENCH_solver.json (%zu procedures x %zu configs).\n",
         Targets.size(), sizeof(Configs) / sizeof(Configs[0]));
  return Ok ? 0 : 1;
}
