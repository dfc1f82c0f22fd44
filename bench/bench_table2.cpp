//===- bench/bench_table2.cpp - Regenerates Table 2 ------------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 2 of the paper (E1/E4 in DESIGN.md): for every data
/// structure and method in the embedded suite, the LC size (number of
/// conjuncts), lines of executable code + specification + ghost
/// annotation, and the verification time in the default quantifier-free
/// mode. Impact-set verification time per structure is reported alongside
/// (the paper states it is < 3s per structure).
///
/// Besides the human-readable table (VC pipeline enabled), the run is
/// repeated with the pipeline transforms disabled and both configurations
/// are written to BENCH_table2.json — per-benchmark seconds, obligation
/// and atom counts — so the performance trajectory is machine-readable.
///
//===----------------------------------------------------------------------===//

#include "driver/Verifier.h"
#include "pipeline/Pipeline.h"
#include "structures/Registry.h"
#include "support/Json.h"

#include <cstdio>
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

driver::VerifyOptions configFor(bool Pipeline) {
  driver::VerifyOptions Opts;
  // Bounded resources, but generous enough that every method that CAN
  // verify does: sorted-list insert's hardest per-obligation query runs
  // ~2 min on this class of hardware. Exhaustion is reported as
  // 'unknown' instead of an open-ended run.
  Opts.QueryTimeoutSeconds = 300;
  if (!Pipeline) {
    Opts.SimplifyVc = false;
    Opts.CacheQueries = false;
    // Without per-obligation simplification, cap the query count the
    // paper's way (Boogie with max 8 VC splits, Section 5.3) and tighten
    // the per-query clock so a slow benchmark costs at most 8 short
    // timeouts per procedure.
    Opts.VcSplits = 8;
    Opts.QueryTimeoutSeconds = 90;
  }
  return Opts;
}

void emitJsonResult(FILE *F, const structures::Benchmark &B,
                    const driver::ModuleResult &R, bool First) {
  json::Value Obj = json::Value::object();
  Obj.set("name", json::Value::string(B.Name));
  Obj.set("table2_name", json::Value::string(B.Table2Name));
  Obj.set("lc_size", json::Value::number(R.LcSize));
  Obj.set("impact_sets", json::Value::number(double(R.Impacts.size())));
  bool ImpactsOk = true;
  for (const driver::ImpactResult &I : R.Impacts)
    ImpactsOk = ImpactsOk && I.Ok;
  Obj.set("impacts_ok", json::Value::boolean(ImpactsOk));
  Obj.set("impact_seconds", json::Value::number(R.ImpactSeconds));
  json::Value Procs = json::Value::array();
  for (const driver::ProcResult &P : R.Procs) {
    json::Value V = json::Value::object();
    V.set("name", json::Value::string(P.Name));
    V.set("status", json::Value::string(statusName(P.St)));
    V.set("seconds", json::Value::number(P.Seconds));
    // The per-proc stat rows come from the pipeline's shared renderer
    // (the same StatsRow table behind --stats-json and the registry's
    // pipeline.* counters), so this artifact can never use key names or
    // semantics that diverge from the live metrics.
    const json::Value St = pipeline::statsToJson(P.Pipeline);
    for (const auto &[Key, Val] : St.members())
      V.set(Key, Val);
    Procs.push(std::move(V));
  }
  Obj.set("procs", std::move(Procs));
  fprintf(F, "%s\n    %s", First ? "" : ",", Obj.serialize().c_str());
}

} // namespace

int main() {
  FILE *Json = fopen("BENCH_table2.json", "w");
  if (!Json) {
    fprintf(stderr, "cannot open BENCH_table2.json for writing\n");
    return 1;
  }
  fprintf(Json, "{\"bench\": \"table2\", \"configs\": [");

  bool AllOk = true;
  for (bool Pipeline : {true, false}) {
    fprintf(Json, "%s\n  {\"pipeline\": %s, \"benchmarks\": [",
            Pipeline ? "" : ",", Pipeline ? "true" : "false");
    if (Pipeline) {
      printf("Table 2: implementation and verification of the benchmark "
             "suite (quantifier-free FWYB encoding, VC pipeline on)\n");
      printf("%-22s %4s  %-26s %-12s %10s  %s\n", "Data Structure", "LC",
             "Method", "LOC+Spec+Ann", "Verif.(s)", "Status");
      printf("-----------------------------------------------------------"
             "-------------------------\n");
    }
    bool FirstBench = true;
    for (const structures::Benchmark &B : structures::allBenchmarks()) {
      DiagEngine Diags;
      driver::VerifyOptions Opts = configFor(Pipeline);
      // Registry-surfaced tuning: a benchmark beyond the solver's reach
      // records its budgeted verdict here exactly as `--benchmark all`
      // and the goldens do (currently every DefaultBudget is 0).
      if (B.DefaultBudget > 0)
        Opts.MaxTheoryChecks = B.DefaultBudget;
      driver::ModuleResult R =
          driver::verifySource(B.Source, Opts, Diags);
      if (!R.FrontEndOk) {
        if (Pipeline)
          printf("%-22s  FRONT-END ERROR\n%s", B.Table2Name,
                 Diags.toString().c_str());
        AllOk = false;
        continue;
      }
      emitJsonResult(Json, B, R, FirstBench);
      FirstBench = false;
      // Both configurations gate the exit code: a verification failure
      // in the pipeline-off pass is exactly the differential regression
      // this second run exists to surface.
      bool ImpactsOk = true;
      for (const driver::ImpactResult &I : R.Impacts)
        ImpactsOk = ImpactsOk && I.Ok;
      AllOk = AllOk && ImpactsOk;
      for (const driver::ProcResult &P : R.Procs)
        AllOk = AllOk && P.St != driver::Status::Failed;
      if (!Pipeline)
        continue;
      bool First = true;
      for (const driver::ProcResult &P : R.Procs) {
        char Counts[32];
        snprintf(Counts, sizeof(Counts), "%u+%u+%u", P.Metrics.CodeLines,
                 P.Metrics.SpecLines, P.Metrics.AnnotLines);
        const char *St = P.St == driver::Status::Verified ? "verified"
                         : P.St == driver::Status::Unknown
                             ? "unknown (budget)"
                             : "FAILED";
        printf("%-22s %4u  %-26s %-12s %10.2f  %s\n",
               First ? B.Table2Name : "", First ? R.LcSize : 0,
               P.Name.c_str(), Counts, P.Seconds, St);
        First = false;
      }
      printf("%-22s       impact sets: %zu checked, %s (%.2fs)\n", "",
             R.Impacts.size(), ImpactsOk ? "all correct" : "FAILURES",
             R.ImpactSeconds);
    }
    fprintf(Json, "]}");
  }
  fprintf(Json, "]}\n");
  fclose(Json);

  printf("\nPaper reference (Table 2): all 42 methods verify, all but "
         "four in under 10 seconds,\nimpact sets < 3s per structure. See "
         "EXPERIMENTS.md for the per-method comparison.\nWrote "
         "BENCH_table2.json (pipeline on + off configurations).\n");
  return AllOk ? 0 : 1;
}
