//===- perfbench/Main.cpp - Closed-loop benchmark runner -------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process runs one workload for a fixed time with a single client:
/// it sends the next request only after the previous verdicts are back.
///
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             [--rounds K] [--overhead 0|1] [--spans-out F] [--counts-out F]
///
/// `--trace 0` measures the end-to-end metrics through
/// driver::VerifierInstance, the library's request API. `--trace 1` runs
/// the same script through TracedInstance with a span around every layer
/// call, reports the per-layer metrics, then (unless `--overhead 0`)
/// replays the first rounds untraced to measure the tracing overhead.
/// On edit-loop it also runs the refute probe. The last stdout line is
/// the result object.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/VerifierInstance.h"
#include "support/Trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>

using namespace ids;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_stime.tv_sec +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // Linux reports KiB
}

struct Args {
  Workload W = Workload::LightCold;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Rounds = 0; ///< fixed round count; 0 = as many as fit
  /// Traced run: replay its first rounds untraced, and on edit-loop run
  /// the refute probe.
  bool Overhead = true;
  std::string SpansOut, CountsOut;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      HaveWorkload = parseWorkload(V, A.W);
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (Flag == "--trace")
      A.Trace = V == "1";
    else if (Flag == "--rounds")
      A.Rounds = static_cast<unsigned>(std::strtoul(V.c_str(), &End, 10));
    else if (Flag == "--overhead")
      A.Overhead = V == "1";
    else if (Flag == "--spans-out")
      A.SpansOut = V;
    else if (Flag == "--counts-out")
      A.CountsOut = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  return HaveWorkload && A.Seconds > 0;
}

/// One set-up: generate the script's first round, run the front end over
/// every distinct source in it, so a malformed generated request stops the
/// run before anything is timed, and warm the verifier with one cold
/// module request.
double setupOnce(const Args &A) {
  auto T0 = Clock::now();
  ScriptGen Gen(A.W, A.Seed);
  Round R = Gen.next();
  std::set<std::string> Seen;
  for (const Group &G : R.Groups)
    for (const Request &Q : G.Requests) {
      if (!Seen.insert(Q.Source).second)
        continue;
      DiagEngine Diags;
      if (Q.Source.empty() || !driver::frontEnd(Q.Source, Diags)) {
        std::fprintf(stderr,
                     "perfbench: generated %s request for %s is malformed:\n%s",
                     kindName(Q.K), Q.Bench->Name, Diags.toString().c_str());
        std::exit(3);
      }
    }
  driver::VerifierInstance Inst;
  driver::VerifyOptions Opts;
  Opts.Jobs = 1;
  DiagEngine Diags;
  if (!Inst.verify(structures::findBenchmark("singly-linked-list")->Source,
                   Opts, Diags)
           .allVerified()) {
    std::fprintf(stderr, "perfbench: warm-up module did not verify\n");
    std::exit(3);
  }
  return secondsSince(T0);
}

/// Counter deltas of one round, for the repeatability report.
using Counts = std::map<std::string, uint64_t>;

Counts snapshot() {
  Counts C;
  for (auto &[Name, V] : trace::counterSnapshot())
    C[Name] = V;
  return C;
}

Counts minus(const Counts &After, const Counts &Before) {
  Counts D;
  for (auto &[Name, V] : After) {
    auto It = Before.find(Name);
    uint64_t B = It == Before.end() ? 0 : It->second;
    if (V != B)
      D[Name] = V - B;
  }
  return D;
}

struct Loop {
  std::vector<Outcome> Outcomes;
  std::vector<double> RoundSeconds;
  /// Outcomes[RoundEnd[I-1], RoundEnd[I]) belong to round I.
  std::vector<size_t> RoundEnd;
  std::vector<double> RoundCpu;
  std::vector<Counts> RoundCounts;
  /// One set-up before the loop and one after each round, so the median
  /// spans the run as the rounds do.
  std::vector<double> SetupSeconds;
  double Wall() const {
    double S = 0;
    for (double R : RoundSeconds)
      S += R;
    return S;
  }
};

/// Runs whole rounds until the next one would likely end past the time
/// limit, or exactly \p FixedRounds rounds when nonzero.
template <typename RunRound>
Loop runLoop(const Args &A, unsigned FixedRounds, RunRound Run) {
  Loop L;
  L.SetupSeconds.push_back(setupOnce(A));
  ScriptGen Gen(A.W, A.Seed);
  for (unsigned N = 0;; ++N) {
    if (FixedRounds ? N >= FixedRounds
                    : N > 0 && L.Wall() + 0.5 * L.Wall() / N >= A.Seconds)
      break;
    Round R = Gen.next();
    Counts Before = snapshot();
    double Cpu0 = cpuSeconds();
    auto T0 = Clock::now();
    Run(R, L.Outcomes);
    L.RoundSeconds.push_back(secondsSince(T0));
    L.RoundCpu.push_back(cpuSeconds() - Cpu0);
    L.RoundCounts.push_back(minus(snapshot(), Before));
    L.RoundEnd.push_back(L.Outcomes.size());
    L.SetupSeconds.push_back(setupOnce(A));
  }
  return L;
}

Delta deltaOf(const driver::VerifierInstance::Stats &B,
              const driver::VerifierInstance::Stats &A) {
  return {A.ProcsSolved - B.ProcsSolved, A.ProcsCached - B.ProcsCached,
          A.ImpactsSolved - B.ImpactsSolved, A.ImpactsCached - B.ImpactsCached};
}

void runUntraced(const Round &R, std::vector<Outcome> &Out) {
  for (const Group &G : R.Groups) {
    driver::VerifierInstance Inst;
    for (const Request &Q : G.Requests) {
      driver::VerifierInstance::Stats Before = Inst.stats();
      DiagEngine Diags;
      auto T0 = Clock::now();
      driver::ModuleResult MR = Inst.verify(Q.Source, Q.Opts, Diags);
      double Ms = secondsSince(T0) * 1000;
      Outcome O = judge(Q, MR, deltaOf(Before, Inst.stats()));
      O.Ms = Ms;
      Out.push_back(std::move(O));
    }
  }
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void printResult(const Loop &L, const std::vector<Metric> &Ms, bool Correct) {
  size_t Failed = 0;
  for (const Outcome &O : L.Outcomes)
    Failed += O.Failed;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              Correct ? "true" : "false", L.Outcomes.size(), Failed);
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
}

/// Failure lines and the failed share; returns false on a wrong verdict.
bool reportOutcomes(const char *Label, const Loop &L) {
  std::map<std::string, size_t> Notes;
  size_t Failed = 0;
  bool Correct = true;
  for (const Outcome &O : L.Outcomes) {
    if (!O.Failed)
      continue;
    ++Failed;
    Correct = Correct && !O.Wrong;
    ++Notes[std::string(O.Wrong ? "WRONG " : "failed ") + kindName(O.K) +
            ": " + O.Note];
  }
  for (auto &[Note, N] : Notes)
    std::printf("  %zux %s\n", N, Note.c_str());
  std::printf("%s failed operations: %zu of %zu requests (share %.4f)\n",
              Label, Failed, L.Outcomes.size(),
              L.Outcomes.empty() ? 0.0 : double(Failed) / L.Outcomes.size());
  return Correct;
}

int runEndToEnd(const Args &A) {
  Loop L = runLoop(A, A.Rounds, runUntraced);
  // Every metric is taken per round and the run reports its best round.
  // Each round has the same request mix, so a round's figures stay within
  // one request class however many rounds fit in the run; on a shared
  // machine, interference only slows a round down (rounds of one run
  // switch between two speeds about 1.4x apart), so the least-disturbed
  // round is the steadiest estimate of the verifier's own cost. The tail
  // is the round's highest percentile with ten samples beyond it.
  std::vector<double> Rate, P50, TailMs, Cpu;
  size_t Verdicts = 0, Completed = 0, PerRound = 0, Beyond = 0;
  double TailPct = 100;
  for (size_t I = 0, First = 0; I < L.RoundEnd.size(); ++I) {
    std::vector<double> Ms;
    size_t RoundVerdicts = 0;
    for (size_t J = First; J < L.RoundEnd[I]; ++J) {
      RoundVerdicts += L.Outcomes[J].Verdicts;
      if (!L.Outcomes[J].Failed)
        Ms.push_back(L.Outcomes[J].Ms);
    }
    First = L.RoundEnd[I];
    Verdicts += RoundVerdicts;
    Completed += Ms.size();
    PerRound = Ms.size();
    Rate.push_back(RoundVerdicts / L.RoundSeconds[I]);
    Cpu.push_back(L.RoundCpu[I] * 1000 / std::max<size_t>(RoundVerdicts, 1));
    if (Ms.empty())
      continue;
    P50.push_back(median(Ms));
    Tail T = tailOf(Ms);
    Beyond = T.Beyond;
    TailPct = T.Valid ? T.Percentile : 100;
    TailMs.push_back(T.Valid ? T.Value
                             : *std::max_element(Ms.begin(), Ms.end()));
  }
  auto Best = [](const std::vector<double> &V) {
    return V.empty() ? 0.0 : *std::min_element(V.begin(), V.end());
  };
  std::vector<Metric> Ms = {
      {"verdicts_per_s", *std::max_element(Rate.begin(), Rate.end()), "1/s"},
      {"request_ms_p50", Best(P50), "ms"},
      {"request_ms_tail", Best(TailMs), "ms"},
      {"cpu_ms_per_verdict", Best(Cpu), "ms"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"setup_s", median(L.SetupSeconds), "s"},
  };

  std::printf("workload %s, seed %llu: %zu rounds, %zu requests, %zu "
              "verdicts in %.3f s; best of the rounds\n",
              workloadName(A.W), (unsigned long long)A.Seed,
              L.RoundSeconds.size(), L.Outcomes.size(), Verdicts, L.Wall());
  std::printf("  round seconds:");
  for (double R : L.RoundSeconds)
    std::printf(" %.3f", R);
  std::printf("\n");
  char Notes[6][80];
  std::snprintf(Notes[0], 80, "%zu verdicts", Verdicts);
  std::snprintf(Notes[1], 80, "%zu completed requests", Completed);
  std::snprintf(Notes[2], 80, "%zu samples beyond it per round", Beyond);
  std::snprintf(Notes[3], 80, "%zu verdicts", Verdicts);
  std::snprintf(Notes[4], 80, "process peak");
  std::snprintf(Notes[5], 80, "median of %zu set-ups", L.SetupSeconds.size());
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("  %-20s %14.6f %-4s (%s)\n", Ms[I].Name.c_str(),
                Ms[I].Value, Ms[I].Unit.c_str(), Notes[I]);
  std::printf("  tail percentile: p%.2f of %zu requests per round\n", TailPct,
              PerRound);
  if (A.W == Workload::EditLoop)
    for (Kind K : {Kind::Open, Kind::Prove, Kind::Refute}) {
      std::vector<double> V;
      for (const Outcome &O : L.Outcomes)
        if (!O.Failed && O.K == K)
          V.push_back(O.Ms);
      std::printf("  %-20s %14.6f %-4s (%zu requests)\n",
                  (std::string(kindName(K)) + "_ms_p50").c_str(), median(V),
                  "ms", V.size());
    }
  bool Correct = reportOutcomes("measured", L);
  printResult(L, Ms, Correct);
  return Correct ? 0 : 1;
}

/// Per-layer metrics: name, unit, and the end-to-end metric and workload
/// each should move.
struct LayerMetric {
  const char *Name;
  const char *Unit;
  const char *Moves;
};

const LayerMetric LayerMetrics[] = {
    {"lang.parse_ms", "ms/req", "request_ms_p50 @ edit-loop"},
    {"lang.typecheck_ms", "ms/req", "request_ms_p50 @ edit-loop"},
    {"lang.checks_ms", "ms/req", "request_ms_p50 @ edit-loop"},
    {"vcgen.ms", "ms/req", "request_ms_p50 @ edit-loop"},
    {"vcgen.obligations", "count/req", "request_ms_p50 @ edit-loop"},
    {"driver.verify_ms", "ms/req", "request_ms_p50 @ edit-loop"},
    {"driver.self_ms", "ms/req", "request_ms_p50 @ edit-loop"},
    {"driver.replay_ratio", "ratio", "request_ms_p50 @ edit-loop"},
    {"pipeline.solve_ms", "ms/req", "verdicts_per_s, request_ms_p50 @ light-cold"},
    {"pipeline.queries", "count/req", "verdicts_per_s @ light-cold"},
    {"pipeline.query_hit_ratio", "ratio", "verdicts_per_s @ light-cold"},
    {"pipeline.simplify_discharge_ratio", "ratio",
     "verdicts_per_s @ light-cold"},
    {"pipeline.prefix_groups", "count/req", "verdicts_per_s @ light-cold"},
    {"pipeline.context_reuses", "count/req", "verdicts_per_s @ light-cold"},
    {"pipeline.escalated_queries", "count/req", "request_ms_tail @ edit-loop"},
    {"pipeline.incr_sat_rechecks", "count/req", "request_ms_tail @ edit-loop"},
    {"smt.check_sats", "count/req", "verdicts_per_s @ edit-loop"},
    {"smt.decisions", "count/req", "verdicts_per_s @ edit-loop"},
    {"smt.conflicts", "count/req", "verdicts_per_s @ edit-loop"},
    {"smt.propagations", "count/req", "verdicts_per_s @ edit-loop"},
    {"smt.theory_checks", "count/req", "verdicts_per_s @ edit-loop"},
    {"smt.theory_propagations", "count/req", "verdicts_per_s @ edit-loop"},
    {"smt.array_lemmas", "count/req", "verdicts_per_s @ edit-loop"},
    {"smt.lazy_instantiations", "count/req", "verdicts_per_s @ edit-loop"},
    {"smt.model_repairs", "count/req", "request_ms_tail @ edit-loop"},
    {"smt.model_give_ups", "count/req", "failed share @ edit-loop"},
    {"jobs.tasks", "count/req", "none: both workloads run inline (Jobs=1)"},
    {"jobs.steals", "count/req", "none: both workloads run inline (Jobs=1)"},
    {"trace.overhead_pct", "%", "none (traced minus untraced)"},
};

bool writeCounts(const std::string &Path, const Loop &L) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "[");
  for (size_t I = 0; I < L.RoundCounts.size(); ++I) {
    std::fprintf(F, "%s\n{", I ? "," : "");
    size_t J = 0;
    for (auto &[Name, V] : L.RoundCounts[I])
      std::fprintf(F, "%s\"%s\": %llu", J++ ? ", " : "", Name.c_str(),
                   (unsigned long long)V);
    std::fprintf(F, "}");
  }
  std::fprintf(F, "\n]\n");
  return std::fclose(F) == 0;
}

/// Every mutant, plain and with a fresh `assume`, refuted on a warm
/// instance as in an edit session; reports the share answered unknown
/// (the model builder giving up on a Sat answer). Not part of the timed
/// loop, which must not fail operations; a fix shows as a lower share.
/// Returns false on a definitive wrong verdict.
bool refuteProbe() {
  size_t Unknown = 0, Total = 0;
  bool Correct = true;
  std::string Lines;
  for (const Mutant &M : mutantTable()) {
    const structures::Benchmark &B = *structures::findBenchmark(M.Module);
    for (bool WithAssume : {false, true}) {
      Request Q;
      Q.K = Kind::Refute;
      Q.Bench = &B;
      Q.Mut = &M;
      Q.Edited = M.Proc;
      Q.Opts.Jobs = 1;
      Q.Source = refuteEdit(B, M);
      if (WithAssume) {
        structures::Benchmark Mutated = B;
        Mutated.Source = Q.Source.c_str();
        Q.Source = proveEdit(Mutated, M.Proc, 1001);
      }
      driver::VerifierInstance Inst;
      DiagEngine Diags;
      Inst.verify(B.Source, Q.Opts, Diags);
      driver::VerifierInstance::Stats Before = Inst.stats();
      Counts C0 = snapshot();
      driver::ModuleResult R = Inst.verify(Q.Source, Q.Opts, Diags);
      Outcome O = judge(Q, R, deltaOf(Before, Inst.stats()));
      Counts D = minus(snapshot(), C0);
      ++Total;
      if (!O.Failed)
        continue;
      ++Unknown;
      Correct = Correct && !O.Wrong;
      char Buf[320];
      std::snprintf(Buf, sizeof(Buf),
                    "    %s %s%s: drop `%s` -> %s (smt.model_give_ups %llu)\n",
                    O.Wrong ? "WRONG" : "unknown", M.Proc,
                    WithAssume ? " + assume" : "",
                    M.DroppedLine + std::strspn(M.DroppedLine, " "),
                    O.Note.substr(0, 60).c_str(),
                    (unsigned long long)D["smt.model_give_ups"]);
      Lines += Buf;
    }
  }
  std::printf("refute probe: %zu of %zu mutant requests not refuted "
              "(share %.4f)\n%s",
              Unknown, Total, double(Unknown) / Total, Lines.c_str());
  return Correct;
}

int runTraced(const Args &A) {
  Tracer T;
  uint64_t Obligations = 0;
  Delta Replays;
  Loop L = runLoop(A, A.Rounds, [&](const Round &R, std::vector<Outcome> &Out) {
    for (const Group &G : R.Groups) {
      TracedInstance Inst;
      for (const Request &Q : G.Requests) {
        T.beginRequest();
        Delta D;
        auto T0 = Clock::now();
        driver::ModuleResult MR = Inst.verify(Q, T, D);
        double Ms = secondsSince(T0) * 1000;
        Outcome O = judge(Q, MR, D);
        O.Ms = Ms;
        Out.push_back(std::move(O));
        Replays.ProcsSolved += D.ProcsSolved + D.ImpactsSolved;
        Replays.ProcsCached += D.ProcsCached + D.ImpactsCached;
      }
      Obligations += Inst.obligations();
    }
  });
  // The first rounds again through the request API, untraced: the
  // difference is what the spans and the layer-by-layer replica of the
  // driver cost.
  const size_t Compared = std::min<size_t>(L.RoundSeconds.size(), 2);
  Loop Base;
  if (A.Overhead)
    Base = runLoop(A, static_cast<unsigned>(Compared), runUntraced);
  double TracedS = 0;
  for (size_t I = 0; I < Compared; ++I)
    TracedS += L.RoundSeconds[I];

  const double Reqs = double(std::max<size_t>(L.Outcomes.size(), 1));
  std::map<std::string, double> Self;
  for (auto &[Name, Ms] : T.selfMs())
    Self[Name] = Ms;
  Counts Tot;
  for (const Counts &Cs : L.RoundCounts)
    for (auto &[Name, N] : Cs)
      Tot[Name] += N;
  auto C = [&](const char *Name) { return double(Tot[Name]); };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
  double VerifyMs = 0;
  for (const Span &S : T.spans())
    if (!std::strcmp(S.Name, "driver.verify"))
      VerifyMs += (S.EndUs - S.StartUs) / 1000.0;
  std::map<std::string, double> V = {
      {"lang.parse_ms", Self["lang.parse"] / Reqs},
      {"lang.typecheck_ms", Self["lang.typecheck"] / Reqs},
      {"lang.checks_ms", Self["lang.checks"] / Reqs},
      {"vcgen.ms", Self["vcgen"] / Reqs},
      {"vcgen.obligations", Obligations / Reqs},
      {"driver.verify_ms", VerifyMs / Reqs},
      {"driver.self_ms", Self["driver.verify"] / Reqs},
      {"driver.replay_ratio",
       Ratio(double(Replays.ProcsCached),
             double(Replays.ProcsCached + Replays.ProcsSolved))},
      {"pipeline.solve_ms", Self["pipeline.solve"] / Reqs},
      {"pipeline.query_hit_ratio",
       Ratio(C("pipeline.cache_hits"),
             C("pipeline.cache_hits") + C("pipeline.queries"))},
      {"pipeline.simplify_discharge_ratio",
       Ratio(C("pipeline.proved_by_simplify"), C("pipeline.obligations"))},
      {"trace.overhead_pct",
       A.Overhead ? 100 * (TracedS - Base.Wall()) / Base.Wall() : 0},
  };
  for (const LayerMetric &M : LayerMetrics)
    if (!V.count(M.Name))
      V[M.Name] = C(M.Name) / Reqs;

  std::printf("traced workload %s, seed %llu: %zu rounds, %zu requests, "
              "%zu spans; first %zu rounds traced %.3f s, untraced %.3f s\n",
              workloadName(A.W), (unsigned long long)A.Seed,
              L.RoundSeconds.size(), L.Outcomes.size(), T.spans().size(),
              Compared, TracedS, Base.Wall());
  std::vector<Metric> Ms;
  for (const LayerMetric &M : LayerMetrics) {
    std::printf("  %-34s %14.4f %-9s moves %s\n", M.Name, V[M.Name], M.Unit,
                M.Moves);
    Ms.push_back({M.Name, V[M.Name], M.Unit});
  }
  std::printf("  set-up %.6f s (median of %zu)\n", median(L.SetupSeconds),
              L.SetupSeconds.size());
  if (!A.SpansOut.empty() && !T.writeJson(A.SpansOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.SpansOut.c_str());
  if (!A.CountsOut.empty() && !writeCounts(A.CountsOut, L))
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.CountsOut.c_str());
  bool Correct = reportOutcomes("traced", L);
  if (A.Overhead)
    Correct = reportOutcomes("untraced", Base) && Correct;
  if (A.W == Workload::EditLoop && A.Overhead)
    Correct = refuteProbe() && Correct;
  printResult(L, Ms, Correct);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload light-cold|edit-loop "
                 "--seed N --seconds S --trace 0|1 [--rounds K] "
                 "[--overhead 0|1] [--spans-out FILE] [--counts-out FILE]\n");
    return 2;
  }
  return A.Trace ? runTraced(A) : runEndToEnd(A);
}
