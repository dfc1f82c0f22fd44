//===- driver/Cli.cpp - ids-verify command-line parsing --------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "driver/Cli.h"

#include <cerrno>
#include <cstdlib>

using namespace ids;
using namespace ids::driver;

namespace {

/// Strict non-negative integer: the whole string must be digits (an
/// optional leading '+' is tolerated, '-' is not — these flags have no
/// meaningful negative values).
bool parseUnsigned(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  size_t Start = S[0] == '+' ? 1 : 0;
  if (Start == S.size())
    return false;
  for (size_t I = Start; I < S.size(); ++I)
    if (S[I] < '0' || S[I] > '9')
      return false;
  errno = 0;
  char *End = nullptr;
  uint64_t V = strtoull(S.c_str() + Start, &End, 10);
  if (errno == ERANGE || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

/// Strict non-negative decimal (seconds): full-string strtod, >= 0,
/// finite.
bool parseSeconds(const std::string &S, double &Out) {
  if (S.empty() || S[0] == '-')
    return false;
  errno = 0;
  char *End = nullptr;
  double V = strtod(S.c_str(), &End);
  if (End != S.c_str() + S.size() || errno == ERANGE || !(V >= 0) ||
      V > 1e18)
    return false;
  Out = V;
  return true;
}

} // namespace

const char *driver::usageText() {
  return
      "usage: ids-verify [options] (FILE | --benchmark NAME | --list | "
      "serve)\n"
      "       --benchmark all verifies the whole embedded suite (each\n"
      "       benchmark under its registry default budget; exit 0 iff every\n"
      "       procedure matches its registry-expected verdict)\n"
      "       --list prints each benchmark's description, tags, default\n"
      "       budget and expected per-procedure verdicts\n"
      "       serve answers line-delimited JSON verify requests on stdin\n"
      "       (one response line per request; see README \"Serve mode\")\n"
      "options: --quant --splits N --proc NAME --no-frames "
      "--no-impacts --budget N --timeout S\n"
      "         --request-timeout S (whole-request wall-clock budget; "
      "work past\n"
      "                      the deadline reports \"unknown\")\n"
      "caching: --cache-dir DIR (persistent cross-run cache: solver "
      "outcomes and\n"
      "                      procedure verdicts load at startup and append "
      "as they\n"
      "                      are produced; format is versioned, see README)\n"
      "         --no-reverify-cache (record procedure verdicts but never "
      "replay\n"
      "                      them: every procedure re-solves, still reusing "
      "cached\n"
      "                      per-query outcomes)\n"
      "VC pipeline: --jobs N (parallel obligation dispatch; "
      "default 0 = auto-detect\n"
      "                      from hardware concurrency)\n"
      "             --no-simp (disable the VC simplifier)\n"
      "             --no-cache (disable the structural query cache)\n"
      "             --no-incremental (solve every query on the one-shot\n"
      "                      reference solver)\n"
      "             --no-theory-prop (disable DPLL(T) theory propagation;\n"
      "                      the purely lazy differential baseline)\n"
      "             --stats (print per-procedure pipeline statistics and\n"
      "                      the cumulative metrics registry)\n"
      "observability: --trace-out FILE (Chrome trace-event JSON of every\n"
      "                      span — open in Perfetto or chrome://tracing)\n"
      "               --stats-json FILE (cumulative metrics snapshot; same\n"
      "                      counters as --stats and serve's "
      "{\"cmd\":\"stats\"})\n"
      "               --slow-query-ms N (append solver queries slower than\n"
      "                      N ms to the slow-query log as JSONL; 0 = off)\n"
      "               --slow-query-log FILE (slow-query sink; default\n"
      "                      ids-slow-queries.jsonl next to the run)\n";
}

CliArgs driver::parseCli(int Argc, const char *const *Argv) {
  CliArgs A;
  bool List = false, Serve = false;

  // Value-taking flags pull their argument here; a missing or malformed
  // value sets A.Error and stops the parse.
  auto takeValue = [&](int &I, const std::string &Flag,
                       std::string &Out) -> bool {
    if (I + 1 >= Argc) {
      A.Error = "missing argument for " + Flag;
      return false;
    }
    Out = Argv[++I];
    return true;
  };
  auto takeUnsigned = [&](int &I, const std::string &Flag,
                          uint64_t &Out) -> bool {
    std::string V;
    if (!takeValue(I, Flag, V))
      return false;
    if (!parseUnsigned(V, Out)) {
      A.Error = "invalid value for " + Flag + ": '" + V +
                "' (expected a non-negative integer)";
      return false;
    }
    return true;
  };
  auto takeSeconds = [&](int &I, const std::string &Flag,
                         double &Out) -> bool {
    std::string V;
    if (!takeValue(I, Flag, V))
      return false;
    if (!parseSeconds(V, Out)) {
      A.Error = "invalid value for " + Flag + ": '" + V +
                "' (expected a non-negative number of seconds)";
      return false;
    }
    return true;
  };

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    uint64_t U = 0;
    if (Arg == "--quant") {
      A.Opts.QuantifiedMode = true;
    } else if (Arg == "--no-frames") {
      A.Opts.CheckFrames = false;
    } else if (Arg == "--no-impacts") {
      A.Opts.CheckImpacts = false;
    } else if (Arg == "--no-simp") {
      A.Opts.SimplifyVc = false;
    } else if (Arg == "--no-cache") {
      A.Opts.CacheQueries = false;
    } else if (Arg == "--no-incremental") {
      A.Opts.Incremental = false;
    } else if (Arg == "--no-theory-prop") {
      A.Opts.TheoryProp = false;
    } else if (Arg == "--no-reverify-cache") {
      A.Opts.ReuseProcVerdicts = false;
    } else if (Arg == "--stats") {
      A.ShowStats = true;
    } else if (Arg == "--jobs") {
      if (!takeUnsigned(I, Arg, U))
        return A;
      if (U > 1024) {
        A.Error = "invalid value for --jobs: '" + std::to_string(U) +
                  "' (at most 1024 workers)";
        return A;
      }
      A.Opts.Jobs = static_cast<unsigned>(U);
    } else if (Arg == "--splits") {
      if (!takeUnsigned(I, Arg, U))
        return A;
      if (U > 1u << 20) {
        A.Error = "invalid value for --splits: '" + std::to_string(U) +
                  "' (implausibly large)";
        return A;
      }
      A.Opts.VcSplits = static_cast<unsigned>(U);
    } else if (Arg == "--budget") {
      if (!takeUnsigned(I, Arg, A.Opts.MaxTheoryChecks))
        return A;
    } else if (Arg == "--timeout") {
      if (!takeSeconds(I, Arg, A.Opts.QueryTimeoutSeconds))
        return A;
    } else if (Arg == "--request-timeout") {
      if (!takeSeconds(I, Arg, A.Opts.TotalTimeoutSeconds))
        return A;
    } else if (Arg == "--proc") {
      if (!takeValue(I, Arg, A.Opts.OnlyProc))
        return A;
    } else if (Arg == "--benchmark") {
      if (!takeValue(I, Arg, A.BenchName))
        return A;
    } else if (Arg == "--cache-dir") {
      if (!takeValue(I, Arg, A.CacheDir))
        return A;
    } else if (Arg == "--trace-out") {
      if (!takeValue(I, Arg, A.TraceOut))
        return A;
    } else if (Arg == "--stats-json") {
      if (!takeValue(I, Arg, A.StatsJson))
        return A;
    } else if (Arg == "--slow-query-ms") {
      if (!takeSeconds(I, Arg, A.SlowQueryMs))
        return A;
    } else if (Arg == "--slow-query-log") {
      if (!takeValue(I, Arg, A.SlowQueryLog))
        return A;
    } else if (Arg == "--list") {
      List = true;
    } else if (Arg == "serve" && A.File.empty() && !Serve) {
      // The daemon subcommand. A file literally named "serve" is still
      // reachable as ./serve.
      Serve = true;
    } else if (!Arg.empty() && Arg[0] != '-') {
      A.File = Arg;
    } else {
      A.Error = "unknown option: " + Arg;
      return A;
    }
  }

  if (Serve && (!A.File.empty() || !A.BenchName.empty() || List)) {
    A.Error = "serve takes no input argument (sources arrive as requests)";
    return A;
  }
  // A threshold without a sink gets the documented default; a sink
  // without a threshold is an error (it would silently never record).
  if (A.SlowQueryMs > 0 && A.SlowQueryLog.empty())
    A.SlowQueryLog = "ids-slow-queries.jsonl";
  if (A.SlowQueryMs <= 0 && !A.SlowQueryLog.empty()) {
    A.Error = "--slow-query-log requires --slow-query-ms N (N > 0)";
    return A;
  }
  if (List)
    A.Cmd = CliArgs::Command::List;
  else if (Serve)
    A.Cmd = CliArgs::Command::Serve;
  else if (A.BenchName == "all")
    A.Cmd = CliArgs::Command::BenchAll;
  else if (!A.BenchName.empty() || !A.File.empty())
    A.Cmd = CliArgs::Command::OneShot;
  else
    A.Cmd = CliArgs::Command::Usage;
  return A;
}
