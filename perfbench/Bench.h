//===- perfbench/Bench.h - End-to-end benchmark workloads ------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark: seeded request scripts over the Table 2
/// registry, the verdict oracle they are checked against, and the
/// statistics the runner reports. The verifier only ever sees generated
/// module sources; everything here is the client side of a closed loop.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_PERFBENCH_BENCH_H
#define IDS_PERFBENCH_BENCH_H

#include "driver/Verifier.h"
#include "structures/Registry.h"

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Workload { LightCold, EditLoop };

/// Parses a workload name ("light-cold", "edit-loop").
bool parseWorkload(const std::string &Name, Workload &W);
const char *workloadName(Workload W);

/// One refute edit: drop \p DroppedLine (exact text, once) from \p Proc.
struct Mutant {
  const char *Module;
  const char *Proc;
  const char *DroppedLine;
  /// The specification conjunct the dropped update leaves unprovable.
  const char *Breaks;
  /// The verifier answers unknown instead of failed on this mutant
  /// (model building gives up on the Sat answer). Kept out of the timed
  /// edit loop, which must not fail operations; the traced run's refute
  /// probe reports the share so a fix shows.
  bool KnownUnknown = false;
};

/// Every mutant the edit-loop workload draws refutes from.
const std::vector<Mutant> &mutantTable();

enum class Kind { Proc, Impacts, Open, Prove, Refute };
const char *kindName(Kind K);

struct Request {
  Kind K = Kind::Proc;
  const ids::structures::Benchmark *Bench = nullptr;
  std::string Source;
  ids::driver::VerifyOptions Opts;
  /// The procedure a Prove or Refute edit changed.
  std::string Edited;
  const Mutant *Mut = nullptr;

  /// The verdict the oracle requires for \p Proc: the registry's
  /// expectation, except "failed" for the mutated procedure of a refute.
  std::string expectedStatus(const std::string &Proc) const;
};

/// Requests served by one fresh VerifierInstance.
struct Group {
  std::vector<Request> Requests;
};

/// The closed loop's unit of measurement, with the same request mix in
/// every round: twenty light passes, or one edit session per edit module.
struct Round {
  std::vector<Group> Groups;
};

/// Deterministic request-script generator: the same workload and seed
/// give the same sequence of rounds on every platform (a fixed 64-bit
/// generator and our own index draws, no std:: distributions).
class ScriptGen {
public:
  ScriptGen(Workload W, uint64_t Seed);
  Round next();

  /// Edit requests per edit-loop session, after its open request.
  static constexpr unsigned EditsPerSession = 8;
  /// Light passes per light-cold round.
  static constexpr unsigned LightPassesPerRound = 20;

private:
  unsigned below(unsigned N);
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(static_cast<unsigned>(I))]);
  }
  Round lightPass();
  Round editRound();
  Group editSession(const ids::structures::Benchmark &B);

  Workload W;
  std::mt19937_64 Rng;
  /// Fresh assume literals: never repeated within a process, so every
  /// prove edit changes its procedure's VC key.
  unsigned NextLiteral = 1001;
};

/// The edit-loop modules, in registry order.
std::vector<const ids::structures::Benchmark *> editModules();

/// The prove edit: `assume <int term> != Literal;` as the first statement
/// of \p Proc's body. Empty when the procedure is not found.
std::string proveEdit(const ids::structures::Benchmark &B,
                      const std::string &Proc, unsigned Literal);
/// The refute edit: \p M's dropped line removed. Empty when the line is
/// not found exactly once.
std::string refuteEdit(const ids::structures::Benchmark &B, const Mutant &M);

/// Per-procedure VC keys (an ordered fold of the obligations' structural
/// hashes, the identity the driver's verdict cache replays by) of every
/// impact declaration ("impact:<field>[<group>]") and procedure
/// of a module source; empty when the front end rejects it.
std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>>
vcKeys(const std::string &Source);
std::pair<uint64_t, uint64_t> vcKey(ids::smt::TermManager &TM,
                                    const ids::vcgen::ProcVc &Vc);

// ------------------------------------------------------------- Execution --

/// Verdict-cache activity of one request.
struct Delta {
  uint64_t ProcsSolved = 0;
  uint64_t ProcsCached = 0;
  uint64_t ImpactsSolved = 0;
  uint64_t ImpactsCached = 0;
};

/// One request as the client saw it.
struct Outcome {
  Kind K = Kind::Proc;
  double Ms = 0;
  unsigned Verdicts = 0;
  /// Unknown verdict, front-end rejection, missing counterexample or a
  /// wrong verdict: the request counts as a failed operation.
  bool Failed = false;
  /// A definitive verdict that contradicts the oracle, or an edit that
  /// did not re-solve exactly its procedure: the run is incorrect.
  bool Wrong = false;
  std::string Note;
};

/// Checks \p R against the oracle for \p Q.
Outcome judge(const Request &Q, const ids::driver::ModuleResult &R,
              const Delta &D);

/// The traced run's span: the benchmark records one around each layer
/// call it makes; spans of one request share its id.
struct Span {
  const char *Name;
  uint64_t StartUs;
  uint64_t EndUs;
  int Parent; ///< index into the span list, -1 for a request root
  uint64_t RequestId;
};

class Tracer {
public:
  /// Opens a span under the innermost open one; returns its index.
  int open(const char *Name);
  void close(int Index);
  void beginRequest() { ++RequestId; }

  const std::vector<Span> &spans() const { return Spans; }
  /// Self time per span name in ms: duration minus the time its direct
  /// children cover.
  std::vector<std::pair<std::string, double>> selfMs() const;
  bool writeJson(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
  uint64_t RequestId = 0;
};

/// The traced run's verifier: the driver's request sequence rebuilt from
/// each layer's public calls (parse, type check, checks, vcgen, pipeline)
/// with a span around every call, replaying definitive verdicts by VC key
/// exactly as driver::VerifierInstance does.
class TracedInstance {
public:
  ids::driver::ModuleResult verify(const Request &Q, Tracer &T, Delta &D);
  uint64_t obligations() const { return Obligations; }

private:
  struct Verdict {
    ids::driver::Status St;
    std::string Counterexample;
  };
  ids::pipeline::QueryCache Cache;
  std::map<std::pair<uint64_t, uint64_t>, Verdict> Verdicts;
  uint64_t Obligations = 0;
};

// ------------------------------------------------------------ Statistics --

double median(std::vector<double> V);

/// The tail percentile: the highest nearest-rank percentile with at least
/// ten samples beyond it. Beyond = strictly above it in rank.
struct Tail {
  double Value = 0;
  double Percentile = 0; ///< in percent, e.g. 99.8
  size_t Samples = 0;    ///< all samples
  size_t Beyond = 0;     ///< samples ranked above Value
  bool Valid = false;    ///< false when fewer than 11 samples
};
Tail tailOf(std::vector<double> V);

} // namespace perfbench

#endif // IDS_PERFBENCH_BENCH_H
