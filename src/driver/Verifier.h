//===- driver/Verifier.h - End-to-end verification facade ------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the library: parse an IDS module, run the
/// static disciplines (types, ghost flow, well-behavedness), prove the
/// declared impact sets correct (Appendix C), and verify every procedure
/// by discharging its quantifier-free VC with the SMT solver. Reports
/// per-procedure timing, Table 2 metrics and counterexamples.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_DRIVER_VERIFIER_H
#define IDS_DRIVER_VERIFIER_H

#include "lang/Ast.h"
#include "lang/Checks.h"
#include "pipeline/Pipeline.h"

#include <memory>
#include <string>
#include <vector>

namespace ids {
namespace driver {

enum class Status { Verified, Failed, Unknown };

struct ProcResult {
  std::string Name;
  Status St = Status::Verified;
  double Seconds = 0.0;
  unsigned NumObligations = 0;
  std::string FailedObligation; ///< description + location when Failed
  std::string Counterexample;   ///< model text when Failed
  lang::ProcMetrics Metrics;
  pipeline::Stats Pipeline; ///< per-procedure VC pipeline statistics
  /// Verdict replayed from the instance's procedure-verdict cache (every
  /// obligation hash hit a previously solved, definitive verdict) — no
  /// solver query ran for this procedure.
  bool Cached = false;
};

struct ImpactResult {
  std::string Field;
  std::string Group;
  bool Ok = true;
  double Seconds = 0.0;
  pipeline::Stats Pipeline;
  bool Cached = false;   ///< replayed from the instance's verdict cache
  /// The request deadline expired before this check ran: Ok is false
  /// conservatively, but the impact set was NOT refuted.
  bool TimedOut = false;
};

struct ModuleResult {
  bool FrontEndOk = false;
  std::string StructureName;
  unsigned LcSize = 0;
  std::vector<ImpactResult> Impacts;
  std::vector<ProcResult> Procs;
  double ImpactSeconds = 0.0;

  bool allVerified() const {
    if (!FrontEndOk)
      return false;
    for (const ImpactResult &I : Impacts)
      if (!I.Ok)
        return false;
    for (const ProcResult &P : Procs)
      if (P.St != Status::Verified)
        return false;
    return true;
  }
};

struct VerifyOptions {
  /// Dafny-style quantified encoding (RQ3 baseline) instead of the
  /// default quantifier-free encoding.
  bool QuantifiedMode = false;
  /// Check mutation/callee footprints against modifies clauses.
  bool CheckFrames = true;
  /// Prove the declared impact sets correct before verifying procedures.
  bool CheckImpacts = true;
  /// Legacy VC splitting: partition obligations into this many
  /// disjunctive solver queries (the paper's Boogie configuration uses
  /// max 8). 0, the default, is the pipeline's native mode — one query
  /// per obligation, the independently decidable unit the methodology is
  /// built on.
  unsigned VcSplits = 0;
  /// VC pipeline stages (each independently disableable for differential
  /// testing) and the solver dispatch width.
  bool SimplifyVc = true;  ///< --no-simp
  bool CacheQueries = true; ///< --no-cache
  /// Solve each query on a fresh SolverContext;
  /// --no-incremental solves every query on the one-shot reference solver.
  bool Incremental = true;
  /// DPLL(T) theory propagation in SolverContext solves; --no-theory-prop
  /// restores the purely lazy full-model behavior (differential baseline).
  bool TheoryProp = true;
  unsigned Jobs = 0;        ///< --jobs N; 0 auto-detects hardware threads
  /// Restrict verification to this procedure (empty = all).
  std::string OnlyProc;
  /// Per-query theory-check budget forwarded to the solver (0 =
  /// unlimited). Exhaustion is reported as Status::Unknown.
  uint64_t MaxTheoryChecks = 0;
  /// Per-query wall-clock budget in seconds (0 = unlimited).
  double QueryTimeoutSeconds = 0;
  /// Whole-request wall-clock budget in seconds (0 = unlimited): each
  /// impact check and procedure solves under the time remaining, and
  /// work past the deadline is reported as Status::Unknown instead of
  /// running. This is serve mode's per-request timeout; deadline
  /// Unknowns are never cached (they are budget artifacts).
  double TotalTimeoutSeconds = 0;
  /// Consult/populate the instance's procedure-verdict cache — skip
  /// procedures whose obligation hashes all match a previously solved,
  /// definitive (non-Unknown) verdict, replaying it as ProcResult::Cached.
  /// --no-reverify-cache disables reuse to force a fresh solve (entries
  /// are still recorded).
  bool ReuseProcVerdicts = true;
};

/// Parses and verifies a whole module from source text.
ModuleResult verifySource(const std::string &Source,
                          const VerifyOptions &Opts, DiagEngine &Diags);

/// Runs the front-end only (parse + checks); exposed for tooling/tests.
std::unique_ptr<lang::Module> frontEnd(const std::string &Source,
                                       DiagEngine &Diags);

} // namespace driver
} // namespace ids

#endif // IDS_DRIVER_VERIFIER_H
