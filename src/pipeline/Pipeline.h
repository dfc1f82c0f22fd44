//===- pipeline/Pipeline.h - VC pipeline facade ----------------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VC pipeline sits between vcgen and the SMT solver: each proof
/// obligation is simplified (Simplify.h), deduplicated against a
/// structural query cache (QueryCache.h), and every surviving query is
/// an independent task on a FIFO thread pool (support/JobManager.h).
/// Each task solves its query on a fresh SolverContext, the query as its
/// single assertion, in a snapshot overlay of the (frozen) caller
/// TermManager, so workers share the read-mostly term structure and pay
/// only for their own delta. The same task turns a Sat model into the
/// counterexample of the unsimplified obligation (extendModel in
/// Simplify.h): no obligation is solved twice. Every stage is
/// independently disableable (`--no-simp`, `--no-cache`, `--jobs 1`) so
/// the transforms can be tested differentially.
///
/// This replaces the driver's former monolithic conjoin-and-refute loop:
/// per-obligation queries are exactly the independently decidable units
/// the paper's predictability argument rests on, and they are what makes
/// caching and parallel dispatch effective.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_PIPELINE_PIPELINE_H
#define IDS_PIPELINE_PIPELINE_H

#include "pipeline/QueryCache.h"
#include "smt/Term.h"
#include "support/Json.h"
#include "vcgen/VcGen.h"

#include <string>
#include <vector>

namespace ids {
namespace pipeline {

struct Options {
  /// Run the simplifier pass (--no-simp disables).
  bool Simplify = true;
  /// Consult/populate the structural query cache (--no-cache disables).
  bool Cache = true;
  /// Solve each quantifier-free query on a fresh SolverContext (theory
  /// propagation, persistent theory engines). --no-incremental solves
  /// every query on the one-shot reference Solver instead.
  bool Incremental = true;
  /// Worker threads for solver dispatch (--jobs N); 1 = serial, 0 =
  /// auto-detect from hardware concurrency.
  unsigned Jobs = 0;
  /// Legacy grouping: partition obligations round-robin into this many
  /// disjunctive queries (the paper's Boogie-style VC splitting). 0, the
  /// default, solves one query per obligation. A Sat group refutes its
  /// first member whose query the group model satisfies, so with
  /// several failing members in one group the reported obligation can
  /// differ from the one a VcSplits = 0 run reports.
  unsigned VcSplits = 0;
  /// Forwarded solver options. Without AllowQuantifiers every
  /// obligation is cross-checked to be quantifier-free first.
  bool AllowQuantifiers = false;
  uint64_t MaxTheoryChecks = 0;
  double QueryTimeoutSeconds = 0;
  /// DPLL(T) theory propagation in SolverContext solves
  /// (--no-theory-prop disables, the differential baseline restoring
  /// purely lazy full-model checking).
  bool TheoryProp = true;
  /// Attribution label for spans and slow-query records (the procedure
  /// or impact-check name this batch of obligations belongs to). Purely
  /// observational; empty is fine.
  std::string TraceLabel;
};

struct Stats {
  unsigned Obligations = 0;
  /// Discharged by the simplifier alone, no solver query.
  unsigned ProvedBySimplify = 0;
  /// Solver queries actually run (after dedup/caching).
  unsigned Queries = 0;
  unsigned CacheHits = 0;
  /// Largest query the solver saw (post-pipeline), and totals.
  unsigned MaxAtoms = 0;
  unsigned MaxArrayLemmas = 0;
  uint64_t TotalAtoms = 0;
  uint64_t TotalArrayLemmas = 0;

  void merge(const Stats &O);
};

/// Renders \p St as a JSON object — one member per Stats field, in
/// declaration order. The row table behind this also drives
/// recordStatsInRegistry, so bench_table2's per-proc rows and the
/// cumulative pipeline.* metrics can never use diverging key names or
/// semantics.
json::Value statsToJson(const Stats &St);

/// Folds \p St into the global metrics registry (pipeline.<key> cells;
/// max_* fields as high-water marks, everything else summed).
void recordStatsInRegistry(const Stats &St);

/// Formats a query's 128-bit structural DAG hash (QueryCache::keyFor)
/// as 32 hex digits — the VC identity used in span args, slow-query
/// records and cache keys alike.
std::string vcHashHex(smt::TermRef Query);

enum class Verdict { Proved, Failed, Unknown };

struct Result {
  Verdict V = Verdict::Proved;
  /// Description + location of the first failing (or undecided)
  /// obligation.
  std::string FailedDescription;
  std::string Counterexample;
  Stats St;
};

/// Discharges every obligation (all obligations are checked; the first
/// failure in obligation order is reported). \p Cache may be null
/// (equivalent to Options::Cache = false) and may be shared across calls
/// — entries are keyed structurally, so identical obligations from
/// different procedures or impact checks solve once.
Result solveObligations(smt::TermManager &TM,
                        const std::vector<vcgen::Obligation> &Obls,
                        const Options &Opts, QueryCache *Cache);

} // namespace pipeline
} // namespace ids

#endif // IDS_PIPELINE_PIPELINE_H
