//===- pipeline/Pipeline.cpp - VC pipeline facade --------------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "pipeline/Simplify.h"
#include "smt/SolverContext.h"
#include "support/JobManager.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace ids;
using namespace ids::pipeline;
using namespace ids::smt;

namespace {

/// One row per Stats field: the single source of truth for the JSON key
/// and the registry folding rule. statsToJson and recordStatsInRegistry
/// both walk this table, which is what makes BENCH_table2.json rows and
/// the cumulative pipeline.* counters definitionally consistent.
struct StatsRow {
  const char *Key;
  uint64_t (*Get)(const Stats &);
  bool IsMax; ///< high-water mark (registry recordMax), else summed
};

const StatsRow StatsRows[] = {
    {"obligations", [](const Stats &S) { return uint64_t(S.Obligations); },
     false},
    {"proved_by_simplify",
     [](const Stats &S) { return uint64_t(S.ProvedBySimplify); }, false},
    {"queries", [](const Stats &S) { return uint64_t(S.Queries); }, false},
    {"cache_hits", [](const Stats &S) { return uint64_t(S.CacheHits); },
     false},
    {"max_atoms", [](const Stats &S) { return uint64_t(S.MaxAtoms); }, true},
    {"max_array_lemmas",
     [](const Stats &S) { return uint64_t(S.MaxArrayLemmas); }, true},
    {"total_atoms", [](const Stats &S) { return uint64_t(S.TotalAtoms); },
     false},
    {"total_array_lemmas",
     [](const Stats &S) { return uint64_t(S.TotalArrayLemmas); }, false},
};

} // namespace

json::Value pipeline::statsToJson(const Stats &St) {
  json::Value Obj = json::Value::object();
  for (const StatsRow &Row : StatsRows)
    Obj.set(Row.Key, json::Value::number(double(Row.Get(St))));
  return Obj;
}

void pipeline::recordStatsInRegistry(const Stats &St) {
  for (const StatsRow &Row : StatsRows) {
    trace::Counter &C = trace::counter(std::string("pipeline.") + Row.Key);
    if (Row.IsMax)
      C.recordMax(Row.Get(St));
    else
      C.add(Row.Get(St));
  }
}

std::string pipeline::vcHashHex(TermRef Query) {
  QueryCache::Key K = QueryCache::keyFor(Query);
  char Buf[33];
  snprintf(Buf, sizeof(Buf), "%016llx%016llx", (unsigned long long)K.Hi,
           (unsigned long long)K.Lo);
  return Buf;
}

void Stats::merge(const Stats &O) {
  Obligations += O.Obligations;
  ProvedBySimplify += O.ProvedBySimplify;
  Queries += O.Queries;
  CacheHits += O.CacheHits;
  MaxAtoms = std::max(MaxAtoms, O.MaxAtoms);
  MaxArrayLemmas = std::max(MaxArrayLemmas, O.MaxArrayLemmas);
  TotalAtoms += O.TotalAtoms;
  TotalArrayLemmas += O.TotalArrayLemmas;
}

namespace {

/// One obligation after Stage 1.
struct Prepared {
  TermRef Query = nullptr; ///< negated obligation, simplified
  TermRef Orig = nullptr;  ///< the unsimplified negated obligation
  bool Proved = false;     ///< discharged by the simplifier
  /// Guard equalities the simplifier substituted away, in order.
  std::vector<Elimination> Eliminated;
};

/// One solver query: a single obligation, or a `--splits` group whose
/// query is the disjunction of its members' queries.
struct Unit {
  TermRef MainQuery;
  std::vector<size_t> Members;
};

constexpr size_t NoMember = ~size_t(0);

/// What one solve of a unit's query says.
struct Answer {
  QueryCache::Outcome O; ///< raw outcome, a Sat one with the query's model
  /// The obligation a Sat outcome refutes, with its counterexample;
  /// NoMember when the model did not extend to one.
  size_t Failing = NoMember;
  std::string Counterexample;
};

/// Solves batches of units with dedup, caching and parallel dispatch
/// through the JobManager thread pool. Queries are terms of the
/// caller's manager, which must stay FROZEN for the duration of solve():
/// every solve happens in a private snapshot-overlay manager that shares
/// the frozen base read-only and pays only for its own delta — the
/// per-task full-formula TermManager::import copy is gone.
class BatchSolver {
public:
  BatchSolver(const TermManager &TM, const Options &Opts,
              const std::vector<Prepared> &Prep, QueryCache *Cache,
              Stats &St)
      : TM(TM), Opts(Opts), Prep(Prep), Cache(Opts.Cache ? Cache : nullptr),
        St(St) {}

  std::vector<Answer> solve(const std::vector<Unit> &Units) {
    size_t N = Units.size();
    std::vector<Answer> Out(N);
    std::vector<size_t> RunList;
    std::vector<std::pair<size_t, size_t>> Dups; // (dup index, owner index)
    std::vector<QueryCache::Key> Keys(N);
    if (Opts.Cache) {
      std::unordered_map<QueryCache::Key, size_t, QueryCache::KeyHash> Owner;
      for (size_t I = 0; I < N; ++I) {
        trace::ScopedSpan Sp("pipeline.cache_probe");
        Keys[I] = QueryCache::keyFor(Units[I].MainQuery);
        if (Sp.active()) {
          Sp.arg("proc", Opts.TraceLabel);
          Sp.arg("vc", vcHashHex(Units[I].MainQuery));
        }
        if (Cache && Cache->lookup(Keys[I], Out[I].O,
                                   !modelIsCounterexample(Units[I]))) {
          if (Sp.active())
            Sp.arg("hit", 1.0);
          replay(Units[I], Out[I]);
          continue;
        }
        auto [It, Inserted] = Owner.emplace(Keys[I], I);
        if (!Inserted) {
          Dups.emplace_back(I, It->second);
          if (Sp.active())
            Sp.arg("dup", 1.0);
        } else {
          RunList.push_back(I);
        }
      }
    } else {
      for (size_t I = 0; I < N; ++I)
        RunList.push_back(I);
    }

    run(Units, RunList, Out);
    for (size_t Idx : RunList) {
      // Only definitive outcomes (Sat/Unsat) are cacheable: an Unknown
      // earned under this run's budget/timeout must never answer a later
      // solve of the same query under a larger budget. (QueryCache
      // rejects Unknowns itself too; the guard here keeps the intent at
      // the call site. In-batch duplicate sharing above is unaffected —
      // duplicates within one solve() ran under identical budgets.)
      if (Cache && Out[Idx].O.R != SolverResult::Unknown)
        Cache->insert(Keys[Idx], Out[Idx].O);
    }
    // A duplicate shares its owner's outcome, except a Sat one whose
    // model is not the duplicate's counterexample: that query is solved
    // again, for the duplicate's own obligation.
    std::vector<size_t> ReRun;
    for (auto [Dup, OwnerIdx] : Dups) {
      if (Out[OwnerIdx].O.R == SolverResult::Sat &&
          !modelIsCounterexample(Units[Dup])) {
        ReRun.push_back(Dup);
        continue;
      }
      Out[Dup].O = Out[OwnerIdx].O;
      replay(Units[Dup], Out[Dup]);
    }
    run(Units, ReRun, Out);
    for (const Answer &A : Out) {
      St.MaxAtoms = std::max(St.MaxAtoms, A.O.NumAtoms);
      St.MaxArrayLemmas = std::max(St.MaxArrayLemmas, A.O.NumArrayLemmas);
    }
    return Out;
  }

private:
  /// Whether a model of \p U's query is its counterexample as it is (a
  /// single obligation the simplifier left unchanged). Only then does a
  /// Sat outcome replay; elsewhere the query is solved again.
  bool modelIsCounterexample(const Unit &U) const {
    return U.Members.size() == 1 &&
           Prep[U.Members[0]].Query == Prep[U.Members[0]].Orig;
  }

  /// Counts a cached or duplicate outcome as a hit. A Sat one replays
  /// only where modelIsCounterexample, so it refutes the unit's single
  /// obligation.
  void replay(const Unit &U, Answer &A) {
    ++St.CacheHits;
    if (A.O.R == SolverResult::Sat) {
      A.Failing = U.Members[0];
      A.Counterexample = A.O.ModelText;
    }
  }

  /// Solves the units \p List names: every query is an independent pool
  /// task.
  void run(const std::vector<Unit> &Units, const std::vector<size_t> &List,
           std::vector<Answer> &Out) {
    {
      jobs::JobManager JM(Opts.Jobs);
      for (size_t Idx : List)
        JM.submit(
            [this, &Units, &Out, Idx] { Out[Idx] = runQuery(Units[Idx]); });
      JM.wait();
    }
    St.Queries += static_cast<unsigned>(List.size());
    for (size_t Idx : List) {
      St.TotalAtoms += Out[Idx].O.NumAtoms;
      St.TotalArrayLemmas += Out[Idx].O.NumArrayLemmas;
    }
  }

  /// One solve of \p U's query: a fresh SolverContext holding the query
  /// as its single assertion.
  Answer solveOne(const Unit &U) {
    // Snapshot overlay over the frozen base manager: the query term is
    // directly valid in the overlay's view, so there is no per-task
    // formula copy — the solver's own delta (CNF literals, lemma terms)
    // is all this task ever interns.
    TermManager Local(TM, TermManager::Snapshot{});
    SolverOptions SOpts;
    SOpts.AllowQuantifiers = Opts.AllowQuantifiers;
    SOpts.MaxTheoryChecks = Opts.MaxTheoryChecks;
    SOpts.TimeoutSeconds = Opts.QueryTimeoutSeconds;
    SOpts.Theory = Opts.Theory;
    SolverContext Ctx(Local, SOpts);
    Ctx.assertTerm(U.MainQuery);
    Answer A;
    A.O.R = Ctx.checkSat();
    A.O.NumAtoms = Ctx.stats().NumAtoms;
    A.O.NumArrayLemmas = Ctx.numArrayLemmas();
    A.O.Why = Ctx.stats().Why;
    if (A.O.R == SolverResult::Sat)
      refute(U, Ctx.model(), A);
    return A;
  }

  /// Turns \p M, a model of \p U's query, into the counterexample of
  /// the first member whose query it satisfies: extended through that
  /// member's eliminated equalities, it must satisfy the unsimplified
  /// obligation (the solver's own safety net). Runs in the solve task,
  /// while the model's overlay terms are alive.
  void refute(const Unit &U, const Model &M, Answer &A) const {
    A.O.ModelText = M.toString();
    if (modelIsCounterexample(U)) {
      A.Failing = U.Members[0];
      A.Counterexample = A.O.ModelText;
      return;
    }
    for (size_t Idx : U.Members) {
      const Prepared &P = Prep[Idx];
      if (U.Members.size() > 1 && !holds(M, P.Query))
        continue;
      Model Ext = M;
      extendModel(Ext, P.Eliminated, P.Orig);
      if (holds(Ext, P.Orig)) {
        A.Failing = Idx;
        A.Counterexample = Ext.toString();
      }
      return;
    }
  }

  /// Whether \p F evaluates to true under \p M. A model cannot evaluate
  /// a quantifier, so a quantified formula never holds: a Sat group
  /// chooses among its quantifier-free members only, and a quantified
  /// obligation the simplifier rewrote reports unknown.
  bool holds(const Model &M, TermRef F) const {
    if (Opts.AllowQuantifiers && TM.containsQuantifier(F))
      return false;
    Value V = M.evaluate(F);
    return V.K == Value::Kind::Bool && V.B;
  }

  Answer runQuery(const Unit &U) {
    trace::ScopedSpan Sp("pipeline.solve");
    const uint64_t T0 = trace::nowUs();
    Answer A = solveOne(U);
    finishQuerySpan(Sp, U.MainQuery, A.O);
    maybeRecordSlow(U.MainQuery, double(trace::nowUs() - T0) / 1e6, A.O);
    return A;
  }

  static const char *verdictName(SolverResult R) {
    switch (R) {
    case SolverResult::Sat:
      return "sat";
    case SolverResult::Unsat:
      return "unsat";
    case SolverResult::Unknown:
      break;
    }
    return "unknown";
  }

  /// Attaches the standard per-query metadata to a pipeline.solve span
  /// (no-op when tracing is off).
  void finishQuerySpan(trace::ScopedSpan &Sp, TermRef Query,
                       const QueryCache::Outcome &O) {
    if (!Sp.active())
      return;
    Sp.arg("proc", Opts.TraceLabel);
    Sp.arg("vc", vcHashHex(Query));
    Sp.arg("verdict", verdictName(O.R));
    Sp.arg("atoms", double(O.NumAtoms));
    Sp.arg("array_lemmas", double(O.NumArrayLemmas));
  }

  /// Appends a JSONL record when \p Sec crosses --slow-query-ms (no-op
  /// with the threshold unset). One line per heavy query: the artifact
  /// that turns "insert is slow" folklore into attributable data.
  void maybeRecordSlow(TermRef Query, double Sec,
                       const QueryCache::Outcome &O) {
    double Th = trace::slowQueryThresholdMs();
    if (Th <= 0 || Sec * 1000.0 < Th)
      return;
    static trace::Counter &SlowC = trace::counter("pipeline.slow_queries");
    SlowC.add();
    json::Value Rec = json::Value::object();
    Rec.set("ts_us", json::Value::number(double(trace::nowUs())));
    Rec.set("proc", json::Value::string(Opts.TraceLabel));
    Rec.set("vc", json::Value::string(vcHashHex(Query)));
    Rec.set("verdict", json::Value::string(verdictName(O.R)));
    Rec.set("seconds", json::Value::number(Sec));
    Rec.set("atoms", json::Value::number(double(O.NumAtoms)));
    Rec.set("array_lemmas", json::Value::number(double(O.NumArrayLemmas)));
    trace::appendSlowQuery(Rec);
  }

  /// The caller's manager, frozen for the lifetime of this solver: the
  /// shared read-only base every per-task overlay snapshots from.
  const TermManager &TM;
  const Options &Opts;
  const std::vector<Prepared> &Prep;
  QueryCache *Cache;
  Stats &St;
};

} // namespace

pipeline::Result pipeline::solveObligations(
    TermManager &TM, const std::vector<vcgen::Obligation> &Obls,
    const Options &Opts, QueryCache *Cache) {
  Result R;
  R.St.Obligations = static_cast<unsigned>(Obls.size());
  // Every exit path folds this call's Stats into the global pipeline.*
  // metric cells (per-call Stats are deltas by construction).
  struct RegistryGuard {
    const Stats &St;
    ~RegistryGuard() { recordStatsInRegistry(St); }
  } Guard{R.St};
  if (Obls.empty())
    return R;

  // ---- Stage 1: simplify each obligation. ----
  std::vector<Prepared> Prep(Obls.size());
  Simplifier Simp(TM);
  for (size_t I = 0; I < Obls.size(); ++I) {
    TermRef Guard = Obls[I].Guard;
    TermRef Claim = Obls[I].Claim;
    Prep[I].Orig = TM.mkAnd(Guard, TM.mkNot(Claim));
    // The QF cross-check must see the obligation BEFORE simplification
    // — a quantifier the simplifier rewrites away is still a vcgen
    // invariant break.
    if (!Opts.AllowQuantifiers && TM.containsQuantifier(Prep[I].Orig)) {
      R.V = Verdict::Unknown;
      R.FailedDescription = "internal: quantifier leaked into a QF-mode VC";
      return R;
    }
    bool Simplified = false;
    {
      trace::ScopedSpan Sp("pipeline.simplify");
      if (Sp.active()) {
        Sp.arg("proc", Opts.TraceLabel);
        Sp.arg("vc", vcHashHex(Prep[I].Orig));
      }
      Simplified = Opts.Simplify &&
                   Simp.simplifyObligation(Guard, Claim, &Prep[I].Eliminated);
    }
    if (Simplified) {
      Prep[I].Proved = true;
      ++R.St.ProvedBySimplify;
      continue;
    }
    Prep[I].Query = TM.mkAnd(Guard, TM.mkNot(Claim));
  }

  // ---- Stage 2: form query units (per obligation, or legacy groups). ----
  std::vector<Unit> Units;
  std::vector<size_t> Unproved;
  for (size_t I = 0; I < Obls.size(); ++I)
    if (!Prep[I].Proved)
      Unproved.push_back(I);
  if (Opts.VcSplits == 0) {
    for (size_t I : Unproved)
      Units.push_back({Prep[I].Query, {I}});
  } else if (!Unproved.empty()) {
    unsigned NumGroups = std::max(
        1u, std::min<unsigned>(Opts.VcSplits,
                               static_cast<unsigned>(Unproved.size())));
    for (unsigned G = 0; G < NumGroups; ++G) {
      Unit U;
      std::vector<TermRef> Disjuncts;
      for (size_t I = G; I < Unproved.size(); I += NumGroups) {
        U.Members.push_back(Unproved[I]);
        Disjuncts.push_back(Prep[Unproved[I]].Query);
      }
      U.MainQuery = TM.mkOr(std::move(Disjuncts));
      Units.push_back(std::move(U));
    }
  }

  // ---- Stage 3: solve the units; a Sat becomes its counterexample. ----
  // Every query term is already built: freeze the manager so worker
  // tasks can share it read-only through snapshot overlays. The guard
  // thaws on every exit path — callers reuse the manager across
  // solveObligations calls.
  struct FreezeGuard {
    TermManager &TM;
    explicit FreezeGuard(TermManager &TM) : TM(TM) { TM.freeze(); }
    ~FreezeGuard() { TM.thaw(); }
  } Freeze{TM};
  BatchSolver Batch(TM, Opts, Prep, Cache, R.St);
  std::vector<Answer> Answers = Batch.solve(Units);

  // ---- Stage 4: per-obligation verdicts, first failure reported. ----
  // Each obligation's deciding answer, null when proved. An Unknown, or
  // a Sat model that did not extend to a counterexample, leaves every
  // member of its unit unknown.
  std::vector<const Answer *> Decided(Obls.size(), nullptr);
  for (size_t U = 0; U < Units.size(); ++U) {
    const Answer &A = Answers[U];
    if (A.Failing != NoMember)
      Decided[A.Failing] = &A;
    else if (A.O.R != SolverResult::Unsat)
      for (size_t M : Units[U].Members)
        Decided[M] = &A;
  }
  for (size_t I = 0; I < Obls.size(); ++I) {
    if (!Decided[I] || Decided[I]->Failing != I)
      continue;
    R.V = Verdict::Failed;
    R.FailedDescription =
        Obls[I].Description + " (at " + Obls[I].Loc.toString() + ")";
    R.Counterexample = Decided[I]->Counterexample;
    return R;
  }
  for (size_t I = 0; I < Obls.size(); ++I) {
    if (!Decided[I])
      continue;
    const QueryCache::Outcome &O = Decided[I]->O;
    R.V = Verdict::Unknown;
    R.FailedDescription =
        Obls[I].Description + " (at " + Obls[I].Loc.toString() +
        "): " +
        describe(O.R == SolverResult::Sat ? UnknownReason::ModelIncomplete
                                          : O.Why);
    return R;
  }
  return R;
}
