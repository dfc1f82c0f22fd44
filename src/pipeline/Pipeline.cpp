//===- pipeline/Pipeline.cpp - VC pipeline facade --------------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "pipeline/Simplify.h"
#include "pipeline/Slice.h"
#include "smt/Solver.h"
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
    {"conjuncts_before_slice",
     [](const Stats &S) { return uint64_t(S.ConjunctsBeforeSlice); }, false},
    {"conjuncts_sliced",
     [](const Stats &S) { return uint64_t(S.ConjunctsSliced); }, false},
    {"queries", [](const Stats &S) { return uint64_t(S.Queries); }, false},
    {"cache_hits", [](const Stats &S) { return uint64_t(S.CacheHits); },
     false},
    {"slice_fallbacks",
     [](const Stats &S) { return uint64_t(S.SliceFallbacks); }, false},
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
  ConjunctsBeforeSlice += O.ConjunctsBeforeSlice;
  ConjunctsSliced += O.ConjunctsSliced;
  Queries += O.Queries;
  CacheHits += O.CacheHits;
  SliceFallbacks += O.SliceFallbacks;
  MaxAtoms = std::max(MaxAtoms, O.MaxAtoms);
  MaxArrayLemmas = std::max(MaxArrayLemmas, O.MaxArrayLemmas);
  TotalAtoms += O.TotalAtoms;
  TotalArrayLemmas += O.TotalArrayLemmas;
}

namespace {

/// Solves batches of queries with dedup, caching and parallel dispatch
/// through the JobManager thread pool. Queries are terms of the
/// caller's manager, which must stay FROZEN for the duration of solve():
/// every solve happens in a private snapshot-overlay manager that shares
/// the frozen base read-only and pays only for its own delta — the
/// per-task full-formula TermManager::import copy is gone.
class BatchSolver {
public:
  BatchSolver(const TermManager &TM, const Options &Opts, QueryCache *Cache,
              Stats &St)
      : TM(TM), Opts(Opts), Cache(Opts.Cache ? Cache : nullptr), St(St) {}

  std::vector<QueryCache::Outcome> solve(const std::vector<TermRef> &Queries) {
    size_t N = Queries.size();
    std::vector<QueryCache::Outcome> Out(N);
    std::vector<size_t> RunList;
    std::vector<std::pair<size_t, size_t>> Dups; // (dup index, owner index)
    std::vector<QueryCache::Key> Keys(N);
    if (Opts.Cache) {
      std::unordered_map<QueryCache::Key, size_t, QueryCache::KeyHash> Owner;
      for (size_t I = 0; I < N; ++I) {
        trace::ScopedSpan Sp("pipeline.cache_probe");
        Keys[I] = QueryCache::keyFor(Queries[I]);
        if (Sp.active()) {
          Sp.arg("proc", Opts.TraceLabel);
          Sp.arg("vc", vcHashHex(Queries[I]));
        }
        if (Cache && Cache->lookup(Keys[I], Out[I])) {
          if (Sp.active())
            Sp.arg("hit", 1.0);
          ++St.CacheHits;
          continue;
        }
        auto [It, Inserted] = Owner.emplace(Keys[I], I);
        if (!Inserted) {
          Dups.emplace_back(I, It->second);
          if (Sp.active())
            Sp.arg("dup", 1.0);
          ++St.CacheHits;
        } else {
          RunList.push_back(I);
        }
      }
    } else {
      for (size_t I = 0; I < N; ++I)
        RunList.push_back(I);
    }

    // Dispatch: every query is an independent pool task.
    {
      jobs::JobManager JM(Opts.Jobs);
      for (size_t Idx : RunList)
        JM.submit([this, &Queries, &Out, Idx] {
          Out[Idx] = runQuery(Queries[Idx]);
        });
      JM.wait();
    }

    St.Queries += static_cast<unsigned>(RunList.size());
    for (size_t Idx : RunList) {
      St.TotalAtoms += Out[Idx].NumAtoms;
      St.TotalArrayLemmas += Out[Idx].NumArrayLemmas;
      // Only definitive outcomes (Sat/Unsat) are cacheable: an Unknown
      // earned under this run's budget/timeout must never answer a later
      // solve of the same query under a larger budget. (QueryCache
      // rejects Unknowns itself too; the guard here keeps the intent at
      // the call site. In-batch duplicate sharing above is unaffected —
      // duplicates within one solve() ran under identical budgets.)
      if (Cache && Out[Idx].R != Solver::Result::Unknown)
        Cache->insert(Keys[Idx], Out[Idx]);
    }
    for (auto [Dup, OwnerIdx] : Dups)
      Out[Dup] = Out[OwnerIdx];
    for (const QueryCache::Outcome &O : Out) {
      St.MaxAtoms = std::max(St.MaxAtoms, O.NumAtoms);
      St.MaxArrayLemmas = std::max(St.MaxArrayLemmas, O.NumArrayLemmas);
    }
    return Out;
  }

private:
  /// One solve of \p Query. Quantifier-free queries get a fresh
  /// SolverContext holding the query as its single assertion;
  /// --no-incremental and the quantified encoding use the one-shot
  /// reference Solver.
  QueryCache::Outcome solveOne(TermRef Query) {
    // Snapshot overlay over the frozen base manager: the query term is
    // directly valid in the overlay's view, so there is no per-task
    // formula copy — the solver's own delta (CNF literals, lemma terms)
    // is all this task ever interns.
    TermManager Local(TM, TermManager::Snapshot{});
    Solver::Options SOpts;
    SOpts.AllowQuantifiers = Opts.AllowQuantifiers;
    SOpts.MaxTheoryChecks = Opts.MaxTheoryChecks;
    SOpts.TimeoutSeconds = Opts.QueryTimeoutSeconds;
    SOpts.ClauseDeletion = Opts.ReduceDb;
    QueryCache::Outcome O;
    if (Opts.Incremental && !Opts.AllowQuantifiers) {
      SOpts.TheoryPropagation = Opts.TheoryProp;
      SolverContext Ctx(Local, SOpts);
      Ctx.assertTerm(Query);
      O.R = Ctx.checkSat();
      O.NumAtoms = Ctx.stats().NumAtoms;
      O.NumArrayLemmas = Ctx.numArrayLemmas();
      O.Why = Ctx.stats().Why;
      if (O.R == Solver::Result::Sat)
        O.ModelText = Ctx.model().toString();
      return O;
    }
    Solver S(Local, SOpts);
    O.R = S.checkSat(Query);
    O.NumAtoms = S.stats().NumAtoms;
    O.NumArrayLemmas = S.stats().ArrayStats.NumLemmas;
    O.Why = S.stats().Why;
    if (O.R == Solver::Result::Sat)
      O.ModelText = S.model().toString();
    return O;
  }

  QueryCache::Outcome runQuery(TermRef Query) {
    trace::ScopedSpan Sp("pipeline.solve");
    const uint64_t T0 = trace::nowUs();
    QueryCache::Outcome O = solveOne(Query);
    finishQuerySpan(Sp, Query, O);
    maybeRecordSlow(Query, double(trace::nowUs() - T0) / 1e6, O);
    return O;
  }

  static const char *verdictName(Solver::Result R) {
    switch (R) {
    case Solver::Result::Sat:
      return "sat";
    case Solver::Result::Unsat:
      return "unsat";
    case Solver::Result::Unknown:
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

  // ---- Stage 1: simplify + slice each obligation. ----
  struct Prepared {
    TermRef Query = nullptr; ///< negated obligation, simplified + sliced
    TermRef Orig = nullptr;  ///< the untransformed negated obligation
    bool Sliced = false;
    bool Proved = false; ///< discharged by the simplifier
  };
  std::vector<Prepared> Prep(Obls.size());
  Simplifier Simp(TM);
  SimplifyStats SimpStats;
  for (size_t I = 0; I < Obls.size(); ++I) {
    TermRef Guard = Obls[I].Guard;
    TermRef Claim = Obls[I].Claim;
    Prep[I].Orig = TM.mkAnd(Guard, TM.mkNot(Claim));
    // The QF cross-check must see the obligation BEFORE slicing or
    // simplification — a quantifier in a sliced-away conjunct is still a
    // vcgen invariant break.
    if (Opts.CrossCheckQf && !Opts.AllowQuantifiers &&
        TM.containsQuantifier(Prep[I].Orig)) {
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
      Simplified =
          Opts.Simplify && Simp.simplifyObligation(Guard, Claim, &SimpStats);
    }
    if (Simplified) {
      Prep[I].Proved = true;
      continue;
    }
    Prep[I].Query = TM.mkAnd(Guard, TM.mkNot(Claim));
    if (Opts.Slice) {
      trace::ScopedSpan Sp("pipeline.slice");
      if (Sp.active()) {
        Sp.arg("proc", Opts.TraceLabel);
        Sp.arg("vc", vcHashHex(Prep[I].Orig));
      }
      std::vector<TermRef> Conjuncts = guardConjuncts(Guard);
      R.St.ConjunctsBeforeSlice += static_cast<unsigned>(Conjuncts.size());
      SliceStats SS;
      std::vector<TermRef> Kept = sliceGuard(Conjuncts, Claim, &SS);
      R.St.ConjunctsSliced += SS.ConjunctsDropped;
      if (Kept.size() != Conjuncts.size()) {
        Prep[I].Query = TM.mkAnd(TM.mkAnd(std::move(Kept)), TM.mkNot(Claim));
        Prep[I].Sliced = true;
      }
    }
  }
  R.St.ProvedBySimplify = SimpStats.ProvedTrivially;

  // ---- Stage 2: form query units (per obligation, or legacy groups). ----
  struct Unit {
    TermRef MainQuery;
    std::vector<size_t> Members;
  };
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

  // ---- Stage 3: solve the main queries. ----
  // Every query term (main, and the Stage-4 resolution queries, which
  // reuse the Stage-1 originals) is already built: freeze the manager so
  // worker tasks can share it read-only through snapshot overlays. The
  // guard thaws on every exit path — callers reuse the manager across
  // solveObligations calls.
  struct FreezeGuard {
    TermManager &TM;
    explicit FreezeGuard(TermManager &TM) : TM(TM) { TM.freeze(); }
    ~FreezeGuard() { TM.thaw(); }
  } Freeze{TM};
  BatchSolver Batch(TM, Opts, Cache, R.St);
  std::vector<TermRef> MainQueries;
  MainQueries.reserve(Units.size());
  for (const Unit &U : Units)
    MainQueries.push_back(U.MainQuery);
  std::vector<QueryCache::Outcome> MainOut = Batch.solve(MainQueries);

  // ---- Stage 4: resolve Sat units against the original obligations. ----
  // A Sat answer is definitive only for a single-obligation query that
  // is still the original: slicing can manufacture spurious models (the
  // dropped conjuncts may be infeasible), and a group model does not name
  // the failing member. Re-checking the untransformed obligation settles
  // both. (The simplifier only discharges obligations outright; it never
  // rewrites the query a surviving obligation is solved as.)
  std::vector<TermRef> ResQueries;
  std::unordered_map<size_t, size_t> ResIdx; // obligation -> res query index
  for (size_t U = 0; U < Units.size(); ++U) {
    if (MainOut[U].R != Solver::Result::Sat)
      continue;
    const Unit &Un = Units[U];
    if (Un.Members.size() == 1 &&
        Prep[Un.Members[0]].Query == Prep[Un.Members[0]].Orig)
      continue; // untransformed single query: Sat is a real counterexample
    for (size_t M : Un.Members) {
      ResIdx.emplace(M, ResQueries.size());
      ResQueries.push_back(Prep[M].Orig);
      if (Prep[M].Sliced)
        ++R.St.SliceFallbacks;
    }
  }
  std::vector<QueryCache::Outcome> ResOut = Batch.solve(ResQueries);

  // ---- Stage 5: per-obligation verdicts, first failure reported. ----
  enum class OV { Proved, Failed, Unknown };
  std::vector<OV> V(Obls.size(), OV::Proved);
  std::vector<UnknownReason> Why(Obls.size(), UnknownReason::None);
  std::unordered_map<size_t, std::string> Models;
  bool GroupNoWitness = false;
  for (size_t U = 0; U < Units.size(); ++U) {
    const Unit &Un = Units[U];
    const QueryCache::Outcome &O1 = MainOut[U];
    if (O1.R == Solver::Result::Unsat)
      continue;
    if (O1.R == Solver::Result::Unknown) {
      for (size_t M : Un.Members) {
        V[M] = OV::Unknown;
        Why[M] = O1.Why;
      }
      continue;
    }
    if (Un.Members.size() == 1 &&
        Prep[Un.Members[0]].Query == Prep[Un.Members[0]].Orig) {
      V[Un.Members[0]] = OV::Failed;
      Models[Un.Members[0]] = O1.ModelText;
      continue;
    }
    bool AnySat = false, AnyUnknown = false, AnyTransformed = false;
    for (size_t M : Un.Members) {
      const QueryCache::Outcome &O2 = ResOut[ResIdx[M]];
      AnyTransformed |= Prep[M].Query != Prep[M].Orig;
      if (O2.R == Solver::Result::Sat) {
        V[M] = OV::Failed;
        Models[M] = O2.ModelText;
        AnySat = true;
      } else if (O2.R == Solver::Result::Unknown) {
        V[M] = OV::Unknown;
        Why[M] = O2.Why;
        AnyUnknown = true;
      }
    }
    // Every member refuted on its original form: the unit's model came
    // from a pipeline transform (fine — all proved). With no transform
    // in play that state is an internal inconsistency; preserve the
    // legacy diagnosis.
    if (!AnySat && !AnyUnknown && !AnyTransformed)
      GroupNoWitness = true;
  }

  for (size_t I = 0; I < Obls.size(); ++I) {
    if (V[I] != OV::Failed)
      continue;
    R.V = Verdict::Failed;
    R.FailedDescription =
        Obls[I].Description + " (at " + Obls[I].Loc.toString() + ")";
    R.Counterexample = Models[I];
    return R;
  }
  if (GroupNoWitness) {
    R.V = Verdict::Failed;
    R.FailedDescription = "obligation group failed but no single witness found";
    return R;
  }
  for (size_t I = 0; I < Obls.size(); ++I) {
    if (V[I] != OV::Unknown)
      continue;
    R.V = Verdict::Unknown;
    R.FailedDescription = Obls[I].Description + " (at " +
                          Obls[I].Loc.toString() + "): " + describe(Why[I]);
    return R;
  }
  return R;
}
