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
#include "support/Log.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
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
    {"escalated_queries",
     [](const Stats &S) { return uint64_t(S.EscalatedQueries); }, false},
    {"prefix_groups", [](const Stats &S) { return uint64_t(S.PrefixGroups); },
     false},
    {"context_reuses",
     [](const Stats &S) { return uint64_t(S.ContextReuses); }, false},
    {"lemmas_retained",
     [](const Stats &S) { return uint64_t(S.LemmasRetained); }, false},
    {"theory_propagations",
     [](const Stats &S) { return S.TheoryPropagations; }, false},
    {"propagation_conflicts",
     [](const Stats &S) { return S.PropagationConflicts; }, false},
    {"cc_registrations_reused",
     [](const Stats &S) { return S.CcRegistrationsReused; }, false},
    {"incr_sat_rechecks",
     [](const Stats &S) { return uint64_t(S.IncrSatRechecks); }, false},
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
  EscalatedQueries += O.EscalatedQueries;
  PrefixGroups += O.PrefixGroups;
  ContextReuses += O.ContextReuses;
  LemmasRetained += O.LemmasRetained;
  TheoryPropagations += O.TheoryPropagations;
  PropagationConflicts += O.PropagationConflicts;
  CcRegistrationsReused += O.CcRegistrationsReused;
  IncrSatRechecks += O.IncrSatRechecks;
  MaxAtoms = std::max(MaxAtoms, O.MaxAtoms);
  MaxArrayLemmas = std::max(MaxArrayLemmas, O.MaxArrayLemmas);
  TotalAtoms += O.TotalAtoms;
  TotalArrayLemmas += O.TotalArrayLemmas;
}

namespace {

/// Solves batches of queries with dedup, caching and parallel dispatch
/// through the work-stealing JobManager. Queries are terms of the
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

    // Shared-prefix batching: obligations of one procedure share most of
    // their guard (the passified program encoding), so their negated-claim
    // queries share a long conjunct prefix. Each batch is solved by ONE
    // worker on ONE incremental context — prefix asserted once at level 0,
    // every member push/checked/popped on top of it.
    std::vector<std::vector<size_t>> Groups =
        Opts.Incremental && !Opts.AllowQuantifiers
            ? groupBySharedPrefix(Queries, RunList)
            : std::vector<std::vector<size_t>>();
    std::vector<char> InGroup(N, 0);
    for (const auto &G : Groups)
      for (size_t Idx : G)
        InGroup[Idx] = 1;

    // Dispatch: singleton queries are independent stealable tasks; each
    // prefix group becomes a dependency chain (prefix solve, then the
    // members in order — they share one SolverContext, so the chain IS
    // the mutual exclusion) whose links any worker can pick up, with
    // escalations and Sat rechecks spawned as independent tasks that
    // float off the group's critical path instead of blocking it.
    {
      jobs::JobManager JM(Opts.Jobs);
      for (size_t Idx : RunList) {
        if (InGroup[Idx])
          continue;
        JM.submit([this, &Queries, &Out, Idx] {
          Out[Idx] = runQuery(Queries[Idx]);
        });
      }
      for (const std::vector<size_t> &G : Groups)
        submitGroup(JM, Queries, G, Out);
      JM.wait();
    }

    St.Queries += static_cast<unsigned>(RunList.size());
    St.EscalatedQueries += Escalations.exchange(0, std::memory_order_relaxed);
    St.PrefixGroups += static_cast<unsigned>(Groups.size());
    for (const auto &G : Groups)
      St.ContextReuses += static_cast<unsigned>(G.size() - 1);
    St.LemmasRetained += GroupLemmasRetained.exchange(0,
                                                      std::memory_order_relaxed);
    St.IncrSatRechecks += SatRechecks.exchange(0, std::memory_order_relaxed);
    St.TheoryPropagations += GroupTheoryProps.exchange(
        0, std::memory_order_relaxed);
    St.PropagationConflicts += GroupPropConflicts.exchange(
        0, std::memory_order_relaxed);
    St.CcRegistrationsReused += GroupCcReused.exchange(
        0, std::memory_order_relaxed);
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
  QueryCache::Outcome attempt(TermRef Query, bool Eager, bool &GaveUp) {
    // Snapshot overlay over the frozen base manager: the query term is
    // directly valid in the overlay's view, so there is no per-task
    // formula copy — the solver's own delta (CNF literals, lemma terms)
    // is all this task ever interns.
    TermManager Local(TM, TermManager::Snapshot{});
    Solver::Options SOpts;
    SOpts.AllowQuantifiers = Opts.AllowQuantifiers;
    SOpts.MaxTheoryChecks = Opts.MaxTheoryChecks;
    SOpts.TimeoutSeconds = Opts.QueryTimeoutSeconds;
    SOpts.EagerArrayInstantiation = Eager;
    SOpts.ClauseDeletion = Opts.ReduceDb;
    Solver S(Local, SOpts);
    QueryCache::Outcome O;
    O.R = S.checkSat(Query);
    O.NumAtoms = S.stats().NumAtoms;
    O.NumArrayLemmas = S.stats().ArrayStats.NumLemmas;
    GaveUp = S.stats().ModelGiveUps > 0;
    if (O.R == Solver::Result::Sat)
      O.ModelText = S.model().toString();
    return O;
  }

  /// Splits a query into its top-level conjuncts (a non-And query is its
  /// own single conjunct).
  static std::vector<TermRef> conjunctsOf(TermRef Query) {
    if (Query->getKind() == TermKind::And)
      return Query->getArgs();
    return {Query};
  }

  /// Greedy grouping of the run list by shared conjunct prefix, over the
  /// run list SORTED by conjunct sequence (lexicographic in term ids):
  /// queries sharing a long prefix become neighbours even when obligation
  /// order separated them — a late loop-exit obligation rejoins the batch
  /// of the loop-entry obligations it branched from, instead of opening a
  /// fresh context (the adjacency-only grouping this replaces split such
  /// clusters; the gain is visible as fewer, larger prefix_groups). A
  /// query joins the open group when the longest common prefix with the
  /// group's prefix stays substantial — at least MinSharedConjuncts and
  /// at least half of the query's own conjuncts. Only groups of two or
  /// more queries are returned; singletons keep the one-shot path.
  std::vector<std::vector<size_t>>
  groupBySharedPrefix(const std::vector<TermRef> &Queries,
                      const std::vector<size_t> &RunList) const {
    constexpr size_t MinSharedConjuncts = 3;
    // Activity-based clause deletion keeps a batch context's learned-DB
    // bounded, but the cap still earns its keep: each extra member grows
    // the context's live atom set (every theory check and BCP pass pays
    // for it). Re-measured after theory propagation and incremental CC
    // registration landed: on the heavy sorted-list queries, 16 or 32
    // members still slow the whole procedure ~50% (7.2s -> ~11s) — the
    // propagation watch set and per-sync re-assert suffix scale with the
    // live atom count, so bigger groups hurt the partial-trail path just
    // as they hurt the full-model path. Eight keeps the shared-prefix
    // reuse win without inflating per-check footprints.
    constexpr size_t MaxGroupSize = 8;
    std::vector<std::vector<TermRef>> Conj(Queries.size());
    for (size_t Idx : RunList)
      Conj[Idx] = conjunctsOf(Queries[Idx]);
    // Term ids are interning order — deterministic for a deterministic
    // run — so the sort (and therefore the grouping) is reproducible.
    // stable_sort keeps duplicate queries (possible with the cache off)
    // in obligation order.
    std::vector<size_t> Sorted(RunList);
    std::stable_sort(Sorted.begin(), Sorted.end(),
                     [&](size_t A, size_t B) {
                       const std::vector<TermRef> &CA = Conj[A];
                       const std::vector<TermRef> &CB = Conj[B];
                       return std::lexicographical_compare(
                           CA.begin(), CA.end(), CB.begin(), CB.end(),
                           [](TermRef X, TermRef Y) {
                             return X->getId() < Y->getId();
                           });
                     });
    std::vector<std::vector<size_t>> Groups;
    std::vector<size_t> Open;
    std::vector<TermRef> OpenPrefix;
    auto Close = [&]() {
      if (Open.size() >= 2)
        Groups.push_back(std::move(Open));
      Open.clear();
    };
    for (size_t Idx : Sorted) {
      if (Open.empty()) {
        Open.push_back(Idx);
        OpenPrefix = Conj[Idx];
        continue;
      }
      size_t Lcp = 0;
      while (Lcp < OpenPrefix.size() && Lcp < Conj[Idx].size() &&
             OpenPrefix[Lcp] == Conj[Idx][Lcp])
        ++Lcp;
      if (Open.size() < MaxGroupSize && Lcp >= MinSharedConjuncts &&
          Lcp * 2 >= Conj[Idx].size()) {
        Open.push_back(Idx);
        OpenPrefix.resize(Lcp);
      } else {
        Close();
        Open.push_back(Idx);
        OpenPrefix = Conj[Idx];
      }
    }
    Close();
    if (logging::debugEnabled("pipe")) {
      for (auto &G : Groups) {
        size_t L = SIZE_MAX; size_t MaxC = 0;
        for (size_t I : G) {
          size_t l = 0;
          while (l < Conj[G[0]].size() && l < Conj[I].size() &&
                 Conj[G[0]][l] == Conj[I][l]) ++l;
          L = std::min(L, l); MaxC = std::max(MaxC, Conj[I].size());
        }
        logging::debugf("pipe", "group size=%zu lcp=%zu maxconj=%zu\n",
                        G.size(), L, MaxC);
      }
    }
    // The sort chose the GROUPING; obligation order remains the better
    // SOLVE order within a group (a procedure's obligations grow harder
    // towards the end, and the hardest member profits most from the
    // lemmas its predecessors left in the context).
    for (std::vector<size_t> &G : Groups)
      std::sort(G.begin(), G.end());
    return Groups;
  }

  /// Shared state of one in-flight prefix group: the overlay manager and
  /// incremental context every member task reuses. Owned by shared_ptr —
  /// the last finished task (finalizer, or a straggling escalation)
  /// releases it.
  struct GroupState {
    explicit GroupState(const TermManager &Base)
        : Local(Base, TermManager::Snapshot{}) {}
    TermManager Local;
    std::unique_ptr<SolverContext> Ctx;
    std::vector<std::vector<TermRef>> Conj;
    size_t Lcp = 0;
    // Per-query stats deltas: the context's atom/lemma counters are
    // cumulative over every member ever pushed, so reporting them raw
    // inflates later members with earlier members' residue and makes
    // max_atoms incomparable with the --no-incremental one-shot path.
    // A member's comparable figure is the shared prefix's share plus
    // what THIS member added on top (measured against the counter level
    // just before its push). Prefix-demanded lemmas first discovered
    // while solving member one are attributed to member one — the same
    // lemmas a one-shot solve of prefix+claim would instantiate.
    unsigned PrefixAtoms = 0;
    unsigned PrefixLemmas = 0;
  };

  /// Submits one shared-prefix batch as a task chain: a prefix task that
  /// asserts the common conjuncts at level 0, then one task per member
  /// (chained — members share the context, so the dependency edge is the
  /// mutual exclusion, but each link is stealable by any idle worker),
  /// then a finalizer folding the context's cumulative stats. Sat
  /// answers are re-confirmed one-shot (clean countermodel) and model
  /// give-ups escalate to the eager instantiation exactly like the
  /// one-shot path — both as independent spawned tasks, so a heavy
  /// escalation no longer stalls the remaining members of its batch.
  void submitGroup(jobs::JobManager &JM, const std::vector<TermRef> &Queries,
                   const std::vector<size_t> &Members,
                   std::vector<QueryCache::Outcome> &Out) {
    auto GS = std::make_shared<GroupState>(TM);
    GS->Conj.reserve(Members.size());
    size_t Lcp = SIZE_MAX;
    for (size_t Idx : Members)
      GS->Conj.push_back(conjunctsOf(Queries[Idx]));
    for (const auto &C : GS->Conj) {
      size_t L = 0;
      while (L < GS->Conj[0].size() && L < C.size() && GS->Conj[0][L] == C[L])
        ++L;
      Lcp = std::min(Lcp, L);
    }
    GS->Lcp = Lcp;

    jobs::JobManager::TaskId Prev =
        JM.submit([this, GS, Size = Members.size()] {
          trace::ScopedSpan GroupSp("pipeline.batch_group");
          if (GroupSp.active()) {
            GroupSp.arg("proc", Opts.TraceLabel);
            GroupSp.arg("size", double(Size));
            GroupSp.arg("lcp", double(GS->Lcp));
          }
          Solver::Options SOpts;
          SOpts.AllowQuantifiers = false;
          SOpts.MaxTheoryChecks = Opts.MaxTheoryChecks;
          SOpts.TimeoutSeconds = Opts.QueryTimeoutSeconds;
          SOpts.ClauseDeletion = Opts.ReduceDb;
          SOpts.TheoryPropagation = Opts.TheoryProp;
          GS->Ctx.reset(new SolverContext(GS->Local, SOpts));
          std::vector<TermRef> Prefix(GS->Conj[0].begin(),
                                      GS->Conj[0].begin() + GS->Lcp);
          GS->Ctx->assertTerm(GS->Local.mkAnd(std::move(Prefix)));
          GS->PrefixAtoms = GS->Ctx->numAtoms();
          GS->PrefixLemmas = GS->Ctx->numArrayLemmas();
        });
    for (size_t M = 0; M < Members.size(); ++M) {
      size_t Idx = Members[M];
      Prev = JM.submit(
          [this, GS, &JM, &Queries, &Out, M, Idx] {
            runGroupMember(*GS, JM, Queries, Out, M, Idx);
          },
          {Prev});
    }
    JM.submit(
        [this, GS] {
          GroupLemmasRetained.fetch_add(GS->Ctx->stats().LemmasRetained,
                                        std::memory_order_relaxed);
          GroupCcReused.fetch_add(GS->Ctx->stats().CcRegistrationsReused,
                                  std::memory_order_relaxed);
        },
        {Prev});
  }

  /// One member round on the group's shared context: push, assert the
  /// member's delta past the common prefix, check, pop.
  void runGroupMember(GroupState &GS, jobs::JobManager &JM,
                      const std::vector<TermRef> &Queries,
                      std::vector<QueryCache::Outcome> &Out, size_t M,
                      size_t Idx) {
    SolverContext &Ctx = *GS.Ctx;
    trace::ScopedSpan Sp("pipeline.solve");
    const uint64_t T0 = trace::nowUs();
    const unsigned AtomsBefore = Ctx.numAtoms();
    const unsigned LemmasBefore = Ctx.numArrayLemmas();
    Ctx.push();
    for (size_t K = GS.Lcp; K < GS.Conj[M].size(); ++K)
      Ctx.assertTerm(GS.Conj[M][K]);
    Solver::Result R = Ctx.checkSat();
    const SolverContext::CheckStats &CS = Ctx.lastCheckStats();
    Ctx.pop();
    GroupTheoryProps.fetch_add(CS.TheoryPropagations,
                               std::memory_order_relaxed);
    GroupPropConflicts.fetch_add(CS.PropagationConflicts,
                                 std::memory_order_relaxed);
    // The batched round's own result; only the terminal branches publish
    // it to Out[Idx]. When a follow-up task (escalation / Sat recheck)
    // is spawned, THAT task is the sole writer of Out[Idx] — the member
    // task records its span/slow rows from this local copy so the two
    // never race on the shared slot.
    QueryCache::Outcome Batched;
    Batched.R = R;
    Batched.NumAtoms =
        GS.PrefixAtoms + (CS.NumAtoms - std::min(CS.NumAtoms, AtomsBefore));
    Batched.NumArrayLemmas =
        GS.PrefixLemmas +
        (CS.NumArrayLemmas - std::min(CS.NumArrayLemmas, LemmasBefore));
    if (R == Solver::Result::Unsat) {
      Out[Idx] = Batched;
    } else if (R == Solver::Result::Unknown && CS.ModelGiveUps > 0) {
      // Same escalation rule as the one-shot path: a model give-up is
      // worth the quadratic eager instantiation; a budget or timeout
      // Unknown would just exhaust again. The escalation solves fresh
      // against the frozen base, so it runs as its own stealable task
      // off the group chain instead of stalling the remaining members;
      // its slow-query row is the member's one record.
      if (Sp.active())
        Sp.arg("escalating", 1.0);
      JM.submit([this, &Queries, &Out, Idx, Batched] {
        double Sec = 0;
        Out[Idx] = escalate(Queries[Idx], Batched, Sec);
        maybeRecordSlow(Queries[Idx], Sec, Sec, Out[Idx], /*Batched=*/true);
      });
      finishQuerySpan(Sp, Queries[Idx], Batched, /*Batched=*/true);
      return;
    } else if (R == Solver::Result::Sat) {
      // A batch-context model ranges over every atom the context has
      // ever seen (stale claims included); re-solve fresh for a clean,
      // independently validated countermodel — as its own stealable
      // task. The recheck logs its own slow-query row tagged
      // recheck:true and does not bump pipeline.slow_queries — the
      // member's batched row below is the real record, one per member.
      JM.submit([this, &Queries, &Out, Idx] {
        Out[Idx] = runQuery(Queries[Idx], /*Recheck=*/true);
        SatRechecks.fetch_add(1, std::memory_order_relaxed);
      });
    } else {
      Batched.R = Solver::Result::Unknown;
      Out[Idx] = Batched;
    }
    finishQuerySpan(Sp, Queries[Idx], Batched, /*Batched=*/true);
    maybeRecordSlow(Queries[Idx], double(trace::nowUs() - T0) / 1e6,
                    /*EscalateSec=*/0, Batched, /*Batched=*/true);
  }

  QueryCache::Outcome runQuery(TermRef Query, bool Recheck = false) {
    trace::ScopedSpan Sp("pipeline.solve");
    const uint64_t T0 = trace::nowUs();
    bool GaveUp = false;
    QueryCache::Outcome O = attempt(Query, /*Eager=*/false, GaveUp);
    double EscalateSec = 0;
    if (O.R == Solver::Result::Unknown && GaveUp)
      O = escalate(Query, O, EscalateSec);
    finishQuerySpan(Sp, Query, O, /*Batched=*/false);
    maybeRecordSlow(Query, double(trace::nowUs() - T0) / 1e6, EscalateSec, O,
                    /*Batched=*/false, Recheck);
    return O;
  }

  /// Escalation of a model give-up (\p Prior, from the relevancy-driven
  /// instantiation, whose model builder leaves extensional gaps on a few
  /// query shapes): re-solves \p Query one-shot with the blind array
  /// product, quadratically bigger but decisive on them. Unknown is only
  /// reported once both attempts fail. Only model give-ups escalate — a
  /// budget or timeout Unknown would just exhaust again on the larger
  /// query. The atom and lemma counters report the max of both attempts;
  /// \p Sec receives the escalation's wall time.
  QueryCache::Outcome escalate(TermRef Query, const QueryCache::Outcome &Prior,
                               double &Sec) {
    const uint64_t T0 = trace::nowUs();
    QueryCache::Outcome O;
    {
      trace::ScopedSpan Esc("pipeline.escalate");
      if (Esc.active()) {
        Esc.arg("proc", Opts.TraceLabel);
        Esc.arg("vc", vcHashHex(Query));
      }
      bool GaveUp = false;
      O = attempt(Query, /*Eager=*/true, GaveUp);
    }
    O.NumAtoms = std::max(Prior.NumAtoms, O.NumAtoms);
    O.NumArrayLemmas = std::max(Prior.NumArrayLemmas, O.NumArrayLemmas);
    Sec = double(trace::nowUs() - T0) / 1e6;
    Escalations.fetch_add(1, std::memory_order_relaxed);
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
                       const QueryCache::Outcome &O, bool Batched) {
    if (!Sp.active())
      return;
    Sp.arg("proc", Opts.TraceLabel);
    Sp.arg("vc", vcHashHex(Query));
    Sp.arg("verdict", verdictName(O.R));
    Sp.arg("atoms", double(O.NumAtoms));
    Sp.arg("array_lemmas", double(O.NumArrayLemmas));
    if (Batched)
      Sp.arg("batched", 1.0);
  }

  /// Appends a JSONL record when \p Sec crosses --slow-query-ms (no-op
  /// with the threshold unset). One line per heavy query: the artifact
  /// that turns "insert is slow" folklore into attributable data.
  /// Recheck rows (the one-shot Sat re-confirmation of a batched member)
  /// are tagged recheck:true and excluded from pipeline.slow_queries —
  /// the member's batched row already counts it once.
  void maybeRecordSlow(TermRef Query, double Sec, double EscalateSec,
                       const QueryCache::Outcome &O, bool Batched,
                       bool Recheck = false) {
    double Th = trace::slowQueryThresholdMs();
    if (Th <= 0 || Sec * 1000.0 < Th)
      return;
    static trace::Counter &SlowC = trace::counter("pipeline.slow_queries");
    if (!Recheck)
      SlowC.add();
    json::Value Rec = json::Value::object();
    Rec.set("ts_us", json::Value::number(double(trace::nowUs())));
    Rec.set("proc", json::Value::string(Opts.TraceLabel));
    Rec.set("vc", json::Value::string(vcHashHex(Query)));
    Rec.set("verdict", json::Value::string(verdictName(O.R)));
    Rec.set("seconds", json::Value::number(Sec));
    Rec.set("escalate_seconds", json::Value::number(EscalateSec));
    Rec.set("atoms", json::Value::number(double(O.NumAtoms)));
    Rec.set("array_lemmas", json::Value::number(double(O.NumArrayLemmas)));
    Rec.set("batched", json::Value::boolean(Batched));
    if (Recheck)
      Rec.set("recheck", json::Value::boolean(true));
    trace::appendSlowQuery(Rec);
  }

  /// The caller's manager, frozen for the lifetime of this solver: the
  /// shared read-only base every per-task overlay snapshots from.
  const TermManager &TM;
  const Options &Opts;
  QueryCache *Cache;
  Stats &St;
  std::atomic<unsigned> Escalations{0};
  std::atomic<unsigned> SatRechecks{0};
  std::atomic<uint64_t> GroupLemmasRetained{0};
  std::atomic<uint64_t> GroupTheoryProps{0};
  std::atomic<uint64_t> GroupPropConflicts{0};
  std::atomic<uint64_t> GroupCcReused{0};
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
  // dropped conjuncts may be infeasible), a group model does not name
  // the failing member, and a model of a simplified query lacks the
  // equality-substituted variables a user needs in a counterexample.
  // Re-checking the untransformed obligation settles all three.
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
  std::unordered_map<size_t, std::string> Models;
  bool GroupNoWitness = false;
  for (size_t U = 0; U < Units.size(); ++U) {
    const Unit &Un = Units[U];
    const QueryCache::Outcome &O1 = MainOut[U];
    if (O1.R == Solver::Result::Unsat)
      continue;
    if (O1.R == Solver::Result::Unknown) {
      for (size_t M : Un.Members)
        V[M] = OV::Unknown;
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
    R.FailedDescription =
        Obls[I].Description + " (at " + Obls[I].Loc.toString() + "): " +
        (Opts.AllowQuantifiers
             ? "quantified encoding: instantiation was incomplete"
             : "solver resource budget exhausted");
    return R;
  }
  return R;
}
