//===- tests/driver/RefutationTest.cpp - Mutant refutation corpus ---------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every mutant drops one heap or ghost update from a Table 2 procedure,
/// which leaves one conjunct of its specification unprovable. The
/// verifier must refute each mutant with a counterexample, both as it is
/// and with a fresh `assume` at the top of the body, and model
/// construction must never give up on the way: each of these VCs is a
/// quantifier-free formula in a decidable combination, so `unknown` would
/// be a solver defect. Each refuted obligation is solved once: the
/// counterexample extends the simplified query's model, at `--jobs 1` and
/// inside the pool workers at `--jobs 4` alike.
///
//===----------------------------------------------------------------------===//

#include "driver/Verifier.h"
#include "structures/Registry.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

using namespace ids;

namespace {

struct Mutant {
  const char *Module;
  const char *Proc;
  const char *DroppedLine;
  /// An int term in scope at the top of the body, for the assume variant.
  const char *AssumeTerm;
};

const Mutant Mutants[] = {
    {"singly-linked-list", "insert_front", "  Mut(x.prev, z);", "k"},
    {"singly-linked-list", "insert_front", "  Mut(z.length, x.length + 1);",
     "k"},
    {"singly-linked-list", "insert_front",
     "  Mut(z.keys, {k} union x.keys);", "k"},
    {"singly-linked-list", "insert_front",
     "  Mut(z.hslist, {z} union x.hslist);", "k"},
    {"circular-list", "insert_after", "    Mut(y.prev, z);", "k"},
    {"circular-list", "insert_after", "    Mut(z.prev, x);", "k"},
    {"circular-list", "insert_after", "    Mut(z.last, x.last);", "k"},
    {"circular-list", "insert_after",
     "    Mut(z.rank, ite(x == x.last, y.rank + 1, (x.rank + y.rank) / 2));",
     "k"},
    {"bst-scaffold", "register_node", "    Mut(h.sprev, z);", "k"},
    {"bst-scaffold", "register_node", "    Mut(z.scount, h.scount + 1);",
     "k"},
    {"bst-scaffold", "register_node", "    Mut(z.min, k);", "k"},
    {"bst-scaffold", "register_node", "    Mut(z.max, k);", "k"},
    {"red-black-tree", "paint_root_black", "    Mut(root.red, false);",
     "root.key"},
    {"scheduler-queue", "enqueue", "    Mut(h.qprev, z);", "k"},
    {"scheduler-queue", "enqueue", "    Mut(z.qlen, h.qlen + 1);", "k"},
    {"scheduler-queue", "enqueue", "    Mut(z.qkeys, {k} union h.qkeys);",
     "k"},
    {"scheduler-queue", "enqueue", "    Mut(z.min, k);", "k"},
    {"scheduler-queue", "enqueue", "    Mut(z.max, k);", "k"},
};

/// [begin, end) of \p Proc's text in \p Src: up to the next procedure.
std::pair<size_t, size_t> procSpan(const std::string &Src,
                                   const std::string &Proc) {
  size_t B = Src.find("\nprocedure " + Proc + "(");
  if (B == std::string::npos)
    return {B, B};
  size_t E = Src.find("\nprocedure ", B + 1);
  return {B, E == std::string::npos ? Src.size() : E};
}

/// \p Src without the mutant's line, or "" unless the line occurs exactly
/// once in the procedure.
std::string dropLine(std::string Src, const Mutant &M) {
  auto [Begin, End] = procSpan(Src, M.Proc);
  if (Begin == std::string::npos)
    return "";
  std::string Line = std::string("\n") + M.DroppedLine + "\n";
  size_t At = Src.find(Line, Begin);
  if (At == std::string::npos || At >= End || Src.find(Line, At + 1) < End)
    return "";
  return Src.erase(At, Line.size() - 1);
}

/// \p Src with `assume TERM != 1001;` after the procedure's var lines.
std::string addAssume(std::string Src, const Mutant &M) {
  size_t Body = Src.find("\n{\n", procSpan(Src, M.Proc).first);
  if (Body == std::string::npos)
    return "";
  size_t At = Body + 3;
  while (Src.compare(At, 6, "  var ") == 0)
    At = Src.find('\n', At) + 1;
  return Src.insert(At, std::string("  assume ") + M.AssumeTerm +
                            " != 1001;\n");
}

driver::ModuleResult refute(const std::string &Src, const Mutant &M,
                            unsigned Jobs, DiagEngine &Diags) {
  driver::VerifyOptions Opts;
  Opts.Jobs = Jobs;
  Opts.OnlyProc = M.Proc;
  Opts.CheckImpacts = false;
  return driver::verifySource(Src, Opts, Diags);
}

TEST(RefutationTest, EveryMutantFailsWithACounterexample) {
  trace::Counter &GiveUps = trace::counter("smt.model_give_ups");
  trace::Counter &Obligations = trace::counter("pipeline.obligations");
  trace::Counter &BySimplify = trace::counter("pipeline.proved_by_simplify");
  trace::Counter &Hits = trace::counter("pipeline.cache_hits");
  trace::Counter &Queries = trace::counter("pipeline.queries");
  const uint64_t Before = GiveUps.value();
  const uint64_t Solvable0 =
      Obligations.value() - BySimplify.value() - Hits.value();
  const uint64_t Queries0 = Queries.value();
  unsigned Requests = 0;
  std::vector<std::string> PlainFailures;
  for (const Mutant &M : Mutants) {
    const structures::Benchmark *B = structures::findBenchmark(M.Module);
    ASSERT_NE(B, nullptr) << M.Module;
    const std::string Plain = dropLine(B->Source, M);
    ASSERT_FALSE(Plain.empty()) << M.Module << ": `" << M.DroppedLine
                                << "` is not a unique line of " << M.Proc;
    const std::string Variants[] = {Plain, addAssume(Plain, M)};
    for (int V = 0; V < 2; ++V) {
      SCOPED_TRACE(std::string(M.Module) + ":" + M.Proc + " without `" +
                   M.DroppedLine + "`" + (V ? " (with an assume)" : ""));
      const std::string &Src = Variants[V];
      ASSERT_FALSE(Src.empty());
      DiagEngine Diags;
      driver::ModuleResult R = refute(Src, M, /*Jobs=*/1, Diags);
      ++Requests;
      ASSERT_TRUE(R.FrontEndOk) << Diags.toString();
      ASSERT_EQ(R.Procs.size(), 1u);
      EXPECT_EQ(R.Procs[0].St, driver::Status::Failed)
          << R.Procs[0].FailedObligation;
      EXPECT_FALSE(R.Procs[0].Counterexample.empty());
      if (V == 0)
        PlainFailures.push_back(R.Procs[0].FailedObligation);
    }
  }
  EXPECT_EQ(Requests, 36u);
  EXPECT_EQ(GiveUps.value(), Before);
  // One solve per obligation the simplifier and the cache leave over: a
  // Sat answer is turned into its counterexample without a second solve.
  EXPECT_EQ(Queries.value() - Queries0,
            Obligations.value() - BySimplify.value() - Hits.value() -
                Solvable0);

  // The same refutations on four pool workers: model extension runs
  // inside the solve tasks, and the reported obligation is the first
  // failure in obligation order whatever the schedule. (Under --splits it
  // is the first member its group's model satisfies; see
  // pipeline::Options::VcSplits.)
  ASSERT_EQ(PlainFailures.size(), std::size(Mutants));
  for (size_t I = 0; I < std::size(Mutants); ++I) {
    const Mutant &M = Mutants[I];
    SCOPED_TRACE(std::string(M.Module) + ":" + M.Proc + " without `" +
                 M.DroppedLine + "` at --jobs 4");
    DiagEngine Diags;
    driver::ModuleResult R = refute(
        dropLine(structures::findBenchmark(M.Module)->Source, M), M,
        /*Jobs=*/4, Diags);
    ASSERT_TRUE(R.FrontEndOk) << Diags.toString();
    ASSERT_EQ(R.Procs.size(), 1u);
    EXPECT_EQ(R.Procs[0].St, driver::Status::Failed);
    EXPECT_EQ(R.Procs[0].FailedObligation, PlainFailures[I]);
    EXPECT_FALSE(R.Procs[0].Counterexample.empty());
  }
  EXPECT_EQ(GiveUps.value(), Before);
}

} // namespace
