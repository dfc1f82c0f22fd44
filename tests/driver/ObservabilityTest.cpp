//===- tests/driver/ObservabilityTest.cpp - End-to-end tracing tests -------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-process integration tests for the observability subsystem: a real
/// verification run must emit one span per pipeline stage per
/// obligation, populate the counter registry at every layer
/// (driver/pipeline/smt/cache), keep the bench stat renderer and the
/// registry's pipeline.* cells in exact agreement, and record
/// slow-query JSONL rows with the documented fields. Counters and span
/// buffers are process-global, so each test starts from a reset.
///
//===----------------------------------------------------------------------===//

#include "driver/Verifier.h"
#include "pipeline/Pipeline.h"
#include "structures/Registry.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

using namespace ids;

namespace {

class ObservabilityTest : public ::testing::Test {
protected:
  void SetUp() override {
    Source = structures::findBenchmarkSource("singly-linked-list");
    ASSERT_NE(Source, nullptr);
    trace::setSpansEnabled(false);
    trace::resetSpansForTest();
    trace::resetCountersForTest();
  }
  void TearDown() override {
    trace::setSpansEnabled(false);
    trace::resetSpansForTest();
    trace::closeSlowQueryLog();
    trace::setSlowQueryThresholdMs(0);
  }

  driver::ModuleResult verify() {
    DiagEngine Diags;
    driver::VerifyOptions Opts;
    driver::ModuleResult R = driver::verifySource(Source, Opts, Diags);
    EXPECT_TRUE(R.FrontEndOk) << Diags.toString();
    return R;
  }

  /// name -> occurrence count over the current trace buffers.
  std::map<std::string, unsigned> spanCounts(const json::Value &Trace) {
    std::map<std::string, unsigned> N;
    const json::Value *Evs = Trace.get("traceEvents");
    EXPECT_NE(Evs, nullptr);
    if (Evs)
      for (const json::Value &E : Evs->elements())
        ++N[E.get("name")->asString()];
    return N;
  }

  const char *Source = nullptr;
};

TEST_F(ObservabilityTest, VerifyEmitsStageSpans) {
  trace::setSpansEnabled(true);
  driver::ModuleResult R = verify();
  json::Value Trace = trace::chromeTraceJson();
  std::map<std::string, unsigned> N = spanCounts(Trace);

  // One request, one driver span per procedure and impact set.
  EXPECT_EQ(N["driver.request"], 1u);
  EXPECT_EQ(N["driver.proc"], R.Procs.size());
  EXPECT_EQ(N["driver.impact"], R.Impacts.size());

  // Stage coverage: every obligation passes through simplify; everything
  // not discharged there is sliced, cache-probed and solved.
  pipeline::Stats Agg;
  for (const driver::ProcResult &P : R.Procs)
    Agg.merge(P.Pipeline);
  for (const driver::ImpactResult &I : R.Impacts)
    Agg.merge(I.Pipeline);
  EXPECT_EQ(N["pipeline.simplify"], Agg.Obligations);
  EXPECT_EQ(N["pipeline.slice"], Agg.Obligations - Agg.ProvedBySimplify);
  EXPECT_EQ(N["pipeline.cache_probe"], Agg.Obligations - Agg.ProvedBySimplify);
  EXPECT_EQ(N["pipeline.solve"], Agg.Queries);

  // Span args on a solve: procedure attribution, a 32-hex VC hash, and
  // the verdict.
  const json::Value *Evs = Trace.get("traceEvents");
  unsigned Checked = 0;
  for (const json::Value &E : Evs->elements()) {
    if (E.get("name")->asString() != "pipeline.solve")
      continue;
    const json::Value *Args = E.get("args");
    ASSERT_NE(Args, nullptr);
    EXPECT_FALSE(Args->get("proc")->asString().empty());
    const std::string Vc = Args->get("vc")->asString();
    EXPECT_EQ(Vc.size(), 32u);
    for (char C : Vc)
      EXPECT_TRUE((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')) << Vc;
    const std::string Verdict = Args->get("verdict")->asString();
    EXPECT_TRUE(Verdict == "sat" || Verdict == "unsat" ||
                Verdict == "unknown")
        << Verdict;
    ++Checked;
  }
  EXPECT_EQ(Checked, Agg.Queries);
}

TEST_F(ObservabilityTest, VerifyPopulatesEveryLayersCounters) {
  driver::ModuleResult R = verify();
  (void)R;
  std::map<std::string, uint64_t> C;
  for (const auto &[Name, V] : trace::counterSnapshot())
    C[Name] = V;
  EXPECT_EQ(C["driver.requests"], 1u);
  EXPECT_GT(C["driver.procs_solved"], 0u);
  EXPECT_GT(C["pipeline.obligations"], 0u);
  EXPECT_GT(C["pipeline.queries"], 0u);
  EXPECT_GT(C["smt.check_sats"], 0u);
  EXPECT_GT(C["smt.theory_checks"], 0u);
  EXPECT_GT(C["cache.query_lookups"], 0u);
  // Every solver query dispatches through the job system (even --jobs 1
  // runs the inline fast path); snapshot overlays keep term copying out
  // of the dispatch path entirely.
  EXPECT_GT(C["jobs.tasks"], 0u);
  EXPECT_EQ(C["smt.term_imports"], 0u);
  // Spans were never enabled: counters populate regardless.
  const json::Value *Evs = trace::chromeTraceJson().get("traceEvents");
  ASSERT_NE(Evs, nullptr);
  EXPECT_TRUE(Evs->elements().empty());
}

TEST_F(ObservabilityTest, BenchRendererAgreesWithRegistry) {
  // The same StatsRow table feeds pipeline::statsToJson (bench rows) and
  // recordStatsInRegistry (pipeline.* cells); summing the per-proc and
  // per-impact stats the renderer sees must reproduce the registry.
  driver::ModuleResult R = verify();
  pipeline::Stats Agg;
  for (const driver::ProcResult &P : R.Procs)
    Agg.merge(P.Pipeline);
  for (const driver::ImpactResult &I : R.Impacts)
    Agg.merge(I.Pipeline);
  json::Value Rows = pipeline::statsToJson(Agg);
  ASSERT_TRUE(Rows.isObject());
  EXPECT_FALSE(Rows.members().empty());
  std::map<std::string, uint64_t> C;
  for (const auto &[Name, V] : trace::counterSnapshot())
    C[Name] = V;
  for (const auto &[Key, Val] : Rows.members()) {
    ASSERT_EQ(C.count("pipeline." + Key), 1u) << Key;
    EXPECT_EQ(C["pipeline." + Key], uint64_t(Val.asNumber())) << Key;
  }
}

TEST_F(ObservabilityTest, SlowQueryLogRecordsEveryQueryAtTinyThreshold) {
  std::string Path = ::testing::TempDir() + "/obs_test_slow.jsonl";
  std::remove(Path.c_str());
  trace::setSlowQueryThresholdMs(1e-9); // every solver query qualifies
  std::string Error;
  ASSERT_TRUE(trace::openSlowQueryLog(Path, Error)) << Error;
  driver::ModuleResult R = verify();
  trace::closeSlowQueryLog();

  pipeline::Stats Agg;
  for (const driver::ProcResult &P : R.Procs)
    Agg.merge(P.Pipeline);
  for (const driver::ImpactResult &I : R.Impacts)
    Agg.merge(I.Pipeline);

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  unsigned Records = 0;
  while (std::getline(In, Line)) {
    std::string Err;
    json::Value V = json::Value::parse(Line, Err);
    ASSERT_TRUE(Err.empty()) << Line << ": " << Err;
    ASSERT_TRUE(V.isObject());
    for (const char *Key :
         {"ts_us", "proc", "vc", "verdict", "seconds", "atoms"})
      EXPECT_NE(V.get(Key), nullptr) << Key << " missing in: " << Line;
    EXPECT_EQ(V.get("vc")->asString().size(), 32u);
    ++Records;
  }
  // Exactly one record per solved query.
  EXPECT_EQ(Records, Agg.Queries);
  std::remove(Path.c_str());

  // Counter mirror of the log volume.
  uint64_t Slow = 0;
  for (const auto &[Name, V] : trace::counterSnapshot())
    if (Name == "pipeline.slow_queries")
      Slow = V;
  EXPECT_EQ(Slow, Records);
}

} // namespace
