//===- bench/bench_rq3_scatter.cpp - RQ3 scatter plot ----------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the RQ3 scatter plot of Section 5.3 (E2 in DESIGN.md):
/// verification time of the decidable quantifier-free encoding (x axis,
/// "Boogie" in the paper) against the quantified "Dafny-style" encoding
/// (y axis) for each method. The paper's claim is that quantified
/// encodings are slower and unpredictable (they may fail outright). The
/// encodings differ only at call sites, whose frame and allocation axioms
/// the quantified encoding states with quantifiers, so only methods that
/// make a call can show a gap. Both encodings run on the same solver
/// configuration, so the gap is the encoding's. An `unknown` names the
/// reason the solver reported and where (instantiation incomplete, or
/// the 45 s per-query time limit): the unpredictability the paper's
/// approach eliminates by construction.
///
/// Exits nonzero when the two encodings contradict each other on a
/// method (one verified, the other failed): an unknown proves nothing,
/// but a contradiction is a soundness bug in one of them.
///
//===----------------------------------------------------------------------===//

#include "driver/Verifier.h"
#include "structures/Registry.h"

#include <cstdio>
#include <string>

using namespace ids;

namespace {

/// "verified", "failed", or "unknown: " and the pipeline's report of the
/// undecided obligation ("DESCRIPTION (at L:C): REASON").
std::string statusText(const driver::ProcResult &P) {
  if (P.St == driver::Status::Verified)
    return "verified";
  if (P.St == driver::Status::Failed)
    return "failed";
  return "unknown: " + P.FailedObligation;
}

bool contradicts(driver::Status A, driver::Status B) {
  return (A == driver::Status::Verified && B == driver::Status::Failed) ||
         (A == driver::Status::Failed && B == driver::Status::Verified);
}

} // namespace

int main() {
  printf("RQ3 scatter series: QF (Boogie-style) vs quantified "
         "(Dafny-style) verification time per method\n");
  printf("%-22s %-26s %12s %14s  %s\n", "Structure", "Method", "QF (s)",
         "Quant (s)", "Quant status");
  printf("---------------------------------------------------------------"
         "---------------------\n");
  double QfTotal = 0, QuantTotal = 0;
  unsigned QuantFailures = 0, Contradictions = 0, N = 0;
  for (const structures::Benchmark &B : structures::allBenchmarks()) {
    DiagEngine D1, D2;
    driver::VerifyOptions QfOpts;
    QfOpts.CheckImpacts = false;
    QfOpts.VcSplits = 8;
    QfOpts.QueryTimeoutSeconds = 45;
    driver::VerifyOptions QuantOpts = QfOpts;
    QuantOpts.QuantifiedMode = true;
    driver::ModuleResult Qf = driver::verifySource(B.Source, QfOpts, D1);
    driver::ModuleResult Quant =
        driver::verifySource(B.Source, QuantOpts, D2);
    for (size_t I = 0; I < Qf.Procs.size() && I < Quant.Procs.size();
         ++I) {
      const driver::ProcResult &P1 = Qf.Procs[I];
      const driver::ProcResult &P2 = Quant.Procs[I];
      std::string St = statusText(P2);
      if (P1.St != driver::Status::Verified)
        St += "; QF " + statusText(P1);
      if (contradicts(P1.St, P2.St)) {
        St += "  CONTRADICTION";
        ++Contradictions;
      }
      printf("%-22s %-26s %12.2f %14.2f  %s\n", B.Table2Name,
             P1.Name.c_str(), P1.Seconds, P2.Seconds, St.c_str());
      QfTotal += P1.Seconds;
      QuantTotal += P2.Seconds;
      if (P2.St != driver::Status::Verified)
        ++QuantFailures;
      ++N;
    }
  }
  printf("\nTotals over %u methods: QF %.2fs, quantified %.2fs "
         "(%u quantified runs did not verify).\n",
         N, QfTotal, QuantTotal, QuantFailures);
  printf("Paper reference: the scatter plot of Section 5.3 shows the "
         "quantified (Dafny) encoding\nconsistently above the diagonal — "
         "decidable QF encodings are faster and predictable.\n");
  if (Contradictions != 0) {
    fprintf(stderr,
            "%u methods verified under one encoding and failed under the "
            "other\n",
            Contradictions);
    return 1;
  }
  return 0;
}
