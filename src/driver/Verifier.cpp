//===- driver/Verifier.cpp - End-to-end verification facade ----------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "driver/Verifier.h"

#include "driver/VerifierInstance.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "support/Trace.h"

using namespace ids;
using namespace ids::driver;

std::unique_ptr<lang::Module> driver::frontEnd(const std::string &Source,
                                               DiagEngine &Diags) {
  std::unique_ptr<lang::Module> M;
  {
    trace::ScopedSpan Sp("lang.parse");
    M = lang::parseModule(Source, Diags);
  }
  if (!M)
    return nullptr;
  {
    trace::ScopedSpan Sp("lang.typecheck");
    if (!lang::typeCheck(*M, Diags))
      return nullptr;
  }
  trace::ScopedSpan Sp("lang.checks");
  if (!lang::checkGhostDiscipline(*M, Diags) ||
      !lang::checkWellBehaved(*M, Diags))
    return nullptr;
  return M;
}

ModuleResult driver::verifySource(const std::string &Source,
                                  const VerifyOptions &Opts,
                                  DiagEngine &Diags) {
  // One-shot convenience wrapper: a throwaway instance gives the same
  // intra-module warm state the old local QueryCache did (identical
  // obligations across procedures and impact checks solve once); the
  // instance's cross-request state simply dies with it. Long-lived
  // callers (serve mode, --benchmark all, --cache-dir) hold a
  // VerifierInstance themselves.
  VerifierInstance Instance;
  return Instance.verify(Source, Opts, Diags);
}
