//===- support/Log.cpp - Leveled stderr diagnostics -------------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "support/Log.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace ids;

namespace {

logging::Level resolveLevel() {
  const char *E = std::getenv("IDS_LOG");
  if (!E)
    return logging::Level::Info;
  if (std::strcmp(E, "debug") == 0)
    return logging::Level::Debug;
  if (std::strcmp(E, "off") == 0)
    return logging::Level::Off;
  // Unknown values fall back to the default rather than erroring:
  // diagnostics must never take down a verification run.
  return logging::Level::Info;
}

bool legacyDebug(const char *Subsys) {
  if (std::strcmp(Subsys, "smt") == 0) {
    static const bool On = std::getenv("IDS_SMT_DEBUG") != nullptr;
    return On;
  }
  return false;
}

void vlogf(const char *Subsys, const char *Fmt, va_list Ap) {
  std::fprintf(stderr, "[%s] ", Subsys);
  std::vfprintf(stderr, Fmt, Ap);
}

} // namespace

logging::Level logging::level() {
  static const Level L = resolveLevel();
  return L;
}

bool logging::debugEnabled(const char *Subsys) {
  return level() == Level::Debug || legacyDebug(Subsys);
}

bool logging::infoEnabled() { return level() != Level::Off; }

void logging::debugf(const char *Subsys, const char *Fmt, ...) {
  if (!debugEnabled(Subsys))
    return;
  va_list Ap;
  va_start(Ap, Fmt);
  vlogf(Subsys, Fmt, Ap);
  va_end(Ap);
}

void logging::infof(const char *Subsys, const char *Fmt, ...) {
  if (!infoEnabled())
    return;
  va_list Ap;
  va_start(Ap, Fmt);
  vlogf(Subsys, Fmt, Ap);
  va_end(Ap);
}
