//===- support/Log.h - Leveled stderr diagnostics --------------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One leveled logger for the diagnostics that used to hide behind
/// scattered `getenv` checks. Levels come from `IDS_LOG=debug|info|off`
/// (default: info); the legacy `IDS_SMT_DEBUG` variable still forces
/// debug for the "smt" subsystem so existing invocations keep working.
///
/// Output is byte-stable with the fprintf calls this replaces: each
/// line is `[subsys] ` followed by the formatted message, written to
/// stderr in a single stdio call chain. Environment lookups happen
/// once per process (function-local statics), so `debugEnabled` is
/// cheap enough for per-theory-check call sites.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SUPPORT_LOG_H
#define IDS_SUPPORT_LOG_H

namespace ids {
namespace logging {

enum class Level { Off = 0, Info = 1, Debug = 2 };

/// The process log level from IDS_LOG (resolved once).
Level level();

/// True when \p Subsys should emit debug lines: IDS_LOG=debug, or
/// IDS_SMT_DEBUG is set and \p Subsys is "smt".
bool debugEnabled(const char *Subsys);

/// True unless IDS_LOG=off.
bool infoEnabled();

/// Writes `[subsys] <formatted message>` to stderr when debug is
/// enabled for \p Subsys. The format string carries its own trailing
/// newline (matching the fprintf sites this replaces).
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void debugf(const char *Subsys, const char *Fmt, ...);

/// Writes `[subsys] <formatted message>` to stderr unless IDS_LOG=off.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void infof(const char *Subsys, const char *Fmt, ...);

} // namespace logging
} // namespace ids

#endif // IDS_SUPPORT_LOG_H
