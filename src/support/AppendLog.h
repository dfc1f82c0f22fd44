//===- support/AppendLog.h - Shared append-only record files ---*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The file discipline behind the persistent caches (`queries.v1`,
/// `verdicts.v1`): a versioned header line followed by records that any
/// number of processes and instances append concurrently.
///
/// Every writer appends through an O_APPEND descriptor, so the kernel
/// places each write(2) at the current end of file and no writer can
/// overwrite another's records from a stale private offset. A fresh log
/// is published with its header already in place: the header goes into a
/// private O_CREAT|O_EXCL temp file that link(2) then installs under the
/// log's name, so no reader ever sees a headerless log, and a writer that
/// loses the creation race (EEXIST) re-reads the winner's header instead
/// of truncating its file. A log whose header differs (another format
/// version, or not our file) is replaced the same way with rename(2).
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SUPPORT_APPENDLOG_H
#define IDS_SUPPORT_APPENDLOG_H

#include <cstdio>
#include <functional>
#include <string>

namespace ids {
namespace appendlog {

struct Attached {
  /// Unbuffered append stream on an O_APPEND descriptor (one fwrite is
  /// one write(2)); null on failure.
  std::FILE *Append = nullptr;
  /// True when this call created the log (no existing records were read).
  bool Created = false;
};

/// Attaches to the log at \p Path whose first line is \p Header, creating
/// it if it is missing or carries another header. When a log with this
/// header exists, \p Load is called with a stream positioned just after
/// the header line to read its records. On failure the returned stream is
/// null and \p Error describes the problem.
Attached attach(const std::string &Path, const char *Header,
                const std::function<void(std::FILE *)> &Load,
                std::string &Error);

} // namespace appendlog
} // namespace ids

#endif // IDS_SUPPORT_APPENDLOG_H
