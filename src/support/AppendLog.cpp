//===- support/AppendLog.cpp - Shared append-only record files -------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "support/AppendLog.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

using namespace ids;

namespace {

/// Reads the first line of \p In (at most one byte past \p Line's length)
/// and compares it with \p Line.
bool headerMatches(std::FILE *In, const std::string &Line) {
  std::string Got;
  int Ch;
  while (Got.size() <= Line.size() && (Ch = fgetc(In)) != EOF) {
    Got += static_cast<char>(Ch);
    if (Ch == '\n')
      break;
  }
  return Got == Line;
}

/// Wraps an O_APPEND descriptor in an unbuffered stream.
appendlog::Attached appendStream(int Fd, bool Created,
                                 const std::string &Path,
                                 std::string &Error) {
  std::FILE *F = fdopen(Fd, "ab");
  if (!F) {
    Error = "cannot open '" + Path + "' for appending: " +
            std::strerror(errno);
    close(Fd);
    return {};
  }
  setvbuf(F, nullptr, _IONBF, 0);
  return {F, Created};
}

} // namespace

appendlog::Attached
appendlog::attach(const std::string &Path, const char *Header,
                  const std::function<void(std::FILE *)> &Load,
                  std::string &Error) {
  const std::string Line = std::string(Header) + "\n";
  static std::atomic<unsigned> TempSeq{0};
  // Each round either attaches or loses a creation race to another
  // writer, whose freshly published log the next round reads; a few
  // rounds only run out when the file keeps being replaced.
  for (int Round = 0; Round < 8; ++Round) {
    bool Replace = false;
    if (std::FILE *In = fopen(Path.c_str(), "rb")) {
      if (headerMatches(In, Line)) {
        int Fd = open(Path.c_str(), O_WRONLY | O_APPEND);
        if (Fd < 0) {
          fclose(In);
          Error = "cannot open '" + Path + "' for appending: " +
                  std::strerror(errno);
          return {};
        }
        Load(In);
        fclose(In);
        return appendStream(Fd, /*Created=*/false, Path, Error);
      }
      fclose(In);
      Replace = true;
    } else if (errno != ENOENT) {
      Error = "cannot read '" + Path + "': " + std::strerror(errno);
      return {};
    }

    std::string Temp = Path + ".tmp." + std::to_string(getpid()) + "." +
                       std::to_string(TempSeq.fetch_add(1));
    int Fd = open(Temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND, 0644);
    if (Fd < 0) {
      Error = "cannot create '" + Temp + "': " + std::strerror(errno);
      return {};
    }
    bool Written = write(Fd, Line.data(), Line.size()) ==
                   static_cast<ssize_t>(Line.size());
    int Rc = !Written ? -1
             : Replace ? rename(Temp.c_str(), Path.c_str())
                       : link(Temp.c_str(), Path.c_str());
    int Err = Written ? errno : EIO;
    if (Rc != 0 || !Replace)
      unlink(Temp.c_str());
    if (Rc == 0)
      return appendStream(Fd, /*Created=*/true, Path, Error);
    close(Fd);
    if (Err != EEXIST) {
      Error = "cannot create '" + Path + "': " + std::strerror(Err);
      return {};
    }
    // Another writer published the log first: read its header next round.
  }
  Error = "'" + Path + "' keeps being replaced by another writer";
  return {};
}
