//===- pipeline/QueryCache.cpp - Structural query result cache -------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
//
// On-disk format (version tag IDSQC v1), append-only, one record per
// definitive outcome:
//
//   IDSQC v1\n
//   U <lo-hex> <hi-hex> <atoms> <lemmas>\n
//   S <lo-hex> <hi-hex> <atoms> <lemmas> <model-bytes>\n<model>\n
//
// A torn tail record (process killed mid-append) truncates the load at
// the last complete record instead of failing it; the next append goes
// after whatever was readable, so a rare duplicate record is possible
// and harmless (last load wins, outcomes are deterministic).
//
//===----------------------------------------------------------------------===//

#include "pipeline/QueryCache.h"

#include "support/AppendLog.h"
#include "support/Trace.h"

#include <cinttypes>
#include <filesystem>

using namespace ids;
using namespace ids::pipeline;

QueryCache::~QueryCache() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Append)
    fclose(Append);
}

bool QueryCache::lookup(const Key &K, Outcome &Out) const {
  static trace::Counter &Lookups = trace::counter("cache.query_lookups");
  static trace::Counter &Hits = trace::counter("cache.query_hits");
  static trace::Counter &DiskHits = trace::counter("cache.query_disk_hits");
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Stats.Lookups;
  Lookups.add();
  auto It = Map.find(K);
  if (It == Map.end())
    return false;
  ++Stats.Hits;
  Hits.add();
  if (It->second.FromDisk) {
    ++Stats.DiskHits;
    DiskHits.add();
  }
  Out = It->second.O;
  return true;
}

void QueryCache::insert(const Key &K, Outcome O) {
  // Unknown is a property of the budget/timeout that produced it, not of
  // the query; caching one would answer a later, better-resourced solve
  // of the same query with the starved verdict. Drop it at the door so no
  // caller can poison the cache (least of all the persistent one).
  if (O.R == smt::Solver::Result::Unknown)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto [It, Inserted] = Map.emplace(K, Entry{std::move(O), false});
  if (Inserted && Append)
    appendLocked(K, It->second.O);
}

size_t QueryCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Map.size();
}

QueryCache::DiskStats QueryCache::diskStats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}

void QueryCache::appendLocked(const Key &K, const Outcome &O) {
  // The whole record is marshalled into one buffer and handed to the
  // unbuffered append stream (support/AppendLog.h) as a SINGLE fwrite —
  // one write(2) on an O_APPEND descriptor, which the kernel serializes
  // at EOF. The mutex serializes writers within this process; the
  // single-write record is what keeps concurrent --cache-dir PROCESSES
  // from interleaving the multi-line Sat records mid-record (a torn tail
  // from a crash is still possible and still tolerated by loadLocked).
  char Header[96];
  int Len;
  if (O.R == smt::Solver::Result::Sat)
    Len = snprintf(Header, sizeof(Header),
                   "S %016" PRIx64 " %016" PRIx64 " %u %u %zu\n", K.Lo, K.Hi,
                   O.NumAtoms, O.NumArrayLemmas, O.ModelText.size());
  else
    Len = snprintf(Header, sizeof(Header),
                   "U %016" PRIx64 " %016" PRIx64 " %u %u\n", K.Lo, K.Hi,
                   O.NumAtoms, O.NumArrayLemmas);
  std::string Rec(Header, Len);
  if (O.R == smt::Solver::Result::Sat) {
    Rec += O.ModelText;
    Rec += '\n';
  }
  fwrite(Rec.data(), 1, Rec.size(), Append);
  ++Stats.Appended;
  static trace::Counter &Appended = trace::counter("cache.query_appended");
  Appended.add();
}

size_t QueryCache::loadLocked(std::FILE *F) {
  size_t Loaded = 0;
  char Tag;
  while (fscanf(F, " %c", &Tag) == 1) {
    Key K;
    Outcome O;
    unsigned Atoms = 0, Lemmas = 0;
    if (Tag == 'U') {
      if (fscanf(F, "%" SCNx64 " %" SCNx64 " %u %u", &K.Lo, &K.Hi, &Atoms,
                 &Lemmas) != 4)
        break;
      O.R = smt::Solver::Result::Unsat;
    } else if (Tag == 'S') {
      size_t Len = 0;
      if (fscanf(F, "%" SCNx64 " %" SCNx64 " %u %u %zu", &K.Lo, &K.Hi, &Atoms,
                 &Lemmas, &Len) != 5)
        break;
      if (fgetc(F) != '\n') // the newline terminating the record header
        break;
      O.ModelText.resize(Len);
      if (Len > 0 && fread(&O.ModelText[0], 1, Len, F) != Len)
        break;
      O.R = smt::Solver::Result::Sat;
    } else {
      break; // unknown tag: stop at the last well-formed record
    }
    O.NumAtoms = Atoms;
    O.NumArrayLemmas = Lemmas;
    Map[K] = Entry{std::move(O), /*FromDisk=*/true};
    ++Loaded;
  }
  return Loaded;
}

bool QueryCache::attachDir(const std::string &Dir, std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Append) {
    Error = "query cache already attached to a directory";
    return false;
  }
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec) {
    Error = "cannot create cache directory '" + Dir + "': " + Ec.message();
    return false;
  }
  // A mismatched header (another format version, or not our file at
  // all) discards the file: it is a cache.
  appendlog::Attached Log = appendlog::attach(
      Dir + "/" + FileName, FileHeader,
      [this](std::FILE *In) { Stats.LoadedFromDisk = loadLocked(In); },
      Error);
  Append = Log.Append;
  if (!Append)
    return false;
  // Entries inserted before attachDir (memory-only phase) are worth
  // persisting too.
  if (Log.Created)
    for (const auto &KV : Map)
      appendLocked(KV.first, KV.second.O);
  return true;
}
