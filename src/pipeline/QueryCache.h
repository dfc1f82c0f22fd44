//===- pipeline/QueryCache.h - Structural query result cache ---*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Caches solver outcomes per query formula across procedures and
/// impact checks, keyed by the interned terms' structural DAG hash
/// (128-bit, manager-independent: two queries built in different
/// TermManagers hit the same entry iff they are structurally identical,
/// up to the negligible 2^-128 collision odds of the hash pair). The
/// hash is computed incrementally at term-interning time, so keying a
/// query is O(1) — this replaced a canonical-string serialization that
/// rebuilt an O(formula-size) key on every lookup. The cache stores the
/// raw solver outcome — Sat with the query's own model text, or Unsat —
/// never an obligation verdict, so entries stay valid regardless of which
/// obligation (simplified or not) produced the query. Unknown outcomes are
/// NEVER stored: an Unknown is a property of the (budget, timeout) that
/// produced it, not of the query, and replaying one under a larger
/// budget would weaken verdicts (and poison a persisted cache for every
/// later run).
///
/// The cache can be disk-backed (`attachDir`): entries load from a
/// versioned append-only file at startup and every later insert is
/// appended immediately, so verdict reuse survives the process — the
/// persistence layer behind `--cache-dir` and serve mode. Sat/Unsat
/// outcomes are budget-independent, which is exactly what makes them
/// safe to replay across runs with different budgets. Thread-safe;
/// shared by all scheduler workers.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_PIPELINE_QUERYCACHE_H
#define IDS_PIPELINE_QUERYCACHE_H

#include "smt/SolverTypes.h"
#include "smt/Term.h"

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ids {
namespace pipeline {

class QueryCache {
public:
  struct Outcome {
    smt::SolverResult R = smt::SolverResult::Unknown;
    std::string ModelText; ///< countermodel when R == Sat
    unsigned NumAtoms = 0;
    unsigned NumArrayLemmas = 0;
    /// Why R == Unknown (never cached, so never persisted).
    smt::UnknownReason Why = smt::UnknownReason::None;
  };

  /// 128-bit structural key of a query DAG.
  struct Key {
    uint64_t Lo = 0;
    uint64_t Hi = 0;
    bool operator==(const Key &O) const { return Lo == O.Lo && Hi == O.Hi; }
    bool operator!=(const Key &O) const { return !(*this == O); }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      return static_cast<size_t>(K.Lo ^ (K.Hi * 0x9e3779b97f4a7c15ull));
    }
  };

  /// Cross-run persistence counters (all zero while memory-only).
  struct DiskStats {
    size_t LoadedFromDisk = 0; ///< entries read at attachDir time
    uint64_t Lookups = 0;      ///< lookup() calls
    uint64_t Hits = 0;         ///< lookup() calls that found an entry
    uint64_t DiskHits = 0;     ///< hits on entries loaded from disk
    uint64_t Appended = 0;     ///< entries appended to the backing file
  };

  QueryCache() = default;
  ~QueryCache();
  QueryCache(const QueryCache &) = delete;
  QueryCache &operator=(const QueryCache &) = delete;

  /// O(1): reads the structural hash computed when the term was interned.
  static Key keyFor(smt::TermRef Query) {
    return {Query->getStructHashLo(), Query->getStructHashHi()};
  }

  /// With \p UnsatOnly a stored Sat outcome is a miss, like an absent one.
  bool lookup(const Key &K, Outcome &Out, bool UnsatOnly = false) const;

  /// Inserts a definitive outcome. Unknown outcomes are rejected (see the
  /// file comment): callers may pass them, but they are dropped here so no
  /// code path can poison the cache.
  void insert(const Key &K, Outcome O);
  size_t size() const;

  /// Attaches an on-disk backing file `queries.v1` inside \p Dir (created
  /// if missing): existing entries are loaded now, later inserts append
  /// and flush immediately. A file with an unrecognized header (format
  /// version bump) is discarded and rewritten — it is a cache. Returns
  /// false with \p Error set when the directory or file is unusable.
  bool attachDir(const std::string &Dir, std::string &Error);

  DiskStats diskStats() const;

  /// On-disk format version tag; bump when the record layout changes.
  static constexpr const char *FileHeader = "IDSQC v1";
  static constexpr const char *FileName = "queries.v1";

private:
  struct Entry {
    Outcome O;
    bool FromDisk = false;
  };

  void appendLocked(const Key &K, const Outcome &O);
  size_t loadLocked(std::FILE *F);

  mutable std::mutex Mutex;
  std::unordered_map<Key, Entry, KeyHash> Map;
  std::FILE *Append = nullptr; ///< open append handle when disk-backed
  mutable DiskStats Stats; ///< lookup counters mutate under the mutex
};

} // namespace pipeline
} // namespace ids

#endif // IDS_PIPELINE_QUERYCACHE_H
