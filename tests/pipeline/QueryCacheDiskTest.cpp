//===- tests/pipeline/QueryCacheDiskTest.cpp - Disk-backed cache tests -----===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence layer behind --cache-dir: entries written by one
/// QueryCache load into the next (including multi-line Sat model text),
/// Unknown outcomes are rejected at insert, torn tail records truncate
/// the load instead of failing it, a version-tag mismatch discards the
/// file rather than misreading a future format, and caches attached to
/// one directory append after each other's records instead of over them.
///
//===----------------------------------------------------------------------===//

#include "pipeline/QueryCache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

using namespace ids;
using namespace ids::pipeline;
using namespace ids::smt;

namespace {

class QueryCacheDiskTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = std::filesystem::temp_directory_path() /
          ("idsqc_test_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  std::filesystem::path Dir;
};

QueryCache::Outcome unsatOutcome(unsigned Atoms) {
  QueryCache::Outcome O;
  O.R = Solver::Result::Unsat;
  O.NumAtoms = Atoms;
  O.NumArrayLemmas = Atoms / 2;
  return O;
}

TEST_F(QueryCacheDiskTest, RoundTripsAcrossInstances) {
  QueryCache::Key K1{0x1111, 0x2222}, K2{0x3333, 0x4444};
  QueryCache::Outcome Sat;
  Sat.R = Solver::Result::Sat;
  Sat.ModelText = "x = 1\ny = 2\n"; // multi-line model text must survive
  Sat.NumAtoms = 7;
  {
    QueryCache A;
    std::string Err;
    ASSERT_TRUE(A.attachDir(Dir.string(), Err)) << Err;
    A.insert(K1, unsatOutcome(5));
    A.insert(K2, Sat);
    EXPECT_EQ(A.diskStats().Appended, 2u);
  }
  QueryCache B;
  std::string Err;
  ASSERT_TRUE(B.attachDir(Dir.string(), Err)) << Err;
  EXPECT_EQ(B.diskStats().LoadedFromDisk, 2u);
  QueryCache::Outcome Out;
  ASSERT_TRUE(B.lookup(K1, Out));
  EXPECT_EQ(Out.R, Solver::Result::Unsat);
  EXPECT_EQ(Out.NumAtoms, 5u);
  ASSERT_TRUE(B.lookup(K2, Out));
  EXPECT_EQ(Out.R, Solver::Result::Sat);
  EXPECT_EQ(Out.ModelText, Sat.ModelText);
  EXPECT_EQ(Out.NumAtoms, 7u);
  EXPECT_EQ(B.diskStats().DiskHits, 2u);
  EXPECT_EQ(B.diskStats().Hits, 2u);
}

TEST_F(QueryCacheDiskTest, UnknownOutcomesAreRejected) {
  QueryCache::Key K{0xdead, 0xbeef};
  {
    QueryCache A;
    std::string Err;
    ASSERT_TRUE(A.attachDir(Dir.string(), Err)) << Err;
    QueryCache::Outcome Unknown; // default R == Unknown
    A.insert(K, Unknown);
    EXPECT_EQ(A.size(), 0u);
    EXPECT_EQ(A.diskStats().Appended, 0u);
  }
  QueryCache B;
  std::string Err;
  ASSERT_TRUE(B.attachDir(Dir.string(), Err)) << Err;
  QueryCache::Outcome Out;
  EXPECT_EQ(B.diskStats().LoadedFromDisk, 0u);
  EXPECT_FALSE(B.lookup(K, Out));
}

TEST_F(QueryCacheDiskTest, TornTailTruncatesLoad) {
  {
    QueryCache A;
    std::string Err;
    ASSERT_TRUE(A.attachDir(Dir.string(), Err)) << Err;
    A.insert({1, 1}, unsatOutcome(3));
    A.insert({2, 2}, unsatOutcome(4));
  }
  // Simulate a process killed mid-append: chop bytes off the tail.
  std::filesystem::path File = Dir / QueryCache::FileName;
  auto Size = std::filesystem::file_size(File);
  std::filesystem::resize_file(File, Size - 10);

  QueryCache B;
  std::string Err;
  ASSERT_TRUE(B.attachDir(Dir.string(), Err)) << Err;
  EXPECT_EQ(B.diskStats().LoadedFromDisk, 1u);
  QueryCache::Outcome Out;
  EXPECT_TRUE(B.lookup({1, 1}, Out));
  EXPECT_FALSE(B.lookup({2, 2}, Out));
}

TEST_F(QueryCacheDiskTest, VersionMismatchDiscardsFile) {
  std::filesystem::create_directories(Dir);
  {
    std::ofstream Old(Dir / QueryCache::FileName);
    Old << "IDSQC v999\nU 0000000000000001 0000000000000002 1 1\n";
  }
  QueryCache A;
  std::string Err;
  ASSERT_TRUE(A.attachDir(Dir.string(), Err)) << Err;
  EXPECT_EQ(A.diskStats().LoadedFromDisk, 0u);
  QueryCache::Outcome Out;
  EXPECT_FALSE(A.lookup({1, 2}, Out));
  // And the rewritten file carries the current header again.
  A.insert({9, 9}, unsatOutcome(1));
  QueryCache B;
  ASSERT_TRUE(B.attachDir(Dir.string(), Err)) << Err;
  EXPECT_EQ(B.diskStats().LoadedFromDisk, 1u);
}

QueryCache::Outcome satOutcome(unsigned Seed) {
  QueryCache::Outcome O;
  O.R = Solver::Result::Sat;
  O.NumAtoms = Seed;
  // Multi-line model text: the payload that a torn or interleaved append
  // would corrupt first.
  O.ModelText = "a = " + std::to_string(Seed) + "\nb = " +
                std::to_string(Seed * 2) + "\nnested newline\n";
  return O;
}

TEST_F(QueryCacheDiskTest, ManyWritersProduceNoTornRecords) {
  // --jobs N hammers insert() from every worker; each append must land as
  // one un-torn record a fresh attach can load back.
  constexpr unsigned Threads = 8, PerThread = 50;
  {
    QueryCache A;
    std::string Err;
    ASSERT_TRUE(A.attachDir(Dir.string(), Err)) << Err;
    std::vector<std::thread> Ws;
    for (unsigned T = 0; T < Threads; ++T)
      Ws.emplace_back([&A, T] {
        for (unsigned I = 0; I < PerThread; ++I) {
          unsigned Seed = T * PerThread + I;
          QueryCache::Key K{Seed, ~uint64_t(Seed)};
          A.insert(K, Seed % 2 ? satOutcome(Seed) : unsatOutcome(Seed));
        }
      });
    for (std::thread &W : Ws)
      W.join();
    EXPECT_EQ(A.diskStats().Appended, Threads * PerThread);
  }
  QueryCache B;
  std::string Err;
  ASSERT_TRUE(B.attachDir(Dir.string(), Err)) << Err;
  ASSERT_EQ(B.diskStats().LoadedFromDisk, Threads * PerThread);
  for (unsigned Seed = 0; Seed < Threads * PerThread; ++Seed) {
    QueryCache::Outcome Out;
    ASSERT_TRUE(B.lookup({Seed, ~uint64_t(Seed)}, Out)) << Seed;
    if (Seed % 2) {
      EXPECT_EQ(Out.R, Solver::Result::Sat);
      EXPECT_EQ(Out.ModelText, satOutcome(Seed).ModelText) << Seed;
    } else {
      EXPECT_EQ(Out.R, Solver::Result::Unsat);
    }
    EXPECT_EQ(Out.NumAtoms, Seed);
  }
}

TEST_F(QueryCacheDiskTest, ConcurrentInstancesInterleaveWholeRecords) {
  // Two caches attached to the same directory (two O_APPEND streams, as
  // with two concurrent --cache-dir runs) may interleave records in any
  // order but never mid-record.
  constexpr unsigned PerWriter = 100;
  {
    QueryCache A, C;
    std::string Err;
    ASSERT_TRUE(A.attachDir(Dir.string(), Err)) << Err;
    ASSERT_TRUE(C.attachDir(Dir.string(), Err)) << Err;
    std::thread W1([&A] {
      for (unsigned I = 0; I < PerWriter; ++I)
        A.insert({I, 1}, satOutcome(I));
    });
    std::thread W2([&C] {
      for (unsigned I = 0; I < PerWriter; ++I)
        C.insert({I, 2}, unsatOutcome(I));
    });
    W1.join();
    W2.join();
  }
  QueryCache B;
  std::string Err;
  ASSERT_TRUE(B.attachDir(Dir.string(), Err)) << Err;
  ASSERT_EQ(B.diskStats().LoadedFromDisk, 2 * PerWriter);
  for (unsigned I = 0; I < PerWriter; ++I) {
    QueryCache::Outcome Out;
    ASSERT_TRUE(B.lookup({I, 1}, Out)) << I;
    EXPECT_EQ(Out.R, Solver::Result::Sat);
    EXPECT_EQ(Out.ModelText, satOutcome(I).ModelText) << I;
    ASSERT_TRUE(B.lookup({I, 2}, Out)) << I;
    EXPECT_EQ(Out.R, Solver::Result::Unsat);
  }
}

TEST_F(QueryCacheDiskTest, LaterAttachAppendsAfterEarlierWriter) {
  // The deterministic form of the interleaving above: A creates the file,
  // B attaches to it, B's records land first and A's second. A must
  // append at the end of file, not at its own offset over B's records.
  constexpr unsigned PerWriter = 10;
  {
    QueryCache A, B;
    std::string Err;
    ASSERT_TRUE(A.attachDir(Dir.string(), Err)) << Err;
    ASSERT_TRUE(B.attachDir(Dir.string(), Err)) << Err;
    for (unsigned I = 0; I < PerWriter; ++I)
      B.insert({I, 2}, unsatOutcome(I));
    for (unsigned I = 0; I < PerWriter; ++I)
      A.insert({I, 1}, satOutcome(I));
  }
  QueryCache Reload;
  std::string Err;
  ASSERT_TRUE(Reload.attachDir(Dir.string(), Err)) << Err;
  EXPECT_EQ(Reload.diskStats().LoadedFromDisk, 2 * PerWriter);
  for (unsigned I = 0; I < PerWriter; ++I) {
    QueryCache::Outcome Out;
    EXPECT_TRUE(Reload.lookup({I, 1}, Out)) << I;
    EXPECT_TRUE(Reload.lookup({I, 2}, Out)) << I;
  }
}

TEST_F(QueryCacheDiskTest, MemoryOnlyEntriesPersistOnFreshAttach) {
  // Entries inserted before attachDir are flushed when the backing file
  // is created.
  QueryCache A;
  A.insert({5, 6}, unsatOutcome(2));
  std::string Err;
  ASSERT_TRUE(A.attachDir(Dir.string(), Err)) << Err;
  QueryCache B;
  ASSERT_TRUE(B.attachDir(Dir.string(), Err)) << Err;
  QueryCache::Outcome Out;
  EXPECT_TRUE(B.lookup({5, 6}, Out));
}

} // namespace
