//===- tests/support/JobManagerTest.cpp -----------------------------------===//
//
// Unit suite for the work-stealing JobManager: steal distribution,
// dependency ordering, dynamic spawn, exception propagation, and
// deterministic shutdown. Every multi-threaded test is written so the
// assertion holds on any interleaving — no sleeps, no timing windows.
//
//===----------------------------------------------------------------------===//

#include "support/JobManager.h"
#include "support/Trace.h"

#include "gtest/gtest.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

using ids::jobs::JobManager;

namespace {

TEST(JobManagerTest, ResolveJobs) {
  EXPECT_EQ(JobManager::resolveJobs(1), 1u);
  EXPECT_EQ(JobManager::resolveJobs(7), 7u);
  EXPECT_GE(JobManager::resolveJobs(0), 1u);
}

TEST(JobManagerTest, RunsAllTasks) {
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    JobManager JM(Jobs);
    std::atomic<int> Count{0};
    for (int I = 0; I < 100; ++I)
      JM.submit([&Count] { Count.fetch_add(1); });
    JM.wait();
    EXPECT_EQ(Count.load(), 100) << "jobs=" << Jobs;
  }
}

TEST(JobManagerTest, InlineModeRunsInSubmissionOrder) {
  JobManager JM(1);
  std::vector<int> Order;
  for (int I = 0; I < 10; ++I)
    JM.submit([&Order, I] { Order.push_back(I); });
  EXPECT_TRUE(Order.empty()) << "inline tasks must not run before wait()";
  JM.wait();
  ASSERT_EQ(Order.size(), 10u);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(JobManagerTest, WaitIsReusable) {
  JobManager JM(2);
  std::atomic<int> Count{0};
  JM.submit([&Count] { Count.fetch_add(1); });
  JM.wait();
  EXPECT_EQ(Count.load(), 1);
  JM.submit([&Count] { Count.fetch_add(1); });
  JM.wait();
  EXPECT_EQ(Count.load(), 2);
}

TEST(JobManagerTest, DynamicSpawnFromInsideTask) {
  for (unsigned Jobs : {1u, 4u}) {
    JobManager JM(Jobs);
    std::atomic<int> Count{0};
    JM.submit([&JM, &Count] {
      Count.fetch_add(1);
      for (int I = 0; I < 10; ++I)
        JM.submit([&JM, &Count] {
          Count.fetch_add(1);
          JM.submit([&Count] { Count.fetch_add(1); });
        });
    });
    JM.wait();
    EXPECT_EQ(Count.load(), 21) << "jobs=" << Jobs;
  }
}

// Steal distribution: one spawner task floods its own deque with tasks
// that each block until W-1 of them run concurrently. The only way the
// barrier releases is if W-1 distinct *other* workers steal from the
// spawner's deque — pinning both the steal path and its distribution
// without any timing assumption.
TEST(JobManagerTest, StealsDistributeAcrossWorkers) {
  const unsigned W = 4;
  JobManager JM(W);
  ids::trace::counter("jobs.steals").reset();

  std::mutex M;
  std::condition_variable Cv;
  unsigned Arrived = 0;
  std::set<std::thread::id> Threads;

  JM.submit([&] {
    for (unsigned I = 0; I + 1 < W; ++I)
      JM.submit([&] {
        std::unique_lock<std::mutex> Lock(M);
        Threads.insert(std::this_thread::get_id());
        if (++Arrived == W - 1)
          Cv.notify_all();
        else
          Cv.wait(Lock, [&] { return Arrived == W - 1; });
      });
    // Keep the spawner busy until the waiters release each other so it
    // cannot drain its own deque first.
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return Arrived == W - 1; });
  });
  JM.wait();

  EXPECT_EQ(Threads.size(), W - 1) << "waiters must run on distinct workers";
  EXPECT_GE(ids::trace::counter("jobs.steals").value(),
            static_cast<uint64_t>(W - 1));
}

TEST(JobManagerTest, TasksCounterTracksSubmissions) {
  ids::trace::counter("jobs.tasks").reset();
  JobManager JM(2);
  for (int I = 0; I < 25; ++I)
    JM.submit([] {});
  JM.wait();
  EXPECT_EQ(ids::trace::counter("jobs.tasks").value(), 25u);
}

TEST(JobManagerTest, ExceptionPropagatesFromWait) {
  for (unsigned Jobs : {1u, 4u}) {
    JobManager JM(Jobs);
    std::atomic<int> Count{0};
    for (int I = 0; I < 10; ++I)
      JM.submit([&Count, I] {
        if (I == 3)
          throw std::runtime_error("task failed");
        Count.fetch_add(1);
      });
    EXPECT_THROW(JM.wait(), std::runtime_error) << "jobs=" << Jobs;
    // The failure does not cancel the other tasks.
    EXPECT_EQ(Count.load(), 9) << "jobs=" << Jobs;
    // The error is consumed: a subsequent wait() is clean.
    JM.submit([&Count] { Count.fetch_add(1); });
    EXPECT_NO_THROW(JM.wait()) << "jobs=" << Jobs;
    EXPECT_EQ(Count.load(), 10) << "jobs=" << Jobs;
  }
}

TEST(JobManagerTest, FirstExceptionWins) {
  JobManager JM(1);
  JM.submit([] { throw std::runtime_error("first"); });
  JM.submit([] { throw std::logic_error("second"); });
  try {
    JM.wait();
    FAIL() << "wait() must rethrow";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "first");
  }
}

// Deterministic shutdown: destroying a manager with tasks still queued
// (wait() never called) must run them all and join every worker — no
// leaks, no hangs, no lost tasks.
TEST(JobManagerTest, DestructorDrainsAndJoins) {
  std::atomic<int> Count{0};
  {
    JobManager JM(4);
    for (int I = 0; I < 50; ++I)
      JM.submit([&Count] { Count.fetch_add(1); });
  }
  EXPECT_EQ(Count.load(), 50);
}

TEST(JobManagerTest, DestructorSwallowsTaskException) {
  std::atomic<int> Count{0};
  {
    JobManager JM(2);
    JM.submit([] { throw std::runtime_error("unobserved"); });
    JM.submit([&Count] { Count.fetch_add(1); });
  }
  EXPECT_EQ(Count.load(), 1);
}

TEST(JobManagerTest, ManyWaitCyclesAreDeterministic) {
  JobManager JM(4);
  std::atomic<int> Count{0};
  for (int Round = 0; Round < 20; ++Round) {
    for (int I = 0; I < 8; ++I)
      JM.submit([&Count] { Count.fetch_add(1); });
    JM.wait();
    EXPECT_EQ(Count.load(), (Round + 1) * 8);
  }
}

} // namespace
