//===- support/JobManager.cpp - Work-stealing job system ------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "support/JobManager.h"

#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace ids;
using namespace ids::jobs;

namespace {

/// Which worker the current thread is, or kExternal for threads that do
/// not belong to any JobManager (submissions from those land in the
/// shared inbox). A plain index is enough: a JobManager's workers never
/// run tasks of another JobManager, and the pipeline never nests
/// managers on one thread.
constexpr unsigned kExternal = ~0u;
thread_local unsigned CurrentWorker = kExternal;

} // namespace

unsigned JobManager::resolveJobs(unsigned Jobs) {
  if (Jobs != 0)
    return Jobs;
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

JobManager::JobManager(unsigned Jobs) : NumJobs(resolveJobs(Jobs)) {
  // Slot NumJobs is the inbox for external (non-worker) submissions.
  Ready.resize(NumJobs + 1);
}

JobManager::~JobManager() {
  try {
    wait();
  } catch (...) {
    // wait() already ran everything; a destructor cannot rethrow.
  }
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void JobManager::submit(std::function<void()> Fn) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    // Owner-spawned work goes to the bottom of the owner's deque (LIFO
    // for the owner, cache-warm); everything else lands in the inbox.
    unsigned Slot = CurrentWorker < NumJobs ? CurrentWorker : NumJobs;
    Ready[Slot].push_back(std::move(Fn));
    ++Outstanding;
    if (NumJobs > 1)
      startWorkersLocked();
  }
  trace::counter("jobs.tasks").add(1);
  if (NumJobs > 1)
    WorkCv.notify_one();
}

void JobManager::startWorkersLocked() {
  while (Workers.size() < NumJobs)
    Workers.emplace_back(
        [this, Me = static_cast<unsigned>(Workers.size())] { workerLoop(Me); });
}

void JobManager::runTask(Task Fn) {
  std::exception_ptr Err;
  try {
    Fn();
  } catch (...) {
    Err = std::current_exception();
  }
  Fn = nullptr; // release captures before the task counts as done
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Err && !FirstError)
    FirstError = Err;
  if (--Outstanding == 0)
    IdleCv.notify_all();
}

void JobManager::workerLoop(unsigned Me) {
  CurrentWorker = Me;
  for (;;) {
    Task Fn;
    bool Stole = false;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      for (;;) {
        if (!Ready[Me].empty()) {
          // Own deque: pop the most recently pushed task (LIFO).
          Fn = std::move(Ready[Me].back());
          Ready[Me].pop_back();
          break;
        }
        bool Found = false;
        // Inbox first, then round-robin over the other workers'
        // deques; steal the oldest task (FIFO from the top).
        for (unsigned Off = 0; Off <= NumJobs && !Found; ++Off) {
          unsigned Victim = Off == 0 ? NumJobs : (Me + Off) % NumJobs;
          if (Victim == Me || Ready[Victim].empty())
            continue;
          Fn = std::move(Ready[Victim].front());
          Ready[Victim].pop_front();
          Found = true;
          Stole = Victim != NumJobs;
        }
        if (Found)
          break;
        if (Stopping)
          return;
        WorkCv.wait(Lock);
      }
    }
    if (Stole)
      trace::counter("jobs.steals").add(1);
    runTask(std::move(Fn));
  }
}

void JobManager::wait() {
  if (NumJobs <= 1) {
    // Inline mode: drain the inbox in FIFO order on the calling thread.
    // Tasks may spawn more tasks while we run.
    for (;;) {
      Task Fn;
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        bool Found = false;
        for (unsigned Slot = 0; Slot <= NumJobs && !Found; ++Slot) {
          if (Ready[Slot].empty())
            continue;
          Fn = std::move(Ready[Slot].front());
          Ready[Slot].pop_front();
          Found = true;
        }
        if (!Found) {
          assert(Outstanding == 0 && "queued tasks left unrun");
          break;
        }
      }
      runTask(std::move(Fn));
    }
  } else {
    std::unique_lock<std::mutex> Lock(Mutex);
    IdleCv.wait(Lock, [this] { return Outstanding == 0; });
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  if (FirstError) {
    std::exception_ptr Err = FirstError;
    FirstError = nullptr;
    std::rethrow_exception(Err);
  }
}
