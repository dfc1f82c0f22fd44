//===- support/JobManager.cpp - FIFO thread pool --------------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "support/JobManager.h"

#include "support/Trace.h"

#include <cassert>

using namespace ids;
using namespace ids::jobs;

unsigned JobManager::resolveJobs(unsigned Jobs) {
  if (Jobs != 0)
    return Jobs;
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

JobManager::JobManager(unsigned Jobs) : NumJobs(resolveJobs(Jobs)) {}

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
    Ready.push_back(std::move(Fn));
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
    Workers.emplace_back([this] { workerLoop(); });
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

void JobManager::workerLoop() {
  for (;;) {
    Task Fn;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkCv.wait(Lock, [this] { return Stopping || !Ready.empty(); });
      if (Ready.empty())
        return; // stopping with nothing left to run
      Fn = std::move(Ready.front());
      Ready.pop_front();
    }
    runTask(std::move(Fn));
  }
}

void JobManager::wait() {
  if (NumJobs <= 1) {
    // Inline mode: drain the queue in FIFO order on the calling thread.
    // Tasks may spawn more tasks while we run.
    for (;;) {
      Task Fn;
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        if (Ready.empty()) {
          assert(Outstanding == 0 && "queued tasks left unrun");
          break;
        }
        Fn = std::move(Ready.front());
        Ready.pop_front();
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
