//===- support/JobManager.h - Work-stealing job system ---------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A work-stealing thread pool — the dispatch engine under `--jobs N`.
/// Each worker owns a deque: new work spawned from inside a task lands at
/// the bottom of the spawning worker's own deque (LIFO, cache-warm), idle
/// workers steal from the top of a victim's deque (FIFO, the oldest —
/// and usually largest — task). This replaces the former flat Scheduler
/// pool, whose single shared task index serialized dispatch.
///
/// Concurrency contract:
///  - submit() may be called from any thread, including from inside a
///    running task (dynamic spawn); wait() covers dynamically spawned
///    tasks too.
///  - A task that throws does not cancel anything: the other tasks
///    still run, and wait() rethrows the first exception after every
///    task finished — `--jobs N` fails exactly like `--jobs 1`.
///  - With Jobs <= 1 no threads are created: wait() runs every task
///    inline on the calling thread in submission (FIFO) order, keeping
///    the serial path deterministic.
///
/// Activity feeds the metrics registry: `jobs.tasks` counts every task
/// executed, `jobs.steals` counts tasks a worker took from another
/// worker's deque.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SUPPORT_JOBMANAGER_H
#define IDS_SUPPORT_JOBMANAGER_H

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ids {
namespace jobs {

class JobManager {
public:
  /// 0 -> hardware_concurrency() (min 1: the detection may report 0).
  static unsigned resolveJobs(unsigned Jobs);

  /// \p Jobs == 0 auto-detects the worker count; an explicit N pins it.
  /// Worker threads start lazily on the first submit(), so a manager
  /// constructed for an all-cached batch costs nothing.
  explicit JobManager(unsigned Jobs);

  /// Waits for every submitted task (exceptions swallowed — call wait()
  /// first if you need them), then joins the workers.
  ~JobManager();

  JobManager(const JobManager &) = delete;
  JobManager &operator=(const JobManager &) = delete;

  /// Enqueues \p Fn. Callable from inside a running task; such children
  /// are pushed to the spawning worker's own deque.
  void submit(std::function<void()> Fn);

  /// Blocks until every task — including ones spawned while waiting —
  /// has completed, then rethrows the first captured task exception, if
  /// any. With Jobs <= 1 this is where the tasks actually run.
  void wait();

  /// The resolved worker count (>= 1; 1 means inline execution).
  unsigned jobs() const { return NumJobs; }

private:
  using Task = std::function<void()>;

  void workerLoop(unsigned Me);
  void runTask(Task Fn);
  void startWorkersLocked();

  const unsigned NumJobs;

  std::mutex Mutex; ///< guards everything below
  std::condition_variable WorkCv; ///< workers: new work / stop
  std::condition_variable IdleCv; ///< waiters: Outstanding hit zero
  /// Per-worker ready deques (index 0..NumJobs-1) plus an inbox for
  /// external submissions at index NumJobs.
  std::vector<std::deque<Task>> Ready;
  std::vector<std::thread> Workers;
  size_t Outstanding = 0; ///< submitted, not yet completed
  bool Stopping = false;
  std::exception_ptr FirstError;
};

} // namespace jobs
} // namespace ids

#endif // IDS_SUPPORT_JOBMANAGER_H
