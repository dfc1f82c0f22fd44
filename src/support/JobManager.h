//===- support/JobManager.h - FIFO thread pool ------------------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FIFO thread pool — the dispatch engine under `--jobs N`. Every task
/// goes into one shared queue and idle workers take the oldest one. The
/// pipeline submits each query as an independent task from outside the
/// pool, so nothing is gained by per-worker queues or stealing.
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
/// submitted.
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

  /// Enqueues \p Fn at the back of the queue. Callable from inside a
  /// running task.
  void submit(std::function<void()> Fn);

  /// Blocks until every task — including ones spawned while waiting —
  /// has completed, then rethrows the first captured task exception, if
  /// any. With Jobs <= 1 this is where the tasks actually run.
  void wait();

  /// The resolved worker count (>= 1; 1 means inline execution).
  unsigned jobs() const { return NumJobs; }

private:
  using Task = std::function<void()>;

  void workerLoop();
  void runTask(Task Fn);
  void startWorkersLocked();

  const unsigned NumJobs;

  std::mutex Mutex; ///< guards everything below
  std::condition_variable WorkCv; ///< workers: new work / stop
  std::condition_variable IdleCv; ///< waiters: Outstanding hit zero
  std::deque<Task> Ready; ///< submitted, not yet started (FIFO)
  std::vector<std::thread> Workers;
  size_t Outstanding = 0; ///< submitted, not yet completed
  bool Stopping = false;
  std::exception_ptr FirstError;
};

} // namespace jobs
} // namespace ids

#endif // IDS_SUPPORT_JOBMANAGER_H
