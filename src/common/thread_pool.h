// A small persistent worker pool with a ParallelFor helper, used by the
// preparation pipeline (parallel INUM what-if preprocessing) and, through
// Post, by the service tier's executor. Work items are claimed through an
// atomic counter, so scheduling is dynamic but callers that write result
// i into slot i get output that is bit-identical regardless of thread
// count or interleaving.
#ifndef COPHY_COMMON_THREAD_POOL_H_
#define COPHY_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cophy {

/// Resolves a thread-count knob: values <= 0 mean "use the hardware"
/// (std::thread::hardware_concurrency, at least 1).
int ResolveThreadCount(int num_threads);

/// A fixed-size pool of worker threads with two entry points: Post (a
/// fire-and-forget task queue, used by the service-tier executor) and
/// ParallelFor (a blocking fork-join loop). ParallelFor shares work: the
/// caller claims items itself, and helper tasks queued ahead of posted
/// tasks let idle workers join in. Any number of threads may run
/// ParallelFor at once, on workers or not; helpers are ordinary pool
/// tasks, so concurrent loops never oversubscribe the machine.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the calling thread is the last
  /// thread of every ParallelFor, so a pool of size 1 spawns nothing and
  /// runs purely inline). num_threads <= 0 resolves to the hardware
  /// count.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism of a caller outside the pool: workers + 1.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Threads a ParallelFor started on the calling thread can use: every
  /// worker, plus the caller unless it is itself one of them.
  int ThreadsForCaller() const;

  /// Runs fn(i) for every i in [0, n) and blocks until all iterations
  /// finished. The caller claims iterations itself, and every worker that
  /// is idle (or frees up) while iterations remain joins in, up to n
  /// threads in all. The caller waits only for iterations already
  /// claimed — never for a helper to be scheduled — so a loop finishes
  /// even when every worker is busy. If any iteration throws, the first
  /// exception recorded is rethrown here after the loop drains;
  /// remaining iterations still run. Nested calls from inside an
  /// iteration run inline on that thread. n <= 0 is a no-op.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// Enqueues `task` for execution on some worker thread and returns
  /// immediately. Tasks run in FIFO order relative to each other but
  /// interleave arbitrarily across workers; helping a running
  /// ParallelFor comes before any task. A pool of size 1 (no workers)
  /// runs the task inline before returning. Tasks must not throw — an
  /// escaping exception terminates the process, as with any detached
  /// thread. Tasks still queued when the pool is destroyed are dropped
  /// without running: owners that need completion (the service
  /// executor) must drain before tearing the pool down.
  void Post(std::function<void()> task);

 private:
  struct Job;

  /// Claims and runs `job`'s iterations until none are left.
  static void RunItems(Job& job);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;               // protects helpers_/tasks_/stop_
  std::condition_variable cv_;  // workers wait here for work
  /// Running ParallelFor calls, one entry per helper they asked for.
  std::deque<std::shared_ptr<Job>> helpers_;
  std::deque<std::function<void()>> tasks_;  ///< Post() queue
  bool stop_ = false;
};

/// Convenience wrapper: runs fn(i) over [0, n) on `pool`, or inline when
/// `pool` is null (the serial path used when num_threads == 1).
void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn);

/// The pool a stage runs on: `shared` when set (not owned), otherwise a
/// pool of `num_threads` kept in `*owned` — created on first use and
/// rebuilt when the resolved count changes — or nullptr when that count
/// is 1 (inline).
ThreadPool* PoolFor(ThreadPool* shared, int num_threads,
                    std::unique_ptr<ThreadPool>* owned);

}  // namespace cophy

#endif  // COPHY_COMMON_THREAD_POOL_H_
