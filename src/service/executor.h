// SessionExecutor: serial-per-lane task dispatch over the shared
// ThreadPool. Each lane (one per tenant in the advisor service) is a
// FIFO queue whose tasks run strictly one at a time and in submission
// order, while distinct lanes run concurrently on the pool's workers —
// the classic event-loop/actor arrangement that gives tenants
// single-threaded session semantics without a thread per tenant.
//
// Backpressure: each lane holds at most `max_queued_per_lane` tasks
// (queued + running); Submit beyond that fails with kResourceExhausted
// and runs nothing, so an abusive tenant saturates its own lane, not the
// pool. Fairness: a lane yields its worker back to the pool after every
// task instead of draining its queue, so K runnable lanes share the
// workers round-robin-ish regardless of queue depths.
#ifndef COPHY_SERVICE_EXECUTOR_H_
#define COPHY_SERVICE_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_pool.h"

namespace cophy {

class SessionExecutor {
 public:
  /// `pool` is shared, not owned, and must outlive the executor. A
  /// size-1 pool degenerates to inline execution inside Submit —
  /// correct, just serial (the benchmark's "serialized dispatch"
  /// baseline). max_queued_per_lane <= 0 means unbounded.
  SessionExecutor(ThreadPool* pool, int max_queued_per_lane);
  /// Drains every lane (Submit during destruction is a caller bug).
  ~SessionExecutor();

  SessionExecutor(const SessionExecutor&) = delete;
  SessionExecutor& operator=(const SessionExecutor&) = delete;

  /// Enqueues `task` on `lane`, creating the lane on first use. Returns
  /// kResourceExhausted (and drops the task) when the lane is full.
  /// `publish`, if set, runs right after the task once the lane no
  /// longer counts it as in flight — hand results to waiters there, so
  /// a waiter that submits again at once is not bounced by its own
  /// finished op. Neither may throw.
  Status Submit(const std::string& lane, std::function<void()> task,
                std::function<void()> publish = nullptr);

  /// Blocks until every lane is empty and idle. Tasks may keep
  /// submitting while a drain waits (it returns once the system is
  /// momentarily quiet).
  void Drain();

  /// Tasks accepted / finished so far (accepted - finished = in flight).
  int64_t submitted() const;
  int64_t completed() const;
  /// Submissions rejected with kResourceExhausted.
  int64_t rejected() const;

 private:
  struct Entry {
    std::function<void()> task;
    std::function<void()> publish;
  };
  struct Lane {
    std::deque<Entry> queue;
    bool running = false;  ///< a Pump for this lane is scheduled/running
    /// Accepted-but-unfinished tasks (queued + executing). This is the
    /// backpressure occupancy — distinct from queue.size() + running,
    /// which double-counts a task between acceptance and dequeue.
    int inflight = 0;
  };

  /// Runs one task of `lane`, then reschedules itself while work
  /// remains (looping inline instead when the pool has no workers).
  void Pump(Lane* lane);

  ThreadPool* pool_;
  const int max_queued_;
  mutable std::mutex mu_;  // lanes_ + counters
  std::condition_variable drain_cv_;
  /// Node-based map: Lane addresses stay stable across lane creation.
  std::unordered_map<std::string, Lane> lanes_;
  int64_t submitted_ = 0;
  int64_t completed_ = 0;
  int64_t rejected_ = 0;
};

}  // namespace cophy

#endif  // COPHY_SERVICE_EXECUTOR_H_
