#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace cophy {

namespace {
/// Set while a thread runs ParallelFor iterations; nested ParallelFor
/// calls detect it and run inline.
thread_local bool tls_in_parallel_region = false;
/// The pool whose worker the current thread is (nullptr elsewhere).
thread_local const ThreadPool* tls_worker_of = nullptr;
}  // namespace

/// One ParallelFor call, shared with the helpers that joined it.
struct ThreadPool::Job {
  Job(int64_t n, const std::function<void(int64_t)>& fn) : n(n), fn(fn) {}
  const int64_t n;
  const std::function<void(int64_t)>& fn;
  std::atomic<int64_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  int64_t completed = 0;     // guarded by mu
  std::exception_ptr error;  // guarded by mu; first recorded wins
};

int ResolveThreadCount(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, hw);
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = ResolveThreadCount(num_threads);
  workers_.reserve(static_cast<size_t>(n - 1));
  for (int i = 0; i < n - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int ThreadPool::ThreadsForCaller() const {
  return static_cast<int>(workers_.size()) + (tls_worker_of == this ? 0 : 1);
}

void ThreadPool::RunItems(Job& job) {
  const bool was_in_region = tls_in_parallel_region;
  tls_in_parallel_region = true;
  int64_t ran = 0;
  std::exception_ptr error;
  for (int64_t i = job.next.fetch_add(1, std::memory_order_relaxed); i < job.n;
       i = job.next.fetch_add(1, std::memory_order_relaxed)) {
    try {
      job.fn(i);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
    ++ran;
  }
  tls_in_parallel_region = was_in_region;
  if (ran == 0) return;
  std::lock_guard<std::mutex> lock(job.mu);
  if (error && !job.error) job.error = error;
  job.completed += ran;
  if (job.completed == job.n) job.done_cv.notify_all();
}

void ThreadPool::WorkerLoop() {
  tls_worker_of = this;
  while (true) {
    std::shared_ptr<Job> job;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock,
               [&] { return stop_ || !helpers_.empty() || !tasks_.empty(); });
      if (stop_) return;
      // Helping a running loop comes first: its caller is blocked on
      // it, while posted tasks are fire-and-forget.
      if (!helpers_.empty()) {
        job = std::move(helpers_.front());
        helpers_.pop_front();
      } else {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
    }
    if (job != nullptr) {
      RunItems(*job);
    } else {
      task();
    }
  }
}

void ThreadPool::Post(std::function<void()> task) {
  if (workers_.empty()) {
    // Size-1 pool: no one else will ever drain the queue.
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  auto job = std::make_shared<Job>(n, fn);
  // Nested use (an iteration fans out again) and trivially small loops
  // run inline: correct, deterministic, no deadlock. Otherwise one
  // helper per other worker is queued; each runs on a worker that is
  // idle or frees up while iterations remain, so the fan-out follows the
  // idle workers and never adds a thread.
  int64_t helpers = 0;
  if (!tls_in_parallel_region) {
    helpers = std::min<int64_t>(n, ThreadsForCaller()) - 1;
  }
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      helpers_.insert(helpers_.end(), helpers, job);
    }
    for (int64_t h = 0; h < helpers; ++h) cv_.notify_one();
  }
  RunItems(*job);
  if (helpers > 0) {
    // Every iteration is claimed: helpers no worker took are moot.
    std::lock_guard<std::mutex> lock(mu_);
    helpers_.erase(std::remove(helpers_.begin(), helpers_.end(), job),
                   helpers_.end());
  }
  // Wait (blocking, not spinning — stragglers may run for seconds) for
  // the helpers still running a claimed iteration.
  std::unique_lock<std::mutex> lock(job->mu);
  job->done_cv.wait(lock, [&] { return job->completed == n; });
  if (job->error) std::rethrow_exception(job->error);
}

void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
    return;
  }
  for (int64_t i = 0; i < n; ++i) fn(i);
}

ThreadPool* PoolFor(ThreadPool* shared, int num_threads,
                    std::unique_ptr<ThreadPool>* owned) {
  if (shared != nullptr) return shared;
  const int n = ResolveThreadCount(num_threads);
  if (n <= 1) return nullptr;
  if (*owned == nullptr || (*owned)->size() != n) {
    *owned = std::make_unique<ThreadPool>(n);
  }
  return owned->get();
}

}  // namespace cophy
