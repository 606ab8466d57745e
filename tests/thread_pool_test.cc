// Unit tests for the worker pool behind the parallel preparation
// pipeline: coverage for empty ranges, exception propagation, nested
// use, reuse, the determinism contract (slot-indexed writes are
// thread-count independent), and work sharing (concurrent ParallelFor
// callers, fan-out from posted tasks onto idle workers).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace cophy {
namespace {

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(8), 8);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-3), 1);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    constexpr int64_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h = 0;
    pool.ParallelFor(kN, [&](int64_t i) { ++hits[i]; });
    for (int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, EmptyAndNegativeRangesAreNoOps) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t) { ++calls; });
  pool.ParallelFor(-5, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ExceptionsPropagateAndLoopDrains) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::atomic<int> executed{0};
    EXPECT_THROW(
        pool.ParallelFor(64,
                         [&](int64_t i) {
                           ++executed;
                           if (i % 7 == 3) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // Every iteration was still claimed and ran (failures don't strand
    // work items).
    EXPECT_EQ(executed.load(), 64);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  constexpr int64_t kOuter = 16, kInner = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(kOuter, [&](int64_t o) {
    // A nested call must not deadlock waiting for busy workers.
    pool.ParallelFor(kInner, [&](int64_t i) { ++hits[o * kInner + i]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedExceptionPropagatesThroughBothLevels) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(8,
                                [&](int64_t) {
                                  pool.ParallelFor(8, [&](int64_t i) {
                                    if (i == 5) throw std::logic_error("inner");
                                  });
                                }),
               std::logic_error);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, [&](int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950) << "round " << round;
  }
}

TEST(ThreadPoolTest, SlotWritesAreThreadCountIndependent) {
  // The determinism contract the INUM rewrite relies on: writing result
  // i into slot i yields identical output for any thread count.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<double> out(500);
    pool.ParallelFor(static_cast<int64_t>(out.size()), [&](int64_t i) {
      double v = static_cast<double>(i);
      for (int k = 0; k < 50; ++k) v = v * 1.0000001 + 0.25;
      out[i] = v;
    });
    return out;
  };
  const std::vector<double> serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPoolTest, FreeFunctionFallsBackToSerialWithoutPool) {
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&](int64_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, PostRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::promise<void> all_done;
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    pool.Post([&] {
      if (ran.fetch_add(1) + 1 == kTasks) all_done.set_value();
    });
  }
  all_done.get_future().wait();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPoolTest, PostRunsInlineOnSizeOnePool) {
  ThreadPool pool(1);
  int ran = 0;
  pool.Post([&] { ++ran; });
  // No workers: the task must have executed inside Post itself.
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, PostAndParallelForCoexist) {
  // ParallelFor jobs outrank the Post queue but both must complete;
  // the fork-join caller may not deadlock behind queued tasks.
  ThreadPool pool(4);
  std::atomic<int> posted{0};
  std::promise<void> drained;
  constexpr int kTasks = 50;
  for (int i = 0; i < kTasks; ++i) {
    pool.Post([&] {
      if (posted.fetch_add(1) + 1 == kTasks) drained.set_value();
    });
  }
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950);
  drained.get_future().wait();
  EXPECT_EQ(posted.load(), kTasks);
}

/// Counts threads arriving at a point and lets each wait, at most a
/// bounded time, until `quorum` of them are there at once.
class Rendezvous {
 public:
  explicit Rendezvous(int quorum) : quorum_(quorum) {}
  /// Arrives and waits for the quorum; returns whether it was reached.
  bool ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    threads_.insert(std::this_thread::get_id());
    if (++arrived_ >= quorum_) cv_.notify_all();
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return arrived_ >= quorum_; });
  }
  int distinct_threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(threads_.size());
  }

 private:
  const int quorum_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  std::set<std::thread::id> threads_;
};

TEST(ThreadPoolTest, ConcurrentCallersProgressAtTheSameTime) {
  // Two posted tasks each run a ParallelFor whose first iteration waits
  // for the other loop's: both loops must be inside their bodies at
  // once (a pool-wide lock around ParallelFor would serialize them).
  ThreadPool pool(3);  // two workers, both running a posted task
  Rendezvous both(2);
  std::promise<bool> done[2];
  for (int t = 0; t < 2; ++t) {
    pool.Post([&, t] {
      std::atomic<bool> met{false};
      pool.ParallelFor(2, [&](int64_t i) {
        if (i == 0) met = both.ArriveAndWait();
      });
      done[t].set_value(met.load());
    });
  }
  EXPECT_TRUE(done[0].get_future().get());
  EXPECT_TRUE(done[1].get_future().get());
}

TEST(ThreadPoolTest, ParallelForFromAPostedTaskUsesAnIdleWorker) {
  ThreadPool pool(3);  // the posted task holds one worker, one is idle
  Rendezvous both(2);
  std::promise<bool> done;
  pool.Post([&] {
    std::atomic<bool> met{true};
    pool.ParallelFor(2, [&](int64_t) {
      if (!both.ArriveAndWait()) met = false;
    });
    done.set_value(met.load());
  });
  EXPECT_TRUE(done.get_future().get());
  EXPECT_EQ(both.distinct_threads(), 2);
}

TEST(ThreadPoolTest, ThreadsForCallerCountsTheCallerOnlyOutsideThePool) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.ThreadsForCaller(), 3);  // two workers plus this thread
  std::promise<int> on_worker;
  pool.Post([&] { on_worker.set_value(pool.ThreadsForCaller()); });
  EXPECT_EQ(on_worker.get_future().get(), 2);
  ThreadPool inline_pool(1);
  EXPECT_EQ(inline_pool.ThreadsForCaller(), 1);
}

TEST(ThreadPoolTest, ManyConcurrentCallersOnBusyWorkersFinish) {
  // Every worker is itself a ParallelFor caller: helpers queued for busy
  // workers must never be waited for, or the loops would deadlock.
  ThreadPool pool(4);
  constexpr int kCallers = 12;
  std::atomic<int64_t> sum{0};
  std::atomic<int> finished{0};
  std::promise<void> all_done;
  for (int c = 0; c < kCallers; ++c) {
    pool.Post([&] {
      pool.ParallelFor(64, [&](int64_t i) { sum += i; });
      if (finished.fetch_add(1) + 1 == kCallers) all_done.set_value();
    });
  }
  ASSERT_EQ(all_done.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(sum.load(), kCallers * 2016);
}

}  // namespace
}  // namespace cophy
