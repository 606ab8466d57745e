#include "service/executor.h"

#include "common/check.h"
#include "common/strings.h"

namespace cophy {

SessionExecutor::SessionExecutor(ThreadPool* pool, int max_queued_per_lane)
    : pool_(pool), max_queued_(max_queued_per_lane) {
  COPHY_CHECK(pool != nullptr);
}

SessionExecutor::~SessionExecutor() { Drain(); }

Status SessionExecutor::Submit(const std::string& lane_name,
                               std::function<void()> task,
                               std::function<void()> publish) {
  Lane* lane;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lane = &lanes_[lane_name];
    if (max_queued_ > 0 && lane->inflight >= max_queued_) {
      ++rejected_;
      return Status::ResourceExhausted(
          StrFormat("lane '%s' full (%d ops in flight)", lane_name.c_str(),
                    lane->inflight));
    }
    lane->queue.push_back({std::move(task), std::move(publish)});
    ++lane->inflight;
    ++submitted_;
    if (lane->running) return Status::Ok();
    lane->running = true;
  }
  // The lane was idle: schedule its pump. On a size-1 pool Post runs the
  // pump (and so the task) inline right here.
  pool_->Post([this, lane] { Pump(lane); });
  return Status::Ok();
}

void SessionExecutor::Pump(Lane* lane) {
  while (true) {
    Entry entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (lane->queue.empty()) {
        lane->running = false;
        drain_cv_.notify_all();
        return;
      }
      entry = std::move(lane->queue.front());
      lane->queue.pop_front();
    }
    entry.task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++completed_;
      --lane->inflight;
    }
    if (entry.publish) entry.publish();
    if (pool_->size() > 1) {
      // Yield the worker between tasks so runnable lanes share the pool
      // fairly; the loop above is only for the no-worker inline case.
      pool_->Post([this, lane] { Pump(lane); });
      return;
    }
  }
}

void SessionExecutor::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] {
    for (const auto& [name, lane] : lanes_) {
      if (lane.running || !lane.queue.empty()) return false;
    }
    return true;
  });
}

int64_t SessionExecutor::submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_;
}

int64_t SessionExecutor::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

int64_t SessionExecutor::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

}  // namespace cophy
