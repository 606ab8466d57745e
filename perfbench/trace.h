// Bench-side instruments for the traced run, attached from outside the
// program through its public seams: a decorator at the what-if boundary
// that counts and times every call by kind, and a progress-callback log
// that timestamps each solver report. Both are thread-safe, because all
// tenants of one service share the same what-if pointer and the same
// session options (and so the same callback).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "lp/branch_and_bound.h"
#include "optimizer/whatif.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// What-if entry points, one counter pair each.
enum WhatIfKind {
  kCostCall,
  kUpdateCall,
  kTemplateCall,
  kAccessCall,
  kShellCall,
  kBaseUpdateCall,
  kNumWhatIfKinds,
};

inline const char* WhatIfKindName(int k) {
  static const char* const kNames[kNumWhatIfKinds] = {
      "cost", "update", "template", "access", "shell", "base_update"};
  return kNames[k];
}

/// A snapshot of the decorator's counters (monotone since construction).
struct WhatIfTally {
  std::array<int64_t, kNumWhatIfKinds> calls{};
  std::array<int64_t, kNumWhatIfKinds> nanos{};

  int64_t TotalNanos() const {
    int64_t s = 0;
    for (int64_t v : nanos) s += v;
    return s;
  }
  WhatIfTally operator-(const WhatIfTally& o) const {
    WhatIfTally d;
    for (int k = 0; k < kNumWhatIfKinds; ++k) {
      d.calls[k] = calls[k] - o.calls[k];
      d.nanos[k] = nanos[k] - o.nanos[k];
    }
    return d;
  }
};

/// Forwards every call to `inner` and records its count and wall time.
/// The optimization counter and health are the inner backend's own.
class TracingWhatIf final : public cophy::WhatIfOptimizer {
 public:
  explicit TracingWhatIf(cophy::WhatIfOptimizer* inner) : inner_(inner) {}
  TracingWhatIf(const TracingWhatIf&) = delete;
  TracingWhatIf& operator=(const TracingWhatIf&) = delete;

  cophy::Result<double> Cost(const cophy::Query& q,
                             const cophy::Configuration& x) override {
    return Timed(kCostCall, [&] { return inner_->Cost(q, x); });
  }
  cophy::Result<double> UpdateCost(cophy::IndexId a,
                                   const cophy::Query& q) override {
    return Timed(kUpdateCall, [&] { return inner_->UpdateCost(a, q); });
  }
  cophy::Result<std::vector<cophy::TemplatePlan>> EnumerateTemplates(
      const cophy::Query& q) override {
    return Timed(kTemplateCall, [&] { return inner_->EnumerateTemplates(q); });
  }
  cophy::Result<double> AccessCost(const cophy::Query& q, int slot,
                                   const cophy::OrderSpec& order,
                                   cophy::IndexId a) override {
    return Timed(kAccessCall,
                 [&] { return inner_->AccessCost(q, slot, order, a); });
  }
  cophy::Result<double> ShellCost(const cophy::Query& q,
                                  const cophy::Configuration& x) override {
    return Timed(kShellCall, [&] { return inner_->ShellCost(q, x); });
  }
  cophy::Result<double> BaseUpdateCost(const cophy::Query& q) override {
    return Timed(kBaseUpdateCall, [&] { return inner_->BaseUpdateCost(q); });
  }
  std::vector<std::vector<cophy::OrderSpec>> SlotOrderCandidates(
      const cophy::Query& q) const override {
    return inner_->SlotOrderCandidates(q);
  }
  const cophy::Catalog& catalog() const override { return inner_->catalog(); }
  const cophy::IndexPool& pool() const override { return inner_->pool(); }
  int64_t num_whatif_calls() const override {
    return inner_->num_whatif_calls();
  }
  cophy::WhatIfHealth health() const override { return inner_->health(); }

  WhatIfTally Snapshot() const {
    WhatIfTally t;
    for (int k = 0; k < kNumWhatIfKinds; ++k) {
      t.calls[k] = calls_[k].load(std::memory_order_relaxed);
      t.nanos[k] = nanos_[k].load(std::memory_order_relaxed);
    }
    return t;
  }

 private:
  template <class F>
  auto Timed(WhatIfKind kind, F&& call) -> decltype(call()) {
    const Clock::time_point start = Clock::now();
    auto result = call();
    const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - start)
                           .count();
    calls_[kind].fetch_add(1, std::memory_order_relaxed);
    nanos_[kind].fetch_add(ns, std::memory_order_relaxed);
    return result;
  }

  cophy::WhatIfOptimizer* inner_;
  std::array<std::atomic<int64_t>, kNumWhatIfKinds> calls_{};
  std::array<std::atomic<int64_t>, kNumWhatIfKinds> nanos_{};
};

/// Timestamps of the solver's progress reports. The report with zero
/// nodes is the root report: the solver emits it once per solve, right
/// after the root bound (root LP, Lagrangian, first incumbent) is known.
class ProgressLog {
 public:
  ProgressLog() = default;
  ProgressLog(const ProgressLog&) = delete;
  ProgressLog& operator=(const ProgressLog&) = delete;

  /// The callback to install in CoPhyOptions; never stops a solve. The
  /// log must outlive every session holding it.
  std::function<bool(const cophy::lp::MipProgress&)> Callback() {
    return [this](const cophy::lp::MipProgress& p) {
      const Clock::time_point now = Clock::now();
      if (p.nodes == 0) {
        std::lock_guard<std::mutex> lock(mu_);
        roots_.push_back(now);
      }
      return true;
    };
  }

  /// Root-report times, in the order they were logged.
  std::vector<Clock::time_point> Roots() const {
    std::lock_guard<std::mutex> lock(mu_);
    return roots_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Clock::time_point> roots_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
