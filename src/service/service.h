// AdvisorService: the multi-tenant front door of the advisor. Many
// logical tuning sessions (one AdvisorSession per tenant) share one
// worker pool through a SessionExecutor — a tenant's operations run
// strictly in submission order (single-threaded session semantics,
// exactly the serial replay of its own op stream), while distinct
// tenants run concurrently — and share one SharedPlanCache, so a
// statement class any tenant has already prepared costs every later
// tenant zero what-if optimizer calls for templates and zero γ
// enumeration work (see inum/shared_cache.h for why the reuse is
// bit-identical, not just approximately right).
//
// Submission is asynchronous: Submit returns a std::future<OpResult>
// immediately. Per-tenant backpressure (max_inflight_per_tenant) bounds
// each tenant's queue; a rejected op resolves its future right away
// with kResourceExhausted and runs nothing.
#ifndef COPHY_SERVICE_SERVICE_H_
#define COPHY_SERVICE_SERVICE_H_

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "service/executor.h"
#include "service/plan_cache.h"

namespace cophy {

/// Service-tier knobs.
struct ServiceOptions {
  /// Op-executing workers shared by all tenants (<= 0: hardware count):
  /// N workers run up to N tenants' ops at once. They are also the
  /// sessions' preparation and presolve pool, so an op's INUM Prepare
  /// and presolve scans fan out over whichever workers are idle. 1 means
  /// *no* concurrency — ops run inline at Submit in submission order,
  /// the benchmark's "serialized dispatch" baseline.
  int num_threads = 0;
  /// Per-tenant in-flight cap (queued + running); Submit past it fails
  /// fast with kResourceExhausted. <= 0 means unbounded.
  int max_inflight_per_tenant = 64;
  /// Cross-tenant INUM plan cache (the tentpole). Off = every session
  /// prepares self-contained, exactly as if it ran alone.
  bool share_plan_cache = true;
  /// Lock shards of the shared cache.
  int plan_cache_shards = 16;
  /// Per-tenant session defaults. prepare.workers and prepare.plan_cache
  /// are overridden by the service: sessions prepare and presolve on the
  /// service's workers (fan-out helpers are ordinary pool tasks, so the
  /// machine is never oversubscribed), and the cache pointer is the
  /// service's, governed by share_plan_cache.
  SessionOptions session;
};

/// One queued operation. Exactly the AdvisorSession verbs, reified so
/// traffic drivers can replay mixed traces through one entry point.
struct ServiceOp {
  enum class Kind {
    kAddStatements,
    kRemoveStatements,
    kTune,
    kRetune,
    kAdvanceEpoch,  ///< tick the tenant's decay clock (core/drift.h)
    kFeedback,      ///< DBA accept/veto/clear on one index
  };
  enum class Feedback { kAccept, kVeto, kClear };
  Kind kind = Kind::kTune;
  std::vector<Query> statements;   ///< kAddStatements
  std::vector<QueryId> ids;        ///< kRemoveStatements
  ConstraintSet constraints;       ///< kTune / kRetune
  int64_t epoch_ticks = 1;         ///< kAdvanceEpoch
  Feedback feedback = Feedback::kAccept;  ///< kFeedback
  IndexId index = -1;                     ///< kFeedback
};

/// What an operation produced. `status` is kResourceExhausted for a
/// backpressure rejection (nothing ran), otherwise the op's own outcome
/// (for Tune/Retune it mirrors recommendation.status).
struct OpResult {
  Status status;
  std::vector<QueryId> ids;        ///< session ids from kAddStatements
  Recommendation recommendation;   ///< from kTune / kRetune
  double queue_seconds = 0;        ///< Submit -> start of execution
  double exec_seconds = 0;         ///< execution proper
};

/// Point-in-time service accounting (all counters monotone).
struct ServiceStats {
  int64_t submitted = 0;  ///< ops accepted
  int64_t completed = 0;  ///< ops finished
  int64_t rejected = 0;   ///< ops refused with kResourceExhausted
  int num_tenants = 0;
  PlanCacheStats plan_cache;  ///< zeros when the shared cache is off
};

class AdvisorService {
 public:
  /// `whatif` and `pool` are shared by every tenant session (the
  /// sessions allocate candidates into the same IndexPool — ids are
  /// assigned once and stable, which is what lets cached plans and
  /// recommendations reference them across tenants). Neither is owned;
  /// both must outlive the service. The constructor warms the catalog's
  /// statistics caches once so all later reads are pure and
  /// thread-safe.
  AdvisorService(WhatIfOptimizer* whatif, IndexPool* pool,
                 ServiceOptions options = {});
  /// Drains all lanes, then tears down the pool.
  ~AdvisorService();

  AdvisorService(const AdvisorService&) = delete;
  AdvisorService& operator=(const AdvisorService&) = delete;

  /// Queues `op` on `tenant`'s lane (creating the tenant's session on
  /// first use) and returns its future. Never blocks on the op itself;
  /// a backpressure rejection resolves the future immediately.
  std::future<OpResult> Submit(const std::string& tenant, ServiceOp op);

  /// Convenience wrappers over Submit.
  std::future<OpResult> AddStatements(const std::string& tenant,
                                      std::vector<Query> statements);
  std::future<OpResult> RemoveStatements(const std::string& tenant,
                                         std::vector<QueryId> ids);
  std::future<OpResult> Tune(const std::string& tenant,
                             ConstraintSet constraints);
  std::future<OpResult> Retune(const std::string& tenant,
                               ConstraintSet constraints);
  /// Ticks the tenant's logical epoch clock (weight decay; no-op with
  /// decay disabled). Ordered like any other op on the tenant's lane.
  std::future<OpResult> AdvanceEpoch(const std::string& tenant,
                                     int64_t ticks = 1);
  /// DBA feedback verbs (pin / forbid / forget one index).
  std::future<OpResult> Accept(const std::string& tenant, IndexId index);
  std::future<OpResult> Veto(const std::string& tenant, IndexId index);
  std::future<OpResult> ClearFeedback(const std::string& tenant,
                                      IndexId index);

  /// Blocks until every tenant lane is momentarily empty and idle.
  void Drain();

  ServiceStats stats() const;
  /// The shared cache, or nullptr when share_plan_cache is off.
  SharedPlanCache* plan_cache() {
    return options_.share_plan_cache ? &cache_ : nullptr;
  }
  /// Direct session access for reports and tests. Only safe to *use*
  /// while the tenant's lane is idle (e.g. after Drain); nullptr if the
  /// tenant never submitted.
  AdvisorSession* FindSession(const std::string& tenant);
  int num_tenants() const;

 private:
  /// Lazily creates the tenant's session (the service's workers and
  /// shared cache wired in).
  AdvisorSession* SessionFor(const std::string& tenant);

  WhatIfOptimizer* whatif_;
  IndexPool* pool_;
  ServiceOptions options_;
  SharedPlanCache cache_;
  ThreadPool workers_;
  SessionExecutor executor_;  // declared after workers_: destroyed first
  mutable std::mutex sessions_mu_;
  std::unordered_map<std::string, std::unique_ptr<AdvisorSession>> sessions_;
};

}  // namespace cophy

#endif  // COPHY_SERVICE_SERVICE_H_
