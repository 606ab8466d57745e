#include "service/service.h"

#include "common/stopwatch.h"

namespace cophy {

namespace {
/// ThreadPool(k) spawns k - 1 workers, counting a ParallelFor caller as
/// the k-th thread; the thread calling Submit never runs an op, so N
/// op-executing workers take a pool of N + 1. N = 1 keeps the worker-less
/// pool, which runs every op inline.
int PoolSize(int num_threads) {
  const int n = ResolveThreadCount(num_threads);
  return n > 1 ? n + 1 : 1;
}
}  // namespace

AdvisorService::AdvisorService(WhatIfOptimizer* whatif, IndexPool* pool,
                               ServiceOptions options)
    : whatif_(whatif),
      pool_(pool),
      options_(std::move(options)),
      cache_(options_.plan_cache_shards),
      workers_(PoolSize(options_.num_threads)),
      executor_(&workers_, options_.max_inflight_per_tenant) {
  // One full warm here, before any worker can touch the catalog: the
  // Zipf cache is lazily built and not locked, so we make every later
  // read a pure lookup.
  whatif_->catalog().WarmStatistics();
}

AdvisorService::~AdvisorService() {
  // Queued ops use the sessions, which members destroy before the
  // executor: finish them while everything is still alive.
  executor_.Drain();
}

AdvisorSession* AdvisorService::SessionFor(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto& slot = sessions_[tenant];
  if (slot == nullptr) {
    SessionOptions opts = options_.session;
    // Ops run on the service's workers and fan out over the idle ones:
    // cross-tenant concurrency comes from the executor, a lone op's
    // parallelism from work-sharing ParallelFor, and cross-tenant
    // sharing from the plan cache.
    opts.tuning.prepare.workers = &workers_;
    opts.tuning.prepare.plan_cache =
        options_.share_plan_cache ? &cache_ : nullptr;
    slot = std::make_unique<AdvisorSession>(whatif_, pool_, std::move(opts));
  }
  return slot.get();
}

std::future<OpResult> AdvisorService::Submit(const std::string& tenant,
                                             ServiceOp op) {
  auto promise = std::make_shared<std::promise<OpResult>>();
  std::future<OpResult> result = promise->get_future();
  // The op runs into `done`; the promise is kept only once the lane has
  // released the op, so a client may submit again as soon as it wakes.
  auto done = std::make_shared<OpResult>();
  AdvisorSession* session = SessionFor(tenant);
  Stopwatch queued;
  const Status submitted = executor_.Submit(
      tenant,
      [done, session, op = std::move(op), queued]() mutable {
        OpResult& r = *done;
        r.queue_seconds = queued.Elapsed();
        Stopwatch exec;
        switch (op.kind) {
          case ServiceOp::Kind::kAddStatements:
            r.ids = session->AddStatements(op.statements);
            break;
          case ServiceOp::Kind::kRemoveStatements:
            r.status = session->RemoveStatements(op.ids);
            break;
          case ServiceOp::Kind::kTune:
            r.recommendation = session->Tune(op.constraints);
            r.status = r.recommendation.status;
            break;
          case ServiceOp::Kind::kRetune:
            r.recommendation = session->Retune(op.constraints);
            r.status = r.recommendation.status;
            break;
          case ServiceOp::Kind::kAdvanceEpoch:
            session->AdvanceEpoch(op.epoch_ticks);
            break;
          case ServiceOp::Kind::kFeedback:
            switch (op.feedback) {
              case ServiceOp::Feedback::kAccept:
                r.status = session->Accept(op.index);
                break;
              case ServiceOp::Feedback::kVeto:
                r.status = session->Veto(op.index);
                break;
              case ServiceOp::Feedback::kClear:
                r.status = session->ClearFeedback(op.index);
                break;
            }
            break;
        }
        r.exec_seconds = exec.Elapsed();
      },
      [promise, done] { promise->set_value(std::move(*done)); });
  if (!submitted.ok()) {
    OpResult r;
    r.status = submitted;
    promise->set_value(std::move(r));
  }
  return result;
}

std::future<OpResult> AdvisorService::AddStatements(
    const std::string& tenant, std::vector<Query> statements) {
  ServiceOp op;
  op.kind = ServiceOp::Kind::kAddStatements;
  op.statements = std::move(statements);
  return Submit(tenant, std::move(op));
}

std::future<OpResult> AdvisorService::RemoveStatements(
    const std::string& tenant, std::vector<QueryId> ids) {
  ServiceOp op;
  op.kind = ServiceOp::Kind::kRemoveStatements;
  op.ids = std::move(ids);
  return Submit(tenant, std::move(op));
}

std::future<OpResult> AdvisorService::Tune(const std::string& tenant,
                                           ConstraintSet constraints) {
  ServiceOp op;
  op.kind = ServiceOp::Kind::kTune;
  op.constraints = std::move(constraints);
  return Submit(tenant, std::move(op));
}

std::future<OpResult> AdvisorService::Retune(const std::string& tenant,
                                             ConstraintSet constraints) {
  ServiceOp op;
  op.kind = ServiceOp::Kind::kRetune;
  op.constraints = std::move(constraints);
  return Submit(tenant, std::move(op));
}

std::future<OpResult> AdvisorService::AdvanceEpoch(const std::string& tenant,
                                                   int64_t ticks) {
  ServiceOp op;
  op.kind = ServiceOp::Kind::kAdvanceEpoch;
  op.epoch_ticks = ticks;
  return Submit(tenant, std::move(op));
}

std::future<OpResult> AdvisorService::Accept(const std::string& tenant,
                                             IndexId index) {
  ServiceOp op;
  op.kind = ServiceOp::Kind::kFeedback;
  op.feedback = ServiceOp::Feedback::kAccept;
  op.index = index;
  return Submit(tenant, std::move(op));
}

std::future<OpResult> AdvisorService::Veto(const std::string& tenant,
                                           IndexId index) {
  ServiceOp op;
  op.kind = ServiceOp::Kind::kFeedback;
  op.feedback = ServiceOp::Feedback::kVeto;
  op.index = index;
  return Submit(tenant, std::move(op));
}

std::future<OpResult> AdvisorService::ClearFeedback(const std::string& tenant,
                                                    IndexId index) {
  ServiceOp op;
  op.kind = ServiceOp::Kind::kFeedback;
  op.feedback = ServiceOp::Feedback::kClear;
  op.index = index;
  return Submit(tenant, std::move(op));
}

void AdvisorService::Drain() { executor_.Drain(); }

ServiceStats AdvisorService::stats() const {
  ServiceStats s;
  s.submitted = executor_.submitted();
  s.completed = executor_.completed();
  s.rejected = executor_.rejected();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    s.num_tenants = static_cast<int>(sessions_.size());
  }
  s.plan_cache = cache_.stats();
  return s;
}

AdvisorSession* AdvisorService::FindSession(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(tenant);
  return it == sessions_.end() ? nullptr : it->second.get();
}

int AdvisorService::num_tenants() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return static_cast<int>(sessions_.size());
}

}  // namespace cophy
