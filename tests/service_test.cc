// Multi-tenant advisor service: per-lane serialization and backpressure
// in the SessionExecutor, interleaved multi-tenant traffic whose final
// recommendations are bit-identical to a serial replay of each tenant's
// own op stream, and the cross-session plan cache — recommendations
// bit-identical cache on vs off while the cache-on service performs
// strictly fewer what-if optimizer calls once tenants overlap, and
// single-flight fills (concurrent tenants pay each template enumeration
// once). N workers run N ops at once, and a lone op's preparation fans
// out over the idle ones. The interleaved tests run under TSan in CI
// (concurrency job).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "optimizer/simulator.h"
#include "service/service.h"
#include "workload/generator.h"

namespace cophy {
namespace {

struct TestEnv {
  Catalog cat;
  IndexPool pool;
  std::unique_ptr<SystemSimulator> sim;

  TestEnv() {
    cat = MakeTpchCatalog(0.1, 0.0);
    sim = std::make_unique<SystemSimulator>(&cat, &pool, CostModel::SystemA());
  }

  ConstraintSet Budget(double m) const {
    ConstraintSet cs;
    cs.SetStorageBudget(m * cat.TotalDataBytes());
    return cs;
  }
};

CoPhyOptions TestOptions() {
  CoPhyOptions opts;
  opts.gap_target = 0.05;
  opts.node_limit = 3000;
  return opts;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::vector<IndexId> SortedIds(const Recommendation& rec) {
  std::vector<IndexId> ids = rec.configuration.ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ExpectBitIdentical(const Recommendation& a, const Recommendation& b) {
  EXPECT_EQ(SortedIds(a), SortedIds(b));
  EXPECT_EQ(Bits(a.objective), Bits(b.objective));
  EXPECT_EQ(Bits(a.lower_bound), Bits(b.lower_bound));
  EXPECT_EQ(Bits(a.gap), Bits(b.gap));
}

/// Statement i of tenant t; positions hitting the overlap percentage
/// draw a (template, seed) shared by every tenant, the rest are
/// tenant-private (same scheme as bench_service).
Query TenantStatement(const Catalog& cat, int tenant, int i,
                      int overlap_pct = 75) {
  const bool shared = (i * 37 + 11) % 100 < overlap_pct;
  const int tmpl = i % NumHomogeneousTemplates();
  const uint64_t seed =
      shared ? 1000 + static_cast<uint64_t>(i)
             : 777'000'000ULL + static_cast<uint64_t>(tenant) * 100'000 + i;
  return MakeHomogeneousStatement(cat, tmpl, seed);
}

/// A tenant's deterministic op stream: initial batch + cold Tune, then
/// `rounds` of (remove two oldest, add two fresh, warm Retune).
std::vector<ServiceOp> MakeTrace(const TestEnv& env, int tenant, int rounds,
                                 int overlap_pct = 75) {
  constexpr int kInitial = 8;
  const ConstraintSet budget = env.Budget(0.5);
  std::vector<ServiceOp> trace;
  ServiceOp add;
  add.kind = ServiceOp::Kind::kAddStatements;
  for (int i = 0; i < kInitial; ++i) {
    add.statements.push_back(TenantStatement(env.cat, tenant, i, overlap_pct));
  }
  trace.push_back(std::move(add));
  ServiceOp tune;
  tune.kind = ServiceOp::Kind::kTune;
  tune.constraints = budget;
  trace.push_back(std::move(tune));
  for (int r = 0; r < rounds; ++r) {
    ServiceOp remove;
    remove.kind = ServiceOp::Kind::kRemoveStatements;
    remove.ids = {2 * r, 2 * r + 1};
    trace.push_back(std::move(remove));
    ServiceOp grow;
    grow.kind = ServiceOp::Kind::kAddStatements;
    grow.statements = {
        TenantStatement(env.cat, tenant, kInitial + 2 * r, overlap_pct),
        TenantStatement(env.cat, tenant, kInitial + 2 * r + 1, overlap_pct)};
    trace.push_back(std::move(grow));
    ServiceOp retune;
    retune.kind = ServiceOp::Kind::kRetune;
    retune.constraints = budget;
    trace.push_back(std::move(retune));
  }
  return trace;
}

/// A drifting op stream: MakeTrace's churn plus one epoch tick per
/// round, so decayed weights, the drift detector, and the hysteresis
/// scheduler are all live while tenants interleave. The rotating
/// template index of TenantStatement shifts the class mix every round.
std::vector<ServiceOp> MakeDriftTrace(const TestEnv& env, int tenant,
                                      int rounds, int overlap_pct = 75) {
  std::vector<ServiceOp> trace = MakeTrace(env, tenant, rounds, overlap_pct);
  // Insert an epoch tick before each round's remove/add/retune triple
  // (rounds start after the initial add + cold Tune).
  std::vector<ServiceOp> out(trace.begin(), trace.begin() + 2);
  for (int r = 0; r < rounds; ++r) {
    ServiceOp tick;
    tick.kind = ServiceOp::Kind::kAdvanceEpoch;
    tick.epoch_ticks = 1;
    out.push_back(std::move(tick));
    for (int i = 0; i < 3; ++i) out.push_back(trace[2 + 3 * r + i]);
  }
  return out;
}

/// Pushes every tenant's trace through the service round-robin (op 0 of
/// every tenant, then op 1, ...) so lanes genuinely interleave, and
/// returns each tenant's final recommendation.
std::vector<Recommendation> RunInterleaved(
    AdvisorService& service, const std::vector<std::vector<ServiceOp>>& traces) {
  size_t max_len = 0;
  for (const auto& t : traces) max_len = std::max(max_len, t.size());
  std::vector<std::vector<std::future<OpResult>>> futures(traces.size());
  for (size_t i = 0; i < max_len; ++i) {
    for (size_t t = 0; t < traces.size(); ++t) {
      if (i >= traces[t].size()) continue;
      futures[t].push_back(service.Submit("tenant-" + std::to_string(t),
                                          traces[t][i]));
    }
  }
  std::vector<Recommendation> finals(traces.size());
  for (size_t t = 0; t < traces.size(); ++t) {
    for (size_t i = 0; i < futures[t].size(); ++i) {
      OpResult res = futures[t][i].get();
      EXPECT_TRUE(res.status.ok()) << "tenant " << t << " op " << i << ": "
                                   << res.status.ToString();
      if (traces[t][i].kind == ServiceOp::Kind::kTune ||
          traces[t][i].kind == ServiceOp::Kind::kRetune) {
        finals[t] = std::move(res.recommendation);
      }
    }
  }
  return finals;
}

/// Serial replay of one tenant's trace on a fresh single-threaded
/// session (no executor, no shared cache) against the same pool and
/// backend, returning the final recommendation.
Recommendation ReplaySerial(TestEnv& env, const std::vector<ServiceOp>& trace,
                            DriftOptions drift = {}) {
  SessionOptions so;
  so.tuning = TestOptions();
  so.tuning.prepare.num_threads = 1;
  so.drift = drift;
  AdvisorSession session(env.sim.get(), &env.pool, so);
  Recommendation last;
  for (const ServiceOp& op : trace) {
    switch (op.kind) {
      case ServiceOp::Kind::kAddStatements:
        session.AddStatements(op.statements);
        break;
      case ServiceOp::Kind::kRemoveStatements:
        EXPECT_TRUE(session.RemoveStatements(op.ids).ok());
        break;
      case ServiceOp::Kind::kTune:
        last = session.Tune(op.constraints);
        EXPECT_TRUE(last.status.ok()) << last.status.ToString();
        break;
      case ServiceOp::Kind::kRetune:
        last = session.Retune(op.constraints);
        EXPECT_TRUE(last.status.ok()) << last.status.ToString();
        break;
      case ServiceOp::Kind::kAdvanceEpoch:
        session.AdvanceEpoch(op.epoch_ticks);
        break;
      case ServiceOp::Kind::kFeedback:
        switch (op.feedback) {
          case ServiceOp::Feedback::kAccept:
            EXPECT_TRUE(session.Accept(op.index).ok());
            break;
          case ServiceOp::Feedback::kVeto:
            EXPECT_TRUE(session.Veto(op.index).ok());
            break;
          case ServiceOp::Feedback::kClear:
            EXPECT_TRUE(session.ClearFeedback(op.index).ok());
            break;
        }
        break;
    }
  }
  return last;
}

// --- SessionExecutor ------------------------------------------------------

TEST(SessionExecutorTest, SerializesPerLaneInterleavesLanes) {
  ThreadPool pool(4);
  SessionExecutor ex(&pool, /*max_queued_per_lane=*/0);
  constexpr int kLanes = 4, kTasks = 50;
  std::vector<std::vector<int>> seen(kLanes);
  std::mutex mu;
  for (int i = 0; i < kTasks; ++i) {
    for (int lane = 0; lane < kLanes; ++lane) {
      ASSERT_TRUE(ex.Submit("lane-" + std::to_string(lane), [&, lane, i] {
                      std::lock_guard<std::mutex> lock(mu);
                      seen[lane].push_back(i);
                    }).ok());
    }
  }
  ex.Drain();
  for (int lane = 0; lane < kLanes; ++lane) {
    ASSERT_EQ(seen[lane].size(), static_cast<size_t>(kTasks));
    for (int i = 0; i < kTasks; ++i) {
      // FIFO per lane: submission order is execution order.
      EXPECT_EQ(seen[lane][i], i);
    }
  }
  EXPECT_EQ(ex.submitted(), kLanes * kTasks);
  EXPECT_EQ(ex.completed(), kLanes * kTasks);
  EXPECT_EQ(ex.rejected(), 0);
}

TEST(SessionExecutorTest, BackpressureRejectsBeyondCap) {
  ThreadPool pool(2);  // one real worker
  SessionExecutor ex(&pool, /*max_queued_per_lane=*/2);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> ran{0};
  // First task blocks the lane; the second queues; the third must be
  // rejected without running.
  ASSERT_TRUE(ex.Submit("t", [opened, &ran] {
                  opened.wait();
                  ran.fetch_add(1);
                }).ok());
  ASSERT_TRUE(ex.Submit("t", [&ran] { ran.fetch_add(1); }).ok());
  const Status rejected = ex.Submit("t", [&ran] { ran.fetch_add(1); });
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  // A different lane is unaffected by the full one.
  ASSERT_TRUE(ex.Submit("u", [] {}).ok());
  gate.set_value();
  ex.Drain();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(ex.submitted(), 3);
  EXPECT_EQ(ex.completed(), 3);
  EXPECT_EQ(ex.rejected(), 1);
}

TEST(SessionExecutorTest, PublishRunsAfterTheLaneReleasesTheTask) {
  // A full lane (capacity 1) must accept a new task from the finished
  // task's publish step: whoever the results wake may submit again.
  ThreadPool pool(2);
  SessionExecutor ex(&pool, /*max_queued_per_lane=*/1);
  std::promise<Status> resubmitted;
  std::atomic<int> ran{0};
  ASSERT_TRUE(ex.Submit("t", [&ran] { ran.fetch_add(1); },
                        [&] {
                          resubmitted.set_value(
                              ex.Submit("t", [&ran] { ran.fetch_add(1); }));
                        })
                  .ok());
  EXPECT_TRUE(resubmitted.get_future().get().ok());
  ex.Drain();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(ex.rejected(), 0);
}

TEST(SessionExecutorTest, InlineOnSizeOnePool) {
  ThreadPool pool(1);
  SessionExecutor ex(&pool, 4);
  int ran = 0;
  ASSERT_TRUE(ex.Submit("t", [&] { ++ran; }).ok());
  // Size-1 pool: the task ran inline inside Submit.
  EXPECT_EQ(ran, 1);
  ex.Drain();
  EXPECT_EQ(ex.completed(), 1);
}

// --- AdvisorService -------------------------------------------------------

TEST(ServiceTest, InterleavedMatchesSerialReplayPerTenant) {
  TestEnv env;
  constexpr int kTenants = 4;
  std::vector<std::vector<ServiceOp>> traces;
  for (int t = 0; t < kTenants; ++t) {
    traces.push_back(MakeTrace(env, t, /*rounds=*/2));
  }
  ServiceOptions so;
  so.num_threads = 0;  // hardware
  so.share_plan_cache = true;
  so.session.tuning = TestOptions();
  std::vector<Recommendation> finals;
  {
    AdvisorService service(env.sim.get(), &env.pool, so);
    finals = RunInterleaved(service, traces);
    service.Drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.num_tenants, kTenants);
    EXPECT_EQ(stats.submitted, stats.completed);
    EXPECT_EQ(stats.rejected, 0);
  }
  // Serial replay of each tenant's own op stream on the same pool +
  // backend must land on the exact same recommendation: concurrent
  // dispatch and the shared cache change the schedule, never the math.
  for (int t = 0; t < kTenants; ++t) {
    const Recommendation replay = ReplaySerial(env, traces[t]);
    SCOPED_TRACE("tenant " + std::to_string(t));
    ExpectBitIdentical(finals[t], replay);
  }
}

TEST(ServiceTest, CacheOnOffBitIdenticalWithStrictlyFewerWhatIfCalls) {
  constexpr int kTenants = 3;  // >= 2 overlapping tenants
  auto run = [&](bool cache_on, int64_t* whatif_calls,
                 PlanCacheStats* cache_stats,
                 int64_t* folded_template_hits) -> std::vector<Recommendation> {
    TestEnv env;  // fresh pool + simulator: counters start at zero
    std::vector<std::vector<ServiceOp>> traces;
    for (int t = 0; t < kTenants; ++t) {
      traces.push_back(MakeTrace(env, t, /*rounds=*/1));
    }
    ServiceOptions so;
    so.num_threads = 0;
    so.share_plan_cache = cache_on;
    so.session.tuning = TestOptions();
    AdvisorService service(env.sim.get(), &env.pool, so);
    std::vector<Recommendation> finals = RunInterleaved(service, traces);
    service.Drain();
    *whatif_calls = env.sim->num_whatif_calls();
    *cache_stats = service.stats().plan_cache;
    *folded_template_hits = 0;
    for (int t = 0; t < kTenants; ++t) {
      AdvisorSession* session =
          service.FindSession("tenant-" + std::to_string(t));
      if (session == nullptr) {
        ADD_FAILURE() << "tenant " << t << " has no session";
        continue;
      }
      *folded_template_hits +=
          session->prepare_stats().plan_cache_template_hits;
    }
    return finals;
  };

  int64_t calls_off = 0, calls_on = 0, folded_off = 0, folded_on = 0;
  PlanCacheStats stats_off, stats_on;
  const std::vector<Recommendation> off =
      run(false, &calls_off, &stats_off, &folded_off);
  const std::vector<Recommendation> on =
      run(true, &calls_on, &stats_on, &folded_on);

  // Same tenant, same trace -> bit-identical recommendation either way.
  for (int t = 0; t < kTenants; ++t) {
    SCOPED_TRACE("tenant " + std::to_string(t));
    ExpectBitIdentical(off[t], on[t]);
  }
  // The tentpole's perf claim, counter-asserted: overlapping tenants
  // resolve shared statement classes from the cache, so the cache-on
  // service performs strictly fewer what-if optimizer calls.
  EXPECT_LT(calls_on, calls_off);
  EXPECT_GT(stats_on.template_hits, 0);
  EXPECT_GT(stats_on.Hits(), 0);
  EXPECT_EQ(stats_off.Lookups(), 0);
  // The per-session PrepareStats fold sees the same hits the cache does.
  EXPECT_EQ(folded_off, 0);
  EXPECT_GT(folded_on, 0);
}

TEST(ServiceTest, DriftingTraceCacheOnOffBitIdentical) {
  // The plan cache keys on structure only (template signatures + γ walk
  // digests are weight- and therefore decay-blind), so a drifting trace
  // with live decay must solve bit-identically with the cache on or
  // off, and hysteresis/feedback state never leaks through the cache.
  constexpr int kTenants = 3;
  auto run = [&](bool cache_on, int64_t* whatif_calls,
                 PlanCacheStats* cache_stats) -> std::vector<Recommendation> {
    TestEnv env;
    std::vector<std::vector<ServiceOp>> traces;
    for (int t = 0; t < kTenants; ++t) {
      traces.push_back(MakeDriftTrace(env, t, /*rounds=*/2));
    }
    ServiceOptions so;
    so.num_threads = 0;
    so.share_plan_cache = cache_on;
    so.session.tuning = TestOptions();
    so.session.drift.half_life_epochs = 1.0;
    so.session.drift.materialize_after = 2;
    so.session.drift.drop_after = 2;
    AdvisorService service(env.sim.get(), &env.pool, so);
    std::vector<Recommendation> finals = RunInterleaved(service, traces);
    service.Drain();
    *whatif_calls = env.sim->num_whatif_calls();
    *cache_stats = service.stats().plan_cache;
    return finals;
  };

  int64_t calls_off = 0, calls_on = 0;
  PlanCacheStats stats_off, stats_on;
  const std::vector<Recommendation> off = run(false, &calls_off, &stats_off);
  const std::vector<Recommendation> on = run(true, &calls_on, &stats_on);
  for (int t = 0; t < kTenants; ++t) {
    SCOPED_TRACE("tenant " + std::to_string(t));
    ExpectBitIdentical(off[t], on[t]);
    // The hysteresis decision is session state, not cache state: the
    // applied sets must agree too.
    EXPECT_EQ(off[t].materialization.applied, on[t].materialization.applied);
    EXPECT_EQ(Bits(off[t].prepare.drift_score),
              Bits(on[t].prepare.drift_score));
  }
  EXPECT_LT(calls_on, calls_off);
  EXPECT_GT(stats_on.Hits(), 0);
  EXPECT_EQ(stats_off.Lookups(), 0);
}

TEST(ServiceTest, DriftingTraceMatchesSerialReplayPerTenant) {
  TestEnv env;
  constexpr int kTenants = 3;
  std::vector<std::vector<ServiceOp>> traces;
  for (int t = 0; t < kTenants; ++t) {
    traces.push_back(MakeDriftTrace(env, t, /*rounds=*/2));
  }
  // One tenant also exercises the feedback verbs mid-trace: veto an
  // arbitrary pool index before its final retune (id 0 exists once any
  // tenant prepared — ops run in lane order after the cold Tune).
  ServiceOp veto;
  veto.kind = ServiceOp::Kind::kFeedback;
  veto.feedback = ServiceOp::Feedback::kVeto;
  veto.index = 0;
  traces[0].insert(traces[0].end() - 1, veto);

  ServiceOptions so;
  so.num_threads = 0;
  so.session.tuning = TestOptions();
  so.session.drift.half_life_epochs = 1.0;
  std::vector<Recommendation> finals;
  {
    AdvisorService service(env.sim.get(), &env.pool, so);
    finals = RunInterleaved(service, traces);
    service.Drain();
  }
  EXPECT_FALSE(finals[0].configuration.Contains(0));
  for (int t = 0; t < kTenants; ++t) {
    const Recommendation replay =
        ReplaySerial(env, traces[t], so.session.drift);
    SCOPED_TRACE("tenant " + std::to_string(t));
    ExpectBitIdentical(finals[t], replay);
    EXPECT_EQ(finals[t].materialization.applied,
              replay.materialization.applied);
  }
}

TEST(ServiceTest, BackpressureResolvesFutureWithResourceExhausted) {
  TestEnv env;
  ServiceOptions so;
  so.num_threads = 2;  // real worker: ops queue instead of running inline
  so.max_inflight_per_tenant = 1;
  so.session.tuning = TestOptions();
  AdvisorService service(env.sim.get(), &env.pool, so);

  std::vector<Query> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(TenantStatement(env.cat, 0, i));
  EXPECT_TRUE(service.AddStatements("t", batch).get().status.ok());
  // The Tune occupies the lane the instant Submit accepts it (the
  // in-flight count drops only on completion, and a cold Tune is far
  // slower than the back-to-back Submit), so the second op must bounce.
  std::future<OpResult> first = service.Tune("t", env.Budget(0.5));
  std::future<OpResult> second = service.Retune("t", env.Budget(0.5));
  const OpResult bounced = second.get();
  EXPECT_EQ(bounced.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(first.get().status.ok());
  service.Drain();
  EXPECT_EQ(service.stats().rejected, 1);
  // With the lane idle again the tenant is welcome back.
  EXPECT_TRUE(service.Tune("t", env.Budget(0.5)).get().status.ok());
}

TEST(ServiceTest, ClosedLoopClientIsNeverBounced) {
  // A client that waits for each op before submitting the next never
  // exceeds one op in flight, so a lane of capacity 1 must accept every
  // op: the future resolves only after the lane has released the op.
  TestEnv env;
  ServiceOptions so;
  so.num_threads = 2;
  so.max_inflight_per_tenant = 1;
  so.session.tuning = TestOptions();
  AdvisorService service(env.sim.get(), &env.pool, so);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(service.AdvanceEpoch("t", 1).get().status.ok()) << "op " << i;
  }
  EXPECT_EQ(service.stats().rejected, 0);
}

TEST(ServiceTest, DestroyingTheServiceFinishesQueuedOps) {
  // Ops still queued when the service goes away run to completion
  // against live sessions; their futures resolve OK.
  TestEnv env;
  std::vector<std::future<OpResult>> pending;
  {
    ServiceOptions so;
    so.num_threads = 2;
    so.session.tuning = TestOptions();
    AdvisorService service(env.sim.get(), &env.pool, so);
    for (int t = 0; t < 3; ++t) {
      const std::string tenant = "tenant-" + std::to_string(t);
      std::vector<Query> batch;
      for (int i = 0; i < 4; ++i) {
        batch.push_back(TenantStatement(env.cat, t, i));
      }
      pending.push_back(service.AddStatements(tenant, batch));
      pending.push_back(service.Tune(tenant, env.Budget(0.5)));
    }
  }
  for (auto& f : pending) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().status.ok());
  }
}

TEST(ServiceTest, HammerManyTenantsInterleaved) {
  // Race-hunting workload for the TSan job: more tenants than workers,
  // every tenant churning add/remove/retune concurrently through the
  // shared pool, cache and executor. Correctness assertions ride along
  // (every op OK, counters consistent); the sanitizer owns the rest.
  TestEnv env;
  constexpr int kTenants = 6;
  std::vector<std::vector<ServiceOp>> traces;
  for (int t = 0; t < kTenants; ++t) {
    traces.push_back(MakeTrace(env, t, /*rounds=*/2, /*overlap_pct=*/50));
  }
  ServiceOptions so;
  so.num_threads = 4;
  so.session.tuning = TestOptions();
  AdvisorService service(env.sim.get(), &env.pool, so);
  RunInterleaved(service, traces);
  service.Drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.num_tenants, kTenants);
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_GT(stats.plan_cache.Hits(), 0);
}

TEST(ServiceTest, HammerDriftingTenantsInterleaved) {
  // TSan target: decay-at-merge (epoch ticks re-weighting every live
  // statement lazily) racing with concurrent tenant submits through the
  // shared pool and plan cache, plus feedback verbs mid-stream.
  TestEnv env;
  constexpr int kTenants = 6;
  std::vector<std::vector<ServiceOp>> traces;
  for (int t = 0; t < kTenants; ++t) {
    traces.push_back(MakeDriftTrace(env, t, /*rounds=*/2, /*overlap_pct=*/50));
    if (t % 2 == 0) {
      ServiceOp veto;
      veto.kind = ServiceOp::Kind::kFeedback;
      veto.feedback = ServiceOp::Feedback::kVeto;
      veto.index = t;  // pool ids 0..5 exist once any tenant prepared
      traces[t].insert(traces[t].end() - 1, veto);
    }
  }
  ServiceOptions so;
  so.num_threads = 4;
  so.session.tuning = TestOptions();
  so.session.drift.half_life_epochs = 1.0;
  so.session.drift.materialize_after = 2;
  so.session.drift.drop_after = 2;
  AdvisorService service(env.sim.get(), &env.pool, so);
  const std::vector<Recommendation> finals = RunInterleaved(service, traces);
  service.Drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.num_tenants, kTenants);
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.rejected, 0);
  for (int t = 0; t < kTenants; t += 2) {
    EXPECT_FALSE(finals[t].configuration.Contains(t)) << "tenant " << t;
  }
}

// --- Worker concurrency and single-flight fills ----------------------------

/// Forwards to `inner`, calling `hook` at the start of every
/// EnumerateTemplates (the what-if call a template fill makes); a hook
/// that returns an error replaces the call's result.
class HookedWhatIf final : public WhatIfOptimizer {
 public:
  using Hook = std::function<Status(const Query&)>;
  HookedWhatIf(WhatIfOptimizer* inner, Hook hook)
      : inner_(inner), hook_(std::move(hook)) {}

  Result<double> Cost(const Query& q, const Configuration& x) override {
    return inner_->Cost(q, x);
  }
  Result<double> UpdateCost(IndexId a, const Query& q) override {
    return inner_->UpdateCost(a, q);
  }
  Result<std::vector<TemplatePlan>> EnumerateTemplates(
      const Query& q) override {
    calls_.fetch_add(1);
    const Status s = hook_(q);
    if (!s.ok()) return s;
    return inner_->EnumerateTemplates(q);
  }
  Result<double> AccessCost(const Query& q, int slot, const OrderSpec& order,
                            IndexId a) override {
    return inner_->AccessCost(q, slot, order, a);
  }
  Result<double> ShellCost(const Query& q, const Configuration& x) override {
    return inner_->ShellCost(q, x);
  }
  Result<double> BaseUpdateCost(const Query& q) override {
    return inner_->BaseUpdateCost(q);
  }
  std::vector<std::vector<OrderSpec>> SlotOrderCandidates(
      const Query& q) const override {
    return inner_->SlotOrderCandidates(q);
  }
  const Catalog& catalog() const override { return inner_->catalog(); }
  const IndexPool& pool() const override { return inner_->pool(); }
  int64_t num_whatif_calls() const override {
    return inner_->num_whatif_calls();
  }

  /// EnumerateTemplates calls so far.
  int64_t calls() const { return calls_.load(); }

 private:
  WhatIfOptimizer* inner_;
  Hook hook_;
  std::atomic<int64_t> calls_{0};
};

/// Lets the first `quorum` arrivals wait, at most ten seconds, until all
/// of them are there at once; later arrivals pass straight through.
class Rendezvous {
 public:
  explicit Rendezvous(int quorum) : quorum_(quorum) {}
  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ == quorum_) cv_.notify_all();
    if (!cv_.wait_for(lock, std::chrono::seconds(10),
                      [&] { return arrived_ >= quorum_; })) {
      gave_up_ = true;
    }
  }
  /// Whether `quorum` threads were inside at once: all arrived, and none
  /// gave up waiting for the others first.
  bool met() {
    std::lock_guard<std::mutex> lock(mu_);
    return arrived_ >= quorum_ && !gave_up_;
  }

 private:
  const int quorum_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool gave_up_ = false;
};

/// One statement per homogeneous template: distinct templates are never
/// cost-equivalent, so each is its own class (and its own cache key).
Query ClassStatement(const Catalog& cat, int tmpl) {
  return MakeHomogeneousStatement(cat, tmpl,
                                  5000 + static_cast<uint64_t>(tmpl));
}

TEST(ServiceTest, TwoWorkersRunTwoTenantsOpsAtOnce) {
  // Each tenant holds one class of its own; the two fills rendezvous
  // inside the backend, which only two concurrently running ops reach.
  TestEnv env;
  Rendezvous both(2);
  HookedWhatIf hooked(env.sim.get(), [&](const Query&) {
    both.Arrive();
    return Status::Ok();
  });
  ServiceOptions so;
  so.num_threads = 2;
  so.session.tuning = TestOptions();
  AdvisorService service(&hooked, &env.pool, so);
  std::vector<std::future<OpResult>> tuned;
  for (int t = 0; t < 2; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    service.AddStatements(tenant, {ClassStatement(env.cat, t)});
    tuned.push_back(service.Tune(tenant, env.Budget(0.5)));
  }
  for (auto& f : tuned) EXPECT_TRUE(f.get().status.ok());
  EXPECT_TRUE(both.met());
}

TEST(ServiceTest, LoneOpPreparationFansOutOverTheIdleWorker) {
  // One tenant, two classes, two workers: the op holds one worker and
  // its INUM Prepare must pull the idle one in, so both template fills
  // are inside the backend at once.
  TestEnv env;
  Rendezvous both(2);
  HookedWhatIf hooked(env.sim.get(), [&](const Query&) {
    both.Arrive();
    return Status::Ok();
  });
  ServiceOptions so;
  so.num_threads = 2;
  so.session.tuning = TestOptions();
  const std::vector<Query> batch = {ClassStatement(env.cat, 0),
                                    ClassStatement(env.cat, 1)};
  Recommendation rec;
  {
    AdvisorService service(&hooked, &env.pool, so);
    ASSERT_TRUE(service.AddStatements("t", batch).get().status.ok());
    OpResult r = service.Tune("t", env.Budget(0.5)).get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    rec = std::move(r.recommendation);
  }
  EXPECT_TRUE(both.met());
  // The op runs on a worker, so it can use the two workers and no more.
  EXPECT_EQ(rec.prepare.num_threads, 2);
  // Fanning out changes who does the work, never the result.
  ServiceOp add;
  add.kind = ServiceOp::Kind::kAddStatements;
  add.statements = batch;
  ServiceOp tune;
  tune.kind = ServiceOp::Kind::kTune;
  tune.constraints = env.Budget(0.5);
  ExpectBitIdentical(rec, ReplaySerial(env, {add, tune}));
}

TEST(ServiceTest, ConcurrentTenantsPayEachTemplateFillOnce) {
  // Tenants adding the same classes at once must make exactly the
  // template what-if calls one tenant alone makes: a miss claims the
  // fill and the others wait for it. Slow fills make the overlap certain.
  const std::vector<int> classes = {0, 1, 2, 3};
  auto template_calls = [&](int tenants) {
    TestEnv env;
    HookedWhatIf hooked(env.sim.get(), [](const Query&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return Status::Ok();
    });
    ServiceOptions so;
    so.num_threads = 4;
    so.session.tuning = TestOptions();
    AdvisorService service(&hooked, &env.pool, so);
    std::vector<Query> batch;
    for (int c : classes) batch.push_back(ClassStatement(env.cat, c));
    std::vector<std::future<OpResult>> tuned;
    for (int t = 0; t < tenants; ++t) {
      const std::string tenant = "tenant-" + std::to_string(t);
      service.AddStatements(tenant, batch);
      tuned.push_back(service.Tune(tenant, env.Budget(0.5)));
    }
    for (auto& f : tuned) EXPECT_TRUE(f.get().status.ok());
    service.Drain();
    if (tenants > 1) {
      EXPECT_GT(service.stats().plan_cache.fill_waits, 0);
    }
    return hooked.calls();
  };
  const int64_t alone = template_calls(1);
  EXPECT_EQ(alone, static_cast<int64_t>(classes.size()));
  EXPECT_EQ(template_calls(3), alone);
}

TEST(ServiceTest, FailedFillReleasesItsWaitersWhoFillItThemselves) {
  // The first template fill fails once another tenant waits on it: the
  // failing tenant's claim must be released, and the waiter must then
  // claim the class and fill it itself.
  TestEnv env;
  std::atomic<bool> failed_once{false};
  AdvisorService* service_ptr = nullptr;
  HookedWhatIf hooked(env.sim.get(), [&](const Query&) {
    if (failed_once.exchange(true)) return Status::Ok();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service_ptr->stats().plan_cache.fill_waits == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Internal("injected template fill failure");
  });
  ServiceOptions so;
  so.num_threads = 2;
  so.session.tuning = TestOptions();
  AdvisorService service(&hooked, &env.pool, so);
  service_ptr = &service;
  const std::vector<Query> batch = {ClassStatement(env.cat, 0)};
  std::vector<std::future<OpResult>> tuned;
  for (int t = 0; t < 2; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    service.AddStatements(tenant, batch);
    tuned.push_back(service.Tune(tenant, env.Budget(0.5)));
  }
  std::vector<OpResult> results;
  for (auto& f : tuned) results.push_back(f.get());
  service.Drain();
  EXPECT_EQ(service.stats().plan_cache.fill_waits, 1);
  EXPECT_EQ(hooked.calls(), 2);  // the failed fill and the waiter's own
  const int ok = results[0].status.ok() ? 0 : 1;
  ASSERT_TRUE(results[ok].status.ok()) << results[ok].status.ToString();
  EXPECT_EQ(results[1 - ok].status.code(), StatusCode::kInternal);
  ServiceOp add;
  add.kind = ServiceOp::Kind::kAddStatements;
  add.statements = batch;
  ServiceOp tune;
  tune.kind = ServiceOp::Kind::kTune;
  tune.constraints = env.Budget(0.5);
  ExpectBitIdentical(results[ok].recommendation,
                     ReplaySerial(env, {add, tune}));
}

// --- SharedPlanCache single-flight -------------------------------------------

constexpr double kNoLimit = std::numeric_limits<double>::infinity();

/// Polls until `cache` counts `n` waiting lookups (bounded).
bool AwaitFillWaits(const SharedPlanCache& cache, int64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cache.stats().fill_waits < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(SharedPlanCacheTest, MissClaimsAndWaitersTakeThePublishedEntry) {
  SharedPlanCache cache(1);
  PlanCacheClaim claim;
  auto first = cache.LookupTemplates(7, kNoLimit, &claim);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, nullptr);
  ASSERT_TRUE(claim.held());
  std::future<bool> waiter = std::async(std::launch::async, [&] {
    PlanCacheClaim mine;
    auto r = cache.LookupTemplates(7, 10.0, &mine);
    return r.ok() && *r != nullptr && !mine.held();
  });
  ASSERT_TRUE(AwaitFillWaits(cache, 1));
  cache.PublishTemplates(7, std::make_shared<SharedTemplateEntry>(),
                         std::move(claim));
  EXPECT_TRUE(waiter.get());
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.template_misses, 1);
  EXPECT_EQ(s.template_hits, 1);
  EXPECT_EQ(s.template_inserts, 1);
}

TEST(SharedPlanCacheTest, ReleasedClaimPassesTheFillToAWaiter) {
  SharedPlanCache cache(1);
  std::future<bool> waiter;
  {
    PlanCacheClaim claim;
    ASSERT_TRUE(cache.LookupGammas(7, 9, kNoLimit, &claim).ok());
    ASSERT_TRUE(claim.held());
    waiter = std::async(std::launch::async, [&] {
      PlanCacheClaim mine;
      auto r = cache.LookupGammas(7, 9, 10.0, &mine);
      return r.ok() && *r == nullptr && mine.held();
    });
    ASSERT_TRUE(AwaitFillWaits(cache, 1));
  }  // the fill failed: the claim goes out of scope unpublished
  EXPECT_TRUE(waiter.get());
  EXPECT_EQ(cache.stats().gamma_misses, 2);
}

TEST(SharedPlanCacheTest, WaiterHonoursItsDeadline) {
  SharedPlanCache cache(1);
  PlanCacheClaim claim;
  ASSERT_TRUE(cache.LookupTemplates(7, kNoLimit, &claim).ok());
  PlanCacheClaim mine;
  auto r = cache.LookupTemplates(7, 0.05, &mine);
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_FALSE(mine.held());
  // Another key is not held up by the claim.
  auto other = cache.LookupTemplates(8, 0.0, &mine);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(mine.held());
}

}  // namespace
}  // namespace cophy
