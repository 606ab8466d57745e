// Sharded advisor sessions: shard invariance (Tune is bit-identical for
// any shard count and to the unsharded CoPhy path), constraint
// translation across shards, incremental add/remove deltas, verbatim
// reuse of prepared state on constraint-only retunes, and the
// cross-solve resolve-state machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <map>

#include "optimizer/simulator.h"
#include "baselines/cophy_advisor.h"
#include "baselines/ilp_advisor.h"
#include "catalog/catalog.h"
#include "core/cophy.h"
#include "core/report.h"
#include "core/session.h"
#include "lp/presolve.h"
#include "optimizer/fault_injection.h"
#include "workload/generator.h"

namespace cophy {
namespace {

struct Env {
  Catalog cat;
  IndexPool pool;
  std::unique_ptr<SystemSimulator> sim;

  explicit Env(double z = 0.0) {
    cat = MakeTpchCatalog(0.1, z);
    sim = std::make_unique<SystemSimulator>(&cat, &pool, CostModel::SystemA());
  }
};

Workload MakeWorkload(int n, uint64_t seed = 42, double update_fraction = 0.0,
                      bool randomize_weights = false) {
  Catalog cat = MakeTpchCatalog(0.1, 0.0);
  WorkloadOptions o;
  o.num_statements = n;
  o.seed = seed;
  o.update_fraction = update_fraction;
  o.randomize_weights = randomize_weights;
  return MakeHomogeneousWorkload(cat, o);
}

CoPhyOptions TestOptions() {
  CoPhyOptions opts;
  opts.gap_target = 0.05;
  opts.node_limit = 3000;
  // Exercise the shared worker pool (outer shard fan-out + nested
  // per-statement loops); outputs are thread-count independent.
  opts.prepare.num_threads = 4;
  return opts;
}

struct TuneResult {
  std::vector<IndexId> config;  // sorted
  double objective = 0;
  int num_candidates = 0;
  BipStats bip;
};

TuneResult RunCoPhy(const Workload& w, double budget_m,
                    const ConstraintSet* extra = nullptr) {
  Env e;
  CoPhy advisor(e.sim.get(), &e.pool, w, TestOptions());
  EXPECT_TRUE(advisor.Prepare().ok());
  ConstraintSet cs = extra != nullptr ? *extra : ConstraintSet();
  cs.SetStorageBudget(budget_m * e.cat.TotalDataBytes());
  const Recommendation rec = advisor.Tune(cs);
  EXPECT_TRUE(rec.status.ok()) << rec.status.ToString();
  TuneResult r;
  r.config = rec.configuration.ids();
  std::sort(r.config.begin(), r.config.end());
  r.objective = rec.objective;
  r.num_candidates = rec.num_candidates;
  r.bip = rec.bip;
  return r;
}

TuneResult RunSession(const Workload& w, double budget_m, int shards,
                      const ConstraintSet* extra = nullptr) {
  Env e;
  SessionOptions so;
  so.tuning = TestOptions();
  so.num_shards = shards;
  AdvisorSession session(e.sim.get(), &e.pool, so);
  session.AddWorkload(w);
  ConstraintSet cs = extra != nullptr ? *extra : ConstraintSet();
  cs.SetStorageBudget(budget_m * e.cat.TotalDataBytes());
  const Recommendation rec = session.Tune(cs);
  EXPECT_TRUE(rec.status.ok()) << rec.status.ToString();
  TuneResult r;
  r.config = rec.configuration.ids();
  std::sort(r.config.begin(), r.config.end());
  r.objective = rec.objective;
  r.num_candidates = rec.num_candidates;
  r.bip = rec.bip;
  return r;
}

// --- Shard invariance ----------------------------------------------------

TEST(SessionTest, PreparesAndPresolvesOnTheWorkersItIsGiven) {
  // The service arrangement: a session handed prepare.workers runs its
  // shard fan-out, INUM loops and presolve scans on that pool, whatever
  // prepare.num_threads says, and tunes bit-identically to its own pool.
  const Workload w = MakeWorkload(30, 42, /*update_fraction=*/0.2);
  const TuneResult own = RunSession(w, 0.5, /*shards=*/2);
  Env e;
  ThreadPool workers(3);
  SessionOptions so;
  so.tuning = TestOptions();
  so.tuning.prepare.num_threads = 1;
  so.tuning.prepare.workers = &workers;
  so.num_shards = 2;
  AdvisorSession session(e.sim.get(), &e.pool, so);
  session.AddWorkload(w);
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  const Recommendation rec = session.Tune(cs);
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  EXPECT_EQ(rec.prepare.num_threads, workers.size());
  std::vector<IndexId> config = rec.configuration.ids();
  std::sort(config.begin(), config.end());
  EXPECT_EQ(config, own.config);
  EXPECT_EQ(rec.objective, own.objective);  // exact bits
}

TEST(SessionTest, ShardInvariance30Statements) {
  const Workload w = MakeWorkload(30, 42, /*update_fraction=*/0.2);
  const TuneResult unsharded = RunCoPhy(w, 0.5);
  for (int shards : {1, 2, 8}) {
    const TuneResult got = RunSession(w, 0.5, shards);
    EXPECT_EQ(got.config, unsharded.config) << "shards=" << shards;
    EXPECT_EQ(got.objective, unsharded.objective)  // exact bits
        << "shards=" << shards;
    EXPECT_EQ(got.num_candidates, unsharded.num_candidates);
    EXPECT_EQ(got.bip.y_variables, unsharded.bip.y_variables);
    EXPECT_EQ(got.bip.x_variables, unsharded.bip.x_variables);
    EXPECT_EQ(got.bip.z_variables, unsharded.bip.z_variables);
    EXPECT_EQ(got.bip.linking_rows, unsharded.bip.linking_rows);
    EXPECT_EQ(got.bip.assignment_rows, unsharded.bip.assignment_rows);
  }
}

TEST(SessionTest, ShardInvariance300Statements) {
  const Workload w =
      MakeWorkload(300, 7, /*update_fraction=*/0.25, /*randomize_weights=*/true);
  const TuneResult unsharded = RunCoPhy(w, 0.5);
  for (int shards : {1, 2, 8}) {
    const TuneResult got = RunSession(w, 0.5, shards);
    EXPECT_EQ(got.config, unsharded.config) << "shards=" << shards;
    EXPECT_EQ(got.objective, unsharded.objective) << "shards=" << shards;
  }
}

TEST(SessionTest, MergedStatsReportShardsAndSkew) {
  const Workload w = MakeWorkload(40);
  Env e;
  SessionOptions so;
  so.tuning = TestOptions();
  so.num_shards = 4;
  AdvisorSession session(e.sim.get(), &e.pool, so);
  session.AddWorkload(w);
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  const Recommendation rec = session.Tune(cs);
  ASSERT_TRUE(rec.status.ok());
  EXPECT_EQ(rec.prepare.shards, 4);
  EXPECT_EQ(rec.prepare.compression.input_statements, 40);
  EXPECT_GT(rec.prepare.max_shard_statements, 0);
  EXPECT_GE(rec.prepare.ShardSkew(), 1.0);
  const std::string rendered = RenderPrepareStats(rec.prepare);
  EXPECT_NE(rendered.find("Shards: 4"), std::string::npos);
}

// --- Constraint translation across shards --------------------------------

TEST(SessionTest, QueryConstraintsTranslateAcrossShards) {
  // Session ids equal workload positions (statements added in order),
  // so the same constraint set drives both pipelines; with 8 shards the
  // constrained statements' classes land on different shards.
  const Workload w = MakeWorkload(30);
  ConstraintSet extra;
  extra.AddQueryCostConstraint({0, 0.9, 0.0});
  extra.AddQueryCostConstraint({7, 0.9, 0.0});
  extra.AddQueryCostConstraint({13, 0.95, 0.0});
  const TuneResult unsharded = RunCoPhy(w, 1.0, &extra);
  for (int shards : {2, 8}) {
    const TuneResult got = RunSession(w, 1.0, shards, &extra);
    EXPECT_EQ(got.config, unsharded.config) << "shards=" << shards;
    EXPECT_EQ(got.objective, unsharded.objective) << "shards=" << shards;
  }
}

TEST(SessionTest, ConstraintOnRemovedStatementIsDropped) {
  const Workload w = MakeWorkload(20);
  Env e;
  SessionOptions so;
  so.tuning = TestOptions();
  so.num_shards = 4;
  AdvisorSession session(e.sim.get(), &e.pool, so);
  const std::vector<QueryId> ids = session.AddWorkload(w);
  ASSERT_TRUE(session.RemoveStatements({ids[3]}).ok());

  ConstraintSet cs;
  cs.SetStorageBudget(e.cat.TotalDataBytes());
  // An impossible constraint on the *removed* statement must not make
  // the problem infeasible — it is dropped with the statement.
  cs.AddQueryCostConstraint({ids[3], 0.0001, 0.0});
  const Recommendation rec = session.Tune(cs);
  EXPECT_TRUE(rec.status.ok()) << rec.status.ToString();
}

TEST(SessionTest, RemovalThatEmptiesShardStillTunes) {
  // A workload small enough that one shard owns exactly one class;
  // removing that class's statements empties the shard.
  Catalog cat = MakeTpchCatalog(0.1, 0.0);
  std::vector<Query> stmts;
  for (int t = 0; t < 3; ++t) {
    stmts.push_back(MakeHomogeneousStatement(cat, t, /*seed=*/5));
  }
  Env e;
  SessionOptions so;
  so.tuning = TestOptions();
  so.num_shards = 3;  // one class per shard (round-robin)
  AdvisorSession session(e.sim.get(), &e.pool, so);
  const std::vector<QueryId> ids = session.AddStatements(stmts);
  ASSERT_EQ(session.num_classes(), 3);

  ConstraintSet cs;
  cs.SetStorageBudget(e.cat.TotalDataBytes());
  ASSERT_TRUE(session.Tune(cs).status.ok());

  // Constraint on a statement whose class (and shard) is being emptied.
  ASSERT_TRUE(session.RemoveStatements({ids[1]}).ok());
  EXPECT_EQ(session.num_classes(), 2);
  ConstraintSet cs2 = cs;
  cs2.AddQueryCostConstraint({ids[1], 0.0001, 0.0});  // dropped, not applied
  const Recommendation rec = session.Retune(cs2);
  EXPECT_TRUE(rec.status.ok()) << rec.status.ToString();
  EXPECT_EQ(session.num_statements(), 2);

  // The emptied shard's class set can grow again.
  session.AddStatements({MakeHomogeneousStatement(cat, 1, /*seed=*/5)});
  EXPECT_EQ(session.num_classes(), 3);
  EXPECT_TRUE(session.Retune(cs).status.ok());
}

// --- Verbatim reuse of prepared state ------------------------------------

TEST(SessionTest, ConstraintOnlyRetuneDoesNoPrepareWork) {
  const Workload w = MakeWorkload(40);
  Env e;
  SessionOptions so;
  so.tuning = TestOptions();
  so.num_shards = 4;
  AdvisorSession session(e.sim.get(), &e.pool, so);
  session.AddWorkload(w);
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  ASSERT_TRUE(session.Tune(cs).status.ok());

  // Constraint-only change: the PreparedWorkloads are reused verbatim —
  // zero what-if optimizer calls, zero preparation wall time.
  const int64_t calls_before = e.sim->num_whatif_calls();
  ConstraintSet cs2;
  cs2.SetStorageBudget(0.25 * e.cat.TotalDataBytes());
  const Recommendation rec = session.Retune(cs2);
  ASSERT_TRUE(rec.status.ok());
  EXPECT_EQ(e.sim->num_whatif_calls(), calls_before);
  EXPECT_EQ(rec.timings.inum_seconds, 0.0);
}

TEST(SessionTest, CoPhyAdvisorReRecommendReusesPreparedState) {
  const Workload w = MakeWorkload(30);
  Env e;
  CoPhyAdvisor advisor(e.sim.get(), &e.pool, w, TestOptions());
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  const AdvisorResult first = advisor.Recommend(cs);
  ASSERT_TRUE(first.status.ok());
  EXPECT_GT(first.whatif_calls, 0);

  ConstraintSet cs2;
  cs2.SetStorageBudget(0.25 * e.cat.TotalDataBytes());
  const AdvisorResult second = advisor.Recommend(cs2);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.whatif_calls, 0);  // prepared state reused verbatim
}

TEST(SessionTest, CoPhyRetuneAfterConstraintChangeDoesNoWhatIfCalls) {
  // Same guarantee on the one-shot CoPhy front end: Retune with an
  // unchanged workload never re-enters the preparation stage.
  const Workload w = MakeWorkload(20);
  Env e;
  CoPhy advisor(e.sim.get(), &e.pool, w, TestOptions());
  ASSERT_TRUE(advisor.Prepare().ok());
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  ASSERT_TRUE(advisor.Tune(cs).status.ok());
  const int64_t calls_before = e.sim->num_whatif_calls();
  ConstraintSet cs2;
  cs2.SetStorageBudget(0.25 * e.cat.TotalDataBytes());
  ASSERT_TRUE(advisor.Retune(cs2).status.ok());
  EXPECT_EQ(e.sim->num_whatif_calls(), calls_before);
}

// --- Incremental deltas ---------------------------------------------------

TEST(SessionTest, WeightOnlyDeltaRetunesWarm) {
  const Workload w = MakeWorkload(60, 42);
  Env e;
  SessionOptions so;
  so.tuning = TestOptions();
  so.num_shards = 4;
  AdvisorSession session(e.sim.get(), &e.pool, so);
  session.AddWorkload(w);
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  ASSERT_TRUE(session.Tune(cs).status.ok());

  // Duplicates of existing statements: every class already exists, so
  // the delta is pure re-weighting — no shard re-prepares, and the
  // solve goes through the warm resolve path (same structure digest).
  std::vector<Query> dup(w.statements().begin(), w.statements().begin() + 6);
  const int64_t calls_before = e.sim->num_whatif_calls();
  session.AddStatements(dup);
  const Recommendation rec = session.Retune(cs);
  ASSERT_TRUE(rec.status.ok());
  EXPECT_EQ(e.sim->num_whatif_calls(), calls_before);  // no INUM work
  EXPECT_GE(session.resolve_state().warm_reuses, 1);
  EXPECT_EQ(session.num_statements(), 66);
}

TEST(SessionTest, ConstraintChangeRetuneKeepsRootLpBound) {
  // With the root LP always on, a session retune never skips it: the
  // weight-only delta re-solves it from the retained basis, and a
  // budget change (structure digest unchanged) computes a fresh bound.
  const Workload w = MakeWorkload(40);
  Env e;
  SessionOptions so;
  so.tuning = TestOptions();
  so.tuning.root_lp = lp::RootLpMode::kAlways;
  so.num_shards = 4;
  AdvisorSession session(e.sim.get(), &e.pool, so);
  session.AddWorkload(w);
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  ASSERT_TRUE(session.Tune(cs).status.ok());

  // Weight-only delta, same constraints: the LP runs warm.
  session.AddStatements({w.statements()[0]});
  const Recommendation warm = session.Retune(cs);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(std::isfinite(warm.root_lp_bound));
  EXPECT_TRUE(warm.root_lp_stats.warm_started);

  // Budget change: the root LP runs again.
  ConstraintSet cs2;
  cs2.SetStorageBudget(0.25 * e.cat.TotalDataBytes());
  const Recommendation rebudget = session.Retune(cs2);
  ASSERT_TRUE(rebudget.status.ok());
  EXPECT_TRUE(std::isfinite(rebudget.root_lp_bound));
}

TEST(SessionTest, ReweightingRetuneProvesTheGapWithoutTheRootLp) {
  // Under the default gate a pure re-weighting retune starts the volume
  // dual from the previous multipliers, proves the gap with it, and
  // skips the root LP; the answer stays within the gap target.
  const Workload w = MakeWorkload(40);
  Env e;
  SessionOptions so;
  so.tuning = TestOptions();
  so.num_shards = 4;
  AdvisorSession session(e.sim.get(), &e.pool, so);
  session.AddWorkload(w);
  ConstraintSet cs;
  cs.SetStorageBudget(0.25 * e.cat.TotalDataBytes());
  ASSERT_TRUE(session.Tune(cs).status.ok());

  session.AddStatements({w.statements()[0], w.statements()[1]});
  const Recommendation warm = session.Retune(cs);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(std::isinf(warm.root_lp_bound));
  EXPECT_TRUE(warm.root_bound.dual_proven);
  EXPECT_FALSE(warm.root_bound.lp_escalated);
  EXPECT_LE(warm.root_bound.dual_gap, so.tuning.gap_target);
  EXPECT_LE(warm.gap, so.tuning.gap_target);
  EXPECT_GE(session.resolve_state().warm_reuses, 1);
}

TEST(SessionTest, CoPhyAdvisorLossyCompressionFallsBack) {
  // Lossy compression is a batch-mode feature sessions reject; the
  // advisor adapter must still serve it (classic one-shot path), not
  // abort.
  const Workload w = MakeWorkload(40);
  Env e;
  CoPhyOptions opts = TestOptions();
  opts.prepare.compression.mode = CompressionMode::kLossy;
  opts.prepare.compression.max_statements = 10;
  CoPhyAdvisor advisor(e.sim.get(), &e.pool, w, opts);
  ConstraintSet cs;
  cs.SetStorageBudget(e.cat.TotalDataBytes());
  const AdvisorResult result = advisor.Recommend(cs);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_FALSE(result.configuration.empty());
  EXPECT_FALSE(result.prepare.compression.lossless);
}

TEST(SessionTest, AddRemoveDeltaStaysConsistent) {
  const Workload w = MakeWorkload(200, 42);
  Env e;
  SessionOptions so;
  so.tuning = TestOptions();
  so.num_shards = 4;
  AdvisorSession session(e.sim.get(), &e.pool, so);
  const std::vector<QueryId> ids = session.AddWorkload(w);
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  const Recommendation first = session.Tune(cs);
  ASSERT_TRUE(first.status.ok());

  // Delta: drop 2 statements, add 4 new ones (a fresh seed can open new
  // classes → structural refresh of the affected shards only).
  ASSERT_TRUE(session.RemoveStatements({ids[0], ids[10]}).ok());
  const Workload extra = MakeWorkload(4, 777);
  session.AddWorkload(extra);
  const Recommendation rec = session.Retune(cs);
  ASSERT_TRUE(rec.status.ok());
  EXPECT_EQ(session.num_statements(), 202);
  EXPECT_TRUE(rec.configuration.SizeBytes(e.pool, e.cat) <=
              0.5 * e.cat.TotalDataBytes());

  // The warm result matches a cold session built over the equivalent
  // modified workload (same budget, full cold budget) within the
  // combined optimality gaps.
  Workload modified;
  for (const Query& q : w.statements()) {
    if (q.id == ids[0] || q.id == ids[10]) continue;
    modified.Add(q);
  }
  for (const Query& q : extra.statements()) modified.Add(q);
  const TuneResult cold = RunSession(modified, 0.5, 4);
  EXPECT_LE(rec.objective, cold.objective * 1.12);
  EXPECT_GE(rec.objective, cold.objective * 0.88);
}

TEST(SessionTest, RemoveEverythingThenTuneFails) {
  const Workload w = MakeWorkload(5);
  Env e;
  SessionOptions so;
  so.tuning = TestOptions();
  AdvisorSession session(e.sim.get(), &e.pool, so);
  const std::vector<QueryId> ids = session.AddWorkload(w);
  ASSERT_TRUE(session.RemoveStatements(ids).ok());
  ConstraintSet cs;
  cs.SetStorageBudget(e.cat.TotalDataBytes());
  EXPECT_FALSE(session.Tune(cs).status.ok());
  // Removed ids never come back.
  EXPECT_FALSE(session.RemoveStatements({ids[0]}).ok());
}

TEST(SessionTest, IlpAdvisorHandlesEmptyWorkload) {
  // The session-backed preparation must keep the old PreparedWorkload
  // semantics: an empty workload yields an empty (but valid) prepared
  // view, not an abort.
  Env e;
  IlpAdvisor advisor(e.sim.get(), &e.pool, Workload());
  ConstraintSet cs;
  cs.SetStorageBudget(e.cat.TotalDataBytes());
  const AdvisorResult result = advisor.Recommend(cs);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.configuration.empty());
}

TEST(SessionTest, EmptySessionTuneFails) {
  Env e;
  AdvisorSession session(e.sim.get(), &e.pool, SessionOptions{});
  ConstraintSet cs;
  cs.SetStorageBudget(e.cat.TotalDataBytes());
  EXPECT_FALSE(session.Tune(cs).status.ok());
}

// --- Stats merge helpers --------------------------------------------------

TEST(SessionTest, StatsMergeOperators) {
  TuningTimings a;
  a.inum_seconds = 1;
  a.build_seconds = 2;
  a.solve_seconds = 3;
  TuningTimings b = a;
  b += a;
  EXPECT_DOUBLE_EQ(b.Total(), 12.0);

  PrepareStats s1;
  s1.compression.input_statements = 30;
  s1.compression.output_statements = 3;
  s1.max_shard_statements = 30;
  s1.num_threads = 2;
  s1.inum_seconds = 0.5;
  PrepareStats s2;
  s2.compression.input_statements = 10;
  s2.compression.output_statements = 2;
  s2.max_shard_statements = 10;
  s2.num_threads = 4;
  s2.inum_seconds = 0.25;
  s1 += s2;
  EXPECT_EQ(s1.shards, 2);
  EXPECT_EQ(s1.compression.input_statements, 40);
  EXPECT_EQ(s1.compression.output_statements, 5);
  EXPECT_EQ(s1.max_shard_statements, 30);
  EXPECT_EQ(s1.num_threads, 4);
  EXPECT_DOUBLE_EQ(s1.inum_seconds, 0.75);
  EXPECT_DOUBLE_EQ(s1.ShardSkew(), 30.0 / 20.0);
}

// --- lp::ChoiceResolveState ----------------------------------------------

TEST(ResolveStateTest, WeightPerturbedResolveMatchesColdOptimum) {
  // Build a real BIP, solve to proven optimality, perturb the weights
  // (the structure digest is weight-blind), and re-solve through the
  // resolve state: the warm solve must accept the seeds and land on the
  // same optimum a cold solve finds.
  const Workload w = MakeWorkload(15);
  Env e;
  CoPhy advisor(e.sim.get(), &e.pool, w, TestOptions());
  ASSERT_TRUE(advisor.Prepare().ok());
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  const ConstraintSet local = advisor.prepared().TranslateConstraints(cs);
  lp::ChoiceProblem p =
      BuildChoiceProblem(advisor.prepared().inum(), advisor.candidates(), local);

  lp::ChoiceSolveOptions so;
  so.gap_target = 0.0;
  so.node_limit = 200000;
  lp::ChoiceResolveState state;
  so.resolve = &state;
  const lp::ChoiceSolution first = lp::SolveChoiceProblem(p, so);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.reused_state);
  EXPECT_TRUE(state.valid);
  EXPECT_EQ(state.solves, 1);

  lp::ChoiceProblem perturbed = p;
  for (auto& q : perturbed.queries) q.weight *= 1.25;
  EXPECT_EQ(lp::ChoiceStructureDigest(p),
            lp::ChoiceStructureDigest(perturbed));

  const lp::ChoiceSolution warm = lp::SolveChoiceProblem(perturbed, so);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.reused_state);
  EXPECT_EQ(state.warm_reuses, 1);

  lp::ChoiceSolveOptions cold_opts;
  cold_opts.gap_target = 0.0;
  cold_opts.node_limit = 200000;
  const lp::ChoiceSolution cold = lp::SolveChoiceProblem(perturbed, cold_opts);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-9 * std::abs(cold.objective));

  // A structural change (an option removed) invalidates the digest and
  // falls back to a cold solve.
  lp::ChoiceProblem changed = perturbed;
  ASSERT_GT(changed.queries.size(), 0u);
  bool dropped = false;
  for (auto& q : changed.queries) {
    for (auto& plan : q.plans) {
      for (auto& slot : plan.slots) {
        if (slot.options.size() > 1) {
          slot.options.pop_back();
          dropped = true;
          break;
        }
      }
      if (dropped) break;
    }
    if (dropped) break;
  }
  ASSERT_TRUE(dropped);
  EXPECT_NE(lp::ChoiceStructureDigest(perturbed),
            lp::ChoiceStructureDigest(changed));
  const lp::ChoiceSolution after = lp::SolveChoiceProblem(changed, so);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.reused_state);
}

TEST(ResolveStateTest, RootLpBasisWarmStartsAcrossBudgetRetune) {
  // Regression pin for the sparse-LU rewrite of the simplex: the
  // LpBasis shape exported by earlier solves (one VarStatus per
  // variable and per row slack) must keep warm-starting the root LP
  // through ChoiceResolveState. A budget-only retune keeps the
  // structure digest (state reused) but re-runs the root LP, so the
  // solver must accept the previous solve's basis — warm_started true
  // — and land on the same optimum a cold solve finds.
  const Workload w = MakeWorkload(15);
  Env e;
  CoPhy advisor(e.sim.get(), &e.pool, w, TestOptions());
  ASSERT_TRUE(advisor.Prepare().ok());
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  const ConstraintSet local = advisor.prepared().TranslateConstraints(cs);
  lp::ChoiceProblem p =
      BuildChoiceProblem(advisor.prepared().inum(), advisor.candidates(), local);

  lp::ChoiceSolveOptions so;
  so.gap_target = 0.0;
  so.node_limit = 200000;
  so.root_lp = lp::RootLpMode::kAlways;
  lp::ChoiceResolveState state;
  so.resolve = &state;
  const lp::ChoiceSolution first = lp::SolveChoiceProblem(p, so);
  ASSERT_TRUE(first.status.ok());
  ASSERT_GT(first.root_lp_rows, 0);
  EXPECT_FALSE(first.root_lp_stats.warm_started);  // nothing to import yet
  ASSERT_FALSE(state.root_basis.empty());

  lp::ChoiceProblem tightened = p;
  tightened.storage_budget *= 0.6;
  const lp::ChoiceSolution warm = lp::SolveChoiceProblem(tightened, so);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.reused_state);
  ASSERT_GT(warm.root_lp_rows, 0);  // budget change re-runs the root LP
  EXPECT_TRUE(warm.root_lp_stats.warm_started);

  lp::ChoiceSolveOptions cold_opts;
  cold_opts.gap_target = 0.0;
  cold_opts.node_limit = 200000;
  cold_opts.root_lp = lp::RootLpMode::kAlways;
  const lp::ChoiceSolution cold = lp::SolveChoiceProblem(tightened, cold_opts);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.root_lp_stats.warm_started);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-9 * std::max(1.0, std::abs(cold.objective)));
  EXPECT_EQ(warm.selected, cold.selected);  // identical incumbent
}

TEST(ResolveStateTest, RootBasisSurvivesSolvesThatSkipTheLp) {
  // A solve that skips the root LP must not wipe the retained basis:
  // after an LP solve and a re-weighting solve without it, a budget
  // retune still warm-starts the LP from the first solve's basis and
  // reaches the cold solve's optimum. A structural change clears it.
  const Workload w = MakeWorkload(15);
  Env e;
  CoPhy advisor(e.sim.get(), &e.pool, w, TestOptions());
  ASSERT_TRUE(advisor.Prepare().ok());
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  const ConstraintSet local = advisor.prepared().TranslateConstraints(cs);
  const lp::ChoiceProblem p =
      BuildChoiceProblem(advisor.prepared().inum(), advisor.candidates(), local);

  lp::ChoiceResolveState state;
  lp::ChoiceSolveOptions so;
  so.gap_target = 0.0;
  so.node_limit = 200000;
  so.resolve = &state;
  so.root_lp = lp::RootLpMode::kAlways;
  ASSERT_TRUE(lp::SolveChoiceProblem(p, so).status.ok());
  ASSERT_FALSE(state.root_basis.empty());
  const lp::LpBasis basis = state.root_basis;

  lp::ChoiceProblem reweighted = p;
  for (lp::ChoiceQuery& q : reweighted.queries) q.weight *= 1.5;
  so.root_lp = lp::RootLpMode::kOff;
  const lp::ChoiceSolution skipped = lp::SolveChoiceProblem(reweighted, so);
  ASSERT_TRUE(skipped.status.ok());
  EXPECT_TRUE(skipped.reused_state);
  EXPECT_EQ(skipped.root_lp_rows, 0);
  EXPECT_EQ(state.root_basis.variables, basis.variables);

  lp::ChoiceProblem tightened = reweighted;
  tightened.storage_budget *= 0.6;
  so.root_lp = lp::RootLpMode::kAlways;
  const lp::ChoiceSolution warm = lp::SolveChoiceProblem(tightened, so);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_GT(warm.root_lp_rows, 0);
  EXPECT_TRUE(warm.root_lp_stats.warm_started);

  lp::ChoiceSolveOptions cold_opts;
  cold_opts.gap_target = 0.0;
  cold_opts.node_limit = 200000;
  cold_opts.root_lp = lp::RootLpMode::kAlways;
  const lp::ChoiceSolution cold = lp::SolveChoiceProblem(tightened, cold_opts);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.root_lp_stats.warm_started);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-9 * std::max(1.0, std::abs(cold.objective)));

  // A different structure: a skipped LP leaves no stale basis behind.
  lp::ChoiceProblem changed = tightened;
  changed.queries.pop_back();
  so.root_lp = lp::RootLpMode::kOff;
  ASSERT_TRUE(lp::SolveChoiceProblem(changed, so).status.ok());
  EXPECT_TRUE(state.root_basis.empty());
}

// --- Shard quarantine & degraded recommendations -------------------------

/// The table referenced by the fewest statements (ties: lowest id) — a
/// permanent-fault predicate on it quarantines a strict minority of the
/// session's cost-equivalence classes.
TableId LeastReferencedTable(const Workload& w) {
  std::map<TableId, int> counts;
  for (const Query& q : w.statements()) {
    std::map<TableId, int> seen;
    for (TableId t : q.tables) {
      if (seen[t]++ == 0) ++counts[t];
    }
  }
  TableId best = kInvalidTable;
  int fewest = std::numeric_limits<int>::max();
  for (const auto& [t, c] : counts) {
    if (c < fewest) {
      best = t;
      fewest = c;
    }
  }
  return best;
}

std::function<bool(const Query&)> FailsTable(TableId target) {
  return [target](const Query& q) {
    return std::find(q.tables.begin(), q.tables.end(), target) !=
           q.tables.end();
  };
}

Workload MakeMixedWorkload(int n, uint64_t seed = 42) {
  Catalog cat = MakeTpchCatalog(0.1, 0.0);
  WorkloadOptions o;
  o.num_statements = n;
  o.seed = seed;
  o.update_fraction = 0.2;
  return MakeHeterogeneousWorkload(cat, o);
}

TEST(SessionFaultTest, QuarantinedShardDegradesThenHealsBitIdentically) {
  const Workload w = MakeMixedWorkload(24);
  const TableId target = LeastReferencedTable(w);
  ASSERT_NE(target, kInvalidTable);

  // Fault-free baseline: the output the healed session must return to.
  Env base;
  SessionOptions so;
  so.tuning = TestOptions();
  so.num_shards = 4;
  AdvisorSession healthy(base.sim.get(), &base.pool, so);
  healthy.AddWorkload(w);
  ConstraintSet cs;
  const double budget = 0.5 * base.cat.TotalDataBytes();
  cs.SetStorageBudget(budget);
  const Recommendation want = healthy.Tune(cs);
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  EXPECT_EQ(want.coverage, 1.0);
  EXPECT_FALSE(want.degraded);

  // Same session against a backend that permanently fails every
  // statement touching `target`.
  Env e;
  FaultInjectionOptions fo;
  fo.permanent_failure_predicate = FailsTable(target);
  FaultInjectingWhatIf faulty(e.sim.get(), fo);
  AdvisorSession session(&faulty, &e.pool, so);
  session.AddWorkload(w);
  const Recommendation degraded = session.Tune(cs);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_TRUE(degraded.degraded);
  EXPECT_LT(degraded.coverage, 1.0);
  EXPECT_GT(degraded.coverage, 0.0);
  // Still a feasible recommendation for the healthy fraction.
  EXPECT_LE(degraded.configuration.SizeBytes(e.pool, e.cat),
            budget * (1 + 1e-9));
  ASSERT_EQ(static_cast<int>(degraded.shard_health.size()), 4);
  int quarantined = 0;
  for (const ShardHealth& sh : degraded.shard_health) {
    if (!sh.healthy) {
      ++quarantined;
      EXPECT_EQ(sh.status.code(), StatusCode::kInternal);
      EXPECT_GE(sh.consecutive_failures, 1);
      EXPECT_GT(sh.classes, 0);
    }
  }
  EXPECT_GE(quarantined, 1);
  EXPECT_LT(quarantined, 4);

  // Backend heals; Retune retries the quarantined shards and the
  // output returns to the fault-free recommendation bit for bit.
  faulty.Heal();
  const Recommendation healed = session.Retune(cs);
  ASSERT_TRUE(healed.status.ok()) << healed.status.ToString();
  EXPECT_EQ(healed.coverage, 1.0);
  EXPECT_FALSE(healed.degraded);
  for (const ShardHealth& sh : healed.shard_health) {
    EXPECT_TRUE(sh.healthy);
    EXPECT_EQ(sh.consecutive_failures, 0);
  }
  std::vector<IndexId> got_ids = healed.configuration.ids();
  std::vector<IndexId> want_ids = want.configuration.ids();
  std::sort(got_ids.begin(), got_ids.end());
  std::sort(want_ids.begin(), want_ids.end());
  EXPECT_EQ(got_ids, want_ids);
  EXPECT_EQ(healed.objective, want.objective);  // exact bits
}

TEST(SessionFaultTest, TuneBeforeAnySuccessfulPrepareFailsCleanly) {
  const Workload w = MakeMixedWorkload(12);
  Env e;
  FaultInjectionOptions fo;
  fo.permanent_failure_predicate = [](const Query&) { return true; };
  FaultInjectingWhatIf faulty(e.sim.get(), fo);
  SessionOptions so;
  so.tuning = TestOptions();
  so.num_shards = 3;
  AdvisorSession session(&faulty, &e.pool, so);
  session.AddWorkload(w);
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  const Recommendation rec = session.Tune(cs);
  ASSERT_FALSE(rec.status.ok());
  EXPECT_EQ(rec.coverage, 0.0);
  EXPECT_TRUE(rec.configuration.empty());
  EXPECT_EQ(static_cast<int>(rec.shard_health.size()), 3);
  for (const ShardHealth& sh : rec.shard_health) {
    if (sh.classes > 0) {
      EXPECT_FALSE(sh.healthy);
    }
  }
  // The session is not wedged: a healed backend recovers it in place.
  faulty.Heal();
  const Recommendation recovered = session.Tune(cs);
  ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  EXPECT_EQ(recovered.coverage, 1.0);
  EXPECT_FALSE(recovered.degraded);
}

TEST(SessionFaultTest, RemovingQuarantinedStatementsRestoresFullCoverage) {
  const Workload w = MakeMixedWorkload(24);
  const TableId target = LeastReferencedTable(w);
  ASSERT_NE(target, kInvalidTable);
  Env e;
  FaultInjectionOptions fo;
  fo.permanent_failure_predicate = FailsTable(target);
  FaultInjectingWhatIf faulty(e.sim.get(), fo);
  SessionOptions so;
  so.tuning = TestOptions();
  so.num_shards = 4;
  AdvisorSession session(&faulty, &e.pool, so);
  const std::vector<QueryId> ids = session.AddWorkload(w);
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  const Recommendation degraded = session.Tune(cs);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_LT(degraded.coverage, 1.0);

  // Removing every statement the backend refuses to cost (including a
  // removal that may empty a quarantined shard entirely) lets the next
  // Refresh rebuild the remaining shards successfully.
  std::vector<QueryId> doomed;
  for (int i = 0; i < w.size(); ++i) {
    if (FailsTable(target)(w[i])) doomed.push_back(ids[i]);
  }
  ASSERT_FALSE(doomed.empty());
  ASSERT_TRUE(session.RemoveStatements(doomed).ok());
  const Recommendation clean = session.Tune(cs);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  EXPECT_EQ(clean.coverage, 1.0);
  EXPECT_FALSE(clean.degraded);
  for (const ShardHealth& sh : clean.shard_health) {
    EXPECT_TRUE(sh.healthy);
  }
  EXPECT_EQ(session.num_statements(), w.size() - static_cast<int>(doomed.size()));
}

}  // namespace
}  // namespace cophy
