// Cross-module integration tests: miniature versions of the paper's
// experiments wiring every subsystem together (catalog → workload →
// CGen → INUM → BIPGen → solver → ground-truth evaluation), across
// systems, skews, and workload families.
#include <gtest/gtest.h>

#include <cmath>

#include "optimizer/simulator.h"
#include "baselines/advisor.h"
#include "baselines/cophy_advisor.h"
#include "baselines/greedy_advisor.h"
#include "baselines/ilp_advisor.h"
#include "baselines/relaxation_advisor.h"
#include "catalog/catalog.h"
#include "core/cophy.h"
#include "workload/generator.h"

namespace cophy {
namespace {

/// Miniature Table-1 cell: run CoPhy and a tool on one environment and
/// return the perf pair.
struct CellResult {
  double perf_cophy = 0;
  double perf_tool = 0;
};

CellResult RunCell(double z, bool het, bool system_b, int n) {
  Catalog cat = MakeTpchCatalog(0.1, z);
  IndexPool pool;
  SystemSimulator sim(&cat, &pool,
                      system_b ? CostModel::SystemB() : CostModel::SystemA());
  WorkloadOptions o;
  o.num_statements = n;
  o.seed = 5;
  Workload w = het ? MakeHeterogeneousWorkload(cat, o)
                   : MakeHomogeneousWorkload(cat, o);
  ConstraintSet cs;
  cs.SetStorageBudget(cat.TotalDataBytes());

  CoPhyOptions copts;
  copts.node_limit = 2000;
  CoPhyAdvisor cophy(&sim, &pool, w, copts);
  CellResult r;
  const AdvisorResult rc = cophy.Recommend(cs);
  EXPECT_TRUE(rc.status.ok());
  r.perf_cophy = Perf(sim, w, rc.configuration);

  if (system_b) {
    GreedyAdvisor tool(&sim, &pool, w, GreedyOptions{});
    r.perf_tool = Perf(sim, w, tool.Recommend(cs).configuration);
  } else {
    RelaxationOptions ropts;
    ropts.time_limit_seconds = 30;
    RelaxationAdvisor tool(&sim, &pool, w, ropts);
    r.perf_tool = Perf(sim, w, tool.Recommend(cs).configuration);
  }
  return r;
}

/// Table-1 shape at miniature scale: CoPhy ≥ tool − ε on every cell.
class Table1CellTest
    : public ::testing::TestWithParam<std::tuple<double, bool, bool>> {};

TEST_P(Table1CellTest, CoPhyCompetitiveEverywhere) {
  const auto [z, het, system_b] = GetParam();
  const CellResult r = RunCell(z, het, system_b, 25);
  EXPECT_GT(r.perf_cophy, 0.05);
  EXPECT_GE(r.perf_cophy, r.perf_tool - 0.06)
      << "z=" << z << " het=" << het << " systemB=" << system_b;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, Table1CellTest,
    ::testing::Combine(::testing::Values(0.0, 2.0), ::testing::Bool(),
                       ::testing::Bool()));

TEST(IntegrationTest, CoPhyAndIlpAgreeOnQuality) {
  // §5.3: the two BIP formulations land within a few percent of each
  // other in solution quality (CoPhy slightly ahead).
  Catalog cat = MakeTpchCatalog(0.1, 0.0);
  IndexPool pool;
  SystemSimulator sim(&cat, &pool, CostModel::SystemA());
  WorkloadOptions o;
  o.num_statements = 20;
  o.seed = 9;
  Workload w = MakeHomogeneousWorkload(cat, o);
  ConstraintSet cs;
  cs.SetStorageBudget(cat.TotalDataBytes());

  CoPhyOptions copts;
  copts.node_limit = 3000;
  CoPhyAdvisor cophy(&sim, &pool, w, copts);
  IlpAdvisor ilp(&sim, &pool, w, IlpOptions{});
  const double perf_cophy = Perf(sim, w, cophy.Recommend(cs).configuration);
  const double perf_ilp = Perf(sim, w, ilp.Recommend(cs).configuration);
  EXPECT_GT(perf_ilp, 0.1);
  EXPECT_GE(perf_cophy, perf_ilp - 0.05);
}

TEST(IntegrationTest, WhatIfCallAccountingMatchesTheStory) {
  // CoPhy pays what-if calls only during INUM preprocessing (a few per
  // statement); Tool-A pays them throughout. This asymmetry is the
  // foundation of the execution-time results.
  Catalog cat = MakeTpchCatalog(0.1, 0.0);
  IndexPool pool;
  SystemSimulator sim(&cat, &pool, CostModel::SystemA());
  WorkloadOptions o;
  o.num_statements = 15;
  o.seed = 13;
  Workload w = MakeHomogeneousWorkload(cat, o);
  ConstraintSet cs;
  cs.SetStorageBudget(cat.TotalDataBytes());

  CoPhyOptions copts;
  copts.node_limit = 1500;
  CoPhyAdvisor cophy(&sim, &pool, w, copts);
  const AdvisorResult rc = cophy.Recommend(cs);
  // Tool-A runs to completion: a wall-clock limit would cut its call
  // count short on slow (e.g. sanitizer) builds and make the comparison
  // measure the build instead of the two algorithms.
  RelaxationAdvisor tool_a(&sim, &pool, w, RelaxationOptions{});
  const AdvisorResult ra = tool_a.Recommend(cs);
  ASSERT_TRUE(rc.status.ok());
  ASSERT_TRUE(ra.status.ok());
  ASSERT_FALSE(ra.timed_out);
  // CoPhy's what-if calls ≈ ΣK_q (bounded per statement); Tool-A's grow
  // with candidates × queries.
  EXPECT_LT(rc.whatif_calls, ra.whatif_calls);
}

TEST(IntegrationTest, UpdateWorkloadChangesTheRecommendation) {
  // With heavy updates, maintenance costs must steer the selection: the
  // read-only recommendation is costlier than the update-aware one when
  // both are priced on the mixed workload.
  Catalog cat = MakeTpchCatalog(0.1, 0.0);
  IndexPool pool;
  SystemSimulator sim(&cat, &pool, CostModel::SystemA());
  WorkloadOptions ro;
  ro.num_statements = 30;
  ro.seed = 17;
  Workload read_only = MakeHomogeneousWorkload(cat, ro);
  WorkloadOptions mo = ro;
  mo.update_fraction = 0.6;
  mo.seed = 17;
  Workload mixed = MakeHomogeneousWorkload(cat, mo);

  ConstraintSet cs;
  cs.SetStorageBudget(cat.TotalDataBytes());
  CoPhyOptions copts;
  copts.node_limit = 2000;

  CoPhy read_advisor(&sim, &pool, read_only, copts);
  ASSERT_TRUE(read_advisor.Prepare().ok());
  const Recommendation rec_read = read_advisor.Tune(cs);
  ASSERT_TRUE(rec_read.status.ok());

  CoPhy mixed_advisor(&sim, &pool, mixed, copts);
  ASSERT_TRUE(mixed_advisor.Prepare().ok());
  const Recommendation rec_mixed = mixed_advisor.Tune(cs);
  ASSERT_TRUE(rec_mixed.status.ok());

  const double mixed_cost_with_read_config =
      WorkloadCost(sim, mixed, rec_read.configuration);
  const double mixed_cost_with_mixed_config =
      WorkloadCost(sim, mixed, rec_mixed.configuration);
  EXPECT_LE(mixed_cost_with_mixed_config,
            mixed_cost_with_read_config * 1.02);
}

TEST(IntegrationTest, SkewShiftsTheChosenIndexes) {
  // z = 2 makes some predicates far more selective; the chosen
  // configurations should differ from the uniform case.
  CoPhyOptions copts;
  copts.node_limit = 1500;
  std::vector<std::string> flat_names, skew_names;
  for (double z : {0.0, 2.0}) {
    Catalog cat = MakeTpchCatalog(0.1, z);
    IndexPool pool;
    SystemSimulator sim(&cat, &pool, CostModel::SystemA());
    WorkloadOptions o;
    o.num_statements = 25;
    o.seed = 19;
    Workload w = MakeHomogeneousWorkload(cat, o);
    ConstraintSet cs;
    cs.SetStorageBudget(0.3 * cat.TotalDataBytes());
    CoPhy advisor(&sim, &pool, w, copts);
    ASSERT_TRUE(advisor.Prepare().ok());
    const Recommendation rec = advisor.Tune(cs);
    ASSERT_TRUE(rec.status.ok());
    auto& names = z == 0.0 ? flat_names : skew_names;
    for (IndexId id : rec.configuration.ids()) {
      names.push_back(pool[id].ToString(cat));
    }
  }
  EXPECT_NE(flat_names, skew_names);
}

TEST(IntegrationTest, HeterogeneousEndToEnd) {
  Catalog cat = MakeTpchCatalog(0.1, 1.0);
  IndexPool pool;
  SystemSimulator sim(&cat, &pool, CostModel::SystemB());
  WorkloadOptions o;
  o.num_statements = 40;
  o.seed = 23;
  o.update_fraction = 0.1;
  o.randomize_weights = true;
  Workload w = MakeHeterogeneousWorkload(cat, o);
  ConstraintSet cs;
  cs.SetStorageBudget(cat.TotalDataBytes());
  cs.AddMaxIndexesPerTable(cat, 3);
  CoPhyOptions copts;
  copts.node_limit = 2000;
  CoPhy advisor(&sim, &pool, w, copts);
  ASSERT_TRUE(advisor.Prepare().ok());
  const Recommendation rec = advisor.Tune(cs);
  ASSERT_TRUE(rec.status.ok());
  for (TableId t = 0; t < cat.num_tables(); ++t) {
    EXPECT_LE(rec.configuration.OnTable(t, pool).size(), 3u);
  }
  EXPECT_GT(Perf(sim, w, rec.configuration), 0.0);
}

}  // namespace
}  // namespace cophy
