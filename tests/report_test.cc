// Tests for core/report: per-statement and per-index attribution of a
// recommendation's impact.
#include <gtest/gtest.h>

#include "optimizer/simulator.h"
#include "catalog/catalog.h"
#include "core/report.h"
#include "workload/generator.h"

namespace cophy {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cat_ = MakeTpchCatalog(0.1, 0.0);
    sim_ = std::make_unique<SystemSimulator>(&cat_, &pool_,
                                             CostModel::SystemA());
    WorkloadOptions o;
    o.num_statements = 20;
    o.seed = 33;
    o.update_fraction = 0.2;
    w_ = MakeHomogeneousWorkload(cat_, o);
    CoPhyOptions opts;
    opts.node_limit = 2000;
    opts.root_lp = lp::RootLpMode::kAlways;  // the root-LP lines render
    advisor_ = std::make_unique<CoPhy>(sim_.get(), &pool_, w_, opts);
    ASSERT_TRUE(advisor_->Prepare().ok());
    ConstraintSet cs;
    cs.SetStorageBudget(cat_.TotalDataBytes());
    rec_ = advisor_->Tune(cs);
    ASSERT_TRUE(rec_.status.ok());
  }

  /// The workload view the report describes: tuning runs on the
  /// (losslessly) compressed representatives, whose aggregated weights
  /// make the totals match the full workload.
  const Workload& tuned() const { return advisor_->prepared().tuned(); }

  Catalog cat_;
  IndexPool pool_;
  std::unique_ptr<SystemSimulator> sim_;
  std::unique_ptr<CoPhy> advisor_;
  Workload w_;
  Recommendation rec_;
};

TEST_F(ReportTest, TotalsMatchInumCosts) {
  const TuningReport report = AnalyzeRecommendation(advisor_->inum(), rec_);
  double before = 0, after = 0;
  for (const Query& q : tuned().statements()) {
    before += q.weight * advisor_->inum().Cost(q.id, Configuration::Empty());
    after += q.weight * advisor_->inum().Cost(q.id, rec_.configuration);
  }
  EXPECT_NEAR(report.total_before, before, 1e-6 * before);
  EXPECT_NEAR(report.total_after, after, 1e-6 * after);
  EXPECT_LT(report.total_after, report.total_before);

  // The compressed view's aggregated weights make the report totals
  // stand for the FULL workload: cross-check against direct what-if
  // costing of every original statement.
  double full_before = 0;
  for (const Query& q : w_.statements()) {
    full_before += q.weight * sim_->Cost(q, Configuration::Empty()).value();
  }
  EXPECT_NEAR(report.total_before, full_before, 1e-6 * full_before);
}

TEST_F(ReportTest, EveryStatementAccounted) {
  const TuningReport report = AnalyzeRecommendation(advisor_->inum(), rec_);
  EXPECT_EQ(static_cast<int>(report.statements.size()), tuned().size());
  // Lossless compression merged duplicates, but every original
  // statement is represented (none dropped).
  EXPECT_LE(tuned().size(), w_.size());
  for (QueryId q = 0; q < w_.size(); ++q) {
    EXPECT_GE(advisor_->prepared().CompressedId(q), 0);
  }
  // Sorted by absolute gain, descending.
  for (size_t i = 1; i < report.statements.size(); ++i) {
    const auto gain = [](const StatementImpact& s) {
      return s.weight * (s.cost_before - s.cost_after);
    };
    EXPECT_GE(gain(report.statements[i - 1]), gain(report.statements[i]) - 1e-9);
  }
}

TEST_F(ReportTest, IndexImpactsCoverConfiguration) {
  const TuningReport report = AnalyzeRecommendation(advisor_->inum(), rec_);
  EXPECT_EQ(static_cast<int>(report.indexes.size()),
            rec_.configuration.size());
  double total_size = 0;
  for (const IndexImpact& ii : report.indexes) {
    EXPECT_TRUE(rec_.configuration.Contains(ii.index));
    EXPECT_GT(ii.size_bytes, 0);
    total_size += ii.size_bytes;
  }
  EXPECT_NEAR(report.storage_bytes, total_size, 1.0);
  EXPECT_NEAR(report.storage_bytes,
              rec_.configuration.SizeBytes(pool_, cat_), 1.0);
}

TEST_F(ReportTest, UsedIndexesBelongToConfiguration) {
  const TuningReport report = AnalyzeRecommendation(advisor_->inum(), rec_);
  for (const StatementImpact& si : report.statements) {
    for (IndexId id : si.indexes_used) {
      EXPECT_TRUE(rec_.configuration.Contains(id));
    }
    // SELECT costs never increase under more indexes; UPDATE statements
    // may pay maintenance for indexes that benefit *other* statements.
    if (tuned()[si.query].IsSelect()) {
      EXPECT_LE(si.cost_after, si.cost_before * (1 + 1e-9));
    }
  }
}

TEST_F(ReportTest, BenefitAttributionSumsToTotalGain) {
  const TuningReport report = AnalyzeRecommendation(advisor_->inum(), rec_);
  double attributed = 0;
  for (const IndexImpact& ii : report.indexes) {
    attributed += ii.weighted_benefit;
  }
  // Shell gains are fully attributed to used indexes; update penalties
  // live in total_after but not in the attribution, so attributed gain
  // is the shell-cost delta.
  double shell_gain = 0;
  for (const Query& q : tuned().statements()) {
    shell_gain +=
        q.weight * (advisor_->inum().ShellCost(q.id, Configuration::Empty()) -
                    advisor_->inum().ShellCost(q.id, rec_.configuration));
  }
  EXPECT_NEAR(attributed, shell_gain, 1e-6 * std::max(1.0, shell_gain));
}

TEST_F(ReportTest, SolverActivityRendersPresolveAndRootBounds) {
  SolverActivity activity;
  activity.lp = lp::SolverCounters{};
  activity.lp.lp_solves = 1;  // the factorization line renders per run
  activity.lp.factorizations = rec_.root_lp_stats.refactorizations;
  activity.lp.eta_nnz = rec_.root_lp_stats.eta_nnz;
  activity.bound_evaluations = rec_.bound_evaluations;
  activity.presolve = rec_.presolve;
  activity.root_lp_bound = rec_.root_lp_bound;
  activity.root_lagrangian_bound = rec_.root_lagrangian_bound;
  activity.variables_fixed = rec_.variables_fixed;
  activity.root_lp_stats = rec_.root_lp_stats;
  activity.root_bound = rec_.root_bound;
  const std::string text = RenderSolverActivity(activity);
  // The tuning run presolved a real BIP and produced root bounds; both
  // must appear side by side in the rendering, along with the LU
  // basis-factorization accounting the tuning solve recorded.
  EXPECT_NE(text.find("Presolve: plans"), std::string::npos) << text;
  EXPECT_NE(text.find("Root bounds:"), std::string::npos) << text;
  EXPECT_NE(text.find("Lagrangian"), std::string::npos) << text;
  EXPECT_NE(text.find("fixed by reduced costs"), std::string::npos) << text;
  EXPECT_NE(text.find("Basis factorization:"), std::string::npos) << text;
  EXPECT_GE(rec_.root_lp_stats.refactorizations, 1);  // the root LP ran
  EXPECT_NE(text.find("refactorizations"), std::string::npos) << text;
  EXPECT_NE(text.find("root LP always runs"), std::string::npos) << text;
  // And an empty activity renders none of it.
  const std::string empty = RenderSolverActivity(SolverActivity{});
  EXPECT_EQ(empty.find("Presolve"), std::string::npos);
  EXPECT_EQ(empty.find("Root bounds"), std::string::npos);
  EXPECT_EQ(empty.find("Basis factorization"), std::string::npos);
  EXPECT_EQ(empty.find("Root gate"), std::string::npos);
}

TEST_F(ReportTest, SolverActivityRendersTheRootGate) {
  // Each solve says whether the volume dual proved the gap (LP
  // skipped) or the LP was escalated, after how many iterations, and
  // at which gap.
  SolverActivity activity;
  activity.root_lagrangian_bound = 95.0;
  activity.root_bound.dual_iterations = 412;
  activity.root_bound.gate_gap = 0.05;
  activity.root_bound.dual_gap = 0.031;
  activity.root_bound.dual_proven = true;
  std::string text = RenderSolverActivity(activity);
  EXPECT_NE(text.find("Root gate: 412 volume iterations, dual gap 3.10% vs "
                      "gate 5.00% -> root LP skipped"),
            std::string::npos)
      << text;
  activity.root_bound.dual_iterations = 1500;
  activity.root_bound.dual_gap = 0.072;
  activity.root_bound.dual_proven = false;
  activity.root_bound.lp_escalated = true;
  text = RenderSolverActivity(activity);
  EXPECT_NE(text.find("1500 volume iterations, dual gap 7.20% vs gate 5.00% "
                      "-> root LP escalated"),
            std::string::npos)
      << text;

  // An end-to-end tune under the default gate reports its verdict too.
  CoPhy advisor(sim_.get(), &pool_, w_, CoPhyOptions{});
  ASSERT_TRUE(advisor.Prepare().ok());
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * cat_.TotalDataBytes());
  const Recommendation rec = advisor.Tune(cs);
  ASSERT_TRUE(rec.status.ok());
  EXPECT_GE(rec.root_bound.dual_iterations, 1);
  SolverActivity tuned;
  tuned.root_bound = rec.root_bound;
  EXPECT_NE(RenderSolverActivity(tuned).find(rec.root_bound.lp_escalated
                                                 ? "root LP escalated"
                                                 : "root LP skipped"),
            std::string::npos);
}

TEST_F(ReportTest, SolverActivityRendersDualAndForrestTomlinCounters) {
  SolverActivity activity;
  activity.lp = lp::SolverCounters{};
  activity.lp.lp_solves = 10;
  activity.lp.phase1_pivots = 3;
  activity.lp.phase2_pivots = 17;
  activity.lp.dual_pivots = 25;   // warm node re-solves via dual simplex
  activity.lp.bound_flips = 4;
  activity.lp.devex_resets = 2;
  activity.lp.factorizations = 5;
  activity.lp.ft_updates = 40;
  activity.lp.eta_nnz = 123;
  activity.root_lp_stats.refactorizations = 1;
  activity.root_lp_stats.warm_started = true;
  activity.root_lp_stats.dual_entered = true;
  activity.root_lp_bound = 42.0;
  const std::string text = RenderSolverActivity(activity);
  // Dual pivots count toward the total and get their own slot.
  EXPECT_NE(text.find("pivots 45"), std::string::npos) << text;
  EXPECT_NE(text.find("dual 25"), std::string::npos) << text;
  EXPECT_NE(text.find("40 FT updates"), std::string::npos) << text;
  EXPECT_NE(text.find("Devex: 2 reference-framework resets"),
            std::string::npos)
      << text;
  // The root-LP annotation marks a dual-entered warm seed.
  EXPECT_NE(text.find("warm dual"), std::string::npos) << text;
  // No devex line when there were no resets.
  activity.lp.devex_resets = 0;
  EXPECT_EQ(RenderSolverActivity(activity).find("Devex:"), std::string::npos);
}

TEST_F(ReportTest, SolverActivityRendersNumericalSafetyLine) {
  SolverActivity activity;
  activity.lp = lp::SolverCounters{};
  activity.lp.lp_solves = 12;
  activity.lp.certified_solves = 11;
  activity.lp.uncertified_solves = 1;
  activity.lp.refinement_rounds = 3;
  activity.lp.perturbations_applied = 2;
  activity.lp.perturbations_removed = 2;
  activity.lp.bland_escalations = 1;
  activity.lp.markowitz_escalations = 4;
  activity.lp.singular_repairs = 1;
  activity.lp.cold_restarts = 1;
  const std::string text = RenderSolverActivity(activity);
  EXPECT_NE(text.find("Numerical safety: 11/12 solves certified"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("3 refinement rounds"), std::string::npos) << text;
  EXPECT_NE(text.find("perturbations 2 applied / 2 removed"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("1 Bland, 4 Markowitz, 1 singular repairs, "
                      "1 cold restarts"),
            std::string::npos)
      << text;
  // Hand-built activities that never ran the certification pass (both
  // counters zero) don't grow the line.
  SolverActivity plain;
  plain.lp = lp::SolverCounters{};
  plain.lp.lp_solves = 3;
  EXPECT_EQ(RenderSolverActivity(plain).find("Numerical safety"),
            std::string::npos);
}

TEST_F(ReportTest, TuningRunReportsCertifiedSolves) {
  // The end-to-end story: the tuning run in SetUp solved real LPs with
  // safeguards on, so the captured global counters render the line with
  // a nonzero certified count.
  SolverActivity activity;
  activity.lp = lp::SolverCountersSnapshot();
  ASSERT_GT(activity.lp.certified_solves, 0);
  const std::string text = RenderSolverActivity(activity);
  EXPECT_NE(text.find("Numerical safety:"), std::string::npos) << text;
  EXPECT_NE(text.find("solves certified"), std::string::npos) << text;
}

TEST_F(ReportTest, RenderedReportMentionsKeyFacts) {
  const TuningReport report = AnalyzeRecommendation(advisor_->inum(), rec_);
  const std::string text = RenderTuningReport(report, advisor_->inum(), 5);
  EXPECT_NE(text.find("reduction"), std::string::npos);
  EXPECT_NE(text.find("Top improved statements"), std::string::npos);
  EXPECT_NE(text.find("INDEX ON"), std::string::npos);
  EXPECT_NE(text.find("MB"), std::string::npos);
}

TEST_F(ReportTest, ChosenIndexesMatchCostArgmin) {
  // Using exactly the chosen indexes reproduces the statement's cost
  // under the full configuration (they are the arg-min paths).
  for (const Query& q : tuned().statements()) {
    const auto used = advisor_->inum().ChosenIndexes(q.id, rec_.configuration);
    const double with_all =
        advisor_->inum().ShellCost(q.id, rec_.configuration);
    const double with_used =
        advisor_->inum().ShellCost(q.id, Configuration(used));
    EXPECT_NEAR(with_used, with_all, 1e-9 + 1e-9 * with_all);
  }
}

}  // namespace
}  // namespace cophy
