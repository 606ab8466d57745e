// Unit + property tests for lp/choice_problem: the structured solver,
// validated against brute-force enumeration, with constraint handling,
// warm starts, Lagrangian bound validity, and anytime behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "lagrangian_oracle.h"
#include "lp/choice_problem.h"

namespace cophy::lp {
namespace {

/// Brute-force optimum over all index selections.
double BruteForce(const ChoiceProblem& p, std::vector<uint8_t>* arg = nullptr) {
  const int n = p.num_indexes;
  double best = kInf;
  std::vector<uint8_t> sel(n);
  for (uint64_t mask = 0; mask < (1ull << n); ++mask) {
    for (int i = 0; i < n; ++i) sel[i] = (mask >> i) & 1;
    if (!p.Feasible(sel)) continue;
    const double obj = p.Objective(sel);
    if (obj < best) {
      best = obj;
      if (arg != nullptr) *arg = sel;
    }
  }
  return best;
}

/// A random CoPhy-shaped problem: queries with template plans, sorted
/// slot options with base fallbacks, sizes, and a storage budget.
/// Index `a` "belongs to table" a % 3, and every plan's slots cover
/// distinct tables — the structural invariant of index tuning (a slot
/// is one table's access path) that the solver's aggregated Lagrangian
/// relies on.
ChoiceProblem RandomProblem(uint64_t seed, int num_indexes, int num_queries,
                            bool tight_budget, bool with_fixed_costs) {
  Rng rng(seed);
  constexpr int kTables = 3;
  ChoiceProblem p;
  p.num_indexes = num_indexes;
  p.fixed_cost.assign(num_indexes, 0.0);
  p.size.resize(num_indexes);
  double total_size = 0;
  for (int a = 0; a < num_indexes; ++a) {
    p.size[a] = 1.0 + static_cast<double>(rng.Uniform(20));
    total_size += p.size[a];
    if (with_fixed_costs && rng.Bernoulli(0.3)) {
      p.fixed_cost[a] = static_cast<double>(rng.Uniform(30));
    }
  }
  for (int q = 0; q < num_queries; ++q) {
    ChoiceQuery cq;
    cq.weight = 1.0 + static_cast<double>(rng.Uniform(3));
    const int plans = 1 + static_cast<int>(rng.Uniform(3));
    // The query references a fixed set of distinct tables; all its
    // plans cover exactly those tables (as template plans do).
    const int slots = 1 + static_cast<int>(rng.Uniform(kTables));
    std::vector<int> tables(kTables);
    for (int t = 0; t < kTables; ++t) tables[t] = t;
    for (int t = 0; t < kTables; ++t) {
      std::swap(tables[t], tables[t + rng.Uniform(kTables - t)]);
    }
    for (int k = 0; k < plans; ++k) {
      ChoicePlan plan;
      plan.beta = 10.0 + static_cast<double>(rng.Uniform(100));
      for (int s = 0; s < slots; ++s) {
        const int table = tables[s];
        ChoiceSlot slot;
        const double base_gamma = 50.0 + static_cast<double>(rng.Uniform(200));
        const int opts = static_cast<int>(rng.Uniform(4));
        for (int o = 0; o < opts; ++o) {
          ChoiceOption opt;
          // Draw only from this table's indexes (a ≡ table mod kTables).
          const int pick = static_cast<int>(rng.Uniform(num_indexes));
          opt.index = pick - (pick % kTables) + table;
          if (opt.index >= num_indexes) opt.index -= kTables;
          if (opt.index < 0) continue;
          opt.gamma = base_gamma * rng.NextDouble();
          slot.options.push_back(opt);
        }
        slot.options.push_back({kBaseOption, base_gamma});
        std::sort(slot.options.begin(), slot.options.end(),
                  [](const ChoiceOption& a, const ChoiceOption& b) {
                    return a.gamma < b.gamma;
                  });
        plan.slots.push_back(std::move(slot));
      }
      cq.plans.push_back(std::move(plan));
    }
    p.queries.push_back(std::move(cq));
  }
  if (tight_budget) p.storage_budget = total_size * 0.3;
  return p;
}

TEST(ChoiceProblemTest, QueryCostPicksCheapestAvailable) {
  ChoiceProblem p;
  p.num_indexes = 2;
  p.fixed_cost = {0, 0};
  p.size = {1, 1};
  ChoiceQuery q;
  ChoicePlan plan;
  plan.beta = 10;
  ChoiceSlot slot;
  slot.options = {{0, 1.0}, {1, 2.0}, {kBaseOption, 5.0}};
  plan.slots.push_back(slot);
  q.plans.push_back(plan);
  p.queries.push_back(q);

  EXPECT_DOUBLE_EQ(p.QueryCost(0, {0, 0}), 15.0);  // base only
  EXPECT_DOUBLE_EQ(p.QueryCost(0, {0, 1}), 12.0);  // index 1
  EXPECT_DOUBLE_EQ(p.QueryCost(0, {1, 1}), 11.0);  // index 0 wins
}

TEST(ChoiceProblemTest, SlotWithoutBaseRequiresSelection) {
  ChoiceProblem p;
  p.num_indexes = 1;
  p.fixed_cost = {0};
  p.size = {1};
  ChoiceQuery q;
  ChoicePlan plan;
  plan.beta = 1;
  ChoiceSlot slot;
  slot.options = {{0, 2.0}};  // no base fallback (ILP-form)
  plan.slots.push_back(slot);
  q.plans.push_back(plan);
  p.queries.push_back(q);

  EXPECT_EQ(p.QueryCost(0, {0}), kInf);
  EXPECT_DOUBLE_EQ(p.QueryCost(0, {1}), 3.0);
  EXPECT_EQ(p.Objective({0}), kInf);
}

TEST(ChoiceProblemTest, FeasibilityChecksAllConstraintKinds) {
  ChoiceProblem p = RandomProblem(1, 4, 2, false, false);
  p.storage_budget = p.size[0] + 0.5;
  EXPECT_TRUE(p.Feasible({1, 0, 0, 0}));
  EXPECT_FALSE(p.Feasible({1, 1, 1, 1}));
  p.z_rows.push_back({{{0, 1.0}, {1, 1.0}}, Sense::kLe, 0.0, "none of 0,1"});
  EXPECT_FALSE(p.Feasible({1, 0, 0, 0}));
  EXPECT_TRUE(p.Feasible({0, 0, 0, 0}));
}

TEST(ChoiceSolverTest, UnconstrainedPicksAllBeneficial) {
  ChoiceProblem p = RandomProblem(2, 6, 8, /*tight_budget=*/false, false);
  ChoiceSolver solver(&p);
  ChoiceSolveOptions opts;
  opts.gap_target = 0.0;
  const ChoiceSolution s = solver.Solve(opts);
  ASSERT_TRUE(s.status.ok());
  const double brute = BruteForce(p);
  EXPECT_NEAR(s.objective, brute, 1e-6 + 1e-6 * brute);
}

TEST(ChoiceSolverTest, InfeasibleZRowsDetected) {
  ChoiceProblem p = RandomProblem(3, 4, 3, false, false);
  // Contradictory: select at least 2 of {0} — impossible.
  p.z_rows.push_back({{{0, 1.0}}, Sense::kGe, 2.0, "impossible"});
  ChoiceSolver solver(&p);
  EXPECT_EQ(solver.CheckFeasible().code(), StatusCode::kInfeasible);
  EXPECT_FALSE(solver.Solve().status.ok());
}

TEST(ChoiceSolverTest, UnreachableQueryCapDetected) {
  ChoiceProblem p = RandomProblem(4, 4, 3, false, false);
  p.queries[0].cost_cap = 1e-3;  // below any achievable cost
  ChoiceSolver solver(&p);
  EXPECT_EQ(solver.CheckFeasible().code(), StatusCode::kInfeasible);
}

TEST(ChoiceSolverTest, GreaterEqualRowForcesSelection) {
  ChoiceProblem p = RandomProblem(5, 5, 4, false, /*fixed costs=*/true);
  p.fixed_cost[2] = 1000.0;  // expensive: never chosen voluntarily
  ChoiceSolver free_solver(&p);
  const ChoiceSolution uncons = free_solver.Solve();
  ASSERT_TRUE(uncons.status.ok());
  EXPECT_EQ(uncons.selected[2], 0);

  p.z_rows.push_back({{{2, 1.0}}, Sense::kGe, 1.0, "must pick 2"});
  ChoiceSolver forced_solver(&p);
  const ChoiceSolution forced = forced_solver.Solve();
  ASSERT_TRUE(forced.status.ok());
  EXPECT_EQ(forced.selected[2], 1);
  EXPECT_GE(forced.objective, uncons.objective - 1e-9);
}

TEST(ChoiceSolverTest, WarmStartSeedsIncumbent) {
  ChoiceProblem p = RandomProblem(6, 8, 10, true, false);
  ChoiceSolver solver(&p);
  const ChoiceSolution cold = solver.Solve();
  ASSERT_TRUE(cold.status.ok());

  ChoiceSolveOptions warm_opts;
  warm_opts.warm_start = cold.selected;
  warm_opts.node_limit = 0;  // no search at all: rely on the warm start
  ChoiceSolver solver2(&p);
  const ChoiceSolution warm = solver2.Solve(warm_opts);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_LE(warm.objective, cold.objective + 1e-9);
}

TEST(ChoiceSolverTest, LagrangianBoundNeverExceedsOptimum) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    ChoiceProblem p = RandomProblem(seed, 8, 6, true, true);
    const double brute = BruteForce(p);
    if (!std::isfinite(brute)) continue;
    ChoiceSolver solver(&p);
    ChoiceSolveOptions opts;
    opts.gap_target = 0.0;
    opts.node_limit = 100000;
    const ChoiceSolution s = solver.Solve(opts);
    ASSERT_TRUE(s.status.ok());
    EXPECT_LE(s.root_lagrangian_bound, brute + 1e-6 + 1e-6 * std::abs(brute))
        << "seed " << seed;
    EXPECT_LE(s.lower_bound, brute + 1e-6 + 1e-6 * std::abs(brute));
  }
}

TEST(ChoiceSolverTest, RootLpBoundNeverExceedsOptimum) {
  for (uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    ChoiceProblem p = RandomProblem(seed, 8, 6, true, true);
    const double brute = BruteForce(p);
    if (!std::isfinite(brute)) continue;
    ChoiceSolver solver(&p);
    ChoiceSolveOptions opts;
    opts.gap_target = 0.0;
    opts.node_limit = 200000;
    opts.root_lp = RootLpMode::kAlways;
    const ChoiceSolution s = solver.Solve(opts);
    ASSERT_TRUE(s.status.ok());
    ASSERT_GT(s.root_lp_rows, 0) << "root LP unexpectedly skipped";
    EXPECT_LE(s.root_lp_bound, brute + 1e-6 + 1e-6 * std::abs(brute))
        << "seed " << seed;
    // The dual-seeded Lagrangian stays a valid bound too.
    EXPECT_LE(s.root_lagrangian_bound, brute + 1e-6 + 1e-6 * std::abs(brute))
        << "seed " << seed;
  }
}

TEST(ChoiceSolverTest, RootLpAndFixingKnobsPreserveOptimum) {
  for (uint64_t seed : {41u, 42u, 43u, 44u}) {
    ChoiceProblem p = RandomProblem(seed, 9, 7, true, true);
    const double brute = BruteForce(p);
    if (!std::isfinite(brute)) continue;
    ChoiceSolveOptions full;
    full.gap_target = 0.0;
    full.node_limit = 500000;
    full.root_lp = RootLpMode::kAlways;
    ChoiceSolveOptions bare = full;
    bare.root_lp = RootLpMode::kOff;
    bare.reduced_cost_fixing = false;
    bare.lagrangian = false;
    ChoiceSolver s1(&p), s2(&p);
    const ChoiceSolution with = s1.Solve(full);
    const ChoiceSolution without = s2.Solve(bare);
    ASSERT_TRUE(with.status.ok());
    ASSERT_TRUE(without.status.ok());
    EXPECT_NEAR(with.objective, brute, 1e-6 + 1e-6 * std::abs(brute))
        << "seed " << seed;
    EXPECT_NEAR(without.objective, brute, 1e-6 + 1e-6 * std::abs(brute))
        << "seed " << seed;
    EXPECT_EQ(without.root_lp_rows, 0);
    EXPECT_EQ(without.variables_fixed, 0);
  }
}

TEST(ChoiceSolverTest, RootLpBeyondOldFourThousandRowCapSolves) {
  // Before the sparse-LU basis factorization, root_lp_max_rows
  // defaulted to 4000 because the explicit-inverse simplex was
  // O(rows^2) in time and memory; BuildRootLp refused anything larger
  // and those solves fell back to the weaker Lagrangian-only bound.
  // This instance's compact root LP is > 4000 rows and must now build
  // and solve exactly under the raised default cap.
  constexpr int kIndexes = 60;
  constexpr int kQueries = 900;
  Rng rng(31);
  ChoiceProblem p;
  p.num_indexes = kIndexes;
  p.fixed_cost.assign(kIndexes, 1.0);
  p.size.assign(kIndexes, 1.0);
  p.storage_budget = kIndexes;  // generous: every index fits
  for (int q = 0; q < kQueries; ++q) {
    ChoiceQuery cq;
    ChoicePlan plan;
    plan.beta = 1.0;
    ChoiceSlot slot;
    int a = static_cast<int>(rng.Uniform(kIndexes));
    for (int k = 0; k < 3; ++k) {  // 3 distinct indexes, then the base
      slot.options.push_back({(a + k) % kIndexes,
                              2.0 + static_cast<double>(rng.Uniform(5)) + k});
    }
    slot.options.push_back({kBaseOption, 10.0});
    plan.slots.push_back(std::move(slot));
    cq.plans.push_back(std::move(plan));
    p.queries.push_back(std::move(cq));
  }

  ChoiceSolver solver(&p);
  Model refused;
  EXPECT_EQ(solver.DebugBuildRootLp(&refused, 4000), -1);  // the old cap

  ChoiceSolveOptions opts;  // default root_lp_max_rows admits it
  opts.root_lp = RootLpMode::kAlways;
  opts.gap_target = 0.05;
  opts.node_limit = 50;
  opts.lagrangian_iterations = 20;
  const ChoiceSolution s = solver.Solve(opts);
  ASSERT_TRUE(s.status.ok()) << s.status.ToString();
  EXPECT_GT(s.root_lp_rows, 4000);
  ASSERT_TRUE(std::isfinite(s.root_lp_bound));
  EXPECT_LE(s.root_lp_bound, s.objective + 1e-6 * std::abs(s.objective));
  EXPECT_GE(s.root_lp_stats.refactorizations, 1);
  EXPECT_GT(s.root_lp_stats.phase1_pivots + s.root_lp_stats.phase2_pivots, 0);
}

TEST(ChoiceSolverTest, RootLpRowCapSkipsTheLp) {
  ChoiceProblem p = RandomProblem(9, 8, 6, true, false);
  ChoiceSolver solver(&p);
  Model m;
  EXPECT_EQ(solver.DebugBuildRootLp(&m, 1), -1);
  ChoiceSolveOptions opts;
  opts.root_lp = RootLpMode::kAlways;
  opts.root_lp_max_rows = 1;
  const ChoiceSolution s = solver.Solve(opts);
  ASSERT_TRUE(s.status.ok());
  EXPECT_EQ(s.root_lp_rows, 0);
  EXPECT_EQ(s.root_lp_bound, -kInf);
}

/// Adds a veto (z_a = 0) and an accept (z_b = 1) row, the form DBA
/// verdicts compile to.
void AddVerdicts(ChoiceProblem* p, int veto, int accept) {
  p->z_rows.push_back(ZRow{{{veto, 1.0}}, Sense::kEq, 0.0, "veto"});
  p->z_rows.push_back(ZRow{{{accept, 1.0}}, Sense::kEq, 1.0, "accept"});
}

TEST(ChoiceSolverTest, RootLpRunsOnlyWhenTheDualCannotProveTheGap) {
  // The gate: under kWhenUnproven the LP runs exactly when the volume
  // dual stopped short of proving gap_target, and kOff never runs it.
  int skipped = 0, escalated = 0;
  for (uint64_t seed = 71; seed < 83; ++seed) {
    const ChoiceProblem p = RandomProblem(seed, 9, 8, true, true);
    for (const double gap_target : {0.05, 0.0}) {
      ChoiceSolver solver(&p);
      ChoiceSolveOptions opts;
      opts.gap_target = gap_target;
      const ChoiceSolution s = solver.Solve(opts);
      ASSERT_TRUE(s.status.ok());
      const RootBoundStats& rb = s.root_bound;
      EXPECT_GE(rb.dual_iterations, 1);
      EXPECT_LE(rb.dual_iterations, opts.lagrangian_iterations);
      EXPECT_NE(rb.dual_proven, rb.lp_escalated) << "seed " << seed;
      EXPECT_EQ(s.root_lp_rows > 0, rb.lp_escalated) << "seed " << seed;
      if (rb.dual_proven) {
        EXPECT_LE(rb.dual_gap, gap_target);
        ++skipped;
      } else {
        EXPECT_GT(rb.dual_gap, gap_target);
        ++escalated;
      }
      ChoiceSolver off_solver(&p);
      opts.root_lp = RootLpMode::kOff;
      const ChoiceSolution off = off_solver.Solve(opts);
      ASSERT_TRUE(off.status.ok());
      EXPECT_EQ(off.root_lp_rows, 0);
      EXPECT_FALSE(off.root_bound.lp_escalated);
    }
  }
  EXPECT_GT(skipped, 0);
  EXPECT_GT(escalated, 0);
}

TEST(ChoiceSolverTest, AcceptAndVetoRowsKeepBoundsValid) {
  // Single-index equality rows fix z in the Lagrangian z-subproblem
  // (and in every node) instead of being relaxed: every root bound
  // must stay below the constrained optimum, which the search still
  // finds exactly.
  for (uint64_t seed : {91u, 92u, 93u, 94u, 95u, 96u}) {
    ChoiceProblem p = RandomProblem(seed, 8, 6, true, true);
    AddVerdicts(&p, static_cast<int>(seed % 8), static_cast<int>((seed + 3) % 8));
    const double brute = BruteForce(p);
    if (!std::isfinite(brute)) continue;
    const double tol = 1e-6 + 1e-6 * std::abs(brute);
    for (const RootLpMode mode :
         {RootLpMode::kOff, RootLpMode::kWhenUnproven, RootLpMode::kAlways}) {
      ChoiceSolver solver(&p);
      ChoiceSolveOptions opts;
      opts.gap_target = 0.0;
      opts.node_limit = 500000;
      opts.root_lp = mode;
      const ChoiceSolution s = solver.Solve(opts);
      ASSERT_TRUE(s.status.ok()) << "seed " << seed;
      EXPECT_NEAR(s.objective, brute, tol) << "seed " << seed;
      EXPECT_TRUE(p.Feasible(s.selected));
      EXPECT_LE(s.root_lagrangian_bound, brute + tol) << "seed " << seed;
      EXPECT_LE(s.root_lp_bound, brute + tol) << "seed " << seed;
    }
  }
}

TEST(ChoiceSolverTest, LagrangianNeverExceedsRootLpOptimum) {
  // Weak duality, sampled: for random μ >= 0, λ >= 0 the Lagrangian —
  // the solver's evaluator (a one-iteration dual at the seed) and the
  // independent oracle alike — stays at or below the root LP optimum,
  // also with verdict rows pinning z and a relaxed knapsack z-row.
  Rng rng(5);
  int checked = 0;
  for (uint64_t seed = 61; seed < 67; ++seed) {
    ChoiceProblem p = RandomProblem(seed, 8, 6, true, true);
    if (seed % 2 == 0) {
      AddVerdicts(&p, static_cast<int>(seed % 8), static_cast<int>((seed + 1) % 8));
      p.z_rows.push_back(ZRow{{{2, 1.0}, {5, 1.0}}, Sense::kLe, 1.0, "pair"});
    }
    ChoiceSolver lp_solver(&p);
    ChoiceSolveOptions lp_opts;
    lp_opts.root_lp = RootLpMode::kAlways;
    const ChoiceSolution lp = lp_solver.Solve(lp_opts);
    if (!lp.status.ok() || !std::isfinite(lp.root_lp_bound)) continue;
    const double tol = 1e-6 * std::max(1.0, std::abs(lp.root_lp_bound));
    int num_mu = 0;
    testing_oracle::MuSlots(p, &num_mu);
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<double> mu(num_mu);
      for (double& m : mu) m = rng.Bernoulli(0.3) ? 0.0 : 300.0 * rng.NextDouble();
      const double lambda = trial % 3 == 0 ? 0.0 : 500.0 * rng.NextDouble();
      const double oracle = testing_oracle::Lagrangian(p, mu, lambda);
      EXPECT_LE(oracle, lp.root_lp_bound + tol) << "seed " << seed;

      ChoiceSolver solver(&p);
      ChoiceSolveOptions opts;
      opts.root_lp = RootLpMode::kOff;
      opts.lagrangian_iterations = 1;
      opts.mu_seed = &mu;
      opts.lambda_seed = lambda;
      const ChoiceSolution at = solver.Solve(opts);
      ASSERT_TRUE(at.status.ok());
      EXPECT_NEAR(at.root_lagrangian_bound, oracle,
                  1e-9 * std::max(1.0, std::abs(oracle)));
      ++checked;
    }
  }
  EXPECT_GE(checked, 75);
}

TEST(ChoiceSolverTest, CallbackEarlyTermination) {
  ChoiceProblem p = RandomProblem(7, 10, 12, true, false);
  ChoiceSolver solver(&p);
  ChoiceSolveOptions opts;
  opts.gap_target = 0.0;
  int calls = 0;
  opts.callback = [&](const MipProgress& pr) {
    ++calls;
    return !pr.has_incumbent;  // stop at the first incumbent
  };
  const ChoiceSolution s = solver.Solve(opts);
  EXPECT_TRUE(s.status.ok());
  EXPECT_GE(calls, 1);
}

TEST(ChoiceSolverTest, ReportsProvenGapAndBound) {
  ChoiceProblem p = RandomProblem(8, 8, 8, true, false);
  ChoiceSolver solver(&p);
  ChoiceSolveOptions opts;
  opts.gap_target = 0.0;
  opts.node_limit = 200000;
  const ChoiceSolution s = solver.Solve(opts);
  ASSERT_TRUE(s.status.ok());
  EXPECT_LE(s.lower_bound, s.objective + 1e-9);
  EXPECT_GE(s.gap, 0.0);
  const double brute = BruteForce(p);
  // The proven bound must be valid w.r.t. the true optimum.
  EXPECT_LE(s.lower_bound, brute + 1e-6 + 1e-6 * std::abs(brute));
  EXPECT_NEAR(s.objective, brute, 1e-6 + 1e-6 * std::abs(brute));
}

/// Property sweep: the structured solver matches brute force across
/// random instances, budgets, and fixed-cost settings.
class ChoiceSolverPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(ChoiceSolverPropertyTest, MatchesBruteForce) {
  const auto [seed, tight, fixed] = GetParam();
  ChoiceProblem p = RandomProblem(100 + seed, 9, 7, tight, fixed);
  const double brute = BruteForce(p);
  ChoiceSolver solver(&p);
  ChoiceSolveOptions opts;
  opts.gap_target = 0.0;
  opts.node_limit = 500000;
  const ChoiceSolution s = solver.Solve(opts);
  if (!std::isfinite(brute)) {
    EXPECT_FALSE(s.status.ok());
    return;
  }
  ASSERT_TRUE(s.status.ok()) << s.status.ToString();
  EXPECT_NEAR(s.objective, brute, 1e-6 + 1e-6 * std::abs(brute))
      << "seed=" << seed << " tight=" << tight << " fixed=" << fixed;
  EXPECT_TRUE(p.Feasible(s.selected));
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, ChoiceSolverPropertyTest,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Bool(),
                       ::testing::Bool()));

}  // namespace
}  // namespace cophy::lp
