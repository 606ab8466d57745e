#include "core/cophy.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stopwatch.h"

namespace cophy {

CoPhy::CoPhy(WhatIfOptimizer* whatif, IndexPool* pool, Workload workload,
             CoPhyOptions options)
    : whatif_(whatif),
      pool_(pool),
      workload_(std::move(workload)),
      options_(std::move(options)) {
  COPHY_CHECK(whatif != nullptr);
  COPHY_CHECK(pool != nullptr);
  COPHY_CHECK_EQ(&whatif->pool(), pool);
}

Status CoPhy::Prepare(const std::vector<Index>& dba_indexes) {
  Stopwatch watch;
  Status s = prepared_.Prepare(whatif_, pool_, workload_, options_.prepare,
                               dba_indexes);
  if (!s.ok()) return s;
  candidates_ = prepared_.candidates();
  last_selection_.clear();
  prepare_seconds_ += watch.Elapsed();
  return Status::Ok();
}

Status CoPhy::PrepareWithCandidates(std::vector<IndexId> candidate_ids) {
  Stopwatch watch;
  Status s = prepared_.PrepareWithCandidates(
      whatif_, pool_, workload_, options_.prepare, std::move(candidate_ids));
  if (!s.ok()) return s;
  candidates_ = prepared_.candidates();
  last_selection_.clear();
  prepare_seconds_ += watch.Elapsed();
  return Status::Ok();
}

Status CoPhy::RestrictCandidates(std::vector<IndexId> subset) {
  if (!prepared_.prepared()) {
    return Status::InvalidArgument("Prepare must run first");
  }
  const std::vector<IndexId>& all = prepared_.inum().candidates();
  for (IndexId id : subset) {
    if (std::find(all.begin(), all.end(), id) == all.end()) {
      return Status::InvalidArgument("subset index was never prepared");
    }
  }
  candidates_ = std::move(subset);
  last_selection_.clear();
  return Status::Ok();
}

Status CoPhy::AddCandidates(const std::vector<IndexId>& new_ids) {
  Stopwatch watch;
  if (!prepared_.prepared()) {
    return Status::InvalidArgument("Prepare must run first");
  }
  for (IndexId id : new_ids) {
    if (std::find(candidates_.begin(), candidates_.end(), id) !=
        candidates_.end()) {
      return Status::InvalidArgument("candidate already present");
    }
  }
  // Ids excluded earlier via RestrictCandidates still have live INUM
  // caches — only genuinely new ids need incremental γ preparation.
  const std::vector<IndexId>& already = prepared_.inum().candidates();
  std::vector<IndexId> unprepared;
  for (IndexId id : new_ids) {
    if (std::find(already.begin(), already.end(), id) == already.end()) {
      unprepared.push_back(id);
    }
  }
  if (!unprepared.empty()) {
    Status s = prepared_.AddCandidates(unprepared);
    if (!s.ok()) return s;
  }
  candidates_.insert(candidates_.end(), new_ids.begin(), new_ids.end());
  // Keep the warm start valid: new candidates start unselected.
  if (!last_selection_.empty()) {
    last_selection_.resize(candidates_.size(), 0);
  }
  prepare_seconds_ += watch.Elapsed();
  return Status::Ok();
}

ThreadPool* CoPhy::PresolvePool() {
  return PoolFor(options_.prepare.workers, options_.prepare.num_threads,
                 &presolve_pool_);
}

std::vector<double> CoPhy::BaselineShellCosts(const ConstraintSet& constraints) {
  // `constraints` must already be in the compressed statement space.
  std::vector<double> base;
  if (constraints.query_cost_constraints().empty()) return base;
  base.resize(prepared_.tuned().size(), 0.0);
  const Configuration empty;
  for (const QueryCostConstraint& qc : constraints.query_cost_constraints()) {
    base[qc.query] = prepared_.inum().ShellCost(qc.query, empty);
  }
  return base;
}

Recommendation CoPhy::Tune(const ConstraintSet& constraints) {
  return TuneInternal(constraints, /*warm_start=*/false);
}

Recommendation CoPhy::Retune(const ConstraintSet& constraints) {
  return TuneInternal(constraints, /*warm_start=*/true);
}

Recommendation CoPhy::TuneInternal(const ConstraintSet& constraints,
                                   bool warm_start) {
  Recommendation rec;
  if (!prepared_.prepared()) {
    rec.status = Status::InvalidArgument("Prepare must run first");
    return rec;
  }
  rec.num_candidates = static_cast<int>(candidates_.size());
  rec.timings.inum_seconds = prepare_seconds_;
  rec.prepare = prepared_.stats();
  // Any last-known-cache answer during preparation taints the INUM
  // coefficients the BIP was generated from.
  rec.degraded = rec.prepare.whatif_degraded > 0;
  prepare_seconds_ = 0;  // consumed by this report

  Stopwatch build_watch;
  // Per-query constraints are expressed over the original workload;
  // rewrite them into the compressed statement space tuning runs on.
  const ConstraintSet local = prepared_.TranslateConstraints(constraints);
  const std::vector<double> baseline = BaselineShellCosts(local);
  const Inum& inum = prepared_.inum();
  lp::ChoiceProblem problem =
      BuildChoiceProblem(inum, candidates_, local, baseline);
  rec.bip = ComputeBipStats(inum, candidates_, local);
  rec.timings.build_seconds = build_watch.Elapsed();

  Stopwatch solve_watch;
  lp::ChoiceSolveOptions so;
  so.gap_target = options_.gap_target;
  so.time_limit_seconds = options_.time_limit_seconds;
  so.node_limit = options_.node_limit;
  so.lagrangian = options_.lagrangian;
  so.presolve = options_.presolve;
  so.root_lp = options_.root_lp;
  so.callback = options_.callback;
  if (warm_start && last_selection_.size() == candidates_.size()) {
    // Incremental re-solve: the previous solution seeds the incumbent
    // and the search budget shrinks accordingly — the solver only has
    // to account for the delta, which is what makes interactive tuning
    // an order of magnitude cheaper (§4.2, Fig. 6(b)).
    so.warm_start = last_selection_;
    so.node_limit = std::max<int64_t>(500, options_.node_limit / 8);
    if (std::isfinite(options_.time_limit_seconds)) {
      so.time_limit_seconds = std::max(1.0, options_.time_limit_seconds / 8);
    }
  }
  lp::ChoiceSolution sol =
      lp::SolveChoiceProblem(problem, so, &rec.presolve, PresolvePool());
  rec.timings.solve_seconds = solve_watch.Elapsed();

  rec.status = sol.status;
  if (!sol.status.ok()) return rec;

  last_selection_ = sol.selected;
  std::vector<IndexId> chosen;
  for (size_t i = 0; i < sol.selected.size(); ++i) {
    if (sol.selected[i]) chosen.push_back(candidates_[i]);
  }
  rec.configuration = Configuration(std::move(chosen));
  rec.objective = sol.objective;
  rec.lower_bound = sol.lower_bound;
  rec.gap = sol.gap;
  rec.nodes = sol.nodes;
  rec.bound_evaluations = sol.bound_evaluations;
  rec.root_lp_bound = sol.root_lp_bound;
  rec.root_lagrangian_bound = sol.root_lagrangian_bound;
  rec.variables_fixed = sol.variables_fixed;
  rec.root_lp_stats = sol.root_lp_stats;
  rec.root_bound = sol.root_bound;
  return rec;
}

// ---------------------------------------------------------------------------
// Soft constraints: λ-scalarization + Chord

ParetoPoint CoPhy::SolveScalarized(const ConstraintSet& constraints,
                                   const SoftConstraint& soft, double lambda,
                                   std::vector<uint8_t>* warm) {
  Stopwatch watch;
  ParetoPoint point;
  point.lambda = lambda;

  const ConstraintSet local = prepared_.TranslateConstraints(constraints);
  const std::vector<double> baseline = BaselineShellCosts(local);
  lp::ChoiceProblem problem =
      BuildChoiceProblem(prepared_.inum(), candidates_, local, baseline);
  const std::vector<double> soft_w_raw = SoftConstraintWeights(
      soft, candidates_, whatif_->pool(), whatif_->catalog());
  std::vector<double> soft_w = soft_w_raw;

  // Normalize the soft term into workload-cost units so the λ grid is
  // meaningful (size bytes would otherwise dwarf plan costs): one unit
  // of "full soft mass" is priced like the whole unindexed workload.
  std::vector<uint8_t> none(candidates_.size(), 0);
  const double base_cost = problem.Objective(none);
  double soft_total = 0;
  for (double wgt : soft_w) soft_total += wgt;
  const double soft_scale =
      soft_total > 0 ? base_cost / soft_total : 1.0;
  for (double& wgt : soft_w) wgt *= soft_scale;

  // B' (§4.1): λ·cost(X, W) + (1−λ)·(Σ w_a z_a − target).
  lp::ChoiceProblem scaled = problem;
  for (auto& q : scaled.queries) q.weight *= lambda;
  for (int i = 0; i < scaled.num_indexes; ++i) {
    scaled.fixed_cost[i] =
        lambda * problem.fixed_cost[i] + (1 - lambda) * soft_w[i];
  }
  scaled.constant_cost = lambda * problem.constant_cost -
                         (1 - lambda) * soft.target * soft_scale;

  lp::ChoiceSolveOptions so;
  so.gap_target = options_.gap_target;
  so.time_limit_seconds = options_.time_limit_seconds;
  so.node_limit = options_.node_limit;
  so.lagrangian = options_.lagrangian;
  so.presolve = options_.presolve;
  so.root_lp = options_.root_lp;
  so.callback = options_.callback;
  if (warm != nullptr &&
      warm->size() == static_cast<size_t>(scaled.num_indexes)) {
    // Subsequent Pareto points reuse the previous point's computation
    // (Fig. 6(c)'s 4x speedup over naive recomputation).
    so.warm_start = *warm;
    so.node_limit = std::max<int64_t>(500, options_.node_limit / 8);
    if (std::isfinite(options_.time_limit_seconds)) {
      so.time_limit_seconds = std::max(1.0, options_.time_limit_seconds / 8);
    }
  }
  const lp::ChoiceSolution sol =
      lp::SolveChoiceProblem(scaled, so, nullptr, PresolvePool());
  point.seconds = watch.Elapsed();
  if (!sol.status.ok()) return point;

  if (warm != nullptr) *warm = sol.selected;
  std::vector<IndexId> chosen;
  for (size_t i = 0; i < sol.selected.size(); ++i) {
    if (sol.selected[i]) chosen.push_back(candidates_[i]);
  }
  point.configuration = Configuration(std::move(chosen));
  // Report the point in the original (unscaled) objective space.
  point.workload_cost = problem.Objective(sol.selected);
  point.soft_value = 0;  // reported in the constraint's native units
  for (size_t i = 0; i < sol.selected.size(); ++i) {
    if (sol.selected[i]) point.soft_value += soft_w_raw[i];
  }
  return point;
}

std::vector<ParetoPoint> CoPhy::TuneSoftGrid(const ConstraintSet& constraints,
                                             const std::vector<double>& lambdas) {
  COPHY_CHECK_EQ(constraints.soft_constraints().size(), 1u);
  const SoftConstraint& soft = constraints.soft_constraints()[0];
  std::vector<ParetoPoint> points;
  std::vector<uint8_t> warm;
  for (double lambda : lambdas) {
    points.push_back(SolveScalarized(constraints, soft, lambda, &warm));
  }
  return points;
}

std::vector<ParetoPoint> CoPhy::TuneSoftChord(const ConstraintSet& constraints,
                                              double epsilon, int max_points) {
  COPHY_CHECK_EQ(constraints.soft_constraints().size(), 1u);
  const SoftConstraint& soft = constraints.soft_constraints()[0];
  std::vector<ParetoPoint> points;
  std::vector<uint8_t> warm;

  // Endpoints λ = 1 (pure cost) and λ = 0 (pure soft value).
  points.push_back(SolveScalarized(constraints, soft, 1.0, &warm));
  points.push_back(SolveScalarized(constraints, soft, 0.0, &warm));

  // Normalization ranges for the distance test.
  const double c_range = std::max(
      1e-9, std::abs(points[1].workload_cost - points[0].workload_cost));
  const double s_range =
      std::max(1e-9, std::abs(points[0].soft_value - points[1].soft_value));

  struct Segment {
    ParetoPoint a, b;
    int depth;
  };
  std::vector<Segment> stack{{points[0], points[1], 0}};
  while (!stack.empty() && static_cast<int>(points.size()) < max_points) {
    Segment seg = stack.back();
    stack.pop_back();
    if (seg.depth > 8) continue;
    // The chord rule: probe the λ whose scalarized objective weighs the
    // two endpoints equally (the point of maximum possible distance
    // from the chord lies there).
    const double dc = (seg.a.workload_cost - seg.b.workload_cost) / c_range;
    const double ds = (seg.b.soft_value - seg.a.soft_value) / s_range;
    const double denom = dc + ds;
    if (std::abs(denom) < 1e-12) continue;
    double lambda = ds / denom;
    lambda = std::clamp(lambda, 1e-3, 1.0 - 1e-3);
    ParetoPoint probe = SolveScalarized(constraints, soft, lambda, &warm);

    // Normalized distance of the probe from the chord (a, b).
    const double ax = seg.a.workload_cost / c_range,
                 ay = seg.a.soft_value / s_range;
    const double bx = seg.b.workload_cost / c_range,
                 by = seg.b.soft_value / s_range;
    const double px = probe.workload_cost / c_range,
                 py = probe.soft_value / s_range;
    const double vx = bx - ax, vy = by - ay;
    const double len = std::sqrt(vx * vx + vy * vy);
    double dist = 0;
    if (len > 1e-12) {
      dist = std::abs(vx * (ay - py) - vy * (ax - px)) / len;
    }
    if (dist <= epsilon) continue;  // chord approximates well enough
    points.push_back(probe);
    stack.push_back({seg.a, probe, seg.depth + 1});
    stack.push_back({probe, seg.b, seg.depth + 1});
  }

  std::sort(points.begin(), points.end(),
            [](const ParetoPoint& x, const ParetoPoint& y) {
              return x.lambda > y.lambda;
            });
  return points;
}

}  // namespace cophy
