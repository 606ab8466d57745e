// Human-readable tuning reports: what the recommendation changes, per
// statement and per index. This is the artifact a DBA reads after a
// session — which statements improve and by how much, which index
// serves which statements, and where the storage budget went.
#ifndef COPHY_CORE_REPORT_H_
#define COPHY_CORE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/cophy.h"
#include "lp/simplex.h"

namespace cophy {

/// Per-statement impact of a recommendation.
struct StatementImpact {
  QueryId query = -1;
  double cost_before = 0;   ///< INUM shell cost under X0
  double cost_after = 0;    ///< INUM shell cost under X*
  double weight = 1.0;
  std::vector<IndexId> indexes_used;  ///< X* members its plan uses
  double Improvement() const {
    return cost_before > 0 ? 1.0 - cost_after / cost_before : 0.0;
  }
};

/// Per-index usage summary.
struct IndexImpact {
  IndexId index = kInvalidIndex;
  double size_bytes = 0;
  int statements_served = 0;          ///< plans that use it under X*
  double weighted_benefit = 0;        ///< Σ f_q (before − after) share
  double update_penalty = 0;          ///< Σ f_q ucost(a, q)
};

/// The full report.
struct TuningReport {
  double total_before = 0;  ///< Σ f_q cost(q, X0)
  double total_after = 0;   ///< Σ f_q cost(q, X*) incl. maintenance
  double storage_bytes = 0;
  std::vector<StatementImpact> statements;  ///< sorted by absolute gain
  std::vector<IndexImpact> indexes;         ///< sorted by benefit
};

/// Computes the report from a finished tuning session. Uses only INUM
/// lookups (no what-if calls).
TuningReport AnalyzeRecommendation(const Inum& inum,
                                   const Recommendation& rec);

/// Renders the report as a fixed-width text block. `top_k` bounds the
/// number of statements/indexes listed (≤ 0 = all).
std::string RenderTuningReport(const TuningReport& report, const Inum& inum,
                               int top_k = 10);

/// Solver work accounting: what the LP layer actually did — pivots and
/// warm-start hits, not just wall time. Benchmarks snapshot the global
/// counters around a run and report the delta next to the timings.
struct SolverActivity {
  lp::SolverCounters lp;            ///< revised-simplex pivot/pricing work
  int64_t mip_nodes = 0;            ///< optional: branch-and-bound nodes
  int64_t bound_evaluations = 0;    ///< optional: structured-solver bounds
  /// Optional (filled from a Recommendation/ChoiceSolution): presolve
  /// reductions and the two root bounds side by side. Rendered only
  /// when present.
  lp::PresolveStats presolve;
  double root_lp_bound = -lp::kInf;
  double root_lagrangian_bound = -lp::kInf;
  int64_t variables_fixed = 0;      ///< z pinned by reduced-cost fixing
  /// Optional: the root LP's own simplex/factorization work (filled
  /// from ChoiceSolution::root_lp_stats / Recommendation::root_lp_stats).
  lp::LpSolveStats root_lp_stats;
  /// Optional: the root gate (volume iterations, LP skipped or
  /// escalated). Rendered when the dual ran or the LP was escalated.
  lp::RootBoundStats root_bound;
  /// Optional degraded-mode accounting (filled from a sharded session's
  /// Recommendation). Rendered only when shards were quarantined.
  double coverage = 1.0;
  int shards_quarantined = 0;
};

/// Snapshot of the process-wide LP counters (pair with
/// SolverActivitySince to attribute work to a run).
SolverActivity CaptureSolverActivity();
/// Delta of the global LP counters against an earlier snapshot.
SolverActivity SolverActivitySince(const SolverActivity& snapshot);

/// Renders the activity as a short fixed-width block, e.g. for the
/// benchmark tables: pivots split by phase, bound flips, warm/cold
/// starts, and pivots-per-solve.
std::string RenderSolverActivity(const SolverActivity& activity);

/// Renders the preparation-stage accounting (compression ratio, INUM
/// threads, cache sharing, stage timings) — the pipeline counterpart of
/// RenderSolverActivity.
std::string RenderPrepareStats(const PrepareStats& stats);

}  // namespace cophy

#endif  // COPHY_CORE_REPORT_H_
