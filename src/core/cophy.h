// The CoPhy index advisor (§4, Fig. 2): CGen + INUM + BIPGen + Solver,
// with the paper's distinguishing features — hard & soft constraints,
// continuous solution-quality feedback with early termination,
// interactive (warm-started) re-tuning, and Pareto exploration of soft
// constraints via the Chord algorithm.
#ifndef COPHY_CORE_COPHY_H_
#define COPHY_CORE_COPHY_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "constraints/constraints.h"
#include "core/bipgen.h"
#include "core/drift.h"
#include "core/prepared.h"
#include "index/candidates.h"
#include "inum/inum.h"
#include "lp/choice_problem.h"
#include "lp/presolve.h"

namespace cophy {

/// Tuning-session knobs.
struct CoPhyOptions {
  /// Preparation stage: compression, CGen, INUM threading.
  PrepareOptions prepare;
  /// Stop at the first solution provably within this fraction of the
  /// optimum (paper default 5%).
  double gap_target = 0.05;
  double time_limit_seconds = lp::kInf;
  int64_t node_limit = 50'000;
  /// Apply the Lagrangian relaxation step (§4.1 line 3).
  bool lagrangian = true;
  /// Presolve the BIP before solving (plan dedup/dominance, option
  /// pruning, index dropping — §5's shrinking story). Exact: identical
  /// objectives and re-inflated recommendations either way.
  bool presolve = true;
  /// When to solve the full root LP relaxation (tight root bound,
  /// dual-seeded Lagrangian multipliers, reduced-cost variable fixing):
  /// by default only when the volume dual cannot prove the gap.
  lp::RootLpMode root_lp = lp::RootLpMode::kWhenUnproven;
  /// Progress feedback; return false to terminate early with the
  /// current solution (§4.2).
  std::function<bool(const lp::MipProgress&)> callback;
};

/// Timing breakdown matching the paper's stacked bars (Figs. 5/10).
/// `inum_seconds` covers the whole preparation stage (compression +
/// CGen + INUM); the finer split lives in Recommendation::prepare.
struct TuningTimings {
  double inum_seconds = 0;   ///< preparation (Compress + CGen + INUM)
  double build_seconds = 0;  ///< BIP generation
  double solve_seconds = 0;  ///< solver time
  double Total() const { return inum_seconds + build_seconds + solve_seconds; }
  /// Aggregates another breakdown (per-batch or per-shard accounting).
  TuningTimings& operator+=(const TuningTimings& o) {
    inum_seconds += o.inum_seconds;
    build_seconds += o.build_seconds;
    solve_seconds += o.solve_seconds;
    return *this;
  }
};

/// Per-shard health snapshot carried by a sharded session's
/// recommendation (empty for the unsharded CoPhy advisor).
struct ShardHealth {
  int shard = 0;
  bool healthy = true;           ///< the shard's last Prepare succeeded
  int classes = 0;               ///< live cost-equivalence classes routed here
  int statements = 0;            ///< live original statements behind them
  int consecutive_failures = 0;  ///< Prepare failures since the last success
  Status status;                 ///< last Prepare outcome (OK when healthy)
};

/// A tuning outcome.
struct Recommendation {
  Status status;
  Configuration configuration;     ///< X* (pool index ids)
  double objective = 0;            ///< BIP objective (est. workload cost)
  double lower_bound = 0;
  double gap = 0;                  ///< proven optimality gap at return
  int64_t nodes = 0;
  int64_t bound_evaluations = 0;   ///< solver bound computations (work proxy)
  /// Root bounds: the full LP relaxation optimum and the Lagrangian
  /// dual after the volume algorithm (-inf when skipped/disabled).
  double root_lp_bound = -lp::kInf;
  double root_lagrangian_bound = -lp::kInf;
  /// The root gate: volume iterations, and whether the LP was skipped
  /// or escalated (and at which gap).
  lp::RootBoundStats root_bound;
  int64_t variables_fixed = 0;     ///< z fixed 0/1 by root reduced costs
  /// Simplex work behind the root LP bound (pivots, warm-start
  /// acceptance, LU refactorizations / eta fill / drift / solve time).
  lp::LpSolveStats root_lp_stats;
  /// BIP presolve reduction accounting for this solve.
  lp::PresolveStats presolve;
  TuningTimings timings;
  BipStats bip;
  int num_candidates = 0;
  /// Preparation-stage accounting (compression ratio, thread count,
  /// stage timings) for the session that produced this recommendation.
  PrepareStats prepare;
  /// Degraded-mode accounting. `coverage` is the fraction of live
  /// statement weight the recommendation actually optimized: 1.0
  /// normally, < 1.0 when quarantined shards were excluded. `degraded`
  /// is set when coverage < 1 or any what-if answer came from a
  /// last-known cache. `shard_health` has one entry per session shard
  /// (empty for the unsharded advisor).
  double coverage = 1.0;
  bool degraded = false;
  std::vector<ShardHealth> shard_health;
  /// Hysteresis-stabilized materialize/drop decision of a drift-aware
  /// session (core/drift.h): `materialization.applied` is the stable
  /// configuration the DBA should hold, `configuration` above the raw
  /// solver recommendation of this retune. With the default hysteresis
  /// windows (1/1) the two are identical; empty for one-shot advisors.
  MaterializationDecision materialization;
};

/// One point of a Pareto sweep over a soft constraint.
struct ParetoPoint {
  double lambda = 0;
  Configuration configuration;
  double workload_cost = 0;  ///< Σ f_q cost(q, X) (INUM estimate)
  double soft_value = 0;     ///< Σ w_a for the selected set (e.g. bytes)
  double seconds = 0;        ///< time to produce this point
};

/// The advisor. Typical use:
///   CoPhy advisor(&sim, workload, options);
///   advisor.Prepare();                    // CGen + INUM
///   auto rec = advisor.Tune(constraints); // solve the BIP
///   advisor.AddCandidates(more);          // interactive tweak
///   auto rec2 = advisor.Retune(constraints);  // warm-started delta solve
class CoPhy {
 public:
  /// `pool` must be the pool the what-if backend reads (CGen inserts
  /// the generated candidates into it). `whatif` may be the raw
  /// simulator or any decorator stack (ResilientWhatIf over a fault
  /// injector, etc.) — the advisor only ever talks to this boundary.
  CoPhy(WhatIfOptimizer* whatif, IndexPool* pool, Workload workload,
        CoPhyOptions options = {});

  /// Runs CGen over the workload (plus S_DBA) and builds the INUM
  /// caches. Must be called before tuning.
  Status Prepare(const std::vector<Index>& dba_indexes = {});

  /// Uses an explicit candidate set instead of CGen (the ids must be in
  /// the backend's pool).
  Status PrepareWithCandidates(std::vector<IndexId> candidate_ids);

  /// Restricts tuning to a subset of the prepared candidates (INUM
  /// caches are reused; used by the candidate-set scaling experiments).
  Status RestrictCandidates(std::vector<IndexId> subset);

  /// Adds candidates incrementally; only their γ entries are computed.
  Status AddCandidates(const std::vector<IndexId>& new_ids);

  /// Solves the tuning BIP under the given constraints.
  Recommendation Tune(const ConstraintSet& constraints);

  /// Re-solves after small changes, warm-starting from the previous
  /// solution (§4.2 "Interactive Tuning").
  Recommendation Retune(const ConstraintSet& constraints);

  /// Pareto sweep for a single soft constraint at fixed λ values
  /// (Fig. 6(c) uses λ ∈ {0, .25, .5, .75, 1}). Hard constraints in
  /// `constraints` still apply. Points are solved in order with warm
  /// starts.
  std::vector<ParetoPoint> TuneSoftGrid(const ConstraintSet& constraints,
                                        const std::vector<double>& lambdas);

  /// Chord-algorithm Pareto approximation (Appendix D): adaptively
  /// chooses λ values until the curve is within `epsilon` (relative
  /// objective-space distance) or `max_points` solutions were produced.
  std::vector<ParetoPoint> TuneSoftChord(const ConstraintSet& constraints,
                                         double epsilon = 0.05,
                                         int max_points = 16);

  const Inum& inum() const { return prepared_.inum(); }
  /// The shared preparation stage (compressed view, mapping, stats).
  const PreparedWorkload& prepared() const { return prepared_; }
  /// The active candidate set tuning runs over (a subset of the
  /// prepared candidates after RestrictCandidates).
  const std::vector<IndexId>& candidates() const { return candidates_; }
  double prepare_seconds() const { return prepare_seconds_; }

 private:
  Recommendation TuneInternal(const ConstraintSet& constraints,
                              bool warm_start);
  /// Solves one λ-scalarized instance (shared by both Pareto modes).
  ParetoPoint SolveScalarized(const ConstraintSet& constraints,
                              const SoftConstraint& soft, double lambda,
                              std::vector<uint8_t>* warm);
  std::vector<double> BaselineShellCosts(const ConstraintSet& constraints);
  /// Worker pool for the presolve scans: prepare.workers, or one sized
  /// like the INUM stage (prepare.num_threads; nullptr = inline), lazily
  /// created and reused across Tune/Retune/Pareto solves.
  ThreadPool* PresolvePool();

  WhatIfOptimizer* whatif_;
  IndexPool* pool_;
  Workload workload_;
  CoPhyOptions options_;
  PreparedWorkload prepared_;
  std::vector<IndexId> candidates_;
  double prepare_seconds_ = 0;
  std::vector<uint8_t> last_selection_;  // dense, for warm starts
  std::unique_ptr<ThreadPool> presolve_pool_;  // lazily created
};

}  // namespace cophy

#endif  // COPHY_CORE_COPHY_H_
