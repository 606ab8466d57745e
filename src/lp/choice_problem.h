// The structured BIP core shared by CoPhy's Theorem-1 formulation and
// the ILP baseline's per-configuration formulation.
//
// Both programs have the shape: every query picks exactly one plan
// alternative (y_qk = 1); each plan fills its slots with one access
// option each (x_qkia); selecting a non-base option requires activating
// its index (z_a >= x_qkia); index activation carries a fixed objective
// term (update cost) plus resource footprints (storage, arbitrary
// linear z-constraints). The solver below is a best-first
// branch-and-bound on the z variables whose node bounds combine an
// optimistic-completion bound with a Lagrangian-relaxation bound
// (on the linking and storage constraints — the paper's relax(B) step),
// and which exposes anytime incumbents, gap feedback, early
// termination, and warm starts. The root bound comes from the volume
// algorithm on the Lagrangian dual; the root LP runs only when that
// cannot prove the gap (RootLpMode).
#ifndef COPHY_LP_CHOICE_PROBLEM_H_
#define COPHY_LP_CHOICE_PROBLEM_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "lp/branch_and_bound.h"
#include "lp/model.h"

namespace cophy::lp {

struct ChoiceResolveState;  // presolve.h: cross-solve delta-reuse state

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One access option of a slot. `index` is a solver-local dense index
/// id, or kBaseOption for the always-available base path (I∅).
inline constexpr int kBaseOption = -1;
struct ChoiceOption {
  int index = kBaseOption;
  double gamma = 0.0;
};

/// A slot: options sorted ascending by gamma. A slot without a base
/// option is satisfiable only if one of its indexes is selected (the
/// ILP formulation uses this to encode "configuration requires index").
struct ChoiceSlot {
  std::vector<ChoiceOption> options;
};

/// One plan alternative (a template plan, or one atomic configuration
/// in the ILP formulation).
struct ChoicePlan {
  double beta = 0.0;
  std::vector<ChoiceSlot> slots;
};

/// Per-query structure. The query's cost under selection S is
///   min_plans [ beta + sum_slots min_{option available in S} gamma ].
struct ChoiceQuery {
  double weight = 1.0;
  std::vector<ChoicePlan> plans;
  /// Optional per-query cost cap (query-cost constraints, §E.2);
  /// the weightless cost min(...) must be <= cost_cap.
  double cost_cap = kInf;
};

/// A linear constraint over the z (index-selection) variables.
struct ZRow {
  std::vector<std::pair<int, double>> terms;  // (dense index id, coef)
  Sense sense = Sense::kLe;
  double rhs = 0.0;
  std::string name;
};

/// The full structured problem.
struct ChoiceProblem {
  int num_indexes = 0;
  std::vector<double> fixed_cost;  ///< per-index objective term (>= 0)
  std::vector<double> size;        ///< per-index storage footprint
  double storage_budget = kInf;    ///< sum(size[z=1]) <= budget
  std::vector<ZRow> z_rows;        ///< additional linear z constraints
  std::vector<ChoiceQuery> queries;
  double constant_cost = 0.0;      ///< e.g. base-table update costs

  /// Cost of query q (unweighted) under a 0/1 selection; kInf if no
  /// plan is satisfiable.
  double QueryCost(int q, const std::vector<uint8_t>& selected) const;
  /// Full objective (weighted query costs + fixed costs + constant);
  /// kInf if any query is unsatisfiable.
  double Objective(const std::vector<uint8_t>& selected) const;
  /// Do storage budget, z_rows, and query caps hold under `selected`?
  bool Feasible(const std::vector<uint8_t>& selected) const;
  /// Total number of (plan, slot, option) entries — the x-variable
  /// count of the underlying BIP.
  int64_t NumOptionEntries() const;
};

/// When the solver runs the root LP relaxation.
///  kOff          never: the Lagrangian dual is the only root bound.
///  kWhenUnproven the default: the volume algorithm first; the LP runs
///                only when the dual cannot prove the gap gate below.
///  kAlways       always, before the dual (the pre-volume behaviour; LP
///                tests and the bound ablation use it).
enum class RootLpMode { kOff, kWhenUnproven, kAlways };

/// Solve options (mirrors MipOptions; defaults match the paper's
/// experimental setup: stop at the first solution within 5% of optimal).
///
/// The root, in order: the greedy incumbent (and `warm_start`); the
/// volume algorithm on the Lagrangian dual, started from `mu_seed` /
/// `lambda_seed` when given, which stops once its bound proves
/// 0.9 × gap_target against the incumbent, when `lagrangian_iterations`
/// run out, or once its recent progress shows the proof is out of
/// reach; then the gate — under kWhenUnproven the root LP runs only if
/// the dual bound does not prove gap_target, and its duals re-seed μ/λ.
struct ChoiceSolveOptions {
  double gap_target = 0.05;
  double time_limit_seconds = kInf;
  int64_t node_limit = 50'000;
  std::function<bool(const MipProgress&)> callback;
  /// Warm start: previous selection (dense ids). Used for interactive
  /// re-tuning and Pareto sweeps.
  std::vector<uint8_t> warm_start;
  /// Use the Lagrangian-relaxation root bound (ablation knob).
  bool lagrangian = true;
  /// Iteration cap of the volume algorithm at the root.
  int lagrangian_iterations = 1500;
  /// Presolve the problem before solving. Consumed by
  /// SolveChoiceProblem (lp/presolve.h); ChoiceSolver itself always
  /// solves exactly the problem it was given.
  bool presolve = true;
  /// The full root LP relaxation, solved with the sparse revised
  /// simplex: its optimum is the tightest bound this relaxation family
  /// offers, its duals re-seed the Lagrangian multipliers, and its
  /// reduced costs drive variable fixing. See RootLpMode for when it
  /// runs.
  RootLpMode root_lp = RootLpMode::kWhenUnproven;
  /// Skip the root LP above this row count. With the sparse-LU basis
  /// factorization (lp/lu_factor.h) the simplex costs O(factor nnz) per
  /// pivot, so this is a wall-clock guard for pathological instances,
  /// not a memory wall: sharded-session root LPs in the tens of
  /// thousands of rows solve exactly. (The Lagrangian bound and its
  /// reduced-cost fixing still run at any size.)
  int64_t root_lp_max_rows = 50'000;
  /// Permanently fix z variables whose reduced cost — from the root LP
  /// basis or from the Lagrangian z-subproblem coefficients at the best
  /// multipliers — proves the opposite bound can never beat the
  /// incumbent (re-applied as the incumbent drops).
  bool reduced_cost_fixing = true;
  /// Cross-solve reuse state for warm-started delta re-solves (see
  /// presolve.h). Consumed and refreshed by SolveChoiceProblem;
  /// ChoiceSolver itself ignores it and reads the low-level seeds below.
  ChoiceResolveState* resolve = nullptr;
  /// Optional precomputed ChoiceStructureDigest of the problem being
  /// solved (0 = unknown): callers that already hashed the problem
  /// (e.g. to pick solve knobs) save SolveChoiceProblem the O(problem)
  /// re-walk. Must be the digest of exactly this problem.
  uint64_t structure_digest_hint = 0;
  /// Low-level delta-re-solve seeds in the solver's own (possibly
  /// presolve-reduced) space; SolveChoiceProblem fills them from a
  /// valid resolve state. mu_seed/lambda_seed start the volume
  /// algorithm (any μ >= 0, λ >= 0 is a valid dual point for a
  /// re-weighted problem, so the dual continues instead of starting
  /// cold); root_basis_seed warm-starts the root LP simplex (silently
  /// ignored when structurally incompatible).
  const std::vector<double>* mu_seed = nullptr;
  double lambda_seed = 0.0;
  const LpBasis* root_basis_seed = nullptr;
};

/// How a solve bounded its root: the volume algorithm's work and the
/// gate's verdict.
struct RootBoundStats {
  RootLpMode mode = RootLpMode::kWhenUnproven;
  int64_t dual_iterations = 0;  ///< volume iterations at the root
  /// The gap the dual proved against the incumbent when it stopped
  /// (kInf: no incumbent or no dual), and the gate's limit (gap_target).
  double dual_gap = kInf;
  double gate_gap = 0.0;
  bool dual_proven = false;  ///< dual_gap <= gate_gap: the LP is not needed
  bool lp_escalated = false; ///< kWhenUnproven ran the LP
};

/// Solve result.
struct ChoiceSolution {
  Status status;
  std::vector<uint8_t> selected;
  double objective = kInf;
  double lower_bound = -kInf;
  double gap = kInf;
  int64_t nodes = 0;
  int64_t bound_evaluations = 0;  ///< NodeBound/Lagrangian bound calls
  double root_lagrangian_bound = -kInf;
  double root_lp_bound = -kInf;  ///< objective of the root LP relaxation
  int64_t root_lp_rows = 0;      ///< rows of the root LP (0: skipped)
  /// Simplex work behind the root LP bound: pivots, warm-start
  /// acceptance, and the basis-factorization counters
  /// (refactorizations, eta fill, drift, FTRAN/BTRAN time).
  LpSolveStats root_lp_stats;
  int64_t variables_fixed = 0;   ///< z fixed 0/1 by reduced costs
  RootBoundStats root_bound;
  /// Exit state for delta re-solves (solver space): the Lagrangian
  /// multipliers/storage dual at return and the root-LP basis (empty
  /// when the LP was skipped). SolveChoiceProblem copies these into the
  /// caller's ChoiceResolveState. They are the certificate of
  /// root_lagrangian_bound, which equals L(mu_exit, lambda_exit): μ is
  /// indexed by (query, index) pair in first-touch order (queries in
  /// order; within a query, plans, slots and options in order), and λ
  /// is in normalized budget units (it prices size / max(1, budget)).
  std::vector<double> mu_exit;
  double lambda_exit = 0.0;
  LpBasis root_basis;
  /// True when the solve consumed a valid resolve state (presolve map
  /// re-applied, incumbent/dual/basis seeds offered).
  bool reused_state = false;
};

/// The structured branch-and-bound solver.
class ChoiceSolver {
 public:
  explicit ChoiceSolver(const ChoiceProblem* problem);

  /// Quick feasibility probe (interval propagation on z constraints and
  /// best-case query costs vs caps).
  Status CheckFeasible() const;

  ChoiceSolution Solve(const ChoiceSolveOptions& options = {});

  /// Test/diagnostic hooks: the two node bounds for an explicit fixing
  /// vector (-1 free, 0 excluded, 1 selected). Valid bounds never
  /// exceed the optimum of any completion consistent with `fixed`.
  double DebugNodeBound(const std::vector<int8_t>& fixed) const {
    return NodeBound(fixed, nullptr);
  }
  double DebugLagrangianBound(const std::vector<int8_t>& fixed) const {
    return LagrangianNodeBound(fixed);
  }
  /// Runs the root dual optimization with no stopping target (test
  /// hook); returns the best dual bound.
  double DebugOptimizeLagrangian(double upper_bound, int iterations) {
    return OptimizeLagrangian({upper_bound, -1.0, -1.0}, iterations).bound;
  }

  /// Test hook: materializes the root LP relaxation (z variables first)
  /// and returns its row count, or -1 when the estimate exceeds
  /// `max_rows`.
  int64_t DebugBuildRootLp(Model* model, int64_t max_rows) const {
    RootLpLayout layout;
    return BuildRootLp(model, &layout, max_rows) ? model->num_rows() : -1;
  }

 private:
  /// Bookkeeping of the root LP's rows: which row carries each μ slot's
  /// aggregated link constraint (its dual is that multiplier's seed) and
  /// where the storage row landed (for the λ seed). -1: no row (the μ
  /// slot's entries were all pruned).
  struct RootLpLayout {
    int storage_row = -1;
    std::vector<int32_t> mu_link_row;
  };
  /// When OptimizeLagrangian stops early: once its bound proves
  /// `proof_gap` against `upper_bound` (proof_gap < 0: never), and, with
  /// give_up_gap >= 0, once its recent progress cannot reach the next
  /// level in the iterations left — give_up_gap while that is unproven,
  /// then proof_gap. `upper_bound` also sets the step length.
  struct DualStop {
    double upper_bound = kInf;
    double proof_gap = -1.0;
    double give_up_gap = -1.0;
  };
  struct DualRun {
    double bound = -kInf;   ///< L at the best multipliers (now mu_/lambda_)
    int64_t iterations = 0; ///< evaluations of L, the first included
  };
  /// A minimizer of the Lagrangian subproblem: the μ slots whose
  /// aggregated x_{q,a} is 1, the z choice, and its storage Σ σ_a z_a.
  struct LagrangianPoint {
    std::vector<int32_t> chosen;
    std::vector<uint8_t> z;
    double storage = 0.0;
  };

  /// Optimistic completion bound for the current fixings. Also gathers
  /// branching scores.
  double NodeBound(const std::vector<int8_t>& fixed,
                   std::vector<double>* branch_score) const;
  /// The one Lagrangian evaluator, shared by the root dual and the node
  /// bounds: L(μ, λ) with options of excluded indexes (fixed == 0)
  /// unavailable and fixed z priced at their value; kInf when a query
  /// has no plan left. `mu_sum[a]` must be Σ_q μ_{q,a}. With `point`,
  /// also records the minimizer (into its reserved buffers).
  double EvaluateLagrangian(const std::vector<double>& mu,
                            const std::vector<double>& mu_sum, double lambda,
                            const std::vector<int8_t>& fixed,
                            LagrangianPoint* point) const;
  /// L at the current multipliers (-inf before any are set).
  double LagrangianNodeBound(const std::vector<int8_t>& fixed) const;
  /// Greedy benefit/size dive producing a feasible incumbent; returns
  /// false if no feasible completion was found.
  bool GreedyIncumbent(const std::vector<int8_t>& fixed,
                       std::vector<uint8_t>& out) const;
  /// Volume algorithm (Barahona & Anbil 2000) on the Lagrangian dual at
  /// the root, under the forced z of forced_: starts from mu_/lambda_
  /// when set (resolve seed or LP duals), else from zero, and leaves the
  /// best multipliers there. `iterations` caps the evaluations of L; 1
  /// just evaluates the current multipliers.
  DualRun OptimizeLagrangian(const DualStop& stop, int iterations);
  /// Lagrangian heuristic: rounds the last dual run's primal average z̄
  /// into a selection and completes it with the greedy dive.
  bool RoundDualPrimal(std::vector<uint8_t>& out) const;
  /// Interval-based constraint pruning. Returns false if the fixings
  /// already violate a constraint.
  bool ConstraintsAdmissible(const std::vector<int8_t>& fixed) const;
  /// Emits the full root LP relaxation (Theorem-1 rows over the choice
  /// structure, z variables first) through the model's CSR streaming
  /// interface. False when the row estimate exceeds `max_rows`.
  bool BuildRootLp(Model* model, RootLpLayout* layout, int64_t max_rows) const;
  /// Seeds μ (per link-row duals, aggregated per (query, index)) and λ
  /// (storage-row dual, rescaled to normalized budget units) from an
  /// optimal root LP solution.
  void SeedLagrangianFromDuals(const LpSolution& lp, const RootLpLayout& layout);
  /// Normalized storage sizes (σ_a = size_a / M).
  void EnsureSigma();
  /// Fixes free z variables whose reduced cost proves that every
  /// solution on the other bound costs at least `upper_bound`; returns
  /// how many were newly fixed into root_fix_. Two proof sources: the
  /// root LP basis (bound + |d_a|) and the Lagrangian z-subproblem
  /// (bound + |coef_a|, exact because z separates additively).
  int ApplyReducedCostFixing(double upper_bound);

  const ChoiceProblem* p_;
  // Inverted list: dense index id -> queries whose plans reference it.
  std::vector<std::vector<int>> queries_of_index_;
  // Finest inverted list: for each dense index id, every (query, plan,
  // slot) position whose options include it, plus that option's γ.
  // Ordered (query, plan, slot) ascending, one entry per slot — the
  // first (γ-cheapest, options are γ-sorted) occurrence wins.
  // Selecting an index can only change the cost of the slots that
  // contain it, which lets the greedy incumbent maintain per-slot
  // chosen costs incrementally and price a candidate in O(refs)
  // instead of rescanning every plan of every touched query.
  struct SlotRef {
    int32_t query, plan, slot;  // plan/slot are positions within parent
    double gamma;
  };
  std::vector<std::vector<SlotRef>> slot_refs_of_index_;
  // Flat plan/slot numbering for the incremental pricing state:
  // plan_id = plan_start_[q] + plan_pos, slot_id = slot_start_[plan_id]
  // + slot_pos; both carry an end sentinel (total count in .back()).
  std::vector<int32_t> plan_start_;
  std::vector<int32_t> slot_start_;
  // Inverse of queries_of_index_: query -> distinct dense index ids its
  // plans reference. A candidate's greedy benefit depends only on its
  // own queries' cached costs, so after a drop/add only the moved
  // index's query-neighbourhood (union of these lists) needs
  // re-pricing.
  std::vector<std::vector<int32_t>> indexes_of_query_;

  // CSR copy of p_->z_rows (flat index/coefficient arrays) for the hot
  // admissibility scans — same layout idea as lp::Model's row storage.
  std::vector<int32_t> zrow_start_;
  std::vector<int32_t> zrow_idx_;
  std::vector<double> zrow_coef_;

  // Flat copy of the option structure for the Lagrangian evaluator,
  // in canonical (query, plan, slot, option) order: slot slot_id owns
  // options opt_start_[slot_id] .. opt_start_[slot_id + 1]; each option
  // carries its weighted γ and its μ slot (-1: the base option); each
  // plan its weighted β.
  std::vector<double> plan_wbeta_;
  std::vector<int32_t> opt_start_;
  std::vector<double> opt_wgamma_;
  std::vector<int32_t> opt_mu_;
  // z values forced by single-index equality rows (DBA accept/veto
  // verdicts), -1 elsewhere. Every node inherits them through
  // root_fix_, and the Lagrangian fixes them instead of relaxing the
  // rows.
  std::vector<int8_t> forced_;

  // Lagrangian state. Multipliers are aggregated per (query, index) —
  // exact for this structure because a query's chosen plan uses an
  // index in at most one slot — which keeps the dual space small and
  // subgradient components in [-1, +1].
  // mu_owner_index_: per μ-slot owning index.
  std::vector<int32_t> mu_owner_index_;
  std::vector<double> mu_;
  std::vector<double> mu_sum_;  // per index: Σ_q μ_{q,a}
  // Storage sizes normalized to budget units (σ_a = size_a / M), so the
  // storage dual λ lives in objective units.
  std::vector<double> sigma_;
  double lambda_ = 0.0;
  bool mu_ready_ = false;
  // The last dual run's primal average of z (empty before any run).
  std::vector<double> zbar_;

  // Root-LP state for reduced-cost fixing (valid while rc_status_ is
  // non-empty): per-z basis status and reduced cost at the LP optimum,
  // the LP bound itself, and the permanent 0/1 fixings every node
  // inherits (-1 = free).
  std::vector<VarStatus> rc_status_;
  std::vector<double> rc_d_;
  double root_lp_bound_ = -kInf;
  std::vector<int8_t> root_fix_;
  // Lagrangian fixing data: z-subproblem reduced coefficients
  // fixed_cost + λσ − Σμ at the best multipliers, and the dual bound
  // they certify (flipping z_a off its unconstrained minimizer costs
  // at least |lag_coef_[a]| on top of lag_bound_).
  std::vector<double> lag_coef_;
  double lag_bound_ = -kInf;

  // Scratch for NodeBound's attributed penalties (single-threaded).
  mutable std::vector<double> scratch_penalty_;
};

}  // namespace cophy::lp

#endif  // COPHY_LP_CHOICE_PROBLEM_H_
