// BIP presolve for the structured ChoiceProblem (the paper's §5 story:
// the Theorem-1 program stays tractable because it can be *shrunk*
// before it is solved). Four exact reductions:
//
//  1. slot-option pruning — options sorted after a slot's base option
//     (the base path is always available and no more expensive) and
//     shadowed duplicate indexes within a slot can never be chosen;
//  2. plan dedup — plans with bit-identical slot structures collapse to
//     the cheapest beta (identical atomic configurations across plans);
//  3. dominated-plan elimination — a plan whose best case is no better
//     than another plan's worst case, and (for requirement-style plans,
//     the ILP per-configuration form) a plan whose index requirements
//     are a superset of a no-more-expensive plan's, can never win the
//     per-query min;
//  4. index dropping — an index that appears in no strictly-improving
//     surviving option and is not needed by any >=/= constraint can be
//     fixed to 0 and removed.
//
// Every rule preserves QueryCost/Objective/Feasible for *every*
// selection over the kept indexes, so the reduced problem's optimum
// re-inflates exactly (PresolvedChoiceProblem::Inflate). The per-query
// scans run on a common/thread_pool with bit-identical output across
// thread counts (each query writes only its own result slot).
#ifndef COPHY_LP_PRESOLVE_H_
#define COPHY_LP_PRESOLVE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "lp/choice_problem.h"
#include "lp/simplex.h"

namespace cophy {
class ThreadPool;
}

namespace cophy::lp {

/// Reduction accounting, reported next to the solver counters.
struct PresolveStats {
  int64_t queries = 0;
  int64_t plans_in = 0;
  int64_t plans_out = 0;
  int64_t duplicate_plans = 0;  ///< exact-duplicate merges (rule 2)
  int64_t dominated_plans = 0;  ///< dominance eliminations (rules 2+3)
  int64_t options_in = 0;       ///< (plan, slot, option) entries before
  int64_t options_out = 0;
  int64_t indexes_in = 0;
  int64_t indexes_out = 0;
  double seconds = 0;

  int64_t PlansRemoved() const { return plans_in - plans_out; }
  int64_t OptionsRemoved() const { return options_in - options_out; }
  int64_t IndexesRemoved() const { return indexes_in - indexes_out; }
  bool AnyReduction() const {
    return PlansRemoved() > 0 || OptionsRemoved() > 0 || IndexesRemoved() > 0;
  }
};

/// The reduced problem plus the exact re-inflation map.
struct PresolvedChoiceProblem {
  ChoiceProblem problem;
  /// kept_indexes[new_dense_id] = original dense id.
  std::vector<int> kept_indexes;
  int original_num_indexes = 0;
  PresolveStats stats;

  /// Maps a selection over the reduced index space back to the original
  /// space (dropped indexes are never selected — rule 4 guarantees an
  /// optimal solution exists with them at 0).
  std::vector<uint8_t> Inflate(const std::vector<uint8_t>& reduced) const;
  /// Projects an original-space selection (e.g. a warm start) onto the
  /// reduced space.
  std::vector<uint8_t> Restrict(const std::vector<uint8_t>& original) const;
};

/// Runs the presolve pass. `pool` parallelizes the per-query
/// dedup/dominance scans (nullptr = inline); the output is bit-identical
/// for any thread count.
PresolvedChoiceProblem PresolveChoiceProblem(const ChoiceProblem& p,
                                             cophy::ThreadPool* pool = nullptr);

/// Digest of everything the presolve reductions and the solver's
/// structural state depend on: query/plan/slot/option shape with exact
/// β/γ bit patterns, index count, and z-row structure (terms + sense).
/// Deliberately EXCLUDED: query weights, fixed costs, the objective
/// constant, cost caps, storage budget, index sizes, and z-row
/// right-hand sides — none of them drive a reduction decision, so a
/// re-weighted or re-budgeted delta re-tune keeps its digest and stays
/// on the warm path.
uint64_t ChoiceStructureDigest(const ChoiceProblem& p);

/// Re-applies a previously computed reduction map to a problem with the
/// same structure digest but possibly different weight-style data: the
/// reduced problem is copied from `prior` and its weight-dependent
/// coefficients (query weights, caps, fixed costs, sizes, budget,
/// constant, z-row right-hand sides) are re-extracted from `p`. Exact:
/// identical to running PresolveChoiceProblem(p) from scratch, at a
/// fraction of the cost (the per-query dedup/dominance scans are
/// skipped).
PresolvedChoiceProblem ReapplyPresolve(const PresolvedChoiceProblem& prior,
                                       const ChoiceProblem& p);

/// Cross-solve reuse state for interactive delta re-tuning (§4.2): one
/// state object accompanies a logical tuning session. When the new
/// problem's structure digest matches the previous solve's,
/// SolveChoiceProblem seeds the solve with
///  * the retained presolve reductions, re-applied through the
///    reduction map (ReapplyPresolve) instead of re-scanned;
///  * the previous incumbent (original index space), repaired through
///    the map into a warm-start offer;
///  * the last root-LP basis (warm simplex start; kept across solves
///    that skip the LP while the digest holds) and the exit Lagrangian
///    multipliers/storage dual (volume seed).
/// On a digest mismatch the solve runs cold; either way the state is
/// overwritten with the finished solve's data.
struct ChoiceResolveState {
  bool valid = false;
  uint64_t structure_digest = 0;
  bool presolve_enabled = false;  ///< space μ/basis live in (reduced?)
  std::vector<uint8_t> selected;  ///< incumbent, original index space
  std::vector<double> mu;         ///< multipliers at exit (solver space)
  double lambda = 0.0;
  LpBasis root_basis;             ///< last root-LP basis (solver space)
  std::shared_ptr<const PresolvedChoiceProblem> presolved;
  int64_t solves = 0;             ///< solves recorded into this state
  int64_t warm_reuses = 0;        ///< solves that accepted the seeds
};

/// Presolve + solve + re-inflate: the entry point the advisors use.
/// Honors `options.presolve` (off = solve `p` directly); warm starts are
/// given in the original index space and projected automatically.
/// `stats`, if non-null, receives the reduction accounting.
ChoiceSolution SolveChoiceProblem(const ChoiceProblem& p,
                                  const ChoiceSolveOptions& options = {},
                                  PresolveStats* stats = nullptr,
                                  cophy::ThreadPool* pool = nullptr);

}  // namespace cophy::lp

#endif  // COPHY_LP_PRESOLVE_H_
