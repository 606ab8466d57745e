// The what-if optimizer interface (§2): the only DBMS-facing surface in
// the whole system. CoPhy, INUM, and every baseline advisor consume the
// DBMS exclusively through this interface, which is what makes the
// advisor portable across systems (CoPhyA / CoPhyB).
//
// Every costing entry point is fallible: a real backend (a planner-hook
// what-if interface over a live server) times out, hits resource limits,
// and throws transient errors, so the boundary returns Result<...> and
// the pipeline above propagates Status instead of aborting. Decorators
// compose over this interface: FaultInjectingWhatIf (deterministic fault
// harness) and ResilientWhatIf (retry/backoff, circuit breaker, degraded
// answers) both wrap any WhatIfOptimizer.
#ifndef COPHY_OPTIMIZER_WHATIF_H_
#define COPHY_OPTIMIZER_WHATIF_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "index/index.h"
#include "optimizer/config.h"
#include "query/query.h"

namespace cophy {

/// An interesting order: a column sequence the slot's access path must
/// deliver. Empty = no order requirement.
using OrderSpec = std::vector<ColumnId>;

inline constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

/// The number of leading `key` columns that `q` binds with an equality
/// predicate: rows within that prefix all share one key value there.
inline int EqualityBoundPrefix(const Query& q,
                               const std::vector<ColumnId>& key) {
  int bound = 0;
  for (ColumnId c : key) {
    const bool eq = std::any_of(
        q.predicates.begin(), q.predicates.end(), [c](const Predicate& p) {
          return p.column == c && p.op == Predicate::Op::kEq;
        });
    if (!eq) break;
    ++bound;
  }
  return bound;
}

/// The order rule of AccessCost: an access path delivers its rows sorted
/// by its `key`, so it satisfies `order` iff `order` is a prefix of the
/// key, or of the key after its leading `bound_prefix` equality-bound
/// columns (EqualityBoundPrefix). Every backend's AccessCost returns
/// kInfiniteCost for a path that fails it, which lets INUM skip those
/// calls without changing a single γ entry.
inline bool OrderSatisfiedBy(const OrderSpec& order,
                             const std::vector<ColumnId>& key,
                             int bound_prefix) {
  if (order.empty()) return true;
  auto match_from = [&](size_t start) {
    if (start + order.size() > key.size()) return false;
    return std::equal(order.begin(), order.end(), key.begin() + start);
  };
  return match_from(0) || match_from(static_cast<size_t>(bound_prefix));
}

/// One template plan (INUM's TPlans(q) element, §2/Fig. 1): a choice of
/// interesting order per table slot plus the internal plan cost β of the
/// best physical plan given those leaf orders (leaf access excluded).
struct TemplatePlan {
  std::vector<OrderSpec> slot_orders;  ///< one per q.tables slot
  double internal_cost = 0.0;          ///< β_qk
};

/// Counters a fault-tolerant backend exposes about its own behaviour
/// (all zero for an always-healthy backend such as SystemSimulator).
/// Snapshot semantics: monotone counters since construction.
struct WhatIfHealth {
  int64_t retries = 0;            ///< extra attempts beyond the first
  int64_t failures = 0;           ///< calls that ultimately errored
  int64_t degraded = 0;           ///< calls served from last-known cost
  int64_t breaker_fast_fails = 0; ///< calls rejected by an open breaker
  int breaker_trips = 0;          ///< closed → open transitions
  bool breaker_open = false;      ///< breaker currently open
};

/// Abstract what-if optimizer. `Cost(q, X)` is the cost of the optimal
/// plan for q when exactly the hypothetical indexes in X (plus the
/// clustered PKs) exist; `UpdateCost(a, q)` is the paper's ucost(a, q).
///
/// The INUM preprocessing surface (EnumerateTemplates / AccessCost /
/// ShellCost / BaseUpdateCost) lives here too: INUM's Prepare talks to
/// the DBMS through these calls, so faults must be able to surface from
/// each of them. kInfiniteCost is a *value*, not an error — it means
/// "this access path cannot deliver that order".
class WhatIfOptimizer {
 public:
  virtual ~WhatIfOptimizer() = default;

  /// Full statement cost under configuration X. For UPDATE statements
  /// this includes the query-shell cost, the base-table maintenance
  /// cost, and the maintenance of every affected index in X.
  virtual Result<double> Cost(const Query& q, const Configuration& x) = 0;

  /// Maintenance cost of index `a` for update statement `q`
  /// (0 for SELECTs and unaffected indexes).
  virtual Result<double> UpdateCost(IndexId a, const Query& q) = 0;

  /// Enumerates TPlans(q): every slot-order combination with its β.
  /// This is INUM's preprocessing — each template costs one
  /// optimization, so the call advances the what-if counter by K_q.
  virtual Result<std::vector<TemplatePlan>> EnumerateTemplates(
      const Query& q) = 0;

  /// γ(q, slot, order, a): cost for access path `a` (kInvalidIndex = the
  /// base clustered-PK path I∅) to produce slot `slot`'s rows sorted by
  /// `order`; kInfiniteCost if the path cannot deliver that order —
  /// always when the path's key fails OrderSatisfiedBy.
  /// On a healthy backend this is a pure function of its arguments —
  /// that is what linear composability means operationally.
  virtual Result<double> AccessCost(const Query& q, int slot,
                                    const OrderSpec& order, IndexId a) = 0;

  /// Cost of q's *query shell* (for UPDATEs: the scan locating the
  /// tuples to update; for SELECTs: the query itself) under X.
  virtual Result<double> ShellCost(const Query& q, const Configuration& x) = 0;

  /// The constant base-table maintenance cost c_q of an update (0 for
  /// SELECTs); independent of the configuration.
  virtual Result<double> BaseUpdateCost(const Query& q) = 0;

  /// The per-slot interesting orders the optimizer considers for q
  /// (empty order first). Pure catalog metadata — infallible.
  virtual std::vector<std::vector<OrderSpec>> SlotOrderCandidates(
      const Query& q) const = 0;

  virtual const Catalog& catalog() const = 0;
  virtual const IndexPool& pool() const = 0;

  /// Number of what-if optimizations performed so far (each Cost() call
  /// is a full re-optimization, as with a real what-if interface).
  virtual int64_t num_whatif_calls() const = 0;

  /// Fault-handling counters. The default backend is always healthy.
  virtual WhatIfHealth health() const { return {}; }
};

}  // namespace cophy

#endif  // COPHY_OPTIMIZER_WHATIF_H_
