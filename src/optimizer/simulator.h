// SystemSimulator: a cost-based optimizer over the statistics catalog.
// It optimizes SPJ + aggregation queries over the space
//   { join order (DP over subsets) × join algorithm (hash / sort-merge)
//     × per-slot access path (clustered PK / secondary index) }.
//
// Its cost structure is "internal plan cost + per-slot access cost",
// where internal cost depends on leaf *orders* but not on which access
// method produced them. That is exactly the property (Lemma 1: linear
// composability) that INUM and hence CoPhy's BIP formulation rest on,
// and it matches how real optimizers expose plans to INUM/C-PQO.
//
// The simulator is an in-process model and never fails, so each
// WhatIfOptimizer override wraps an infallible implementation; faults
// enter the pipeline only through decorators (FaultInjectingWhatIf).
#ifndef COPHY_OPTIMIZER_SIMULATOR_H_
#define COPHY_OPTIMIZER_SIMULATOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "optimizer/cost_model.h"
#include "optimizer/whatif.h"

namespace cophy {

/// Concrete what-if optimizer over the statistics catalog.
class SystemSimulator : public WhatIfOptimizer {
 public:
  SystemSimulator(const Catalog* cat, const IndexPool* pool, CostModel model);

  // WhatIfOptimizer:
  Result<double> Cost(const Query& q, const Configuration& x) override;
  Result<double> UpdateCost(IndexId a, const Query& q) override;
  Result<std::vector<TemplatePlan>> EnumerateTemplates(const Query& q) override;
  Result<double> AccessCost(const Query& q, int slot, const OrderSpec& order,
                            IndexId a) override;
  Result<double> ShellCost(const Query& q, const Configuration& x) override;
  Result<double> BaseUpdateCost(const Query& q) override;
  std::vector<std::vector<OrderSpec>> SlotOrderCandidates(
      const Query& q) const override;
  const Catalog& catalog() const override { return *cat_; }
  const IndexPool& pool() const override { return *pool_; }
  int64_t num_whatif_calls() const override { return whatif_calls_; }

  const CostModel& model() const { return model_; }

  /// Rows flowing out of slot `slot` after all predicates on its table
  /// (identical for every access path, by design).
  double SlotOutputRows(const Query& q, int slot) const;

  /// Human-readable account of the chosen plan under X: template
  /// orders, per-slot access path, β and γ breakdown.
  std::string Explain(const Query& q, const Configuration& x);

 private:
  struct SlotInfo;  // per-slot predicate/selectivity digest

  SlotInfo AnalyzeSlot(const Query& q, int slot) const;
  /// β for a fixed slot-order combination (DP join enumeration).
  double InternalPlanCost(const Query& q,
                          const std::vector<OrderSpec>& slot_orders) const;
  double SortCost(double rows) const;
  /// min over access paths available in X of γ(q, slot, order, ·).
  double BestAccessCost(const Query& q, int slot, const OrderSpec& order,
                        const Configuration& x, IndexId* chosen) const;

  // Infallible implementations behind the fallible overrides.
  double CostImpl(const Query& q, const Configuration& x);
  double UpdateCostImpl(IndexId a, const Query& q) const;
  std::vector<TemplatePlan> EnumerateTemplatesImpl(const Query& q);
  double AccessCostImpl(const Query& q, int slot, const OrderSpec& order,
                        IndexId a) const;
  double ShellCostImpl(const Query& q, const Configuration& x) const;
  double BaseUpdateCostImpl(const Query& q) const;

  const Catalog* cat_;
  const IndexPool* pool_;
  CostModel model_;
  /// Atomic so concurrent Prepare workers can cost templates in
  /// parallel; the total is interleaving-independent.
  std::atomic<int64_t> whatif_calls_{0};
};

}  // namespace cophy

#endif  // COPHY_OPTIMIZER_SIMULATOR_H_
