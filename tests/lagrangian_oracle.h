// An independent evaluation of the structured solver's Lagrangian dual,
// for tests that check the bound certificate ChoiceSolution exports.
// It walks the ChoiceProblem itself and numbers the multipliers itself,
// following only the documented convention (ChoiceSolution::mu_exit):
//
//   L(μ, λ) = constant − λ [budgeted]
//           + Σ_a over free z:  min(0, f_a + λ σ_a − Σ_q μ_{q,a})
//           + Σ_a over z forced to 1 by an accept row: f_a + λ σ_a − Σ_q μ_{q,a}
//           + Σ_q min_plans [ w_q β + Σ_slots min_options (w_q γ + μ_{q,a}) ]
//
// with σ_a = size_a / max(1, budget), options of vetoed indexes
// unavailable, and the base option priced at w_q γ alone.
#ifndef COPHY_TESTS_LAGRANGIAN_ORACLE_H_
#define COPHY_TESTS_LAGRANGIAN_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "lp/choice_problem.h"

namespace cophy::testing_oracle {

/// μ numbering: one slot per distinct (query, index) pair; queries in
/// order, and within a query pairs in first-touch (plan, slot, option)
/// order. Returns per query the map index -> μ slot.
inline std::vector<std::map<int, int>> MuSlots(const lp::ChoiceProblem& p,
                                               int* count) {
  std::vector<std::map<int, int>> slots(p.queries.size());
  int next = 0;
  for (size_t q = 0; q < p.queries.size(); ++q) {
    for (const lp::ChoicePlan& plan : p.queries[q].plans) {
      for (const lp::ChoiceSlot& slot : plan.slots) {
        for (const lp::ChoiceOption& o : slot.options) {
          if (o.index == lp::kBaseOption) continue;
          if (slots[q].emplace(o.index, next).second) ++next;
        }
      }
    }
  }
  *count = next;
  return slots;
}

/// L(μ, λ) as documented above; kInf when a query has no plan left.
inline double Lagrangian(const lp::ChoiceProblem& p,
                         const std::vector<double>& mu, double lambda) {
  int count = 0;
  const std::vector<std::map<int, int>> slots = MuSlots(p, &count);
  if (static_cast<int>(mu.size()) != count) return std::nan("");
  std::vector<int> forced(p.num_indexes, -1);
  for (const lp::ZRow& row : p.z_rows) {
    if (row.sense != lp::Sense::kEq || row.terms.size() != 1) continue;
    const double v = row.rhs / row.terms[0].second;
    if (v == 0.0 || v == 1.0) forced[row.terms[0].first] = static_cast<int>(v);
  }
  const bool budgeted = p.storage_budget < lp::kInf;
  const double budget = std::max(1.0, p.storage_budget);
  std::vector<double> mu_sum(p.num_indexes, 0.0);
  for (const auto& per_query : slots) {
    for (const auto& [a, m] : per_query) mu_sum[a] += mu[m];
  }
  double total = p.constant_cost - (budgeted ? lambda : 0.0);
  for (int a = 0; a < p.num_indexes; ++a) {
    const double coef = p.fixed_cost[a] +
                        (budgeted ? lambda * p.size[a] / budget : 0.0) -
                        mu_sum[a];
    if (forced[a] == 1) total += coef;
    if (forced[a] == -1) total += std::min(0.0, coef);
  }
  for (size_t q = 0; q < p.queries.size(); ++q) {
    const lp::ChoiceQuery& query = p.queries[q];
    double best = lp::kInf;
    for (const lp::ChoicePlan& plan : query.plans) {
      double cost = query.weight * plan.beta;
      for (const lp::ChoiceSlot& slot : plan.slots) {
        double cheapest = lp::kInf;
        for (const lp::ChoiceOption& o : slot.options) {
          if (o.index == lp::kBaseOption) {
            cheapest = std::min(cheapest, query.weight * o.gamma);
          } else if (forced[o.index] != 0) {
            cheapest = std::min(cheapest, query.weight * o.gamma +
                                              mu[slots[q].at(o.index)]);
          }
        }
        cost += cheapest;
      }
      best = std::min(best, cost);
    }
    if (best == lp::kInf) return lp::kInf;
    total += best;
  }
  return total;
}

}  // namespace cophy::testing_oracle

#endif  // COPHY_TESTS_LAGRANGIAN_ORACLE_H_
