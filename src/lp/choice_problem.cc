#include "lp/choice_problem.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/check.h"
#include "common/stopwatch.h"
#include "lp/simplex.h"

namespace cophy::lp {

namespace {
constexpr double kTol = 1e-9;
/// Branch score for a zero-delta tie (see NodeBound): small enough that
/// any real penalty dominates, positive so pick_branch still branches.
constexpr double kTieScore = 1e-30;
}

// ---------------------------------------------------------------------------
// ChoiceProblem evaluation

double ChoiceProblem::QueryCost(int q, const std::vector<uint8_t>& selected) const {
  const ChoiceQuery& query = queries[q];
  double best = kInf;
  for (const ChoicePlan& plan : query.plans) {
    double c = plan.beta;
    bool ok = true;
    for (const ChoiceSlot& slot : plan.slots) {
      double g = kInf;
      for (const ChoiceOption& o : slot.options) {  // sorted by gamma
        if (o.index == kBaseOption || selected[o.index]) {
          g = o.gamma;
          break;
        }
      }
      if (g == kInf) {
        ok = false;
        break;
      }
      c += g;
    }
    if (ok) best = std::min(best, c);
  }
  return best;
}

double ChoiceProblem::Objective(const std::vector<uint8_t>& selected) const {
  double total = constant_cost;
  for (int a = 0; a < num_indexes; ++a) {
    if (selected[a]) total += fixed_cost[a];
  }
  for (int q = 0; q < static_cast<int>(queries.size()); ++q) {
    const double c = QueryCost(q, selected);
    if (c == kInf) return kInf;
    total += queries[q].weight * c;
  }
  return total;
}

bool ChoiceProblem::Feasible(const std::vector<uint8_t>& selected) const {
  double used = 0;
  for (int a = 0; a < num_indexes; ++a) {
    if (selected[a]) used += size[a];
  }
  if (used > storage_budget * (1 + kTol) + kTol) return false;
  for (const ZRow& row : z_rows) {
    double lhs = 0;
    for (const auto& [a, c] : row.terms) {
      if (selected[a]) lhs += c;
    }
    switch (row.sense) {
      case Sense::kLe:
        if (lhs > row.rhs + 1e-6) return false;
        break;
      case Sense::kGe:
        if (lhs < row.rhs - 1e-6) return false;
        break;
      case Sense::kEq:
        if (std::abs(lhs - row.rhs) > 1e-6) return false;
        break;
    }
  }
  for (int q = 0; q < static_cast<int>(queries.size()); ++q) {
    if (queries[q].cost_cap < kInf &&
        QueryCost(q, selected) > queries[q].cost_cap * (1 + 1e-9)) {
      return false;
    }
  }
  return true;
}

int64_t ChoiceProblem::NumOptionEntries() const {
  int64_t n = 0;
  for (const ChoiceQuery& q : queries) {
    for (const ChoicePlan& p : q.plans) {
      for (const ChoiceSlot& s : p.slots) n += s.options.size();
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Solver construction

ChoiceSolver::ChoiceSolver(const ChoiceProblem* problem) : p_(problem) {
  COPHY_CHECK(problem != nullptr);
  for (int a = 0; a < p_->num_indexes; ++a) {
    COPHY_CHECK_GE(p_->fixed_cost[a], 0.0);
    COPHY_CHECK_GE(p_->size[a], 0.0);
  }
  // Precondition of the aggregated (query, index) Lagrangian: within any
  // plan, different slots must offer disjoint index sets. This holds by
  // construction for index-tuning problems (slots are distinct tables)
  // and is what makes one multiplier per (query, index) exact.
  {
    std::vector<int> last_slot_of(p_->num_indexes, -1);
    int plan_counter = 0;
    for (const ChoiceQuery& q : p_->queries) {
      for (const ChoicePlan& plan : q.plans) {
        int slot_counter = 0;
        for (const ChoiceSlot& slot : plan.slots) {
          const int tag = plan_counter * 1000 + slot_counter;
          for (const ChoiceOption& o : slot.options) {
            if (o.index == kBaseOption) continue;
            const int prev = last_slot_of[o.index];
            COPHY_CHECK(prev / 1000 != plan_counter || prev == tag ||
                        prev < 0);
            last_slot_of[o.index] = tag;
          }
          ++slot_counter;
        }
        ++plan_counter;
      }
    }
  }
  // Flatten the z constraints into CSR form once; ConstraintsAdmissible
  // runs on every node and should not chase row-of-vectors pointers.
  zrow_start_.assign(1, 0);
  for (const ZRow& row : p_->z_rows) {
    for (const auto& [a, c] : row.terms) {
      zrow_idx_.push_back(a);
      zrow_coef_.push_back(c);
    }
    zrow_start_.push_back(static_cast<int32_t>(zrow_idx_.size()));
  }
  queries_of_index_.assign(p_->num_indexes, {});
  slot_refs_of_index_.assign(p_->num_indexes, {});
  indexes_of_query_.assign(p_->queries.size(), {});
  plan_start_.assign(p_->queries.size() + 1, 0);
  for (int q = 0; q < static_cast<int>(p_->queries.size()); ++q) {
    plan_start_[q + 1] =
        plan_start_[q] + static_cast<int32_t>(p_->queries[q].plans.size());
  }
  slot_start_.assign(plan_start_.back() + 1, 0);
  plan_wbeta_.reserve(plan_start_.back());
  // Assign one μ-slot per distinct (query, index) pair and map every
  // option entry (canonical iteration order) to its slot.
  std::vector<int32_t> mu_slot_of(p_->num_indexes, -1);
  for (int q = 0; q < static_cast<int>(p_->queries.size()); ++q) {
    std::vector<int> touched;
    const double w = p_->queries[q].weight;
    const auto& plans = p_->queries[q].plans;
    for (int pi = 0; pi < static_cast<int>(plans.size()); ++pi) {
      const int plan_id = plan_start_[q] + pi;
      slot_start_[plan_id + 1] =
          slot_start_[plan_id] + static_cast<int32_t>(plans[pi].slots.size());
      plan_wbeta_.push_back(w * plans[pi].beta);
      for (int si = 0; si < static_cast<int>(plans[pi].slots.size()); ++si) {
        opt_start_.push_back(static_cast<int32_t>(opt_mu_.size()));
        for (const ChoiceOption& o : plans[pi].slots[si].options) {
          opt_wgamma_.push_back(w * o.gamma);
          if (o.index == kBaseOption) {
            opt_mu_.push_back(-1);
            continue;
          }
          if (mu_slot_of[o.index] < 0) {
            mu_slot_of[o.index] = static_cast<int32_t>(mu_owner_index_.size());
            mu_owner_index_.push_back(o.index);
            queries_of_index_[o.index].push_back(q);
            touched.push_back(o.index);
          }
          opt_mu_.push_back(mu_slot_of[o.index]);
          // Positions arrive in iteration order, so a back-of-list
          // check is all the dedup the slot inverted list needs (a
          // repeat of one index within a slot keeps the first = the
          // γ-cheapest occurrence).
          auto& refs = slot_refs_of_index_[o.index];
          if (refs.empty() || refs.back().query != q ||
              refs.back().plan != pi || refs.back().slot != si) {
            refs.push_back({q, pi, si, o.gamma});
          }
        }
      }
    }
    indexes_of_query_[q].assign(touched.begin(), touched.end());
    for (int a : touched) mu_slot_of[a] = -1;  // reset for the next query
  }
  opt_start_.push_back(static_cast<int32_t>(opt_mu_.size()));
  // A single-index equality row (a DBA accept or veto) pins its z.
  forced_.assign(p_->num_indexes, -1);
  for (const ZRow& row : p_->z_rows) {
    if (row.sense != Sense::kEq || row.terms.size() != 1) continue;
    const auto& [a, c] = row.terms[0];
    if (c == 0.0) continue;
    const double v = row.rhs / c;
    if (std::abs(v) <= 1e-9) forced_[a] = 0;
    if (std::abs(v - 1.0) <= 1e-9) forced_[a] = 1;
  }
}

// ---------------------------------------------------------------------------
// Bounds

double ChoiceSolver::NodeBound(const std::vector<int8_t>& fixed,
                               std::vector<double>* branch_score) const {
  double total = p_->constant_cost;
  double budget_left = p_->storage_budget;
  for (int a = 0; a < p_->num_indexes; ++a) {
    if (fixed[a] == 1) {
      total += p_->fixed_cost[a];
      budget_left -= p_->size[a];
    }
  }
  const bool budgeted = p_->storage_budget < kInf;

  // Per-index attributed penalties: each query attributes the cost
  // increase of losing its most load-bearing free index to that single
  // index, which keeps the penalties additive across queries (a valid
  // joint lower bound; see the knapsack correction below).
  scratch_penalty_.assign(p_->num_indexes, 0.0);
  int tie_branch = -1;  // free first-choice index with a zero-delta tie

  // Evaluates the query's optimistic cost with one extra index banned.
  auto optimistic_without = [&](const ChoiceQuery& query, int banned) {
    double best = kInf;
    for (const ChoicePlan& plan : query.plans) {
      double c = plan.beta;
      bool ok = true;
      for (const ChoiceSlot& slot : plan.slots) {
        double g = kInf;
        for (const ChoiceOption& o : slot.options) {
          if (o.index == banned) continue;
          if (o.index == kBaseOption || fixed[o.index] != 0) {
            g = o.gamma;
            break;
          }
        }
        if (g == kInf) {
          ok = false;
          break;
        }
        c += g;
      }
      if (ok && c < best) best = c;
    }
    return best;
  };

  for (int q = 0; q < static_cast<int>(p_->queries.size()); ++q) {
    const ChoiceQuery& query = p_->queries[q];
    double qbest = kInf;
    const ChoicePlan* best_plan = nullptr;
    for (const ChoicePlan& plan : query.plans) {
      double c = plan.beta;
      bool ok = true;
      for (const ChoiceSlot& slot : plan.slots) {
        double g = kInf;
        for (const ChoiceOption& o : slot.options) {
          if (o.index == kBaseOption || fixed[o.index] != 0) {
            g = o.gamma;
            break;
          }
        }
        if (g == kInf) {
          ok = false;
          break;
        }
        c += g;
      }
      if (ok && c < qbest) {
        qbest = c;
        best_plan = &plan;
      }
    }
    if (qbest == kInf) return kInf;                       // unsatisfiable
    if (qbest > query.cost_cap * (1 + 1e-9)) return kInf;  // cap unreachable
    total += query.weight * qbest;

    if (best_plan != nullptr) {
      // Distinct free first-choice indexes of the winning plan.
      int banned_ids[16];
      int num_banned = 0;
      for (const ChoiceSlot& slot : best_plan->slots) {
        for (const ChoiceOption& o : slot.options) {
          if (o.index == kBaseOption || fixed[o.index] != 0) {
            if (o.index != kBaseOption && fixed[o.index] == -1 &&
                num_banned < 16) {
              bool dup = false;
              for (int i = 0; i < num_banned; ++i) {
                dup |= banned_ids[i] == o.index;
              }
              if (!dup) banned_ids[num_banned++] = o.index;
            }
            break;
          }
        }
      }
      double best_delta = 0;
      int best_idx = -1;
      for (int i = 0; i < num_banned; ++i) {
        const double without = optimistic_without(query, banned_ids[i]);
        const double delta = without - qbest;  // >= 0
        if (delta > best_delta) {
          best_delta = delta;
          best_idx = banned_ids[i];
        }
      }
      if (best_idx >= 0) {
        scratch_penalty_[best_idx] += query.weight * best_delta;
      } else if (num_banned > 0 && tie_branch < 0) {
        // The winning plan leans on free indexes, but banning any single
        // one costs nothing (another free index ties for the slot). No
        // penalty may be charged (the bound must stay valid), yet the
        // node is NOT a resolved leaf: dropping all tied indexes at once
        // can lose real value. Remember one of them so pick_branch has
        // something to branch on — without this the search would close
        // the subtree around its "fixed-only" completion and could prune
        // the true optimum (observed as two bit-equivalent BIPs "proving"
        // different optima).
        tie_branch = banned_ids[0];
      }
    }
  }

  // Knapsack correction: the free indexes carrying penalties cannot all
  // fit into the remaining budget; any feasible completion must drop a
  // subset whose sizes close the overflow, forfeiting at least the
  // fractional-knapsack value of the dropped penalties.
  double correction = 0.0;
  if (budgeted) {
    double used = 0;
    std::vector<std::pair<double, int>> carriers;  // (penalty/size, index)
    for (int a = 0; a < p_->num_indexes; ++a) {
      if (scratch_penalty_[a] > 0) {
        used += p_->size[a];
        carriers.push_back(
            {scratch_penalty_[a] / std::max(1.0, p_->size[a]), a});
      }
    }
    if (used > budget_left) {
      // Keep the densest carriers within budget; forfeit the rest.
      std::sort(carriers.begin(), carriers.end(),
                [](const auto& x, const auto& y) { return x.first > y.first; });
      double room = std::max(0.0, budget_left);
      for (const auto& [density, a] : carriers) {
        const double sz = std::max(1.0, p_->size[a]);
        if (room >= sz) {
          room -= sz;
        } else {
          correction += scratch_penalty_[a] * (1.0 - room / sz);
          room = 0;
        }
      }
    }
  }

  if (branch_score != nullptr) {
    *branch_score = scratch_penalty_;
    // Zero-delta ties: surface one tied index with an infinitesimal
    // score so the node keeps branching when no real penalty exists.
    // The bound itself is untouched.
    if (tie_branch >= 0 && (*branch_score)[tie_branch] <= 0.0) {
      (*branch_score)[tie_branch] = kTieScore;
    }
  }
  return total + correction;
}

double ChoiceSolver::EvaluateLagrangian(const std::vector<double>& mu,
                                        const std::vector<double>& mu_sum,
                                        double lambda,
                                        const std::vector<int8_t>& fixed,
                                        LagrangianPoint* point) const {
  // z subproblem: a free index opens iff its reduced coefficient
  // fixed_cost + λσ − Σμ is negative; fixed ones pay theirs.
  double total = p_->constant_cost;
  const bool budgeted = p_->storage_budget < kInf;
  if (budgeted) total -= lambda;  // λ · (normalized budget of 1)
  if (point != nullptr) {
    point->chosen.clear();
    point->storage = 0.0;
  }
  for (int a = 0; a < p_->num_indexes; ++a) {
    const double coef =
        p_->fixed_cost[a] + (budgeted ? lambda * sigma_[a] : 0.0) - mu_sum[a];
    const bool open = fixed[a] == 1 || (fixed[a] == -1 && coef < 0);
    if (open) total += coef;
    if (point != nullptr) {
      point->z[a] = open ? 1 : 0;
      if (open) point->storage += sigma_[a];
    }
  }
  // x subproblem: per query, the μ-priced cheapest plan, each slot at
  // its cheapest available option.
  const int nq = static_cast<int>(p_->queries.size());
  for (int q = 0; q < nq; ++q) {
    double qbest = kInf;
    int best_plan = -1;
    for (int plan_id = plan_start_[q]; plan_id < plan_start_[q + 1];
         ++plan_id) {
      double c = plan_wbeta_[plan_id];
      for (int32_t slot = slot_start_[plan_id];
           slot < slot_start_[plan_id + 1] && c < kInf; ++slot) {
        double g = kInf;
        for (int32_t k = opt_start_[slot]; k < opt_start_[slot + 1]; ++k) {
          const int32_t m = opt_mu_[k];
          if (m >= 0 && fixed[mu_owner_index_[m]] == 0) continue;
          const double price = m < 0 ? opt_wgamma_[k] : opt_wgamma_[k] + mu[m];
          if (price < g) g = price;
        }
        c += g;
      }
      if (c < qbest) {
        qbest = c;
        best_plan = plan_id;
      }
    }
    if (qbest == kInf) return kInf;
    total += qbest;
    if (point == nullptr) continue;
    // Re-walk the winning plan to record its chosen (query, index) pairs.
    for (int32_t slot = slot_start_[best_plan];
         slot < slot_start_[best_plan + 1]; ++slot) {
      double g = kInf;
      int32_t g_mu = -1;
      for (int32_t k = opt_start_[slot]; k < opt_start_[slot + 1]; ++k) {
        const int32_t m = opt_mu_[k];
        if (m >= 0 && fixed[mu_owner_index_[m]] == 0) continue;
        const double price = m < 0 ? opt_wgamma_[k] : opt_wgamma_[k] + mu[m];
        if (price < g) {
          g = price;
          g_mu = m;
        }
      }
      if (g_mu >= 0) point->chosen.push_back(g_mu);
    }
  }
  return total;
}

double ChoiceSolver::LagrangianNodeBound(const std::vector<int8_t>& fixed) const {
  if (!mu_ready_) return -kInf;
  return EvaluateLagrangian(mu_, mu_sum_, lambda_, fixed, nullptr);
}

// ---------------------------------------------------------------------------
// Root LP relaxation: the full Theorem-1 LP over the choice structure,
// solved with the sparse revised simplex. Its optimum is the exact LP
// bound (>= any Lagrangian dual value), its link-row duals seed μ, and
// its reduced costs drive variable fixing.

bool ChoiceSolver::BuildRootLp(Model* model, RootLpLayout* layout,
                               int64_t max_rows) const {
  // Compact form: base options are substituted out (a slot with a base
  // fallback charges its base gamma through y and lets each non-base x
  // buy the *difference*, with Σ x <= y instead of Σ x = y), and the
  // per-entry linking rows are aggregated per (query, index) —
  // z_a >= Σ_e x_e — which is valid for every integral solution (a
  // query's chosen plan uses an index in at most one slot), *tighter*
  // than the per-entry rows, and emits exactly one row per μ slot, so
  // the LP duals are the Lagrangian multipliers verbatim.
  //
  // Row estimate: one pick-one row per query, one fill row per
  // (plan, slot) with any non-base option or no base, one link row per
  // μ slot, plus caps, z-rows, and the storage row.
  int64_t rows = static_cast<int64_t>(mu_owner_index_.size()) +
                 static_cast<int64_t>(p_->z_rows.size());
  for (const ChoiceQuery& q : p_->queries) {
    rows += 1;
    if (q.cost_cap < kInf) rows += 1;
    for (const ChoicePlan& plan : q.plans) {
      for (const ChoiceSlot& slot : plan.slots) {
        const bool only_base =
            slot.options.size() == 1 && slot.options[0].index == kBaseOption;
        if (!only_base) rows += 1;
      }
    }
  }
  if (p_->storage_budget < kInf) rows += 1;
  if (rows > max_rows) return false;

  model->AddObjectiveConstant(p_->constant_cost);
  for (int a = 0; a < p_->num_indexes; ++a) {
    model->AddVariable(0.0, 1.0, p_->fixed_cost[a], /*is_integer=*/true);
  }
  layout->mu_link_row.assign(mu_owner_index_.size(), -1);
  size_t k = 0;  // canonical option cursor (opt_mu_ order)
  std::vector<std::pair<VarId, double>> pick, fill, cap_terms;
  std::vector<std::pair<int32_t, VarId>> links;  // (μ slot, x var)
  for (const ChoiceQuery& q : p_->queries) {
    pick.clear();
    cap_terms.clear();
    links.clear();
    const bool has_cap = q.cost_cap < kInf;
    for (const ChoicePlan& plan : q.plans) {
      // The y objective carries beta plus every base fallback the plan
      // would pay with nothing selected; x objectives carry the
      // (non-positive after presolve) improvement over that fallback.
      double base_cost = plan.beta;
      for (const ChoiceSlot& slot : plan.slots) {
        for (const ChoiceOption& o : slot.options) {
          if (o.index == kBaseOption) {
            base_cost += o.gamma;
            break;
          }
        }
      }
      const VarId y = model->AddVariable(0.0, 1.0, q.weight * base_cost, true);
      pick.push_back({y, 1.0});
      if (has_cap) cap_terms.push_back({y, base_cost});
      for (const ChoiceSlot& slot : plan.slots) {
        double base_gamma = kInf;
        for (const ChoiceOption& o : slot.options) {
          if (o.index == kBaseOption) base_gamma = o.gamma;
        }
        const bool has_base = base_gamma < kInf;
        fill.clear();
        fill.push_back({y, -1.0});
        for (const ChoiceOption& o : slot.options) {
          const int32_t mu = opt_mu_[k++];
          if (o.index == kBaseOption) continue;
          const double delta = has_base ? o.gamma - base_gamma : o.gamma;
          const VarId x =
              model->AddVariable(0.0, 1.0, q.weight * delta, true);
          fill.push_back({x, 1.0});
          if (has_cap) cap_terms.push_back({x, delta});
          links.push_back({mu, x});
        }
        if (fill.size() > 1 || !has_base) {
          // Σ_a x <= y with a base fallback (the slack is the base
          // path); Σ_a x = y when the slot has no fallback.
          model->AddRow(fill, has_base ? Sense::kLe : Sense::kEq, 0.0);
        }
      }
    }
    model->AddRow(pick, Sense::kEq, 1.0);  // Σ_k y = 1
    if (has_cap) model->AddRow(cap_terms, Sense::kLe, q.cost_cap);
    // Aggregated linking rows, one per μ slot of this query, in slot
    // creation (first-touch) order.
    std::stable_sort(links.begin(), links.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (size_t k = 0; k < links.size();) {
      const int32_t mu = links[k].first;
      model->BeginRow(Sense::kGe, 0.0);  // z_a >= Σ x
      model->AddTerm(mu_owner_index_[mu], 1.0);
      while (k < links.size() && links[k].first == mu) {
        model->AddTerm(links[k].second, -1.0);
        ++k;
      }
      layout->mu_link_row[mu] = model->EndRow();
    }
  }
  COPHY_CHECK_EQ(k, opt_mu_.size());
  layout->storage_row = -1;
  if (p_->storage_budget < kInf) {
    model->BeginRow(Sense::kLe, p_->storage_budget);
    for (int a = 0; a < p_->num_indexes; ++a) {
      model->AddTerm(a, p_->size[a]);
    }
    layout->storage_row = model->EndRow();
  }
  for (const ZRow& row : p_->z_rows) {
    model->BeginRow(row.sense, row.rhs, row.name);
    for (const auto& [a, c] : row.terms) model->AddTerm(a, c);
    model->EndRow();
  }
  return true;
}

void ChoiceSolver::EnsureSigma() {
  sigma_.assign(p_->num_indexes, 0.0);
  if (p_->storage_budget < kInf) {
    const double m = std::max(1.0, p_->storage_budget);
    for (int a = 0; a < p_->num_indexes; ++a) sigma_[a] = p_->size[a] / m;
  }
}

void ChoiceSolver::SeedLagrangianFromDuals(const LpSolution& lp,
                                           const RootLpLayout& layout) {
  const size_t num_mu = mu_owner_index_.size();
  mu_.assign(num_mu, 0.0);
  // The aggregated link row z_a >= Σ x is the relaxed constraint
  // Σ x - z_a <= 0; its dual (>= 0 under the solver's sign convention
  // for >= rows) is exactly the Lagrangian multiplier μ_{q,a}.
  for (size_t m = 0; m < num_mu; ++m) {
    const int32_t row = layout.mu_link_row[m];
    if (row >= 0) mu_[m] = std::max(0.0, lp.duals[row]);
  }
  mu_sum_.assign(p_->num_indexes, 0.0);
  for (size_t m = 0; m < num_mu; ++m) {
    mu_sum_[mu_owner_index_[m]] += mu_[m];
  }
  EnsureSigma();
  lambda_ = 0.0;
  if (layout.storage_row >= 0) {
    // Binding <= row: dual y <= 0, true multiplier λ = -y; the solver
    // keeps λ in normalized budget units (σ_a = size_a / M), so scale
    // by M.
    lambda_ = std::max(0.0, -lp.duals[layout.storage_row]) *
              std::max(1.0, p_->storage_budget);
  }
  mu_ready_ = true;
}

int ChoiceSolver::ApplyReducedCostFixing(double upper_bound) {
  if (!std::isfinite(upper_bound)) return 0;
  const bool lp = !rc_status_.empty();
  const bool lagr = std::isfinite(lag_bound_) && !lag_coef_.empty();
  if (!lp && !lagr) return 0;
  int fixed = 0;
  for (int a = 0; a < p_->num_indexes; ++a) {
    if (root_fix_[a] != -1) continue;
    // Moving a nonbasic z off its LP-optimal bound costs at least |d|
    // on top of the LP optimum, so the opposite bound is provably no
    // better than the incumbent: fix the variable permanently.
    if (lp) {
      const double d = rc_d_[a];
      if (rc_status_[a] == VarStatus::kAtLower && d > 0 &&
          root_lp_bound_ + d >= upper_bound - kTol) {
        root_fix_[a] = 0;
        ++fixed;
        continue;
      }
      if (rc_status_[a] == VarStatus::kAtUpper && d < 0 &&
          root_lp_bound_ - d >= upper_bound - kTol) {
        root_fix_[a] = 1;
        ++fixed;
        continue;
      }
    }
    // Same argument on the Lagrangian: z separates additively, so a
    // solution with z_a flipped off its subproblem minimizer has
    // Lagrangian value (a lower bound on its true objective) of at
    // least lag_bound_ + |coef_a|.
    if (lagr) {
      const double c = lag_coef_[a];
      if (c >= 0 && lag_bound_ + c >= upper_bound - kTol) {
        root_fix_[a] = 0;
        ++fixed;
      } else if (c < 0 && lag_bound_ - c >= upper_bound - kTol) {
        root_fix_[a] = 1;
        ++fixed;
      }
    }
  }
  return fixed;
}

// ---------------------------------------------------------------------------
// Lagrangian dual: the volume algorithm (Barahona & Anbil, Math. Prog.
// 87, 2000). Plain subgradient steps along the latest subproblem
// solution zig-zag and stall far below the dual optimum; volume steps
// along an exponentially averaged primal (x̄, z̄) instead — whose
// violation of the dualized rows approximates the LP optimum's — and
// moves its center only on improving steps, so the center always holds
// the best multipliers found.

namespace {
// Step-size factor: start, bounds, and its green/red adjustments.
constexpr double kVolumeStepInit = 0.05;
constexpr double kVolumeStepMax = 2.0;
constexpr double kVolumeStepMin = 1e-4;
constexpr double kVolumeGreenGrowth = 1.02;
constexpr double kVolumeRedShrink = 0.66;
constexpr int kVolumeRedStreak = 20;
// Averaging weight α ∈ [α_max / 10, α_max]; α_max halves whenever a
// window of iterations lifts the bound by less than 1%.
constexpr double kVolumeAlphaInit = 0.1;
constexpr double kVolumeAlphaMin = 1e-4;
// Progress window of the α_max schedule and the give-up test.
constexpr int kVolumeWindow = 100;
}  // namespace

ChoiceSolver::DualRun ChoiceSolver::OptimizeLagrangian(const DualStop& stop,
                                                       int iterations) {
  DualRun run;
  if (iterations <= 0) return run;
  const size_t num_mu = mu_owner_index_.size();
  const int n = p_->num_indexes;
  const bool budgeted = p_->storage_budget < kInf;
  if (!mu_ready_) {
    mu_.assign(num_mu, 0.0);
    mu_sum_.assign(n, 0.0);
    lambda_ = 0.0;
    EnsureSigma();
    mu_ready_ = true;
  }

  // Every buffer is sized once here; the iterations allocate nothing.
  LagrangianPoint pt;
  pt.z.assign(n, 0);
  pt.chosen.reserve(num_mu);
  double best = EvaluateLagrangian(mu_, mu_sum_, lambda_, forced_, &pt);
  run.iterations = 1;
  std::vector<double> xbar(num_mu, 0.0), zbar(n), dir(num_mu);
  for (int32_t m : pt.chosen) xbar[m] = 1.0;
  for (int a = 0; a < n; ++a) zbar[a] = pt.z[a];
  double sbar = pt.storage;
  std::vector<double> trial(num_mu), trial_sum(n);
  std::vector<uint8_t> x_now(num_mu, 0);

  const double ub = stop.upper_bound;
  const double scale = std::max(1e-12, std::abs(ub));
  const bool has_target = std::isfinite(ub) && stop.proof_gap >= 0;
  const bool give_up = has_target && stop.give_up_gap >= 0;
  const double needed = ub - stop.proof_gap * scale;  // bound that proves
  const double acceptable = ub - stop.give_up_gap * scale;
  double step_factor = kVolumeStepInit;
  double alpha_max = kVolumeAlphaInit;
  int red_streak = 0;
  double window_start = best;

  for (int it = 1; it < iterations && best < kInf; ++it) {
    if (has_target && best >= needed) break;
    if (it % kVolumeWindow == 0) {
      const double gain = best - window_start;
      if (gain < 0.01 * std::max(1e-12, std::abs(best))) {
        alpha_max = std::max(kVolumeAlphaMin, alpha_max / 2);
      }
      // Give up once even the last window's gain, repeated for every
      // window left, cannot reach the next level.
      const double level = best >= acceptable ? needed : acceptable;
      if (give_up && best + gain * (iterations - it) / kVolumeWindow < level) {
        break;
      }
      window_start = best;
    }

    // Direction: the dualized rows' violation at the primal average,
    // projected so multipliers at zero are not pushed negative.
    double norm2 = 0.0;
    for (size_t m = 0; m < num_mu; ++m) {
      double d = xbar[m] - zbar[mu_owner_index_[m]];
      if (d < 0 && mu_[m] <= 0) d = 0;
      dir[m] = d;
      norm2 += d * d;
    }
    double dir_lambda = 0.0;
    if (budgeted) {
      dir_lambda = sbar - 1.0;  // normalized budget units
      if (dir_lambda < 0 && lambda_ <= 0) dir_lambda = 0;
      norm2 += dir_lambda * dir_lambda;
    }
    if (norm2 < 1e-12) break;  // the average satisfies the dualized rows
    const double step =
        step_factor * std::max(1e-9 * scale, ub - best) / norm2;

    std::fill(trial_sum.begin(), trial_sum.end(), 0.0);
    for (size_t m = 0; m < num_mu; ++m) {
      trial[m] = std::max(0.0, mu_[m] + step * dir[m]);
      trial_sum[mu_owner_index_[m]] += trial[m];
    }
    const double trial_lambda =
        budgeted ? std::max(0.0, lambda_ + step * dir_lambda) : 0.0;
    const double value =
        EvaluateLagrangian(trial, trial_sum, trial_lambda, forced_, &pt);
    ++run.iterations;

    // α minimizes |α g + (1 - α) v|, g the new subgradient and v the
    // average's; green/yellow reads g · dir (does the step direction
    // still ascend at the trial point?).
    for (int32_t m : pt.chosen) x_now[m] = 1;
    double gg = 0.0, gv = 0.0, vv = 0.0, g_dir = 0.0;
    for (size_t m = 0; m < num_mu; ++m) {
      const int a = mu_owner_index_[m];
      const double g = static_cast<double>(x_now[m]) - pt.z[a];
      const double v = xbar[m] - zbar[a];
      gg += g * g;
      gv += g * v;
      vv += v * v;
      g_dir += g * dir[m];
    }
    if (budgeted) {
      const double g = pt.storage - 1.0, v = sbar - 1.0;
      gg += g * g;
      gv += g * v;
      vv += v * v;
      g_dir += g * dir_lambda;
    }
    const double denom = gg - 2 * gv + vv;
    double alpha = alpha_max;
    if (denom > 1e-12) {
      alpha = std::clamp((vv - gv) / denom, alpha_max / 10, alpha_max);
    }
    for (size_t m = 0; m < num_mu; ++m) {
      xbar[m] += alpha * (static_cast<double>(x_now[m]) - xbar[m]);
    }
    for (int32_t m : pt.chosen) x_now[m] = 0;
    for (int a = 0; a < n; ++a) zbar[a] += alpha * (pt.z[a] - zbar[a]);
    sbar += alpha * (pt.storage - sbar);

    if (value > best) {
      if (g_dir >= 0) {
        step_factor = std::min(kVolumeStepMax, step_factor * kVolumeGreenGrowth);
      }
      mu_.swap(trial);
      mu_sum_.swap(trial_sum);
      lambda_ = trial_lambda;
      best = value;
      red_streak = 0;
    } else if (++red_streak >= kVolumeRedStreak) {
      step_factor = std::max(kVolumeStepMin, step_factor * kVolumeRedShrink);
      red_streak = 0;
    }
  }
  run.bound = best;
  zbar_.swap(zbar);
  if (std::isfinite(best) && best >= lag_bound_) {
    // Snapshot the z-subproblem coefficients at the best multipliers
    // for Lagrangian reduced-cost fixing (bound and coefficients must
    // come from the same multipliers).
    lag_bound_ = best;
    lag_coef_.resize(n);
    for (int a = 0; a < n; ++a) {
      lag_coef_[a] =
          p_->fixed_cost[a] + (budgeted ? lambda_ * sigma_[a] : 0.0) - mu_sum_[a];
    }
  }
  return run;
}

bool ChoiceSolver::RoundDualPrimal(std::vector<uint8_t>& out) const {
  // Open the indexes the average opens at least half the time, most
  // open first, while they fit the budget; the greedy dive fills and
  // polishes around them.
  std::vector<int> order;
  for (int a = 0; a < p_->num_indexes; ++a) {
    if (zbar_[a] >= 0.5 && root_fix_[a] == -1) order.push_back(a);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return zbar_[a] > zbar_[b]; });
  std::vector<int8_t> fixed = root_fix_;
  double used = 0.0;
  for (int a = 0; a < p_->num_indexes; ++a) {
    if (fixed[a] == 1) used += p_->size[a];
  }
  for (int a : order) {
    if (used + p_->size[a] > p_->storage_budget) continue;
    fixed[a] = 1;
    used += p_->size[a];
  }
  return GreedyIncumbent(fixed, out);
}

// ---------------------------------------------------------------------------
// Constraint admissibility (interval propagation)

bool ChoiceSolver::ConstraintsAdmissible(const std::vector<int8_t>& fixed) const {
  if (p_->storage_budget < kInf) {
    double used = 0;
    for (int a = 0; a < p_->num_indexes; ++a) {
      if (fixed[a] == 1) used += p_->size[a];
    }
    if (used > p_->storage_budget * (1 + kTol) + kTol) return false;
  }
  for (size_t r = 0; r < p_->z_rows.size(); ++r) {
    const ZRow& row = p_->z_rows[r];
    double lo = 0, hi = 0;
    for (int32_t k = zrow_start_[r]; k < zrow_start_[r + 1]; ++k) {
      const int a = zrow_idx_[k];
      const double c = zrow_coef_[k];
      if (fixed[a] == 1) {
        lo += c;
        hi += c;
      } else if (fixed[a] == -1) {
        if (c > 0) {
          hi += c;
        } else {
          lo += c;
        }
      }
    }
    switch (row.sense) {
      case Sense::kLe:
        if (lo > row.rhs + 1e-6) return false;
        break;
      case Sense::kGe:
        if (hi < row.rhs - 1e-6) return false;
        break;
      case Sense::kEq:
        if (lo > row.rhs + 1e-6 || hi < row.rhs - 1e-6) return false;
        break;
    }
  }
  return true;
}

Status ChoiceSolver::CheckFeasible() const {
  std::vector<int8_t> fixed(p_->num_indexes, -1);
  if (!ConstraintsAdmissible(fixed)) {
    return Status::Infeasible("z-constraints admit no assignment");
  }
  const double bound = NodeBound(fixed, nullptr);
  if (bound == kInf) {
    return Status::Infeasible(
        "a query cost cap is unreachable even with all candidates");
  }
  // Storage: the cheapest assignment satisfying >=/= rows must fit.
  if (p_->storage_budget < kInf) {
    double forced = 0;
    // Greedy lower estimate: for each >=/= row needing positive mass,
    // assume the smallest-size index can serve it. (Approximate probe;
    // exact infeasibility still surfaces during search.)
    for (const ZRow& row : p_->z_rows) {
      if (row.sense == Sense::kLe || row.rhs <= 0) continue;
      double smallest = kInf;
      for (const auto& [a, c] : row.terms) {
        if (c > 0) smallest = std::min(smallest, p_->size[a]);
      }
      if (smallest < kInf) forced += smallest;
    }
    if (forced > p_->storage_budget * (1 + kTol)) {
      return Status::Infeasible("required indexes exceed the storage budget");
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Greedy incumbent (lazy-greedy benefit/size dive)

bool ChoiceSolver::GreedyIncumbent(const std::vector<int8_t>& fixed,
                                   std::vector<uint8_t>& out) const {
  const int n = p_->num_indexes;
  std::vector<uint8_t> sel(n, 0);
  double used = 0;
  for (int a = 0; a < n; ++a) {
    if (fixed[a] == 1) {
      sel[a] = 1;
      used += p_->size[a];
    }
  }

  auto plan_cost_with = [&](const ChoicePlan& plan, int extra) {
    double c = plan.beta;
    for (const ChoiceSlot& slot : plan.slots) {
      double g = kInf;
      for (const ChoiceOption& o : slot.options) {
        if (o.index == kBaseOption || sel[o.index] || o.index == extra) {
          g = o.gamma;
          break;
        }
      }
      if (g == kInf) return kInf;
      c += g;
    }
    return c;
  };
  auto query_cost_with = [&](int q, int extra) {
    double best = kInf;
    for (const ChoicePlan& plan : p_->queries[q].plans) {
      best = std::min(best, plan_cost_with(plan, extra));
    }
    return best;
  };

  // Incrementally-maintained pricing state. g_cur[slot_id] is the γ of
  // the slot's first available option (kInf if it has none); per flat
  // plan id, inf_cnt counts kInf slots and psum sums the finite γs, so
  // a plan currently costs beta + psum when inf_cnt == 0 and kInf
  // otherwise; cur[q] is the min over the query's plans. add/drop
  // touch only the slots referencing the moved index
  // (slot_refs_of_index_), so moves and candidate pricing are O(refs)
  // with no plan rescans — this loop is the solve-time hot path on
  // session delta retunes.
  const int n_plans = plan_start_.back();
  const int n_slots = slot_start_.back();
  std::vector<double> g_cur(n_slots, kInf), psum(n_plans, 0.0);
  std::vector<int32_t> inf_cnt(n_plans, 0);
  const int nq = static_cast<int>(p_->queries.size());
  std::vector<double> cur(nq);
  auto plan_cost = [&](int plan_id, double beta) {
    return inf_cnt[plan_id] > 0 ? kInf : beta + psum[plan_id];
  };

  // Satisfaction pass: queries with no base fallback need their plan's
  // indexes selected (ILP-form problems).
  auto can_add = [&](int a) {
    if (fixed[a] == 0 || sel[a]) return false;
    if (used + p_->size[a] > p_->storage_budget * (1 + kTol)) return false;
    for (const ZRow& row : p_->z_rows) {
      if (row.sense == Sense::kGe) continue;  // adding never hurts >=
      double lhs = 0, coef_a = 0;
      for (const auto& [b, c] : row.terms) {
        if (sel[b]) lhs += c;
        if (b == a) coef_a = c;
      }
      if (coef_a > 0 && lhs + coef_a > row.rhs + 1e-6) return false;
    }
    return true;
  };
  auto add = [&](int a) {
    sel[a] = 1;
    used += p_->size[a];
    // Slots without a are untouched, and a newly available option only
    // ever lowers a slot's pick (options are γ-sorted), so cur[q] just
    // needs the min against the plans whose slots got cheaper.
    const auto& refs = slot_refs_of_index_[a];
    for (size_t i = 0; i < refs.size();) {
      const int q = refs[i].query;
      double with = cur[q];
      for (; i < refs.size() && refs[i].query == q; ++i) {
        const SlotRef& r = refs[i];
        const int plan_id = plan_start_[q] + r.plan;
        const int slot_id = slot_start_[plan_id] + r.slot;
        const double g = g_cur[slot_id];
        if (r.gamma >= g) continue;  // slot already has a cheaper pick
        if (g == kInf) {
          --inf_cnt[plan_id];
          psum[plan_id] += r.gamma;
        } else {
          psum[plan_id] += r.gamma - g;
        }
        g_cur[slot_id] = r.gamma;
        with = std::min(
            with, plan_cost(plan_id, p_->queries[q].plans[r.plan].beta));
      }
      cur[q] = with;
    }
  };

  for (int q = 0; q < nq; ++q) {
    const auto& plans = p_->queries[q].plans;
    double best = kInf;
    for (int pi = 0; pi < static_cast<int>(plans.size()); ++pi) {
      const int plan_id = plan_start_[q] + pi;
      const auto& slots = plans[pi].slots;
      for (int si = 0; si < static_cast<int>(slots.size()); ++si) {
        double g = kInf;
        for (const ChoiceOption& o : slots[si].options) {
          if (o.index == kBaseOption || sel[o.index]) {
            g = o.gamma;
            break;
          }
        }
        g_cur[slot_start_[plan_id] + si] = g;
        if (g == kInf) {
          ++inf_cnt[plan_id];
        } else {
          psum[plan_id] += g;
        }
      }
      best = std::min(best, plan_cost(plan_id, plans[pi].beta));
    }
    cur[q] = best;
  }
  for (int q = 0; q < nq; ++q) {
    if (cur[q] < kInf) continue;
    // Pick the cheapest plan completion.
    const ChoiceQuery& query = p_->queries[q];
    double best_cost = kInf;
    std::vector<int> best_need;
    for (const ChoicePlan& plan : query.plans) {
      double c = plan.beta;
      std::vector<int> need;
      bool ok = true;
      for (const ChoiceSlot& slot : plan.slots) {
        double g = kInf;
        int need_idx = -2;
        for (const ChoiceOption& o : slot.options) {
          if (o.index == kBaseOption || sel[o.index]) {
            g = o.gamma;
            need_idx = -2;
            break;
          }
          if (fixed[o.index] != 0) {  // selectable
            g = o.gamma;
            need_idx = o.index;
            break;
          }
        }
        if (g == kInf) {
          ok = false;
          break;
        }
        if (need_idx >= 0) need.push_back(need_idx);
        c += g;
      }
      if (ok && c < best_cost) {
        best_cost = c;
        best_need = std::move(need);
      }
    }
    if (best_cost == kInf) return false;
    for (int a : best_need) {
      if (!sel[a]) {
        if (!can_add(a)) return false;
        add(a);
      }
    }
    cur[q] = query_cost_with(q, kBaseOption);
  }

  // Repair >=/= rows that demand positive mass.
  for (const ZRow& row : p_->z_rows) {
    if (row.sense == Sense::kLe) continue;
    double lhs = 0;
    for (const auto& [a, c] : row.terms) {
      if (sel[a]) lhs += c;
    }
    // Add positive-coefficient indexes (smallest size first).
    std::vector<std::pair<double, int>> adds;
    for (const auto& [a, c] : row.terms) {
      if (c > 0 && !sel[a] && fixed[a] != 0) adds.push_back({p_->size[a], a});
    }
    std::sort(adds.begin(), adds.end());
    for (const auto& [sz, a] : adds) {
      if (lhs >= row.rhs - 1e-6) break;
      (void)sz;
      if (!can_add(a)) continue;
      double coef = 0;
      for (const auto& [b, c] : row.terms) {
        if (b == a) coef = c;
      }
      add(a);
      lhs += coef;
    }
    if (lhs < row.rhs - 1e-6) return false;
  }

  // Lazy-greedy improvement on benefit / size. Selecting `a` only
  // changes the slots that contain it, so a candidate is priced off the
  // maintained per-plan state: each touched plan's what-if cost is
  // psum plus the candidate's slot deltas (min(0, γ_a - g_cur), or the
  // full γ_a when it fills a currently-empty slot), with the cached
  // cur[q] standing in for every untouched plan — identical value to a
  // full rescan of each touched query at a fraction of the work.
  auto benefit_of = [&](int a) {
    double b = -p_->fixed_cost[a];
    const auto& refs = slot_refs_of_index_[a];
    for (size_t i = 0; i < refs.size();) {
      const int q = refs[i].query;
      double with = cur[q];
      for (; i < refs.size() && refs[i].query == q;) {
        const int pi = refs[i].plan;
        const int plan_id = plan_start_[q] + pi;
        double delta = 0.0;
        int filled = 0;
        for (; i < refs.size() && refs[i].query == q && refs[i].plan == pi;
             ++i) {
          const double g = g_cur[slot_start_[plan_id] + refs[i].slot];
          if (g == kInf) {
            ++filled;
            delta += refs[i].gamma;
          } else {
            delta += std::min(0.0, refs[i].gamma - g);
          }
        }
        if (inf_cnt[plan_id] > filled) continue;  // plan stays infeasible
        with = std::min(
            with, p_->queries[q].plans[pi].beta + psum[plan_id] + delta);
      }
      if (cur[q] < kInf && with < cur[q]) {
        b += p_->queries[q].weight * (cur[q] - with);
      }
    }
    return b;
  };
  struct Cand {
    double ratio;
    int index;
    uint64_t version;
  };
  auto cmp = [](const Cand& a, const Cand& b) { return a.ratio < b.ratio; };
  std::priority_queue<Cand, std::vector<Cand>, decltype(cmp)> heap(cmp);
  const bool budgeted = p_->storage_budget < kInf;
  auto ratio_of = [&](int a, double benefit) {
    return budgeted ? benefit / std::max(1.0, p_->size[a]) : benefit;
  };
  uint64_t version = 0;
  for (int a = 0; a < n; ++a) {
    if (fixed[a] == 0 || sel[a]) continue;
    const double b = benefit_of(a);
    if (b > kTol) heap.push({ratio_of(a, b), a, version});
  }
  while (!heap.empty()) {
    Cand top = heap.top();
    heap.pop();
    if (sel[top.index]) continue;
    if (top.version != version) {  // stale: re-price (lazy greedy)
      const double b = benefit_of(top.index);
      if (b > kTol) heap.push({ratio_of(top.index, b), top.index, version});
      continue;
    }
    if (!can_add(top.index)) continue;
    add(top.index);
    ++version;
  }

  // Local-search polish: try dropping each selected (non-forced) index
  // and greedily refilling the freed budget; keep strict improvements.
  auto total_objective = [&]() {
    double t = p_->constant_cost;
    for (int a = 0; a < n; ++a) {
      if (sel[a]) t += p_->fixed_cost[a];
    }
    for (int q = 0; q < nq; ++q) {
      if (cur[q] == kInf) return kInf;
      t += p_->queries[q].weight * cur[q];
    }
    return t;
  };
  auto drop = [&](int a) {
    sel[a] = 0;
    used -= p_->size[a];
    const auto& refs = slot_refs_of_index_[a];
    for (size_t i = 0; i < refs.size();) {
      const int q = refs[i].query;
      for (; i < refs.size() && refs[i].query == q; ++i) {
        const SlotRef& r = refs[i];
        const int plan_id = plan_start_[q] + r.plan;
        const int slot_id = slot_start_[plan_id] + r.slot;
        const double old_g = g_cur[slot_id];
        double g = kInf;
        for (const ChoiceOption& o :
             p_->queries[q].plans[r.plan].slots[r.slot].options) {
          if (o.index == kBaseOption || sel[o.index]) {
            g = o.gamma;
            break;
          }
        }
        if (g == old_g) continue;  // a wasn't this slot's pick
        if (old_g == kInf) {
          --inf_cnt[plan_id];
        } else {
          psum[plan_id] -= old_g;
        }
        if (g == kInf) {
          ++inf_cnt[plan_id];
        } else {
          psum[plan_id] += g;
        }
        g_cur[slot_id] = g;
      }
      // Slot picks can only get worse on a drop, so the query min needs
      // a recompute over its (maintained) plan costs.
      const auto& plans = p_->queries[q].plans;
      double best = kInf;
      for (int pi = 0; pi < static_cast<int>(plans.size()); ++pi) {
        best = std::min(best, plan_cost(plan_start_[q] + pi, plans[pi].beta));
      }
      cur[q] = best;
    }
  };
  // Cached candidate gains for the polish refill. benefit_of(b) reads
  // only cur[] entries for b's own queries, so a drop/add of index `m`
  // can change it only when b shares a query with `m`. Moves mark that
  // neighbourhood dirty (cheap flag sweep, no pricing); the refill scan
  // prices a dirty candidate only once it passes can_add — matching the
  // original full rescan's can_add-first filtering — and clean entries
  // reuse their cached value. Snapshotting cache + flags around
  // reverted moves keeps the selection order exactly that of a fresh
  // rescan every iteration.
  std::vector<double> gain(n, 0.0);
  std::vector<uint8_t> stale(n, 1);
  auto mark_neighbours = [&](int moved) {
    for (int q : queries_of_index_[moved]) {
      for (int c : indexes_of_query_[q]) stale[c] = 1;
    }
  };
  for (int pass = 0; pass < 2; ++pass) {
    bool any_improvement = false;
    for (int a = 0; a < n; ++a) {
      if (!sel[a] || fixed[a] == 1) continue;
      const double before = total_objective();
      // Tentatively drop `a`, then refill greedily.
      std::vector<uint8_t> sel_backup = sel;
      std::vector<double> cur_backup = cur;
      std::vector<double> gain_backup = gain;
      std::vector<uint8_t> stale_backup = stale;
      std::vector<double> g_cur_backup = g_cur;
      std::vector<double> psum_backup = psum;
      std::vector<int32_t> inf_cnt_backup = inf_cnt;
      const double used_backup = used;
      auto revert = [&]() {
        sel = std::move(sel_backup);
        cur = std::move(cur_backup);
        g_cur = std::move(g_cur_backup);
        psum = std::move(psum_backup);
        inf_cnt = std::move(inf_cnt_backup);
        used = used_backup;
      };
      drop(a);
      if (total_objective() == kInf) {  // a was load-bearing (no base)
        revert();
        continue;  // gain/stale untouched so far
      }
      mark_neighbours(a);
      bool grew = true;
      while (grew) {
        grew = false;
        double best_b = kTol;
        int best_i = -1;
        for (int b = 0; b < n; ++b) {
          if (sel[b] || b == a || fixed[b] == 0) continue;
          if (!stale[b] && gain[b] <= best_b) continue;
          if (!can_add(b)) continue;  // stale entries stay stale until feasible
          if (stale[b]) {
            gain[b] = benefit_of(b);
            stale[b] = 0;
          }
          if (gain[b] > best_b) {
            best_b = gain[b];
            best_i = b;
          }
        }
        if (best_i >= 0) {
          add(best_i);
          mark_neighbours(best_i);
          grew = true;
        }
      }
      if (total_objective() < before - kTol) {
        any_improvement = true;  // keep the move
      } else {
        revert();
        gain = std::move(gain_backup);
        stale = std::move(stale_backup);
      }
    }
    if (!any_improvement) break;
  }

  // Enforce query caps by forced additions where possible.
  for (int q = 0; q < nq; ++q) {
    int guard = 0;
    while (cur[q] > p_->queries[q].cost_cap * (1 + 1e-9) && guard++ < 64) {
      double best_gain = 0;
      int best_a = -1;
      // Scan this query's candidate indexes for the largest reduction.
      for (const ChoicePlan& plan : p_->queries[q].plans) {
        for (const ChoiceSlot& slot : plan.slots) {
          for (const ChoiceOption& o : slot.options) {
            if (o.index == kBaseOption || sel[o.index]) continue;
            if (!can_add(o.index)) continue;
            const double with = query_cost_with(q, o.index);
            const double gain = cur[q] - with;
            if (gain > best_gain) {
              best_gain = gain;
              best_a = o.index;
            }
          }
        }
      }
      if (best_a < 0) break;
      add(best_a);
      ++version;
    }
    if (cur[q] > p_->queries[q].cost_cap * (1 + 1e-9)) return false;
  }

  if (!p_->Feasible(sel)) return false;
  out = std::move(sel);
  return true;
}

// ---------------------------------------------------------------------------
// Main search

ChoiceSolution ChoiceSolver::Solve(const ChoiceSolveOptions& options) {
  Stopwatch watch;
  ChoiceSolution result;
  result.status = CheckFeasible();
  if (!result.status.ok()) return result;

  const int n = p_->num_indexes;
  root_fix_ = forced_;
  rc_status_.clear();
  rc_d_.clear();
  root_lp_bound_ = -kInf;
  lag_coef_.clear();
  lag_bound_ = -kInf;
  mu_ready_ = false;
  zbar_.clear();
  RootBoundStats& rb = result.root_bound;
  rb.mode = options.root_lp;
  rb.gate_gap = options.gap_target;

  // Delta re-solve: start the dual from the previous solve's
  // multipliers. Valid for any re-weighted problem (every μ >= 0,
  // λ >= 0 prices a true lower bound); a later successful root LP
  // overwrites the seed with the exact new duals.
  if (options.mu_seed != nullptr &&
      options.mu_seed->size() == mu_owner_index_.size()) {
    mu_ = *options.mu_seed;
    for (double& m : mu_) m = std::max(0.0, m);
    mu_sum_.assign(n, 0.0);
    for (size_t m = 0; m < mu_.size(); ++m) {
      mu_sum_[mu_owner_index_[m]] += mu_[m];
    }
    lambda_ = std::max(0.0, options.lambda_seed);
    EnsureSigma();
    mu_ready_ = true;
  }

  bool has_incumbent = false;
  std::vector<uint8_t> incumbent;
  double incumbent_obj = kInf;
  auto offer = [&](const std::vector<uint8_t>& sel) {
    if (!p_->Feasible(sel)) return false;
    const double obj = p_->Objective(sel);
    if (obj < incumbent_obj - kTol) {
      incumbent = sel;
      incumbent_obj = obj;
      has_incumbent = true;
      // A tighter incumbent may prove more variables out via their root
      // reduced costs; the new fixings apply to every node expanded
      // from here on.
      if (options.reduced_cost_fixing) {
        result.variables_fixed += ApplyReducedCostFixing(incumbent_obj);
      }
      return true;
    }
    return false;
  };
  auto gap_of = [&](double bound) {
    if (!has_incumbent || !std::isfinite(bound)) return kInf;
    return std::max(0.0, (incumbent_obj - bound) /
                             std::max(1e-12, std::abs(incumbent_obj)));
  };

  if (!options.warm_start.empty() &&
      static_cast<int>(options.warm_start.size()) == n) {
    offer(options.warm_start);
  }
  {
    std::vector<int8_t> all_free(n, -1);
    std::vector<uint8_t> greedy;
    if (GreedyIncumbent(all_free, greedy)) offer(greedy);
  }

  // Root LP relaxation: exact LP bound, dual-seeded multipliers, and
  // the reduced-cost data the fixing hook above consumes. True when it
  // produced a certified bound.
  auto run_root_lp = [&]() {
    Model model;
    RootLpLayout layout;
    if (!BuildRootLp(&model, &layout, options.root_lp_max_rows)) return false;
    result.root_lp_rows = model.num_rows();
    // A retained basis from a previous retune round (delta re-tuning
    // in core/session.cc) stays dual feasible under the perturbed
    // objective/bounds — enter through the dual simplex and skip
    // primal phase 1; a fresh solve takes the primal phases.
    LpOptions lp_options;
    if (options.root_basis_seed != nullptr &&
        !options.root_basis_seed->empty()) {
      lp_options.entry = SimplexEntry::kDual;
    }
    LpSolution lp = SolveLp(model, lp_options, nullptr, nullptr,
                            options.root_basis_seed);
    if (lp.status.ok() && !lp.stats.certified) {
      // The bound, the seeded multipliers, and reduced-cost fixing
      // all cut the search permanently, so an uncertified root
      // solution gets one escalated re-solve: cold, primal entry,
      // fresh safeguard headroom.
      LpOptions retry;  // primal entry, no warm basis
      LpSolution again = SolveLp(model, retry, nullptr, nullptr, nullptr);
      if (again.status.ok()) lp = std::move(again);
    }
    result.root_lp_stats = lp.stats;
    // A non-OK LP (including an "infeasible" verdict, which on badly
    // scaled instances can be a phase-1 tolerance artifact) or one that
    // failed certification twice just forfeits the LP bound: the
    // combinatorial search and the Lagrangian dual remain the
    // authority, and a verified-feasible incumbent must never be
    // discarded on an unverified LP's word.
    if (!lp.status.ok() || !lp.stats.certified) return false;
    root_lp_bound_ = lp.objective;
    result.root_lp_bound = lp.objective;
    result.root_basis = lp.basis;
    rc_status_.assign(lp.basis.variables.begin(),
                      lp.basis.variables.begin() + n);
    rc_d_.assign(lp.reduced_costs.begin(), lp.reduced_costs.begin() + n);
    SeedLagrangianFromDuals(lp, layout);
    if (options.reduced_cost_fixing && has_incumbent) {
      result.variables_fixed += ApplyReducedCostFixing(incumbent_obj);
    }
    return true;
  };

  // Closes the solve when the root state (after reduced-cost fixing)
  // admits no completion that could beat the incumbent.
  int64_t bound_evals = 0;
  auto proven_at_root = [&]() {
    result.bound_evaluations = bound_evals;
    if (has_incumbent) {
      // Fixing closed the root: nothing beats the incumbent.
      result.selected = std::move(incumbent);
      result.objective = incumbent_obj;
      result.lower_bound = incumbent_obj;
      result.gap = 0.0;
      result.status = Status::Ok();
      if (mu_ready_) {
        result.mu_exit = mu_;
        result.lambda_exit = lambda_;
      }
    } else {
      result.status = Status::Infeasible("root bound infinite");
    }
    return result;
  };

  // The root bound, in order: the LP first when it always runs (or
  // when there is no incumbent for the dual to prove a gap against),
  // then the volume dual — one evaluation at LP duals, which are
  // already optimal for it — and then the gate: under kWhenUnproven
  // the LP runs only if the dual does not prove gap_target. The dual
  // aims at 0.9 × gap_target, so the search starts with some margin.
  const bool lp_first =
      options.root_lp == RootLpMode::kAlways ||
      (options.root_lp == RootLpMode::kWhenUnproven && !has_incumbent);
  const bool lp_seeded = lp_first && run_root_lp();
  rb.lp_escalated = lp_first && options.root_lp == RootLpMode::kWhenUnproven;

  std::vector<double> scores;
  double root_plain = NodeBound(root_fix_, &scores);
  ++bound_evals;
  if (root_plain == kInf || !ConstraintsAdmissible(root_fix_)) {
    return proven_at_root();
  }
  const int64_t fixed_before = result.variables_fixed;
  double root_lagr = -kInf;
  if (options.lagrangian) {
    DualStop stop;
    stop.upper_bound = has_incumbent ? incumbent_obj : root_plain * 2 + 1;
    if (!std::isfinite(stop.upper_bound)) {
      stop.upper_bound = std::abs(p_->constant_cost) + 1.0;
    }
    if (has_incumbent) stop.proof_gap = 0.9 * options.gap_target;
    if (options.root_lp == RootLpMode::kWhenUnproven) {
      stop.give_up_gap = options.gap_target;
    }
    const DualRun run =
        OptimizeLagrangian(stop, lp_seeded ? 1 : options.lagrangian_iterations);
    root_lagr = run.bound;
    rb.dual_iterations = run.iterations;
  }
  if (has_incumbent && gap_of(root_lagr) > options.gap_target &&
      !zbar_.empty()) {
    // The bound may be fine and the incumbent the weak side: try the
    // dual's rounded primal before paying for the LP.
    std::vector<uint8_t> rounded;
    if (RoundDualPrimal(rounded)) offer(rounded);
  }
  rb.dual_gap = gap_of(root_lagr);
  rb.dual_proven = rb.dual_gap <= options.gap_target;
  if (options.root_lp == RootLpMode::kWhenUnproven && !lp_first &&
      !rb.dual_proven) {
    rb.lp_escalated = true;
    // The LP duals replace the volume multipliers unless the dual
    // (which also honours the forced z) is tighter at its own point.
    const std::vector<double> dual_mu = mu_, dual_mu_sum = mu_sum_;
    const double dual_lambda = lambda_;
    const bool had_dual = std::isfinite(root_lagr);
    if (run_root_lp() && options.lagrangian) {
      const double at_duals =
          OptimizeLagrangian(DualStop{}, /*iterations=*/1).bound;
      if (had_dual && at_duals < root_lagr) {
        mu_ = dual_mu;
        mu_sum_ = dual_mu_sum;
        lambda_ = dual_lambda;
      } else {
        root_lagr = at_duals;
      }
    }
  }
  result.root_lagrangian_bound = root_lagr;
  // The multipliers may immediately prove variables out; if they did,
  // the root bound and branching scores must reflect the new fixings.
  if (options.reduced_cost_fixing && has_incumbent) {
    result.variables_fixed += ApplyReducedCostFixing(incumbent_obj);
  }
  if (result.variables_fixed != fixed_before) {
    root_plain = NodeBound(root_fix_, &scores);
    ++bound_evals;
    if (root_plain == kInf || !ConstraintsAdmissible(root_fix_)) {
      return proven_at_root();
    }
  }
  struct Node {
    double bound;
    int branch;  // chosen branching index (-1: leaf)
    std::vector<std::pair<int, int8_t>> fixes;
  };
  auto node_cmp = [](const Node& a, const Node& b) { return a.bound > b.bound; };
  std::priority_queue<Node, std::vector<Node>, decltype(node_cmp)> open(node_cmp);

  auto pick_branch = [&](const std::vector<double>& sc) {
    int best = -1;
    double best_v = 0;
    for (int a = 0; a < n; ++a) {
      if (sc[a] > best_v) {
        best_v = sc[a];
        best = a;
      }
    }
    return best;
  };

  {
    // Reduced-cost fixing can resolve the root outright (every variable
    // pinned): popped leaves are only *pruned*, completions are offered
    // at node creation — so the root's own completion must be offered
    // here like any other leaf.
    const int root_branch = pick_branch(scores);
    if (root_branch < 0) {
      std::vector<uint8_t> sel(n, 0);
      for (int a = 0; a < n; ++a) sel[a] = root_fix_[a] == 1 ? 1 : 0;
      offer(sel);
    }
    Node root{std::max({root_plain, root_lagr, root_lp_bound_}), root_branch,
              {}};
    open.push(std::move(root));
  }

  auto current_lb = [&]() {
    double lb = has_incumbent ? incumbent_obj : kInf;
    if (!open.empty()) lb = std::min(lb, open.top().bound);
    return std::max(lb == kInf ? -kInf : lb,
                    std::max(root_lagr, root_lp_bound_));
  };
  auto report = [&]() -> bool {
    MipProgress pr;
    pr.seconds = watch.Elapsed();
    pr.nodes = result.nodes;
    pr.has_incumbent = has_incumbent;
    pr.incumbent = incumbent_obj;
    pr.lower_bound = current_lb();
    if (has_incumbent) {
      pr.gap = std::max(0.0, (incumbent_obj - pr.lower_bound) /
                                 std::max(1e-12, std::abs(incumbent_obj)));
    }
    if (options.callback && !options.callback(pr)) return false;
    return true;
  };

  std::vector<int8_t> fixed(n);
  bool stopped = false;
  if (!report()) stopped = true;  // root feedback (bounds + first incumbent)
  while (!open.empty() && !stopped) {
    if (result.nodes >= options.node_limit ||
        watch.Elapsed() > options.time_limit_seconds) {
      break;
    }
    Node node = open.top();
    open.pop();
    if (has_incumbent) {
      // The popped node's subtree is not in the queue yet, so it must
      // participate in the proven lower bound.
      const double lb = std::min(node.bound, current_lb());
      const double gap = std::max(
          0.0, (incumbent_obj - lb) / std::max(1e-12, std::abs(incumbent_obj)));
      if (gap <= options.gap_target + 1e-12) {
        // Push the node back so the final bound accounting sees it.
        open.push(std::move(node));
        break;
      }
      if (node.bound >= incumbent_obj - kTol) continue;  // prune
    }
    if (node.branch < 0) continue;  // resolved leaf

    for (int8_t val : {static_cast<int8_t>(1), static_cast<int8_t>(0)}) {
      // Root reduced-cost fixings apply tree-wide; explicit node
      // branching decisions overlay them (an older node's own fix wins,
      // which merely forgoes the pruning for that subtree).
      std::copy(root_fix_.begin(), root_fix_.end(), fixed.begin());
      for (const auto& [a, v] : node.fixes) fixed[a] = v;
      fixed[node.branch] = val;
      ++result.nodes;
      if (!ConstraintsAdmissible(fixed)) continue;
      std::vector<double> child_scores;
      double bound = NodeBound(fixed, &child_scores);
      ++bound_evals;
      if (bound == kInf) continue;
      bound = std::max(bound, LagrangianNodeBound(fixed));
      if (mu_ready_) ++bound_evals;
      // Every completion is a solution, so the global LP bound floors
      // every node bound (tightens best-first ordering and gap checks).
      bound = std::max(bound, root_lp_bound_);
      if (has_incumbent && bound >= incumbent_obj - kTol) continue;

      const int branch = pick_branch(child_scores);
      if (branch < 0) {
        // Every query settles on base/selected options: the fixed set
        // itself (plus nothing) is the best completion of this node.
        std::vector<uint8_t> sel(n, 0);
        for (int a = 0; a < n; ++a) sel[a] = fixed[a] == 1 ? 1 : 0;
        if (offer(sel) && !report()) {
          stopped = true;
          break;
        }
        continue;
      }
      Node child;
      child.bound = bound;
      child.branch = branch;
      child.fixes = node.fixes;
      child.fixes.push_back({node.branch, val});
      open.push(std::move(child));
    }

    if ((result.nodes & 0xff) == 0) {
      if (!report()) break;
    }
    // Periodic dives to refresh the incumbent from a promising node.
    if ((result.nodes & 0x1ff) == 0 && !open.empty()) {
      std::copy(root_fix_.begin(), root_fix_.end(), fixed.begin());
      for (const auto& [a, v] : open.top().fixes) fixed[a] = v;
      std::vector<uint8_t> dive;
      if (GreedyIncumbent(fixed, dive) && offer(dive)) {
        if (!report()) break;
      }
    }
  }

  if (!has_incumbent) {
    result.bound_evaluations = bound_evals;
    result.status = Status::Infeasible("no feasible selection found");
    return result;
  }
  result.selected = std::move(incumbent);
  result.bound_evaluations = bound_evals;
  result.objective = incumbent_obj;
  result.lower_bound = open.empty() && !stopped &&
                               result.nodes < options.node_limit
                           ? incumbent_obj
                           : current_lb();
  result.gap = std::max(
      0.0, (result.objective - result.lower_bound) /
               std::max(1e-12, std::abs(result.objective)));
  result.status = Status::Ok();
  if (mu_ready_) {
    result.mu_exit = mu_;
    result.lambda_exit = lambda_;
  }
  return result;
}

}  // namespace cophy::lp
