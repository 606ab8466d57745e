#include "optimizer/simulator.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/strings.h"

namespace cophy {

namespace {

/// Does `seq` start with `prefix`?
bool StartsWith(const OrderSpec& seq, const OrderSpec& prefix) {
  if (prefix.size() > seq.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), seq.begin());
}

/// Dedups by exact order, keeping the min cost; trims to the cheapest
/// `cap` entries to bound DP state.
void PruneEntries(std::vector<std::pair<OrderSpec, double>>& entries, int cap) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<std::pair<OrderSpec, double>> kept;
  for (auto& e : entries) {
    bool dup = false;
    for (const auto& k : kept) {
      if (k.first == e.first) {
        dup = true;
        break;
      }
    }
    if (!dup) kept.push_back(std::move(e));
    if (static_cast<int>(kept.size()) >= cap) break;
  }
  entries = std::move(kept);
}

}  // namespace

// ---------------------------------------------------------------------------
// Slot analysis

struct SystemSimulator::SlotInfo {
  TableId table = kInvalidTable;
  double rows = 0;            // table row count
  double total_sel = 1.0;     // product over all predicates on the table
  double out_rows = 0;        // rows * total_sel
  int num_preds = 0;
  std::vector<ColumnId> needed;  // columns an index must carry to cover
  // Per-column predicate digests (first predicate per column wins).
  std::vector<std::pair<ColumnId, double>> eq_sels;
  std::vector<std::pair<ColumnId, double>> range_sels;
};

SystemSimulator::SystemSimulator(const Catalog* cat, const IndexPool* pool,
                                 CostModel model)
    : cat_(cat), pool_(pool), model_(std::move(model)) {
  COPHY_CHECK(cat != nullptr);
  COPHY_CHECK(pool != nullptr);
}

SystemSimulator::SlotInfo SystemSimulator::AnalyzeSlot(const Query& q,
                                                       int slot) const {
  COPHY_CHECK_GE(slot, 0);
  COPHY_CHECK_LT(slot, static_cast<int>(q.tables.size()));
  SlotInfo info;
  info.table = q.tables[slot];
  info.rows = static_cast<double>(cat_->table(info.table).row_count);
  for (const Predicate& p : q.PredicatesOn(info.table, *cat_)) {
    double sel;
    if (p.op == Predicate::Op::kEq) {
      sel = cat_->EqSelectivity(p.column, p.quantile);
      info.eq_sels.emplace_back(p.column, sel);
    } else {
      sel = cat_->RangeSelectivity(p.column, p.quantile, p.width);
      info.range_sels.emplace_back(p.column, sel);
    }
    info.total_sel *= sel;
    ++info.num_preds;
  }
  info.out_rows = std::max(1.0, info.rows * info.total_sel);
  info.needed = q.ColumnsUsed(info.table, *cat_);
  return info;
}

double SystemSimulator::SlotOutputRows(const Query& q, int slot) const {
  return AnalyzeSlot(q, slot).out_rows;
}

double SystemSimulator::SortCost(double rows) const {
  rows = std::max(rows, 2.0);
  double c = model_.sort_factor * model_.cpu_oper * rows * std::log2(rows);
  if (rows > model_.sort_mem_rows) {
    // External sort: spill and re-read once.
    c += 2.0 * model_.seq_page * rows / 64.0;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Access-path costing (the γ function)

double SystemSimulator::AccessCostImpl(const Query& q, int slot,
                                       const OrderSpec& order,
                                       IndexId a) const {
  const SlotInfo info = AnalyzeSlot(q, slot);
  auto eq_sel_on = [&](ColumnId c) -> const double* {
    for (const auto& [col, sel] : info.eq_sels) {
      if (col == c) return &sel;
    }
    return nullptr;
  };
  auto range_sel_on = [&](ColumnId c) -> const double* {
    for (const auto& [col, sel] : info.range_sels) {
      if (col == c) return &sel;
    }
    return nullptr;
  };

  // Resolve the access path's key and leaf geometry.
  std::vector<ColumnId> key;
  bool clustered;
  double leaf_pages;
  bool covers;
  if (a == kInvalidIndex) {
    // The base path I∅: the table's clustered primary-key index.
    key = cat_->table(info.table).primary_key;
    clustered = true;
    leaf_pages = cat_->TablePages(info.table);
    covers = true;
  } else {
    const Index& idx = (*pool_)[a];
    COPHY_CHECK_EQ(idx.table, info.table);
    key = idx.key_columns;
    clustered = idx.clustered;
    leaf_pages = IndexLeafPages(idx, *cat_);
    covers = idx.Covers(info.needed);
  }

  if (!OrderSatisfiedBy(order, key, EqualityBoundPrefix(q, key))) {
    return kInfiniteCost;
  }

  // Match a leading equality prefix, then at most one range column.
  double matched_sel = 1.0;
  int used_preds = 0;
  for (ColumnId kc : key) {
    if (const double* s = eq_sel_on(kc)) {
      matched_sel *= *s;
      ++used_preds;
      continue;
    }
    if (const double* s = range_sel_on(kc)) {
      matched_sel *= *s;
      ++used_preds;
    }
    break;
  }

  const double rows_scanned = std::max(1.0, info.rows * matched_sel);
  const int residual = info.num_preds - used_preds;
  double cost = 0.0;
  if (matched_sel < 1.0) cost += model_.btree_descent;
  cost += model_.seq_page * std::max(1.0, leaf_pages * matched_sel);
  cost += model_.cpu_tuple * rows_scanned;
  cost += model_.cpu_oper * residual * rows_scanned;
  if (!covers && !clustered) {
    // Row fetches for the qualifying index entries.
    cost += model_.rand_page * rows_scanned;
  }
  return cost;
}

// ---------------------------------------------------------------------------
// Interesting orders and template enumeration

std::vector<std::vector<OrderSpec>> SystemSimulator::SlotOrderCandidates(
    const Query& q) const {
  constexpr int kMaxOrdersPerSlot = 4;
  std::vector<std::vector<OrderSpec>> result(q.tables.size());
  // Group-by / order-by sequences help only if entirely on one table.
  auto all_on_table = [&](const std::vector<ColumnId>& cols, TableId t) {
    if (cols.empty()) return false;
    for (ColumnId c : cols) {
      if (cat_->column(c).table != t) return false;
    }
    return true;
  };
  for (size_t slot = 0; slot < q.tables.size(); ++slot) {
    const TableId t = q.tables[slot];
    std::vector<OrderSpec>& orders = result[slot];
    orders.push_back({});  // no requirement; always first
    auto add = [&](const OrderSpec& o) {
      if (o.empty()) return;
      if (static_cast<int>(orders.size()) >= kMaxOrdersPerSlot) return;
      if (std::find(orders.begin(), orders.end(), o) == orders.end()) {
        orders.push_back(o);
      }
    };
    for (const JoinPredicate& j : q.joins) {
      if (cat_->column(j.left).table == t) add({j.left});
      if (cat_->column(j.right).table == t) add({j.right});
    }
    if (all_on_table(q.group_by, t)) add(q.group_by);
    if (all_on_table(q.order_by, t)) add(q.order_by);
  }
  return result;
}

std::vector<TemplatePlan> SystemSimulator::EnumerateTemplatesImpl(
    const Query& q) {
  constexpr int kMaxTemplates = 96;
  const auto candidates = SlotOrderCandidates(q);
  std::vector<TemplatePlan> out;
  std::vector<size_t> pick(candidates.size(), 0);
  while (true) {
    TemplatePlan tp;
    tp.slot_orders.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      tp.slot_orders.push_back(candidates[i][pick[i]]);
    }
    tp.internal_cost = InternalPlanCost(q, tp.slot_orders);
    ++whatif_calls_;  // each template costs one optimization
    out.push_back(std::move(tp));
    if (static_cast<int>(out.size()) >= kMaxTemplates) break;
    // Advance the mixed-radix counter.
    size_t i = 0;
    while (i < pick.size() && ++pick[i] == candidates[i].size()) {
      pick[i] = 0;
      ++i;
    }
    if (i == pick.size()) break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Internal plan cost: DP join enumeration with hash / sort-merge joins.

double SystemSimulator::InternalPlanCost(
    const Query& q, const std::vector<OrderSpec>& slot_orders) const {
  const int n = static_cast<int>(q.tables.size());
  COPHY_CHECK_EQ(static_cast<int>(slot_orders.size()), n);
  COPHY_CHECK_LE(n, 12);

  std::vector<SlotInfo> slots;
  slots.reserve(n);
  for (int i = 0; i < n; ++i) slots.push_back(AnalyzeSlot(q, i));

  // Join predicate digests: slot endpoints + cardinality factor.
  struct JoinEdge {
    int left_slot, right_slot;
    ColumnId left_col, right_col;
    double factor;
  };
  std::vector<JoinEdge> edges;
  for (const JoinPredicate& j : q.joins) {
    const int ls = q.TableSlot(cat_->column(j.left).table);
    const int rs = q.TableSlot(cat_->column(j.right).table);
    COPHY_CHECK_GE(ls, 0);
    COPHY_CHECK_GE(rs, 0);
    const double dl = static_cast<double>(cat_->column(j.left).distinct);
    const double dr = static_cast<double>(cat_->column(j.right).distinct);
    edges.push_back({ls, rs, j.left, j.right, 1.0 / std::max(1.0, std::max(dl, dr))});
  }

  const uint32_t full = (1u << n) - 1;
  // Cardinality of each subset: product of slot outputs × join factors.
  std::vector<double> card(full + 1, 0.0);
  for (uint32_t mask = 1; mask <= full; ++mask) {
    double c = 1.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) c *= slots[i].out_rows;
    }
    for (const JoinEdge& e : edges) {
      if ((mask & (1u << e.left_slot)) && (mask & (1u << e.right_slot))) {
        c *= e.factor;
      }
    }
    card[mask] = std::max(1.0, c);
  }

  using Entry = std::pair<OrderSpec, double>;  // (output order, cost)
  std::vector<std::vector<Entry>> dp(full + 1);
  for (int i = 0; i < n; ++i) {
    dp[1u << i].push_back({slot_orders[i], 0.0});
  }

  constexpr int kEntryCap = 16;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // single-table: leaf
    std::vector<Entry> entries;
    // Enumerate ordered splits (left, right): probe/outer side = left.
    for (uint32_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      const uint32_t rest = mask ^ sub;
      if (dp[sub].empty() || dp[rest].empty()) continue;
      // Crossing join predicates between sub and rest.
      std::vector<const JoinEdge*> crossing;
      for (const JoinEdge& e : edges) {
        const bool l_in = sub & (1u << e.left_slot);
        const bool r_in = rest & (1u << e.right_slot);
        const bool l_in2 = rest & (1u << e.left_slot);
        const bool r_in2 = sub & (1u << e.right_slot);
        if ((l_in && r_in) || (l_in2 && r_in2)) crossing.push_back(&e);
      }
      const double cl = card[sub], cr = card[rest], co = card[mask];
      for (const Entry& le : dp[sub]) {
        for (const Entry& re : dp[rest]) {
          if (crossing.empty()) {
            // Cartesian product (rare): cost quadratic, order lost.
            const double c =
                le.second + re.second + model_.cpu_tuple * cl * cr;
            entries.push_back({{}, c});
            continue;
          }
          // Hash join: build on `rest`, probe with `sub` (both roles are
          // covered because the split enumeration is ordered).
          {
            const double c = le.second + re.second +
                             model_.hash_factor * model_.cpu_oper * cr +
                             model_.cpu_oper * cl + model_.cpu_tuple * co;
            entries.push_back({le.first, c});  // probe order preserved
          }
          // Sort-merge join on each crossing predicate.
          for (const JoinEdge* e : crossing) {
            const bool left_has_l = (sub & (1u << e->left_slot)) != 0;
            const ColumnId lcol = left_has_l ? e->left_col : e->right_col;
            const ColumnId rcol = left_has_l ? e->right_col : e->left_col;
            double c = le.second + re.second;
            OrderSpec out_order;
            if (StartsWith(le.first, {lcol})) {
              out_order = le.first;  // left already sorted on join key
            } else {
              c += SortCost(cl);
              out_order = {lcol};
            }
            if (!StartsWith(re.first, {rcol})) c += SortCost(cr);
            c += model_.cpu_oper * (cl + cr) + model_.cpu_tuple * co;
            entries.push_back({std::move(out_order), c});
          }
        }
      }
    }
    PruneEntries(entries, kEntryCap);
    dp[mask] = std::move(entries);
  }

  // Top-level: aggregation then presentation order.
  const bool has_agg = std::any_of(
      q.outputs.begin(), q.outputs.end(),
      [](const OutputExpr& o) { return o.func != AggFunc::kNone; });
  double best = kInfiniteCost;
  for (const Entry& e : dp[full]) {
    double cost = e.second;
    OrderSpec order = e.first;
    double rows = card[full];
    if (!q.group_by.empty()) {
      double group_card = 1.0;
      for (ColumnId g : q.group_by) {
        group_card *= static_cast<double>(cat_->column(g).distinct);
        if (group_card > rows) break;
      }
      group_card = std::min(group_card, rows);
      if (StartsWith(order, q.group_by)) {
        cost += model_.cpu_oper * rows;  // stream aggregation
      } else {
        cost += model_.hash_factor * model_.cpu_oper * rows;
        order.clear();  // hash aggregation destroys order
      }
      rows = group_card;
    } else if (has_agg) {
      cost += model_.cpu_oper * rows;  // scalar aggregate
      rows = 1.0;
      order.clear();
    }
    if (!q.order_by.empty() && !StartsWith(order, q.order_by)) {
      cost += SortCost(rows);
    }
    best = std::min(best, cost);
  }
  COPHY_CHECK(best < kInfiniteCost);
  return best;
}

// ---------------------------------------------------------------------------
// Full statement costing

double SystemSimulator::BestAccessCost(const Query& q, int slot,
                                       const OrderSpec& order,
                                       const Configuration& x,
                                       IndexId* chosen) const {
  double best = AccessCostImpl(q, slot, order, kInvalidIndex);
  if (chosen != nullptr) *chosen = kInvalidIndex;
  const TableId t = q.tables[slot];
  for (IndexId id : x.ids()) {
    if ((*pool_)[id].table != t) continue;
    const double c = AccessCostImpl(q, slot, order, id);
    if (c < best) {
      best = c;
      if (chosen != nullptr) *chosen = id;
    }
  }
  return best;
}

double SystemSimulator::ShellCostImpl(const Query& q,
                                      const Configuration& x) const {
  double best = kInfiniteCost;
  const auto candidates = SlotOrderCandidates(q);
  std::vector<size_t> pick(candidates.size(), 0);
  constexpr int kMaxTemplates = 96;
  int count = 0;
  while (true) {
    std::vector<OrderSpec> slot_orders;
    slot_orders.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      slot_orders.push_back(candidates[i][pick[i]]);
    }
    double total = InternalPlanCost(q, slot_orders);
    for (size_t i = 0; i < slot_orders.size() && total < kInfiniteCost; ++i) {
      total += BestAccessCost(q, static_cast<int>(i), slot_orders[i], x, nullptr);
    }
    best = std::min(best, total);
    if (++count >= kMaxTemplates) break;
    size_t i = 0;
    while (i < pick.size() && ++pick[i] == candidates[i].size()) {
      pick[i] = 0;
      ++i;
    }
    if (i == pick.size()) break;
  }
  return best;
}

double SystemSimulator::BaseUpdateCostImpl(const Query& q) const {
  if (!q.IsUpdate()) return 0.0;
  const int slot = q.TableSlot(q.update_table);
  COPHY_CHECK_GE(slot, 0);
  const double rows = SlotOutputRows(q, slot);
  return rows * (0.5 * model_.rand_page + model_.cpu_tuple);
}

double SystemSimulator::UpdateCostImpl(IndexId a, const Query& q) const {
  if (!q.IsUpdate()) return 0.0;
  const Index& idx = (*pool_)[a];
  if (idx.table != q.update_table) return 0.0;
  // An index is affected only if the update writes one of its columns.
  bool affected = false;
  for (ColumnId c : q.set_columns) {
    if (std::find(idx.key_columns.begin(), idx.key_columns.end(), c) !=
            idx.key_columns.end() ||
        std::find(idx.include_columns.begin(), idx.include_columns.end(), c) !=
            idx.include_columns.end()) {
      affected = true;
      break;
    }
  }
  if (!affected) return 0.0;
  const int slot = q.TableSlot(q.update_table);
  COPHY_CHECK_GE(slot, 0);
  const double rows = SlotOutputRows(q, slot);
  const double leaf = IndexLeafPages(idx, *cat_);
  return rows * (model_.update_leaf +
                 model_.cpu_oper * std::log2(std::max(2.0, leaf)));
}

double SystemSimulator::CostImpl(const Query& q, const Configuration& x) {
  ++whatif_calls_;
  if (q.IsUpdate()) {
    double c = ShellCostImpl(q, x) + BaseUpdateCostImpl(q);
    for (IndexId a : x.ids()) c += UpdateCostImpl(a, q);
    return c;
  }
  return ShellCostImpl(q, x);
}

// ---------------------------------------------------------------------------
/// WhatIfOptimizer boundary: the simulator never fails, so the fallible
// interface simply wraps the implementations above.

Result<double> SystemSimulator::Cost(const Query& q, const Configuration& x) {
  return CostImpl(q, x);
}

Result<double> SystemSimulator::UpdateCost(IndexId a, const Query& q) {
  return UpdateCostImpl(a, q);
}

Result<std::vector<TemplatePlan>> SystemSimulator::EnumerateTemplates(
    const Query& q) {
  return EnumerateTemplatesImpl(q);
}

Result<double> SystemSimulator::AccessCost(const Query& q, int slot,
                                           const OrderSpec& order, IndexId a) {
  return AccessCostImpl(q, slot, order, a);
}

Result<double> SystemSimulator::ShellCost(const Query& q,
                                          const Configuration& x) {
  return ShellCostImpl(q, x);
}

Result<double> SystemSimulator::BaseUpdateCost(const Query& q) {
  return BaseUpdateCostImpl(q);
}

// ---------------------------------------------------------------------------
// Explain

std::string SystemSimulator::Explain(const Query& q, const Configuration& x) {
  const auto candidates = SlotOrderCandidates(q);
  std::vector<size_t> pick(candidates.size(), 0);
  double best = kInfiniteCost;
  std::vector<OrderSpec> best_orders;
  double best_beta = 0;
  constexpr int kMaxTemplates = 96;
  int count = 0;
  while (true) {
    std::vector<OrderSpec> slot_orders;
    for (size_t i = 0; i < candidates.size(); ++i) {
      slot_orders.push_back(candidates[i][pick[i]]);
    }
    const double beta = InternalPlanCost(q, slot_orders);
    double total = beta;
    for (size_t i = 0; i < slot_orders.size() && total < kInfiniteCost; ++i) {
      total += BestAccessCost(q, static_cast<int>(i), slot_orders[i], x, nullptr);
    }
    if (total < best) {
      best = total;
      best_orders = slot_orders;
      best_beta = beta;
    }
    if (++count >= kMaxTemplates) break;
    size_t i = 0;
    while (i < pick.size() && ++pick[i] == candidates[i].size()) {
      pick[i] = 0;
      ++i;
    }
    if (i == pick.size()) break;
  }

  std::string out = StrFormat("plan cost %.2f (internal %.2f)\n", best, best_beta);
  for (size_t i = 0; i < best_orders.size(); ++i) {
    IndexId chosen = kInvalidIndex;
    const double gamma =
        BestAccessCost(q, static_cast<int>(i), best_orders[i], x, &chosen);
    std::string order_str = "-";
    if (!best_orders[i].empty()) {
      std::vector<std::string> names;
      for (ColumnId c : best_orders[i]) names.push_back(cat_->column(c).name);
      order_str = StrJoin(names, ",");
    }
    out += StrFormat(
        "  slot %zu %-10s order[%s] γ=%.2f via %s\n", i,
        cat_->table(q.tables[i]).name.c_str(), order_str.c_str(), gamma,
        chosen == kInvalidIndex ? "clustered PK"
                                : (*pool_)[chosen].ToString(*cat_).c_str());
  }
  return out;
}

}  // namespace cophy
