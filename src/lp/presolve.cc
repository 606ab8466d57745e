#include "lp/presolve.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace cophy::lp {

namespace {

/// Per-query reduction outcome (one slot per query; written only by the
/// worker that claimed the query, which is what makes the parallel scan
/// bit-identical across thread counts).
struct QueryReduction {
  ChoiceQuery query;
  int64_t duplicate_plans = 0;
  int64_t dominated_plans = 0;
  int64_t options_in = 0;
  int64_t plans_in = 0;
};

/// Exact byte key of a plan's slot structure (indexes + gamma bit
/// patterns, slot-delimited). Two plans with equal keys have identical
/// cost under every selection except for beta.
std::string SlotKey(const ChoicePlan& plan) {
  std::string key;
  key.reserve(plan.slots.size() * 16);
  for (const ChoiceSlot& slot : plan.slots) {
    for (const ChoiceOption& o : slot.options) {
      char buf[sizeof(int) + sizeof(double)];
      std::memcpy(buf, &o.index, sizeof(int));
      std::memcpy(buf + sizeof(int), &o.gamma, sizeof(double));
      key.append(buf, sizeof(buf));
    }
    key.push_back('\xff');  // slot delimiter (index bytes never emit it alone)
  }
  return key;
}

/// Rule 1: drops slot options that can never be chosen — everything
/// sorted after the first base option (the base path is always
/// available and no more expensive), and later duplicates of an index
/// already offered in the slot (QueryCost stops at the first available
/// occurrence).
ChoicePlan PruneOptions(const ChoicePlan& in, int64_t* removed) {
  ChoicePlan out;
  out.beta = in.beta;
  out.slots.reserve(in.slots.size());
  std::vector<int> seen;
  for (const ChoiceSlot& slot : in.slots) {
    ChoiceSlot pruned;
    pruned.options.reserve(slot.options.size());
    seen.clear();
    for (const ChoiceOption& o : slot.options) {
      if (o.index == kBaseOption) {
        pruned.options.push_back(o);
        break;  // options after the base are unreachable
      }
      if (std::find(seen.begin(), seen.end(), o.index) != seen.end()) {
        continue;  // shadowed duplicate: earlier occurrence is cheaper
      }
      seen.push_back(o.index);
      pruned.options.push_back(o);
    }
    *removed +=
        static_cast<int64_t>(slot.options.size()) - pruned.options.size();
    out.slots.push_back(std::move(pruned));
  }
  return out;
}

/// Optimistic (all indexes selected) plan cost.
double BestCase(const ChoicePlan& plan) {
  double c = plan.beta;
  for (const ChoiceSlot& slot : plan.slots) {
    double g = kInf;
    for (const ChoiceOption& o : slot.options) {
      g = std::min(g, o.gamma);
    }
    if (g == kInf) return kInf;  // empty slot: plan never satisfiable
    c += g;
  }
  return c;
}

/// Pessimistic (empty selection) plan cost; kInf when a slot has no
/// base fallback.
double WorstCase(const ChoicePlan& plan) {
  double c = plan.beta;
  for (const ChoiceSlot& slot : plan.slots) {
    double g = kInf;
    for (const ChoiceOption& o : slot.options) {
      if (o.index == kBaseOption) {
        g = o.gamma;
        break;
      }
    }
    if (g == kInf) return kInf;
    c += g;
  }
  return c;
}

/// Requirement-style plan (the ILP per-configuration form): every slot
/// offers exactly one option. Fills the sorted requirement set and the
/// full (selection-independent) cost; false when any slot has
/// alternatives.
bool RequirementForm(const ChoicePlan& plan, std::vector<int>* required,
                     double* total) {
  required->clear();
  *total = plan.beta;
  for (const ChoiceSlot& slot : plan.slots) {
    if (slot.options.size() != 1) return false;
    const ChoiceOption& o = slot.options[0];
    *total += o.gamma;
    if (o.index != kBaseOption) required->push_back(o.index);
  }
  std::sort(required->begin(), required->end());
  return true;
}

/// Is `a` (sorted) a subset of `b` (sorted)?
bool SubsetOf(const std::vector<int>& a, const std::vector<int>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

QueryReduction ReduceQuery(const ChoiceQuery& in) {
  QueryReduction r;
  r.query.weight = in.weight;
  r.query.cost_cap = in.cost_cap;
  r.plans_in = static_cast<int64_t>(in.plans.size());
  for (const ChoicePlan& plan : in.plans) {
    for (const ChoiceSlot& slot : plan.slots) {
      r.options_in += static_cast<int64_t>(slot.options.size());
    }
  }

  // Plans with an empty slot can never be satisfied (QueryCost prices
  // them +inf under every selection): drop them up front. A query left
  // with no plan at all keeps one empty-slot sentinel so the reduced
  // problem is exactly as unsatisfiable as the input — degenerate
  // inputs must surface as Status::Infeasible downstream, not abort
  // here.
  std::vector<const ChoicePlan*> live;
  live.reserve(in.plans.size());
  for (const ChoicePlan& plan : in.plans) {
    bool ok = true;
    for (const ChoiceSlot& slot : plan.slots) {
      ok &= !slot.options.empty();
    }
    if (ok) {
      live.push_back(&plan);
    } else {
      ++r.dominated_plans;
    }
  }
  if (live.empty()) {
    ChoicePlan sentinel;
    sentinel.slots.emplace_back();
    r.query.plans.push_back(std::move(sentinel));
    return r;
  }

  // Rule 1: per-slot option pruning.
  int64_t options_removed = 0;
  std::vector<ChoicePlan> plans;
  plans.reserve(live.size());
  for (const ChoicePlan* plan : live) {
    plans.push_back(PruneOptions(*plan, &options_removed));
  }

  // Rule 2: identical slot structures keep the cheapest beta (first on
  // ties, so the pass is order-deterministic).
  std::vector<uint8_t> dead(plans.size(), 0);
  {
    std::unordered_map<std::string, int> canonical;
    for (int i = 0; i < static_cast<int>(plans.size()); ++i) {
      auto [it, inserted] = canonical.emplace(SlotKey(plans[i]), i);
      if (inserted) continue;
      const int keep = it->second;
      if (plans[i].beta < plans[keep].beta) {
        dead[keep] = 1;
        ++r.dominated_plans;
        it->second = i;
      } else if (plans[i].beta == plans[keep].beta) {
        dead[i] = 1;
        ++r.duplicate_plans;
      } else {
        dead[i] = 1;
        ++r.dominated_plans;
      }
    }
  }

  // Rule 3a: best/worst-case interval dominance. The plan with the
  // smallest worst case covers every selection at that cost, so any
  // other plan whose best case is no better can never win the min.
  {
    double min_worst = kInf;
    int keeper = -1;
    for (int i = 0; i < static_cast<int>(plans.size()); ++i) {
      if (dead[i]) continue;
      const double w = WorstCase(plans[i]);
      if (w < min_worst) {
        min_worst = w;
        keeper = i;
      }
    }
    if (keeper >= 0) {
      for (int i = 0; i < static_cast<int>(plans.size()); ++i) {
        if (dead[i] || i == keeper) continue;
        if (BestCase(plans[i]) >= min_worst) {
          dead[i] = 1;
          ++r.dominated_plans;
        }
      }
    }
  }

  // Rule 3b: requirement-subset dominance for ILP-form plans — a
  // configuration is dominated by a cheaper configuration that needs a
  // subset of its indexes (§5's atomic-configuration pruning).
  {
    std::vector<int> req_i, req_j;
    std::vector<int> candidates;
    std::vector<std::pair<std::vector<int>, double>> forms(plans.size());
    std::vector<uint8_t> is_req(plans.size(), 0);
    for (int i = 0; i < static_cast<int>(plans.size()); ++i) {
      if (dead[i]) continue;
      if (RequirementForm(plans[i], &forms[i].first, &forms[i].second)) {
        is_req[i] = 1;
        candidates.push_back(i);
      }
    }
    for (int i : candidates) {
      if (dead[i]) continue;
      for (int j : candidates) {
        if (i == j || dead[j]) continue;
        const auto& [rj, tj] = forms[j];
        const auto& [ri, ti] = forms[i];
        if (tj > ti || !SubsetOf(rj, ri)) continue;
        // j serves every selection that satisfies i, no dearer. Remove
        // i unless the two are interchangeable and j comes later (keep
        // the first of an equivalent pair).
        if (tj < ti || rj.size() < ri.size() || j < i) {
          dead[i] = 1;
          ++r.dominated_plans;
          break;
        }
      }
    }
  }

  for (int i = 0; i < static_cast<int>(plans.size()); ++i) {
    if (!dead[i]) r.query.plans.push_back(std::move(plans[i]));
  }
  COPHY_CHECK(!r.query.plans.empty());
  return r;
}

}  // namespace

std::vector<uint8_t> PresolvedChoiceProblem::Inflate(
    const std::vector<uint8_t>& reduced) const {
  COPHY_CHECK_EQ(reduced.size(), kept_indexes.size());
  std::vector<uint8_t> full(original_num_indexes, 0);
  for (size_t i = 0; i < kept_indexes.size(); ++i) {
    full[kept_indexes[i]] = reduced[i];
  }
  return full;
}

std::vector<uint8_t> PresolvedChoiceProblem::Restrict(
    const std::vector<uint8_t>& original) const {
  COPHY_CHECK_EQ(static_cast<int>(original.size()), original_num_indexes);
  std::vector<uint8_t> reduced(kept_indexes.size(), 0);
  for (size_t i = 0; i < kept_indexes.size(); ++i) {
    reduced[i] = original[kept_indexes[i]];
  }
  return reduced;
}

PresolvedChoiceProblem PresolveChoiceProblem(const ChoiceProblem& p,
                                             cophy::ThreadPool* pool) {
  Stopwatch watch;
  PresolvedChoiceProblem out;
  out.original_num_indexes = p.num_indexes;
  PresolveStats& stats = out.stats;
  stats.queries = static_cast<int64_t>(p.queries.size());
  stats.indexes_in = p.num_indexes;

  // Per-query dedup/dominance scans, parallel and deterministic (each
  // worker writes only its own slot).
  std::vector<QueryReduction> reduced(p.queries.size());
  cophy::ParallelFor(pool, static_cast<int64_t>(p.queries.size()),
                     [&](int64_t q) { reduced[q] = ReduceQuery(p.queries[q]); });
  for (const QueryReduction& r : reduced) {
    stats.plans_in += r.plans_in;
    stats.duplicate_plans += r.duplicate_plans;
    stats.dominated_plans += r.dominated_plans;
    stats.options_in += r.options_in;
  }

  // Rule 4: index dropping. An index survives if some surviving option
  // strictly improves a slot (cheaper than the slot's base fallback, or
  // the slot has no fallback at all, so the index may be needed for
  // satisfiability), or a >=/= z-row (or a <= row with negative
  // coefficient, where selecting can relax the row) references it.
  std::vector<uint8_t> keep(p.num_indexes, 0);
  for (const QueryReduction& r : reduced) {
    for (const ChoicePlan& plan : r.query.plans) {
      for (const ChoiceSlot& slot : plan.slots) {
        double base_gamma = kInf;
        for (const ChoiceOption& o : slot.options) {
          if (o.index == kBaseOption) base_gamma = o.gamma;
        }
        for (const ChoiceOption& o : slot.options) {
          if (o.index == kBaseOption) continue;
          if (o.gamma < base_gamma) keep[o.index] = 1;
        }
      }
    }
  }
  for (const ZRow& row : p.z_rows) {
    for (const auto& [a, c] : row.terms) {
      if (row.sense != Sense::kLe || c < 0) keep[a] = 1;
    }
  }

  std::vector<int> old_to_new(p.num_indexes, -1);
  for (int a = 0; a < p.num_indexes; ++a) {
    if (keep[a]) {
      old_to_new[a] = static_cast<int>(out.kept_indexes.size());
      out.kept_indexes.push_back(a);
    }
  }
  stats.indexes_out = static_cast<int64_t>(out.kept_indexes.size());

  // Assemble the reduced problem. Options whose index was dropped are
  // exact ties with an always-available base fallback, so removing them
  // leaves every QueryCost unchanged.
  ChoiceProblem& rp = out.problem;
  rp.num_indexes = static_cast<int>(out.kept_indexes.size());
  rp.fixed_cost.reserve(rp.num_indexes);
  rp.size.reserve(rp.num_indexes);
  for (int a : out.kept_indexes) {
    rp.fixed_cost.push_back(p.fixed_cost[a]);
    rp.size.push_back(p.size[a]);
  }
  rp.storage_budget = p.storage_budget;
  rp.constant_cost = p.constant_cost;
  rp.queries.reserve(reduced.size());
  for (QueryReduction& r : reduced) {
    ChoiceQuery cq;
    cq.weight = r.query.weight;
    cq.cost_cap = r.query.cost_cap;
    cq.plans.reserve(r.query.plans.size());
    for (ChoicePlan& plan : r.query.plans) {
      ChoicePlan np;
      np.beta = plan.beta;
      np.slots.reserve(plan.slots.size());
      for (ChoiceSlot& slot : plan.slots) {
        ChoiceSlot ns;
        ns.options.reserve(slot.options.size());
        for (const ChoiceOption& o : slot.options) {
          if (o.index == kBaseOption) {
            ns.options.push_back(o);
          } else if (old_to_new[o.index] >= 0) {
            ns.options.push_back({old_to_new[o.index], o.gamma});
          }
        }
        // Dropped indexes were exact ties with a base fallback, so a
        // non-empty slot stays non-empty; only the unsatisfiable
        // sentinel (slot empty on input) passes through empty.
        COPHY_CHECK(slot.options.empty() || !ns.options.empty());
        ns.options.shrink_to_fit();
        np.slots.push_back(std::move(ns));
      }
      cq.plans.push_back(std::move(np));
    }
    rp.queries.push_back(std::move(cq));
  }
  stats.plans_out = 0;
  stats.options_out = 0;
  for (const ChoiceQuery& q : rp.queries) {
    stats.plans_out += static_cast<int64_t>(q.plans.size());
    for (const ChoicePlan& plan : q.plans) {
      for (const ChoiceSlot& slot : plan.slots) {
        stats.options_out += static_cast<int64_t>(slot.options.size());
      }
    }
  }
  rp.z_rows.reserve(p.z_rows.size());
  for (const ZRow& row : p.z_rows) {
    ZRow nr;
    nr.sense = row.sense;
    nr.rhs = row.rhs;
    nr.name = row.name;
    for (const auto& [a, c] : row.terms) {
      if (old_to_new[a] >= 0) nr.terms.push_back({old_to_new[a], c});
    }
    rp.z_rows.push_back(std::move(nr));
  }

  stats.seconds = watch.Elapsed();
  return out;
}

namespace {

/// SplitMix64-style combiner (same scheme as the workload signatures;
/// duplicated here because lp must not depend on workload/).
struct StructHasher {
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  void Mix(uint64_t v) {
    uint64_t z = state + 0x9e3779b97f4a7c15ULL + v;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    state = z ^ (z >> 31);
  }
  void MixDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
};

}  // namespace

uint64_t ChoiceStructureDigest(const ChoiceProblem& p) {
  StructHasher h;
  h.Mix(static_cast<uint64_t>(p.num_indexes));
  h.Mix(p.queries.size());
  for (const ChoiceQuery& q : p.queries) {
    h.Mix(q.plans.size());
    for (const ChoicePlan& plan : q.plans) {
      h.MixDouble(plan.beta);
      h.Mix(plan.slots.size());
      for (const ChoiceSlot& slot : plan.slots) {
        h.Mix(slot.options.size());
        for (const ChoiceOption& o : slot.options) {
          h.Mix(static_cast<uint64_t>(static_cast<int64_t>(o.index)));
          h.MixDouble(o.gamma);
        }
      }
    }
  }
  h.Mix(p.z_rows.size());
  for (const ZRow& row : p.z_rows) {
    h.Mix(static_cast<uint64_t>(row.sense));
    h.Mix(row.terms.size());
    for (const auto& [a, c] : row.terms) {
      h.Mix(static_cast<uint64_t>(static_cast<int64_t>(a)));
      h.MixDouble(c);
    }
  }
  return h.state;
}

PresolvedChoiceProblem ReapplyPresolve(const PresolvedChoiceProblem& prior,
                                       const ChoiceProblem& p) {
  Stopwatch watch;
  COPHY_CHECK_EQ(prior.original_num_indexes, p.num_indexes);
  COPHY_CHECK_EQ(prior.problem.queries.size(), p.queries.size());
  PresolvedChoiceProblem out = prior;
  ChoiceProblem& rp = out.problem;
  for (size_t q = 0; q < rp.queries.size(); ++q) {
    rp.queries[q].weight = p.queries[q].weight;
    rp.queries[q].cost_cap = p.queries[q].cost_cap;
  }
  for (size_t i = 0; i < out.kept_indexes.size(); ++i) {
    rp.fixed_cost[i] = p.fixed_cost[out.kept_indexes[i]];
    rp.size[i] = p.size[out.kept_indexes[i]];
  }
  rp.storage_budget = p.storage_budget;
  rp.constant_cost = p.constant_cost;
  COPHY_CHECK_EQ(rp.z_rows.size(), p.z_rows.size());
  for (size_t r = 0; r < rp.z_rows.size(); ++r) {
    rp.z_rows[r].rhs = p.z_rows[r].rhs;
  }
  out.stats.seconds = watch.Elapsed();
  return out;
}

ChoiceSolution SolveChoiceProblem(const ChoiceProblem& p,
                                  const ChoiceSolveOptions& options,
                                  PresolveStats* stats,
                                  cophy::ThreadPool* pool) {
  ChoiceResolveState* rs = options.resolve;
  ChoiceSolveOptions local = options;
  local.resolve = nullptr;
  uint64_t digest = 0;
  bool reuse = false;
  if (rs != nullptr) {
    digest = options.structure_digest_hint != 0 ? options.structure_digest_hint
                                                : ChoiceStructureDigest(p);
    reuse = rs->valid && rs->structure_digest == digest &&
            rs->presolve_enabled == options.presolve &&
            static_cast<int>(rs->selected.size()) == p.num_indexes;
  }
  if (reuse && local.warm_start.empty()) local.warm_start = rs->selected;

  ChoiceSolution sol;
  std::shared_ptr<PresolvedChoiceProblem> pre;
  if (!options.presolve) {
    if (stats != nullptr) {
      *stats = PresolveStats{};
      stats->indexes_in = stats->indexes_out = p.num_indexes;
    }
    if (reuse) {
      local.mu_seed = &rs->mu;
      local.lambda_seed = rs->lambda;
      if (!rs->root_basis.empty()) local.root_basis_seed = &rs->root_basis;
    }
    ChoiceSolver solver(&p);
    sol = solver.Solve(local);
  } else {
    if (reuse && rs->presolved != nullptr) {
      // Retained reductions: re-extract the weight-dependent
      // coefficients through the stored map instead of re-scanning.
      pre = std::make_shared<PresolvedChoiceProblem>(
          ReapplyPresolve(*rs->presolved, p));
      local.mu_seed = &rs->mu;
      local.lambda_seed = rs->lambda;
      if (!rs->root_basis.empty()) local.root_basis_seed = &rs->root_basis;
    } else {
      pre = std::make_shared<PresolvedChoiceProblem>(
          PresolveChoiceProblem(p, pool));
      reuse = false;
    }
    if (stats != nullptr) *stats = pre->stats;
    if (!local.warm_start.empty() &&
        static_cast<int>(local.warm_start.size()) == p.num_indexes) {
      local.warm_start = pre->Restrict(local.warm_start);
    }
    ChoiceSolver solver(&pre->problem);
    sol = solver.Solve(local);
    if (sol.status.ok()) sol.selected = pre->Inflate(sol.selected);
  }

  sol.reused_state = reuse;
  if (rs != nullptr) {
    ++rs->solves;
    if (reuse) ++rs->warm_reuses;
    rs->valid = sol.status.ok();
    if (sol.status.ok()) {
      // A solve that skipped the root LP keeps the last basis for the
      // next one that runs it, as long as the structure (and with it
      // the solver space) is unchanged.
      const bool same_space = rs->structure_digest == digest &&
                              rs->presolve_enabled == options.presolve;
      if (!sol.root_basis.empty()) {
        rs->root_basis = sol.root_basis;
      } else if (!same_space) {
        rs->root_basis = LpBasis{};
      }
      rs->structure_digest = digest;
      rs->presolve_enabled = options.presolve;
      rs->selected = sol.selected;
      rs->mu = sol.mu_exit;
      rs->lambda = sol.lambda_exit;
      rs->presolved = pre;
    }
  }
  return sol;
}

}  // namespace cophy::lp
