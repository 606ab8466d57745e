#include "baselines/ilp_advisor.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/stopwatch.h"
#include "core/bipgen.h"
#include "index/candidates.h"
#include "lp/choice_problem.h"
#include "lp/presolve.h"

namespace cophy {

IlpAdvisor::IlpAdvisor(WhatIfOptimizer* whatif, IndexPool* pool,
                       Workload workload, IlpOptions options)
    : whatif_(whatif), pool_(pool), workload_(std::move(workload)),
      options_(options) {
  COPHY_CHECK(whatif != nullptr);
  COPHY_CHECK(pool != nullptr);
}

ThreadPool* IlpAdvisor::PresolvePool() {
  // Presolve scans reuse the preparation stage's workers.
  return PoolFor(options_.prepare.workers, options_.prepare.num_threads,
                 &presolve_pool_);
}

AdvisorResult IlpAdvisor::Recommend(const ConstraintSet& constraints) {
  AdvisorResult result;
  const int64_t calls_before = whatif_->num_whatif_calls();
  const lp::SolverCounters lp_before = lp::SolverCountersSnapshot();
  configs_enumerated_ = 0;

  // --- Shared preparation stage (same path as CoPhy, as in §5.1),
  // through a persistent 1-shard session so repeated Recommend calls
  // (constraint-only changes) reuse the prepared state verbatim. Lossy
  // compression (rejected by sessions) keeps the classic one-shot
  // PreparedWorkload path. ------
  Stopwatch inum_watch;
  PreparedWorkload lossy_prep;
  const PreparedWorkload* prep = nullptr;
  const std::vector<IndexId>* cand_ptr = nullptr;
  if (options_.prepare.compression.mode == CompressionMode::kLossy) {
    const Status st =
        explicit_candidates_.empty()
            ? lossy_prep.Prepare(whatif_, pool_, workload_, options_.prepare)
            : lossy_prep.PrepareWithCandidates(whatif_, pool_, workload_,
                                               options_.prepare,
                                               explicit_candidates_);
    if (!st.ok()) {
      result.status = st;
      result.timed_out = st.code() == StatusCode::kTimeout;
      return result;
    }
    prep = &lossy_prep;
    cand_ptr = &lossy_prep.candidates();
    result.prepare = lossy_prep.stats();
  } else {
    if (session_ == nullptr) {
      SessionOptions so;
      so.tuning.prepare = options_.prepare;
      so.num_shards = 1;
      session_ = std::make_unique<AdvisorSession>(whatif_, pool_, so);
      session_->AddWorkload(workload_);
      if (!explicit_candidates_.empty()) {
        const Status st = session_->SetExplicitCandidates(explicit_candidates_);
        if (!st.ok()) {
          result.status = st;
          session_.reset();
          return result;
        }
      }
    }
    const Status prep_status = session_->Refresh();
    if (!prep_status.ok()) {
      result.status = prep_status;
      result.timed_out = prep_status.code() == StatusCode::kTimeout;
      return result;
    }
    prep = &session_->shard_prepared(0);
    cand_ptr = &session_->candidates();
    result.prepare = session_->prepare_stats();
  }
  const Inum& inum = prep->inum();
  const Workload& w = prep->tuned();
  const std::vector<IndexId>& candidates = *cand_ptr;
  result.timings.inum_seconds = inum_watch.Elapsed();
  result.candidates_considered = static_cast<int>(candidates.size());

  // --- Build: enumerate + cost + prune atomic configurations ---------
  Stopwatch build_watch;
  std::unordered_map<IndexId, int> dense;
  for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
    dense.emplace(candidates[i], i);
  }

  lp::ChoiceProblem p;
  p.num_indexes = static_cast<int>(candidates.size());
  p.fixed_cost.assign(p.num_indexes, 0.0);
  p.size.resize(p.num_indexes);
  for (int i = 0; i < p.num_indexes; ++i) {
    p.size[i] = IndexSizeBytes((*pool_)[candidates[i]], whatif_->catalog());
  }
  for (QueryId uid : w.UpdateIds()) {
    const Query& uq = w[uid];
    p.constant_cost += uq.weight * inum.BaseUpdateCost(uid);
    for (int i = 0; i < p.num_indexes; ++i) {
      p.fixed_cost[i] += uq.weight * inum.UpdateCost(candidates[i], uid);
    }
  }

  const Configuration empty;
  for (const Query& q : w.statements()) {
    const double base_cost = inum.ShellCost(q.id, empty);

    // Per-slot top-P candidates by individual benefit. As in the
    // original technique, the pruning pass prices *every* candidate on
    // the table — this exhaustive scoring is what makes ILP's build
    // phase dominate its runtime (Figs. 5/10).
    std::vector<std::vector<IndexId>> per_slot(q.tables.size());
    for (size_t slot = 0; slot < q.tables.size(); ++slot) {
      const TableId t = q.tables[slot];
      std::vector<std::pair<double, IndexId>> ranked;
      for (IndexId id : candidates) {
        if ((*pool_)[id].table != t) continue;
        const double benefit =
            base_cost - inum.ShellCost(q.id, Configuration({id}));
        ranked.push_back({benefit, id});
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      for (int i = 0;
           i < std::min<int>(options_.per_table_candidates,
                             static_cast<int>(ranked.size()));
           ++i) {
        if (ranked[i].first > 0) per_slot[slot].push_back(ranked[i].second);
      }
    }

    // Cross product over slots (I∅ included as "no index").
    std::vector<std::pair<double, std::vector<IndexId>>> configs;
    std::vector<size_t> pick(q.tables.size(), 0);
    constexpr int kEnumerationCap = 4096;
    int enumerated = 0;
    while (enumerated < kEnumerationCap) {
      std::vector<IndexId> config;
      for (size_t slot = 0; slot < per_slot.size(); ++slot) {
        if (pick[slot] > 0) config.push_back(per_slot[slot][pick[slot] - 1]);
      }
      const double cost = inum.ShellCost(q.id, Configuration(config));
      configs.push_back({cost, std::move(config)});
      ++enumerated;
      size_t i = 0;
      while (i < pick.size() && ++pick[i] == per_slot[i].size() + 1) {
        pick[i] = 0;
        ++i;
      }
      if (i == pick.size()) break;
    }
    configs_enumerated_ += enumerated;
    std::sort(configs.begin(), configs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (static_cast<int>(configs.size()) > options_.max_configs_per_query) {
      configs.resize(options_.max_configs_per_query);
    }

    // Flat choice structure: one plan per surviving configuration.
    lp::ChoiceQuery cq;
    cq.weight = q.weight;
    bool has_empty = false;
    for (auto& [cost, config] : configs) {
      lp::ChoicePlan plan;
      plan.beta = cost;
      for (IndexId id : config) {
        lp::ChoiceSlot slot;
        slot.options.push_back({dense.at(id), 0.0});
        plan.slots.push_back(std::move(slot));
      }
      if (config.empty()) has_empty = true;
      cq.plans.push_back(std::move(plan));
    }
    if (!has_empty) {
      lp::ChoicePlan base_plan;
      base_plan.beta = base_cost;
      cq.plans.push_back(std::move(base_plan));
    }
    p.queries.push_back(std::move(cq));
  }

  if (constraints.storage_budget()) {
    p.storage_budget = *constraints.storage_budget();
  }
  p.z_rows = TranslateIndexConstraints(constraints, candidates, *pool_,
                                       whatif_->catalog());
  result.timings.build_seconds = build_watch.Elapsed();

  // --- Solve (same presolve + root-LP path as CoPhy) ------------------
  Stopwatch solve_watch;
  lp::ChoiceSolveOptions so;
  so.gap_target = options_.gap_target;
  so.node_limit = options_.node_limit;
  so.time_limit_seconds = options_.time_limit_seconds;
  const lp::ChoiceSolution sol =
      lp::SolveChoiceProblem(p, so, &result.presolve, PresolvePool());
  result.timings.solve_seconds = solve_watch.Elapsed();
  result.whatif_calls = whatif_->num_whatif_calls() - calls_before;
  result.solver_nodes = sol.nodes;
  result.solver_bound_evaluations = sol.bound_evaluations;
  result.lp_work = lp::SolverCountersSince(lp_before);
  result.status = sol.status;
  if (!sol.status.ok()) return result;

  std::vector<IndexId> chosen;
  for (size_t i = 0; i < sol.selected.size(); ++i) {
    if (sol.selected[i]) chosen.push_back(candidates[i]);
  }
  result.configuration = Configuration(std::move(chosen));
  return result;
}

}  // namespace cophy
