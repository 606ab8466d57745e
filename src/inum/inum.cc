#include "inum/inum.h"

#include <algorithm>

#include "common/check.h"
#include "common/strings.h"
#include "inum/shared_cache.h"
#include "workload/compressor.h"

namespace cophy {

Inum::Inum(WhatIfOptimizer* whatif, InumOptions options)
    : whatif_(whatif), options_(options) {
  COPHY_CHECK(whatif != nullptr);
}

ThreadPool* Inum::pool() {
  ThreadPool* tp =
      PoolFor(options_.workers, options_.num_threads, &thread_pool_);
  // A caller that is itself a worker of a shared pool (a service op)
  // does not add a thread to it.
  num_threads_used_ = tp != nullptr ? tp->ThreadsForCaller() : 1;
  return tp;
}

double Inum::RemainingSeconds() const {
  return options_.deadline_seconds - prepare_sw_.Elapsed();
}

Status Inum::DeadlineError() const {
  return Status::Timeout(StrFormat("INUM prepare deadline (%.3fs) exceeded",
                                   options_.deadline_seconds));
}

Status Inum::BuildGammaFor(QueryCache& qc, const Query& q,
                           const std::vector<IndexId>& candidates,
                           bool append) {
  const IndexPool& pool = whatif_->pool();
  const auto by_gamma = [](const SlotAccess& a, const SlotAccess& b) {
    return a.gamma < b.gamma;
  };
  // A path whose key cannot deliver the order costs ∞, and ∞ entries are
  // neither stored nor counted: skipping those calls is exact.
  const auto delivers = [&q](const OrderSpec& order,
                             const std::vector<ColumnId>& key) {
    return OrderSatisfiedBy(order, key, EqualityBoundPrefix(q, key));
  };
  for (size_t slot = 0; slot < qc.slot_orders.size(); ++slot) {
    const TableId t = q.tables[slot];
    for (size_t oi = 0; oi < qc.slot_orders[slot].size(); ++oi) {
      if (DeadlineExpired()) return DeadlineError();
      const OrderSpec& order = qc.slot_orders[slot][oi];
      auto& list = qc.access[slot][oi];
      double base_gamma = kInfiniteCost;
      if (!append) {
        if (delivers(order, whatif_->catalog().table(t).primary_key)) {
          Result<double> base = whatif_->AccessCost(
              q, static_cast<int>(slot), order, kInvalidIndex);
          if (!base.ok()) return base.status();
          base_gamma = *base;
        }
        if (base_gamma < kInfiniteCost) {
          list.push_back({kInvalidIndex, base_gamma});
          ++qc.raw_gamma_entries;
        }
      } else {
        for (const SlotAccess& sa : list) {
          if (sa.index == kInvalidIndex) base_gamma = sa.gamma;
        }
      }
      const size_t old_size = list.size();
      for (IndexId id : candidates) {
        if (pool[id].table != t) continue;
        if (!delivers(order, pool[id].key_columns)) continue;
        Result<double> g =
            whatif_->AccessCost(q, static_cast<int>(slot), order, id);
        if (!g.ok()) return g.status();
        if (*g == kInfiniteCost) continue;
        ++qc.raw_gamma_entries;
        // Domination pruning: the base path is always available, so an
        // index that does not beat it can never be the arg-min.
        if (*g >= base_gamma) continue;
        list.push_back({id, *g});
      }
      if (list.size() == old_size) continue;  // nothing appended
      if (append && old_size > 0) {
        // The existing prefix is already sorted: sort only the new
        // entries and merge in place instead of re-sorting everything.
        std::sort(list.begin() + old_size, list.end(), by_gamma);
        std::inplace_merge(list.begin(), list.begin() + old_size, list.end(),
                           by_gamma);
      } else {
        std::sort(list.begin(), list.end(), by_gamma);
      }
    }
  }
  return Status::Ok();
}

Status Inum::CacheUpdateCosts(QueryCache& qc, const Query& q,
                              const std::vector<IndexId>& candidates,
                              bool include_base) {
  if (!q.IsUpdate()) return Status::Ok();
  if (include_base) {
    Result<double> base = whatif_->BaseUpdateCost(q);
    if (!base.ok()) return base.status();
    qc.base_update_cost = *base;
  }
  const IndexPool& pool = whatif_->pool();
  for (IndexId id : candidates) {
    if (pool[id].table != q.update_table) continue;
    if (DeadlineExpired()) return DeadlineError();
    Result<double> u = whatif_->UpdateCost(id, q);
    if (!u.ok()) return u.status();
    if (*u != 0.0) qc.update_costs.emplace(id, *u);
  }
  return Status::Ok();
}

Status Inum::PrepareStatement(const Query& q,
                              const std::vector<IndexId>& candidates) {
  QueryCache& qc = caches_[q.id];
  qc.qid = q.id;
  qc.weight = q.weight;
  qc.is_update = q.IsUpdate();
  if (DeadlineExpired()) return DeadlineError();

  InumPlanCache* shared = options_.plan_cache;
  const Catalog& cat = whatif_->catalog();
  if (shared != nullptr) {
    signatures_[q.id] = StatementCostSignature(q, cat);
    gamma_digests_[q.id] =
        FoldCandidateWalk(0, q, candidates, whatif_->pool());
  }

  // --- Template phase: per-slot orders, β plans, and the template ->
  // order-index mapping. A shared-cache hit (confirmed by the exact
  // comparator, so a signature collision degrades to a miss) copies the
  // published entry instead of re-running template enumeration — this
  // is where a what-if optimization per template is saved. A miss claims
  // the key, so a concurrent session preparing the same class waits for
  // this fill instead of repeating it.
  std::shared_ptr<const SharedTemplateEntry> shared_templates;
  PlanCacheClaim template_claim;
  if (shared != nullptr) {
    Result<std::shared_ptr<const SharedTemplateEntry>> found =
        shared->LookupTemplates(signatures_[q.id], RemainingSeconds(),
                                &template_claim);
    if (!found.ok()) return found.status();
    shared_templates = *found;
    if (shared_templates != nullptr &&
        !CostEquivalent(q, shared_templates->statement, cat)) {
      shared_templates = nullptr;
    }
  }
  if (shared_templates != nullptr) {
    qc.slot_orders = shared_templates->slot_orders;
    qc.templates = shared_templates->templates;
    template_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    qc.slot_orders = whatif_->SlotOrderCandidates(q);
    Result<std::vector<TemplatePlan>> templates =
        whatif_->EnumerateTemplates(q);
    if (!templates.ok()) return templates.status();
    qc.templates.reserve(templates->size());
    for (const TemplatePlan& tp : *templates) {
      QueryCache::Template t;
      t.beta = tp.internal_cost;
      t.order_idx.resize(tp.slot_orders.size());
      for (size_t slot = 0; slot < tp.slot_orders.size(); ++slot) {
        const auto& orders = qc.slot_orders[slot];
        auto it = std::find(orders.begin(), orders.end(), tp.slot_orders[slot]);
        COPHY_CHECK(it != orders.end());
        t.order_idx[slot] = static_cast<int>(it - orders.begin());
      }
      qc.templates.push_back(std::move(t));
    }
    if (shared != nullptr) {
      template_misses_.fetch_add(1, std::memory_order_relaxed);
      auto entry = std::make_shared<SharedTemplateEntry>();
      entry->statement = q;
      entry->slot_orders = qc.slot_orders;
      entry->templates = qc.templates;
      shared->PublishTemplates(signatures_[q.id], std::move(entry),
                               std::move(template_claim));
    }
  }

  // --- γ phase: access-cost tables plus update costs, reusable only
  // when the whole candidate walk matches (see FoldCandidateWalk).
  std::shared_ptr<const SharedGammaEntry> shared_gammas;
  PlanCacheClaim gamma_claim;
  if (shared != nullptr) {
    Result<std::shared_ptr<const SharedGammaEntry>> found =
        shared->LookupGammas(signatures_[q.id], gamma_digests_[q.id],
                             RemainingSeconds(), &gamma_claim);
    if (!found.ok()) return found.status();
    shared_gammas = *found;
    if (shared_gammas != nullptr &&
        !CostEquivalent(q, shared_gammas->statement, cat)) {
      shared_gammas = nullptr;
    }
  }
  if (shared_gammas != nullptr) {
    qc.access = shared_gammas->access;
    qc.raw_gamma_entries = shared_gammas->raw_gamma_entries;
    qc.base_update_cost = shared_gammas->base_update_cost;
    qc.update_costs = shared_gammas->update_costs;
    gamma_hits_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  qc.access.resize(qc.slot_orders.size());
  for (size_t slot = 0; slot < qc.slot_orders.size(); ++slot) {
    qc.access[slot].resize(qc.slot_orders[slot].size());
  }
  Status s = BuildGammaFor(qc, q, candidates, /*append=*/false);
  if (!s.ok()) return s;
  s = CacheUpdateCosts(qc, q, candidates, /*include_base=*/true);
  if (!s.ok()) return s;
  if (shared != nullptr) {
    gamma_misses_.fetch_add(1, std::memory_order_relaxed);
    PublishGammasFor(qc, q, std::move(gamma_claim));
  }
  return Status::Ok();
}

/// Publishes `qc`'s current γ tables and update costs under the
/// statement's (signature, walk digest) key, ending `claim`.
void Inum::PublishGammasFor(const QueryCache& qc, const Query& q,
                            PlanCacheClaim claim) {
  auto entry = std::make_shared<SharedGammaEntry>();
  entry->statement = q;
  entry->access = qc.access;
  entry->raw_gamma_entries = qc.raw_gamma_entries;
  entry->base_update_cost = qc.base_update_cost;
  entry->update_costs = qc.update_costs;
  options_.plan_cache->PublishGammas(signatures_[q.id], gamma_digests_[q.id],
                                     std::move(entry), std::move(claim));
}

void Inum::CloneFromLeader(QueryId qid) {
  const QueryCache& src = caches_[leader_[qid]];
  QueryCache& qc = caches_[qid];
  const Query& q = workload_[qid];
  qc.slot_orders = src.slot_orders;
  qc.templates = src.templates;
  qc.access = src.access;
  qc.raw_gamma_entries = src.raw_gamma_entries;
  // Cost-equivalent statements have identical update costs.
  qc.base_update_cost = src.base_update_cost;
  qc.update_costs = src.update_costs;
  qc.qid = qid;
  qc.weight = q.weight;
  qc.is_update = q.IsUpdate();
}

void Inum::ComputeLeaders() {
  num_shared_statements_ = 0;
  if (!options_.share_templates) {
    leader_.resize(workload_.size());
    for (QueryId q = 0; q < workload_.size(); ++q) leader_[q] = q;
    return;
  }
  // Shared with CompressWorkload: the same clustering keeps the
  // compressed and uncompressed pipelines in exact agreement.
  leader_ = ClusterLeaders(workload_, whatif_->catalog(), /*by_shape=*/false);
  for (QueryId q = 0; q < workload_.size(); ++q) {
    if (leader_[q] != q) ++num_shared_statements_;
  }
}

Status Inum::Prepare(const Workload& w,
                     const std::vector<IndexId>& candidates) {
  workload_ = w;
  candidates_ = candidates;
  caches_.clear();
  caches_.resize(w.size());
  signatures_.assign(w.size(), 0);
  gamma_digests_.assign(w.size(), 0);
  ComputeLeaders();
  std::vector<QueryId> leaders;
  leaders.reserve(w.size());
  for (QueryId q = 0; q < w.size(); ++q) {
    if (leader_[q] == q) leaders.push_back(q);
  }

  ThreadPool* tp = pool();
  // The selectivity cache inside the catalog is populated lazily; force
  // it now so the workers only ever read shared state.
  whatif_->catalog().WarmStatistics();
  prepare_sw_ = Stopwatch();
  // Statuses are collected per statement and resolved in statement
  // order, so the reported error is scheduling-independent.
  std::vector<Status> errs(leaders.size());
  ParallelFor(tp, static_cast<int64_t>(leaders.size()), [&](int64_t i) {
    errs[i] = PrepareStatement(workload_[leaders[i]], candidates);
  });
  for (const Status& s : errs) {
    if (!s.ok()) return s;
  }
  ParallelFor(tp, w.size(), [&](int64_t q) {
    if (leader_[q] != q) CloneFromLeader(static_cast<QueryId>(q));
  });
  return Status::Ok();
}

Status Inum::AddCandidates(const std::vector<IndexId>& new_candidates) {
  ThreadPool* tp = pool();
  whatif_->catalog().WarmStatistics();
  prepare_sw_ = Stopwatch();
  InumPlanCache* shared = options_.plan_cache;
  std::vector<Status> errs(workload_.size());
  ParallelFor(tp, workload_.size(), [&](int64_t q) {
    if (leader_[q] != q) return;
    QueryCache& qc = caches_[q];
    const Query& query = workload_[static_cast<QueryId>(q)];
    // Advance the walk digest; `relevant` is false when no new candidate
    // touches this statement's tables (its γ tables and key are
    // unchanged, so there is no cache traffic to account).
    bool relevant = false;
    PlanCacheClaim claim;
    if (shared != nullptr) {
      const uint64_t next = FoldCandidateWalk(gamma_digests_[q], query,
                                              new_candidates, whatif_->pool());
      relevant = next != gamma_digests_[q];
      if (relevant) {
        gamma_digests_[q] = next;
        // When another session already walked this exact history, take
        // its tables wholesale (bit-identical to the append below) and
        // skip the backend entirely.
        Result<std::shared_ptr<const SharedGammaEntry>> found =
            shared->LookupGammas(signatures_[q], next, RemainingSeconds(),
                                 &claim);
        if (!found.ok()) {
          errs[q] = found.status();
          return;
        }
        std::shared_ptr<const SharedGammaEntry> entry = *found;
        if (entry != nullptr &&
            !CostEquivalent(query, entry->statement, whatif_->catalog())) {
          entry = nullptr;
        }
        if (entry != nullptr) {
          qc.access = entry->access;
          qc.raw_gamma_entries = entry->raw_gamma_entries;
          qc.base_update_cost = entry->base_update_cost;
          qc.update_costs = entry->update_costs;
          gamma_hits_.fetch_add(1, std::memory_order_relaxed);
          errs[q] = Status::Ok();
          return;
        }
        gamma_misses_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    errs[q] = BuildGammaFor(qc, query, new_candidates, /*append=*/true);
    if (errs[q].ok()) {
      errs[q] =
          CacheUpdateCosts(qc, query, new_candidates, /*include_base=*/false);
    }
    if (errs[q].ok() && relevant) {
      PublishGammasFor(qc, query, std::move(claim));
    }
  });
  for (const Status& s : errs) {
    if (!s.ok()) return s;
  }
  // Followers re-take only the γ tables and ucosts: slot orders and
  // templates are untouched by an incremental candidate addition.
  ParallelFor(tp, workload_.size(), [&](int64_t q) {
    if (leader_[q] == q) return;
    const QueryCache& src = caches_[leader_[q]];
    caches_[q].access = src.access;
    caches_[q].raw_gamma_entries = src.raw_gamma_entries;
    caches_[q].update_costs = src.update_costs;
  });
  candidates_.insert(candidates_.end(), new_candidates.begin(),
                     new_candidates.end());
  return Status::Ok();
}

double Inum::BestTemplate(const QueryCache& qc, const Configuration& x,
                          std::vector<IndexId>* chosen) const {
  double best = kInfiniteCost;
  std::vector<IndexId> used;  // reused across templates when recording
  for (const QueryCache::Template& t : qc.templates) {
    double c = t.beta;
    if (chosen != nullptr) used.clear();
    bool ok = true;
    for (size_t slot = 0; slot < t.order_idx.size(); ++slot) {
      const auto& list = qc.access[slot][t.order_idx[slot]];
      double g = kInfiniteCost;
      IndexId pick = kInvalidIndex;
      for (const SlotAccess& sa : list) {  // sorted ascending by γ
        if (sa.index == kInvalidIndex || x.Contains(sa.index)) {
          g = sa.gamma;
          pick = sa.index;
          break;
        }
      }
      if (g == kInfiniteCost) {
        ok = false;
        break;
      }
      if (chosen != nullptr && pick != kInvalidIndex) used.push_back(pick);
      c += g;
    }
    if (ok && c < best) {
      best = c;
      if (chosen != nullptr) *chosen = used;
    }
  }
  return best;
}

double Inum::ShellCost(QueryId qid, const Configuration& x) const {
  return BestTemplate(caches_[qid], x, nullptr);
}

double Inum::Cost(QueryId qid, const Configuration& x) const {
  const QueryCache& qc = caches_[qid];
  double c = ShellCost(qid, x);
  if (qc.is_update) {
    c += qc.base_update_cost;
    for (IndexId a : x.ids()) c += UpdateCost(a, qid);
  }
  return c;
}

double Inum::UpdateCost(IndexId a, QueryId qid) const {
  const auto& m = caches_[qid].update_costs;
  const auto it = m.find(a);
  return it == m.end() ? 0.0 : it->second;
}

std::vector<IndexId> Inum::ChosenIndexes(QueryId qid,
                                         const Configuration& x) const {
  std::vector<IndexId> chosen;
  BestTemplate(caches_[qid], x, &chosen);
  return chosen;
}

int64_t Inum::TotalTemplates() const {
  int64_t n = 0;
  for (const QueryCache& qc : caches_) n += qc.templates.size();
  return n;
}

int64_t Inum::TotalGammaEntries() const {
  int64_t n = 0;
  for (const QueryCache& qc : caches_) {
    for (const auto& per_slot : qc.access) {
      for (const auto& list : per_slot) n += list.size();
    }
  }
  return n;
}

int64_t Inum::TotalRawGammaEntries() const {
  int64_t n = 0;
  for (const QueryCache& qc : caches_) n += qc.raw_gamma_entries;
  return n;
}

}  // namespace cophy
