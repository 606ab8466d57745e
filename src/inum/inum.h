// INUM (Papadomanolakis, Dash, Ailamaki, VLDB'07): the fast what-if
// layer. Prepare() pays a few what-if optimizations per statement to
// cache template plans (β_qk) and the per-slot access-cost tables
// (γ_qkia); afterwards Cost(q, X) is a pure table-lookup min — orders of
// magnitude cheaper than a what-if call. CoPhy's BIPGen reads these
// caches directly (they ARE the BIP coefficients of Theorem 1).
//
// Prepare talks to the DBMS through the fallible WhatIfOptimizer
// boundary and returns Status: backend errors flow out instead of
// aborting, and an optional deadline turns a hung backend into
// kTimeout. A successful Prepare caches *everything* the advisor needs
// (including update costs), so the read-side accessors below never
// touch the backend again — post-Prepare costing cannot fail.
#ifndef COPHY_INUM_INUM_H_
#define COPHY_INUM_INUM_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "optimizer/whatif.h"
#include "query/query.h"

namespace cophy {

class InumPlanCache;   // inum/shared_cache.h
class PlanCacheClaim;  // inum/shared_cache.h

/// One γ-table entry: an access path and its cost for (query, slot,
/// order). kInvalidIndex denotes the base path I∅.
struct SlotAccess {
  IndexId index = kInvalidIndex;
  double gamma = 0.0;
};

/// The per-statement INUM cache.
struct QueryCache {
  QueryId qid = -1;
  double weight = 1.0;
  bool is_update = false;
  /// Distinct interesting orders per slot (order 0 is always "none").
  std::vector<std::vector<OrderSpec>> slot_orders;
  /// Template plans: β plus, per slot, the index into `slot_orders`.
  struct Template {
    double beta = 0.0;
    std::vector<int> order_idx;  // one per slot
  };
  std::vector<Template> templates;
  /// access[slot][order_idx] = candidate paths sorted by γ ascending.
  /// Contains the base path I∅ plus every candidate that beats it
  /// (paths costlier than I∅ can never be chosen by the min and are
  /// dropped losslessly; see DESIGN.md).
  std::vector<std::vector<std::vector<SlotAccess>>> access;
  /// Number of γ entries before the domination pruning (the x-variable
  /// count a naive BIP materialization would have).
  int64_t raw_gamma_entries = 0;
  /// The paper's c_q (0 for SELECTs), cached at Prepare time.
  double base_update_cost = 0.0;
  /// Cached nonzero ucost(a, q) per candidate (empty for SELECTs).
  std::unordered_map<IndexId, double> update_costs;
};

/// Preparation knobs. Prepare's output is a pure function of
/// (workload, candidates): it is bit-identical for every thread count
/// and whether or not template sharing is on.
struct InumOptions {
  /// Worker threads for Prepare/AddCandidates (<= 0: hardware count).
  int num_threads = 1;
  /// Compute template plans and γ tables once per group of
  /// cost-equivalent statements (StatementCostSignature) and clone the
  /// cache for the rest — the W_hom redundancy INUM time is dominated
  /// by. Lossless by construction.
  bool share_templates = true;
  /// External worker pool (not owned; overrides num_threads). Sharded
  /// sessions pass one shared pool to every shard's Inum: preparation
  /// fans out across shards on it, and the nested per-statement loops
  /// run inline on whichever worker owns the shard.
  ThreadPool* workers = nullptr;
  /// Wall-clock budget for one Prepare/AddCandidates run; exceeding it
  /// surfaces as kTimeout (a hung backend cannot stall Prepare forever).
  double deadline_seconds = std::numeric_limits<double>::infinity();
  /// Cross-session plan cache (not owned; may be shared by many Inum
  /// instances on different threads). When set, template plans and γ
  /// tables are looked up / published by cost-equivalence signature so
  /// overlapping tenants skip what-if preparation; reused entries are
  /// bit-identical to a local rebuild (see inum/shared_cache.h for the
  /// exact contract). nullptr = today's self-contained behavior.
  InumPlanCache* plan_cache = nullptr;
};

/// The INUM module. Holds the caches for one workload + candidate set.
class Inum {
 public:
  explicit Inum(WhatIfOptimizer* whatif, InumOptions options = {});

  /// Builds caches for all statements of `w` against candidate set
  /// `candidates` (ids into the backend's pool). This is the "INUM
  /// time" component of the paper's figures. Statements are prepared in
  /// parallel per InumOptions; the result is thread-count independent.
  /// On error the first failing statement's Status is returned (lowest
  /// statement id wins, independent of scheduling) and the caches must
  /// be treated as unusable until a Prepare succeeds.
  Status Prepare(const Workload& w, const std::vector<IndexId>& candidates);

  /// Adds candidates incrementally (interactive tuning): only γ entries
  /// for the new indexes are computed; β templates are reused. On error
  /// the caches are inconsistent (some statements updated, some not)
  /// and the caller must fall back to a full Prepare.
  Status AddCandidates(const std::vector<IndexId>& new_candidates);

  /// Fast cost(q, X): min over templates × atomic configurations.
  /// For UPDATE statements this covers the query shell only (the BIP
  /// accounts for ucost terms separately, as in §2).
  double ShellCost(QueryId qid, const Configuration& x) const;

  /// Full statement cost including update maintenance of indexes in X —
  /// the INUM-equivalent of WhatIfOptimizer::Cost. Pure cache reads.
  double Cost(QueryId qid, const Configuration& x) const;

  /// Cached ucost(a, q) (0 unless q updates a's table and touches its
  /// columns; 0 for indexes outside the prepared candidate set).
  double UpdateCost(IndexId a, QueryId qid) const;

  /// Cached c_q: the configuration-independent update overhead.
  double BaseUpdateCost(QueryId qid) const {
    return caches_[qid].base_update_cost;
  }

  /// The indexes the statement's optimal plan under X actually uses
  /// (the arg-min access paths of the winning template; empty when the
  /// base paths win everywhere).
  std::vector<IndexId> ChosenIndexes(QueryId qid, const Configuration& x) const;

  const QueryCache& cache(QueryId qid) const { return caches_[qid]; }
  /// The statement whose cache `qid` shares (== qid for leaders).
  /// Statements with the same leader are cost-equivalent: identical
  /// templates, γ tables, and update costs — BIPGen aggregates them
  /// into one weighted query block.
  QueryId leader(QueryId qid) const { return leader_[qid]; }
  int num_statements() const { return static_cast<int>(caches_.size()); }
  const Workload& workload() const { return workload_; }
  const std::vector<IndexId>& candidates() const { return candidates_; }
  WhatIfOptimizer& whatif() const { return *whatif_; }

  /// Total template count across statements (Σ K_q).
  int64_t TotalTemplates() const;
  /// Total γ entries kept after domination pruning.
  int64_t TotalGammaEntries() const;
  /// Total γ entries before pruning (the paper-facing x count).
  int64_t TotalRawGammaEntries() const;

  /// Statements whose cache was cloned from a cost-equivalent leader
  /// instead of re-running template discovery (0 when sharing is off).
  int num_shared_statements() const { return num_shared_statements_; }
  /// Threads the last Prepare/AddCandidates could use
  /// (ThreadPool::ThreadsForCaller of its pool; 1 without one).
  int num_threads_used() const { return num_threads_used_; }
  const InumOptions& options() const { return options_; }

  /// Shared plan-cache traffic from this Inum (all zero when no cache is
  /// installed). Cumulative across Prepare/AddCandidates runs; relaxed
  /// atomics because leaders prepare on pool workers.
  int64_t plan_cache_template_hits() const {
    return template_hits_.load(std::memory_order_relaxed);
  }
  int64_t plan_cache_template_misses() const {
    return template_misses_.load(std::memory_order_relaxed);
  }
  int64_t plan_cache_gamma_hits() const {
    return gamma_hits_.load(std::memory_order_relaxed);
  }
  int64_t plan_cache_gamma_misses() const {
    return gamma_misses_.load(std::memory_order_relaxed);
  }

 private:
  Status BuildGammaFor(QueryCache& qc, const Query& q,
                       const std::vector<IndexId>& candidates, bool append);
  /// Caches c_q and ucost(a, q) for every candidate on q's update
  /// table. `include_base` is false on incremental candidate additions.
  Status CacheUpdateCosts(QueryCache& qc, const Query& q,
                          const std::vector<IndexId>& candidates,
                          bool include_base);
  /// Full per-statement preparation (orders, templates, γ, ucosts) for
  /// a leader.
  Status PrepareStatement(const Query& q,
                          const std::vector<IndexId>& candidates);
  /// Publishes qc's γ tables under the statement's current
  /// (signature, walk-digest) key, ending `claim` (the lookup's claim on
  /// that key, if it got one). Requires options_.plan_cache.
  void PublishGammasFor(const QueryCache& qc, const Query& q,
                        PlanCacheClaim claim);
  /// Copies the shareable cache parts (orders/templates/γ/ucosts) from
  /// the statement's leader, keeping its own qid/weight/is_update.
  void CloneFromLeader(QueryId qid);
  /// Groups statements by cost equivalence; fills leader_.
  void ComputeLeaders();
  ThreadPool* pool();
  bool DeadlineExpired() const {
    return prepare_sw_.Elapsed() > options_.deadline_seconds;
  }
  /// What is left of this run's deadline (infinite without one): how
  /// long a plan-cache lookup may wait for another session's fill.
  double RemainingSeconds() const;
  Status DeadlineError() const;
  /// Single traversal behind ShellCost and ChosenIndexes: the cost of
  /// the best template under `x`, optionally recording the winning
  /// template's arg-min index picks into `chosen`.
  double BestTemplate(const QueryCache& qc, const Configuration& x,
                      std::vector<IndexId>* chosen) const;

  WhatIfOptimizer* whatif_;
  InumOptions options_;
  Workload workload_;
  std::vector<IndexId> candidates_;
  std::vector<QueryCache> caches_;
  /// leader_[q] == q for leaders; otherwise the id of the earlier,
  /// cost-equivalent statement whose cache q shares.
  std::vector<QueryId> leader_;
  std::unique_ptr<ThreadPool> thread_pool_;  // lazily created
  Stopwatch prepare_sw_;  ///< reset at each Prepare/AddCandidates entry
  int num_shared_statements_ = 0;
  int num_threads_used_ = 1;

  /// Per-leader plan-cache keys (meaningful when plan_cache is set):
  /// the statement's cost signature and the chained candidate-walk
  /// digest of its γ tables (advanced by each AddCandidates).
  std::vector<uint64_t> signatures_;
  std::vector<uint64_t> gamma_digests_;
  std::atomic<int64_t> template_hits_{0};
  std::atomic<int64_t> template_misses_{0};
  std::atomic<int64_t> gamma_hits_{0};
  std::atomic<int64_t> gamma_misses_{0};
};

}  // namespace cophy

#endif  // COPHY_INUM_INUM_H_
