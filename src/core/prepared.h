// The explicit preparation stage of the advisor pipeline:
//
//   Workload ── Compress ──> representatives ── CGen ──> candidates
//            ── INUM (parallel, template-sharing) ──> QueryCaches
//
// Every consumer of "a prepared workload" — CoPhy's Tune/Retune, BIPGen,
// and the baseline advisors — goes through this one path instead of
// wiring compression/CGen/INUM privately (see docs/architecture.md).
#ifndef COPHY_CORE_PREPARED_H_
#define COPHY_CORE_PREPARED_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.h"
#include "constraints/constraints.h"
#include "index/candidates.h"
#include "inum/inum.h"
#include "workload/compressor.h"

namespace cophy {

/// Knobs of the preparation stage.
struct PrepareOptions {
  CandidateOptions candidates;
  /// Workload compression; kLossless by default (provably equivalent
  /// recommendations, see compressor.h), kNone to disable, kLossy for
  /// paper-style sampling on heterogeneous workloads.
  CompressionOptions compression;
  /// INUM preparation threads (<= 0: hardware count).
  int num_threads = 1;
  /// Share template discovery across cost-equivalent statements that
  /// survive compression (only relevant with compression off or lossy).
  bool share_templates = true;
  /// External worker pool (not owned; overrides num_threads) for INUM
  /// and presolve. Sharded sessions hand every shard the same pool so
  /// per-shard preparation composes with the outer shard fan-out, and
  /// the service hands every tenant session its own workers.
  ThreadPool* workers = nullptr;
  /// Wall-clock budget for the INUM preparation run; exceeding it
  /// surfaces as kTimeout so a hung what-if backend cannot stall
  /// Prepare forever.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  /// Cross-session INUM plan cache (not owned). The service tier hands
  /// every tenant session the same cache so cost-equivalent statements
  /// across tenants share template plans and γ tables; nullptr keeps
  /// preparation self-contained. See inum/shared_cache.h.
  InumPlanCache* plan_cache = nullptr;
};

/// What preparation did — threaded into Recommendation and reports.
/// Compression time lives in compression.seconds (single source).
/// Per-shard stats aggregate with operator+= (a merged view reports the
/// shard count and the statement-count skew of the routing).
struct PrepareStats {
  CompressionStats compression;
  /// Threads the preparation could use: its pool's workers, plus the
  /// calling thread unless that is itself one of them (a service op).
  int num_threads = 1;
  int shared_statements = 0;    ///< INUM caches cloned from a leader
  double cgen_seconds = 0;
  double inum_seconds = 0;
  int shards = 1;               ///< shard views merged into this one
  int max_shard_statements = 0; ///< largest shard's input statements
  /// What-if boundary fault accounting for this view's INUM runs
  /// (deltas of the backend's WhatIfHealth; all zero with a healthy
  /// backend or a plain SystemSimulator).
  int64_t whatif_retries = 0;     ///< backend attempts beyond the first
  int64_t whatif_failures = 0;    ///< calls that ultimately failed
  int64_t whatif_degraded = 0;    ///< answers served from last-known cache
  int64_t whatif_fast_fails = 0;  ///< calls rejected by an open breaker
  int breaker_trips = 0;          ///< circuit-breaker open transitions
  /// Cross-session plan-cache traffic of this view's INUM runs (all
  /// zero when no shared cache is installed). Hits are template
  /// enumerations / γ table builds this view skipped because another
  /// session (or an earlier run) already published them.
  int64_t plan_cache_template_hits = 0;
  int64_t plan_cache_template_misses = 0;
  int64_t plan_cache_gamma_hits = 0;
  int64_t plan_cache_gamma_misses = 0;
  /// Workload-drift picture of the session that produced this view
  /// (all zero for one-shot advisors; see core/drift.h). The score is
  /// the total-variation distance of the class-weight distribution
  /// between the previous retune and this one.
  double drift_score = 0;
  int drift_new_classes = 0;
  int drift_retired_classes = 0;
  double Total() const {
    return compression.seconds + cgen_seconds + inum_seconds;
  }
  /// Routing skew: the largest shard's statement count over the mean
  /// (1.0 = perfectly balanced).
  double ShardSkew() const {
    if (shards <= 0 || compression.input_statements <= 0) return 1.0;
    const double mean =
        static_cast<double>(compression.input_statements) / shards;
    return mean > 0 ? max_shard_statements / mean : 1.0;
  }
  PrepareStats& operator+=(const PrepareStats& o) {
    compression += o.compression;
    num_threads = std::max(num_threads, o.num_threads);
    shared_statements += o.shared_statements;
    cgen_seconds += o.cgen_seconds;
    inum_seconds += o.inum_seconds;
    shards += o.shards;
    max_shard_statements = std::max(max_shard_statements,
                                    o.max_shard_statements);
    whatif_retries += o.whatif_retries;
    whatif_failures += o.whatif_failures;
    whatif_degraded += o.whatif_degraded;
    whatif_fast_fails += o.whatif_fast_fails;
    breaker_trips += o.breaker_trips;
    plan_cache_template_hits += o.plan_cache_template_hits;
    plan_cache_template_misses += o.plan_cache_template_misses;
    plan_cache_gamma_hits += o.plan_cache_gamma_hits;
    plan_cache_gamma_misses += o.plan_cache_gamma_misses;
    drift_score = std::max(drift_score, o.drift_score);
    drift_new_classes += o.drift_new_classes;
    drift_retired_classes += o.drift_retired_classes;
    return *this;
  }
};

/// A workload that has been compressed, candidate-generated, and
/// INUM-prepared. Reusable across Tune/Retune calls and advisors.
class PreparedWorkload {
 public:
  PreparedWorkload() = default;

  /// Runs the full stage: compress `w`, CGen over the representatives
  /// (plus S_DBA), build INUM caches. `pool` must be the pool `whatif`
  /// reads. What-if backend errors (and deadline expiry) surface as the
  /// returned Status; on failure the workload reverts to unprepared.
  Status Prepare(WhatIfOptimizer* whatif, IndexPool* pool, const Workload& w,
                 const PrepareOptions& opts,
                 const std::vector<Index>& dba_indexes = {});

  /// Same, but with an explicit candidate set instead of CGen (the ids
  /// must already be in the pool).
  Status PrepareWithCandidates(WhatIfOptimizer* whatif, IndexPool* pool,
                               const Workload& w, const PrepareOptions& opts,
                               std::vector<IndexId> candidate_ids);

  /// The sharded-session entry point: takes an externally compressed
  /// view (the session's router already merged cost-equivalent
  /// statements, and CGen ran over the merged representative view) and
  /// an explicit candidate set, and runs INUM only. An empty view is
  /// allowed (a shard whose last class was removed) and yields a
  /// prepared() workload with zero statements.
  Status PrepareCompressed(WhatIfOptimizer* whatif, IndexPool* pool,
                           CompressedWorkload cw, const PrepareOptions& opts,
                           std::vector<IndexId> candidate_ids);

  /// Incremental candidate addition: only the new γ entries are
  /// computed (in parallel); β templates are reused. On a backend error
  /// the INUM caches are inconsistent, so the workload reverts to
  /// unprepared and the caller must re-Prepare from scratch.
  Status AddCandidates(const std::vector<IndexId>& new_ids);

  bool prepared() const { return inum_ != nullptr; }
  /// The compressed view tuning actually runs on. Requires prepared().
  const Workload& tuned() const {
    COPHY_CHECK(prepared());
    return inum_->workload();
  }
  Inum& inum() {
    COPHY_CHECK(prepared());
    return *inum_;
  }
  const Inum& inum() const {
    COPHY_CHECK(prepared());
    return *inum_;
  }
  const std::vector<IndexId>& candidates() const { return candidates_; }
  const PrepareStats& stats() const { return stats_; }

  /// Maps an original statement id into the compressed space (-1 if the
  /// statement was dropped by lossy sampling).
  QueryId CompressedId(QueryId original) const;

  /// Rewrites per-query constraints into the compressed statement
  /// space. Constraints on statements dropped by lossy sampling are
  /// discarded (documented lossy-mode caveat); everything else is
  /// preserved verbatim.
  ConstraintSet TranslateConstraints(const ConstraintSet& cs) const;

 private:
  Status Begin(WhatIfOptimizer* whatif, IndexPool* pool, const Workload& w,
               const PrepareOptions& opts);
  Status RunInum();
  /// Copies the Inum instance's cumulative shared-cache counters into
  /// stats_ (no-op totals of zero without a cache).
  void CopyPlanCacheCounters();
  /// Folds the backend's WhatIfHealth movement since `before` into
  /// stats_ (retries/failures/degraded/breaker).
  void AccumulateHealthDelta(const WhatIfHealth& before);

  WhatIfOptimizer* whatif_ = nullptr;
  IndexPool* pool_ = nullptr;
  PrepareOptions options_;
  CompressedWorkload compressed_;
  std::unique_ptr<Inum> inum_;
  std::vector<IndexId> candidates_;
  PrepareStats stats_;
};

}  // namespace cophy

#endif  // COPHY_CORE_PREPARED_H_
