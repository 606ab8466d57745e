// Sharded advisor sessions: the long-lived, incrementally updatable
// front end of the staged pipeline (Compress → CGen → INUM → BIPGen →
// Solve; docs/architecture.md "Shard/Merge"). An AdvisorSession owns N
// workload shards, each with its own compressor state (a ShardRouter
// class table) and PreparedWorkload, prepared concurrently on a shared
// worker pool. AddStatements/RemoveStatements touch only the affected
// shards — cost-equivalence signatures route every statement of a class
// to its leader's shard — and Tune merges the per-shard prepared views
// into one canonical ChoiceProblem (BuildMergedChoiceProblem), which is
// bit-identical to the unsharded CoPhy::Tune problem for any shard
// count. Retune re-solves warm: the previous incumbent, retained
// presolve reductions, root-LP basis and Lagrangian duals seed the new
// search through lp::ChoiceResolveState, so absorbing a small delta
// costs a fraction of a cold Tune (the serving model of semi-automatic
// index tuning: the advisor as a service absorbing a statement stream,
// not a one-shot batch job).
#ifndef COPHY_CORE_SESSION_H_
#define COPHY_CORE_SESSION_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/bipgen.h"
#include "core/cophy.h"
#include "core/prepared.h"
#include "lp/presolve.h"
#include "workload/compressor.h"

namespace cophy {

/// Session knobs.
struct SessionOptions {
  /// Tuning/preparation knobs, shared with the one-shot CoPhy front end
  /// (gap target, node limit, candidate generation, threads, ...).
  /// Compression mode must be kLossless or kNone: the router merges
  /// whole cost-equivalence classes either way, which is what makes the
  /// sharded and unsharded problems bit-identical. Lossy sampling is a
  /// batch-mode feature (GreedyAdvisor) and is rejected here.
  CoPhyOptions tuning;
  /// Workload shards, prepared independently and concurrently (<= 0:
  /// resolve to the preparation thread count). The shard count never
  /// changes Tune's output — only how incremental and parallel the
  /// preparation is (session_test pins shard invariance).
  int num_shards = 1;
  /// Online-tuning knobs: weight decay half-life and materialize/drop
  /// hysteresis windows (core/drift.h). Defaults preserve the exact
  /// pre-drift behavior (no decay, applied == recommended).
  DriftOptions drift;
};

/// A long-lived sharded tuning session.
///
/// Fault tolerance: every shard prepares through the fallible
/// WhatIfOptimizer boundary. A shard whose Prepare fails is
/// *quarantined* — its classes drop out of the merged problem and Tune
/// recommends from the healthy shards, with Recommendation::coverage
/// reporting the optimized fraction of live statement weight and
/// Recommendation::shard_health the per-shard picture. Quarantined
/// shards are retried at every Refresh/Tune/Retune; once the backend
/// heals, the shard rejoins and the output returns to the fault-free
/// recommendation exactly.
class AdvisorSession {
 public:
  /// `pool` must be the pool the what-if backend reads. `whatif` may be
  /// the raw simulator or any decorator stack (ResilientWhatIf over a
  /// fault injector, etc.).
  AdvisorSession(WhatIfOptimizer* whatif, IndexPool* pool,
                 SessionOptions options = {});

  /// Appends statements to the live workload and returns their session
  /// ids — the ids per-query constraints and RemoveStatements refer to.
  /// Only the shards receiving a *new* cost-equivalence class are
  /// marked for re-preparation; more instances of a known class are a
  /// pure re-weighting absorbed at merge time.
  std::vector<QueryId> AddStatements(const std::vector<Query>& stmts);
  std::vector<QueryId> AddWorkload(const Workload& w);

  /// Removes live statements by session id (ids are never reused).
  /// Removing the last member of a class retires the class — its shard
  /// re-prepares at the next Refresh; any other removal is weight-only.
  Status RemoveStatements(const std::vector<QueryId>& ids);

  /// DBA-pinned candidates (CGen's S_DBA), applied at the next
  /// structural refresh.
  void SetDbaIndexes(std::vector<Index> dba_indexes);
  /// Explicit candidate set instead of CGen (ids must be in the pool).
  /// Forces a full re-preparation of every shard.
  Status SetExplicitCandidates(std::vector<IndexId> ids);

  /// Advances the session's logical epoch clock by `ticks` (typically
  /// one per trace round). Statement weights decay as
  /// f_q * 0.5^(age_epochs / half_life_epochs), applied lazily at merge
  /// — no shard re-prepares, and with decay disabled (the default) this
  /// only moves the clock. `ticks` must be >= 0.
  void AdvanceEpoch(int64_t ticks = 1);
  int64_t epoch() const { return epoch_; }

  /// DBA feedback (semi-automatic tuning's accept/veto verbs). Accept
  /// pins the index into every subsequent recommendation (z_a == 1) and
  /// into the applied configuration immediately; Veto forbids it
  /// (z_a == 0) and drops it from the applied configuration. Each verb
  /// overrides the other; ClearFeedback forgets both. Ids must be pool
  /// ids.
  Status Accept(IndexId id);
  Status Veto(IndexId id);
  Status ClearFeedback(IndexId id);
  const DbaFeedback& feedback() const { return feedback_; }

  /// Drift picture of the last Tune/Retune (score, new/retired classes)
  /// plus the preparation work of the last Refresh (zero on a pure
  /// re-weighting — the fast path).
  const DriftStats& drift_stats() const { return drift_stats_; }
  /// The hysteresis-stable applied configuration (ascending pool ids).
  std::vector<IndexId> applied_configuration() const {
    return scheduler_.applied();
  }

  /// Brings the session up to date: runs CGen over the merged
  /// representative view, fully re-prepares structure-dirty shards
  /// concurrently on the shared worker pool, and hands clean shards the
  /// incremental γ entries for newly discovered candidates. No-op when
  /// nothing structural changed (weight-only deltas cost nothing here).
  /// Called implicitly by Tune/Retune.
  ///
  /// A shard whose preparation fails is quarantined (and retried on
  /// every later Refresh). The call still returns OK as long as the
  /// healthy shards cover a nonzero fraction of the live workload —
  /// degraded mode; only a session with *every* live class quarantined
  /// reports the failure as its own.
  Status Refresh();

  /// Merged cold solve (the exact CoPhy::Tune semantics over the live
  /// workload). Per-query constraint rows reference session ids;
  /// constraints on removed statements are dropped.
  Recommendation Tune(const ConstraintSet& constraints);
  /// Warm delta re-solve: previous incumbent, retained presolve
  /// reductions, root-LP basis and Lagrangian duals seed the search,
  /// and the node/time budgets shrink accordingly (§4.2).
  Recommendation Retune(const ConstraintSet& constraints);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Live statements (added minus removed).
  int num_statements() const { return live_statements_; }
  /// Live cost-equivalence classes (= merged query blocks).
  int num_classes() const;
  /// The merged candidate set of the last Refresh.
  const std::vector<IndexId>& candidates() const { return candidates_; }
  /// Merged per-shard preparation accounting (shards/skew filled).
  /// Cumulative over the session's lifetime, like CoPhy's
  /// Recommendation::prepare — the per-delta wall time lives in
  /// TuningTimings::inum_seconds instead.
  PrepareStats prepare_stats() const;
  /// One shard's prepared view (INUM caches over its classes; workload
  /// weights reflect the shard's last *structural* refresh — the merge
  /// path re-aggregates live weights itself). Baselines that need one
  /// coherent compressed view run a 1-shard session and read shard 0.
  const PreparedWorkload& shard_prepared(int shard) const;
  /// Cross-solve reuse accounting (warm_reuses counts Retunes that
  /// accepted the previous solve's presolve/basis/dual seeds).
  const lp::ChoiceResolveState& resolve_state() const { return resolve_; }

 private:
  struct ClassState {
    Query exemplar;  ///< first-ever member (defines the INUM cache)
    int shard = 0;
    std::vector<QueryId> members;  ///< live session ids, arrival order
  };
  struct StatementState {
    Query q;  ///< q.id holds the session id
    int cls = -1;
    bool live = false;
    int64_t arrival_epoch = 0;  ///< epoch clock value at AddStatements
  };
  struct Shard {
    /// Live classes in canonical (first-occurrence) order; matches the
    /// statement order of `prepared` after each structural refresh.
    std::vector<int> classes;
    PreparedWorkload prepared;
    bool dirty = false;  ///< class set changed since the last prepare
    /// Outcome of the shard's last preparation attempt. Non-OK means
    /// quarantined: the shard's classes are excluded from Tune until a
    /// Refresh rebuilds it successfully.
    Status health;
    int consecutive_failures = 0;  ///< failed attempts since last success
    bool quarantined() const { return !health.ok(); }
  };

  Recommendation TuneInternal(const ConstraintSet& constraints, bool warm);
  /// Fraction of live statement weight on healthy shards (1.0 for an
  /// empty session).
  double Coverage() const;
  /// One ShardHealth row per shard, from the live routing state.
  std::vector<ShardHealth> ShardHealthReport() const;
  /// Live classes in canonical order (class ids ascend with arrival).
  std::vector<int> LiveClasses() const;
  /// A statement's decayed live weight: f_q * DecayFactor(age). With
  /// decay disabled this *returns the raw weight without touching the
  /// FPU* — the undecayed path stays bit-identical (pinned by test).
  double StatementLiveWeight(QueryId sid) const;
  /// Σ live weight over a class's live members, summed in arrival order
  /// (the same accumulation order the lossless compressor uses, which
  /// keeps merged weights bit-identical to the unsharded path).
  double ClassWeight(int cls) const;
  /// The shard's compressed view for a full re-preparation.
  CompressedWorkload BuildShardView(int shard) const;
  /// The pool preparation and presolve run on: prepare.workers when set
  /// (the service's own pool), else the session's (nullptr when
  /// single-threaded).
  ThreadPool* Workers();

  WhatIfOptimizer* whatif_;
  IndexPool* pool_;
  SessionOptions options_;
  ShardRouter router_;
  std::vector<ClassState> classes_;        // dense by router class id
  std::vector<StatementState> statements_;  // dense by session id
  std::vector<Shard> shards_;
  std::vector<Index> dba_indexes_;
  std::vector<IndexId> explicit_candidates_;
  std::vector<IndexId> candidates_;
  int live_statements_ = 0;
  bool structure_dirty_ = false;
  double prepare_wall_seconds_ = 0;  // consumed by the next recommendation
  double cgen_seconds_total_ = 0;    // session-level CGen (merge step)
  double route_seconds_total_ = 0;   // routing + view (re)builds
  int prepare_threads_ = 1;  // threads the last preparing Refresh could use
  lp::ChoiceResolveState resolve_;
  std::vector<IndexId> last_chosen_;  // warm-start repair across refreshes
  std::unique_ptr<ThreadPool> workers_;
  // Online-tuning state (core/drift.h).
  int64_t epoch_ = 0;              // logical clock for weight decay
  DriftDetector detector_;         // class-weight distribution movement
  HysteresisScheduler scheduler_;  // materialize/drop stabilization
  DbaFeedback feedback_;           // accept/veto ledger
  DriftStats drift_stats_;         // refreshed at every Tune/Retune
};

}  // namespace cophy

#endif  // COPHY_CORE_SESSION_H_
