// The ILP baseline (Papadomanolakis & Ailamaki, SMDB'07; §5.3): index
// tuning as a BIP with one variable per *atomic configuration* rather
// than per index. Because the number of atomic configurations grows
// with Π|S_i|, the technique must enumerate, INUM-cost, and prune
// configurations per query before the solver runs — which is exactly
// the build-time bottleneck the paper's Figures 5/10 show. As in the
// paper, our implementation shares CoPhy's INUM layer and solver so the
// comparison isolates the formulation difference.
#ifndef COPHY_BASELINES_ILP_ADVISOR_H_
#define COPHY_BASELINES_ILP_ADVISOR_H_

#include <memory>
#include <vector>

#include "baselines/advisor.h"
#include "common/thread_pool.h"
#include "core/prepared.h"
#include "core/session.h"
#include "inum/inum.h"

namespace cophy {

/// Pruning knobs (the counterpart of [13]'s heuristics).
struct IlpOptions {
  /// Shared preparation stage (compression + CGen + parallel INUM) —
  /// identical to CoPhy's, as in §5.1, so the comparison isolates the
  /// formulation difference.
  PrepareOptions prepare;
  /// Candidate indexes kept per referenced table when enumerating
  /// atomic configurations.
  int per_table_candidates = 8;
  /// Atomic configurations kept per query after costing.
  int max_configs_per_query = 400;
  double gap_target = 0.05;
  int64_t node_limit = 50'000;
  double time_limit_seconds = lp::kInf;
};

class IlpAdvisor : public Advisor {
 public:
  IlpAdvisor(WhatIfOptimizer* whatif, IndexPool* pool, Workload workload,
             IlpOptions options = {});

  std::string name() const override { return "ilp"; }

  AdvisorResult Recommend(const ConstraintSet& constraints) override;

  /// Restricts the candidate set (must be called after Recommend's
  /// implicit CGen, or use PrepareWithCandidates).
  void SetCandidates(std::vector<IndexId> candidates) {
    explicit_candidates_ = std::move(candidates);
    session_.reset();  // next Recommend re-prepares with the new set
  }

  /// Total atomic configurations enumerated in the last run.
  int64_t configurations_enumerated() const { return configs_enumerated_; }

 private:
  /// Worker pool for the presolve scans (prepare.workers, or
  /// prepare.num_threads; nullptr = inline), lazily created and reused
  /// across Recommend calls.
  ThreadPool* PresolvePool();

  WhatIfOptimizer* whatif_;
  IndexPool* pool_;
  Workload workload_;
  IlpOptions options_;
  std::vector<IndexId> explicit_candidates_;
  int64_t configs_enumerated_ = 0;
  std::unique_ptr<ThreadPool> presolve_pool_;  // lazily created
  /// The (1-shard) preparation session, reused across Recommend calls:
  /// a constraint-only re-Recommend pays no compression/CGen/INUM work.
  std::unique_ptr<AdvisorSession> session_;
};

}  // namespace cophy

#endif  // COPHY_BASELINES_ILP_ADVISOR_H_
