// The cross-session INUM plan-cache boundary. A service hosting many
// advisor sessions installs an InumPlanCache (see
// service/plan_cache.h); each session's Inum then publishes the
// expensive Prepare products — template plans (β) and γ access-cost
// tables — keyed by the statement's cost-equivalence signature from
// workload/compressor, and any tenant whose statement falls in the same
// equivalence class reuses them without touching the what-if optimizer.
//
// Correctness contract (what makes reuse bit-identical, not just
// approximately right):
//
//  * Template entries are keyed by StatementCostSignature alone. Every
//    entry carries the statement that populated it, and readers confirm
//    with the exact CostEquivalent comparator before reuse — a 64-bit
//    collision degrades to a miss, never to a wrong plan. Cost-
//    equivalent statements have identical SlotOrderCandidates and
//    EnumerateTemplates results by definition, so the copied templates
//    are byte-for-byte what the reader would have computed.
//
//  * γ entries additionally fold the *candidate walk history* into the
//    key: the ordered ids (and definitions) of the pool candidates
//    relevant to the statement, chained across the initial Prepare and
//    every incremental AddCandidates. Two sessions hit the same γ entry
//    only when they walked the same candidates in the same order, which
//    pins tie order inside the sorted per-(slot, order) lists — the
//    copied tables are bit-identical to a local rebuild, so the BIP and
//    the recommendation downstream are too. Sessions sharing one
//    IndexPool (the service arrangement) satisfy this on overlapping
//    workloads by construction.
//
// Entries are immutable once published (shared_ptr<const>, first writer
// wins), so readers never synchronize beyond the lookup itself.
//
// Fills are single-flight: a lookup that misses claims the key, and
// concurrent lookups of a claimed key wait until its holder publishes
// (a hit) or gives the claim up without an entry (one waiter then
// claims the key and fills it itself). Concurrent tenants therefore pay
// each template enumeration and γ build once, exactly as a serial replay
// would. The claim is RAII — every exit path of a fill (error status,
// deadline, exception) releases it — and a thread never waits, on a
// claim or in ParallelFor, while it holds one, which is what keeps the
// waits deadlock-free: every claim holder is running.
#ifndef COPHY_INUM_SHARED_CACHE_H_
#define COPHY_INUM_SHARED_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/status.h"
#include "index/index.h"
#include "inum/inum.h"
#include "query/query.h"

namespace cophy {

/// The template-phase product of one PrepareStatement: everything that
/// depends only on the statement's cost-equivalence class.
struct SharedTemplateEntry {
  /// The statement that populated the entry; readers confirm exact cost
  /// equivalence against it before reuse.
  Query statement;
  std::vector<std::vector<OrderSpec>> slot_orders;
  std::vector<QueryCache::Template> templates;
};

/// The γ-phase product: access tables plus update-cost caches, valid
/// for the (equivalence class, candidate walk) pair in the key.
struct SharedGammaEntry {
  Query statement;
  std::vector<std::vector<std::vector<SlotAccess>>> access;
  int64_t raw_gamma_entries = 0;
  double base_update_cost = 0.0;
  std::unordered_map<IndexId, double> update_costs;
};

/// Monotonic accounting, snapshotable while tenants are preparing.
struct PlanCacheStats {
  int64_t template_hits = 0;
  int64_t template_misses = 0;
  int64_t template_inserts = 0;
  int64_t gamma_hits = 0;
  int64_t gamma_misses = 0;
  int64_t gamma_inserts = 0;
  /// Lookups that found their key claimed and waited for its fill.
  int64_t fill_waits = 0;
  int64_t Hits() const { return template_hits + gamma_hits; }
  int64_t Lookups() const {
    return template_hits + template_misses + gamma_hits + gamma_misses;
  }
  double HitRate() const {
    const int64_t n = Lookups();
    return n > 0 ? static_cast<double>(Hits()) / static_cast<double>(n) : 0.0;
  }
};

/// The right to fill one missing key, handed to the lookup that missed
/// it. Pass it to the matching Publish*; a claim destroyed (or released)
/// unpublished gives the key up, and its waiters retry. Movable, not
/// copyable; must not outlive the cache that issued it.
class PlanCacheClaim {
 public:
  PlanCacheClaim() = default;
  /// For cache implementations: `release` ends the claim.
  explicit PlanCacheClaim(std::function<void()> release)
      : release_(std::move(release)) {}
  PlanCacheClaim(PlanCacheClaim&& o) noexcept
      : release_(std::exchange(o.release_, nullptr)) {}
  PlanCacheClaim& operator=(PlanCacheClaim&& o) noexcept {
    if (this != &o) {
      Release();
      release_ = std::exchange(o.release_, nullptr);
    }
    return *this;
  }
  PlanCacheClaim(const PlanCacheClaim&) = delete;
  PlanCacheClaim& operator=(const PlanCacheClaim&) = delete;
  ~PlanCacheClaim() { Release(); }

  bool held() const { return release_ != nullptr; }
  /// Ends the claim now (a no-op when none is held).
  void Release() {
    if (std::function<void()> release = std::exchange(release_, nullptr)) {
      release();
    }
  }

 private:
  std::function<void()> release_;
};

/// Abstract publish/lookup surface Inum talks to. Implementations must
/// be safe for concurrent readers and writers; Publish* must keep the
/// first entry when two writers race (so every reader of a key sees one
/// immutable value forever).
///
/// Lookup* returns the key's entry, or nullptr on a miss. A miss on an
/// unclaimed key sets `*claim`: the caller is the key's only filler and
/// should publish with it. A lookup that finds the key claimed waits for
/// that fill, at most `wait_seconds` (infinite: no limit), and returns
/// kTimeout when the wait runs out. A caller must not look up while it
/// holds a claim.
class InumPlanCache {
 public:
  virtual ~InumPlanCache() = default;

  virtual Result<std::shared_ptr<const SharedTemplateEntry>> LookupTemplates(
      uint64_t signature, double wait_seconds, PlanCacheClaim* claim) = 0;
  /// Stores `entry` (first writer wins), then ends `claim`, waking the
  /// key's waiters. `claim` may be empty (nothing to wake).
  virtual void PublishTemplates(
      uint64_t signature, std::shared_ptr<const SharedTemplateEntry> entry,
      PlanCacheClaim claim) = 0;

  virtual Result<std::shared_ptr<const SharedGammaEntry>> LookupGammas(
      uint64_t signature, uint64_t walk_digest, double wait_seconds,
      PlanCacheClaim* claim) = 0;
  virtual void PublishGammas(uint64_t signature, uint64_t walk_digest,
                             std::shared_ptr<const SharedGammaEntry> entry,
                             PlanCacheClaim claim) = 0;

  virtual PlanCacheStats stats() const = 0;
};

/// Folds one candidate-walk step into a γ-key digest: the ordered
/// (id, definition) sequence of the candidates in `step` that are
/// relevant to `q` (on its FROM tables or its update table). Returns
/// `digest` unchanged when no candidate is relevant — an append that
/// cannot touch q's γ tables must not change its key. Chained as
/// digest_{k+1} = FoldCandidateWalk(digest_k, q, step_k, pool) across
/// Prepare and each AddCandidates.
uint64_t FoldCandidateWalk(uint64_t digest, const Query& q,
                           const std::vector<IndexId>& step,
                           const IndexPool& pool);

}  // namespace cophy

#endif  // COPHY_INUM_SHARED_CACHE_H_
