// SharedPlanCache: the service tier's cross-session INUM plan cache (an
// InumPlanCache, see inum/shared_cache.h for the bit-identity and
// single-flight contracts). A lock-sharded hash map — keys spread over N
// independent mutexes so concurrent tenants rarely contend — holding
// immutable shared_ptr<const> entries with first-writer-wins
// publication, the set of keys being filled (claims) with a per-shard
// condition variable their waiters block on, plus relaxed atomic
// hit/miss/insert counters snapshotable while tenants are preparing
// (stats() folds into PrepareStats via Inum's counters; these are the
// cache-global totals across all tenants).
#ifndef COPHY_SERVICE_PLAN_CACHE_H_
#define COPHY_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "inum/shared_cache.h"

namespace cophy {

class SharedPlanCache : public InumPlanCache {
 public:
  /// `num_shards` lock shards (rounded up to at least 1). 16 is plenty:
  /// the critical sections are single hash-map probes.
  explicit SharedPlanCache(int num_shards = 16);

  Result<std::shared_ptr<const SharedTemplateEntry>> LookupTemplates(
      uint64_t signature, double wait_seconds, PlanCacheClaim* claim) override;
  void PublishTemplates(uint64_t signature,
                        std::shared_ptr<const SharedTemplateEntry> entry,
                        PlanCacheClaim claim) override;

  Result<std::shared_ptr<const SharedGammaEntry>> LookupGammas(
      uint64_t signature, uint64_t walk_digest, double wait_seconds,
      PlanCacheClaim* claim) override;
  void PublishGammas(uint64_t signature, uint64_t walk_digest,
                     std::shared_ptr<const SharedGammaEntry> entry,
                     PlanCacheClaim claim) override;

  PlanCacheStats stats() const override;

  /// Entry counts (for reports/benchmarks; takes every shard lock).
  int64_t NumTemplateEntries() const;
  int64_t NumGammaEntries() const;

 private:
  /// γ entries key on (signature, walk digest); 128 bits compared
  /// exactly, so distinct walks never alias through the map key.
  struct GammaKey {
    uint64_t signature = 0;
    uint64_t walk_digest = 0;
    bool operator==(const GammaKey& o) const {
      return signature == o.signature && walk_digest == o.walk_digest;
    }
  };
  struct GammaKeyHash {
    size_t operator()(const GammaKey& k) const;
  };
  /// One kind of entry: the published values plus the keys being filled.
  template <class Key, class Entry, class Hash = std::hash<Key>>
  struct Table {
    std::unordered_map<Key, std::shared_ptr<const Entry>, Hash> entries;
    std::unordered_set<Key, Hash> filling;  ///< claimed, not yet ended
  };
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable fill_ended;  ///< a claim on this shard ended
    Table<uint64_t, SharedTemplateEntry> templates;
    Table<GammaKey, SharedGammaEntry, GammaKeyHash> gammas;
  };

  Shard& ShardFor(uint64_t signature) {
    return *shards_[signature % shards_.size()];
  }
  /// The entry for `key`, waiting out another caller's fill first; on a
  /// miss, claims the key into `*claim`.
  template <class Key, class Entry, class Hash>
  Result<std::shared_ptr<const Entry>> LookupOrClaim(
      Shard& shard, Table<Key, Entry, Hash>& table, const Key& key,
      double wait_seconds, PlanCacheClaim* claim, std::atomic<int64_t>& hits,
      std::atomic<int64_t>& misses);
  /// Stores `entry` unless the key has one (first writer wins); returns
  /// whether it was inserted.
  template <class Key, class Entry, class Hash>
  static bool Insert(Shard& shard, Table<Key, Entry, Hash>& table,
                     const Key& key, std::shared_ptr<const Entry> entry);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> template_hits_{0};
  std::atomic<int64_t> template_misses_{0};
  std::atomic<int64_t> template_inserts_{0};
  std::atomic<int64_t> gamma_hits_{0};
  std::atomic<int64_t> gamma_misses_{0};
  std::atomic<int64_t> gamma_inserts_{0};
  std::atomic<int64_t> fill_waits_{0};
};

}  // namespace cophy

#endif  // COPHY_SERVICE_PLAN_CACHE_H_
