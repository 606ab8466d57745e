#include "service/plan_cache.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace cophy {

size_t SharedPlanCache::GammaKeyHash::operator()(const GammaKey& k) const {
  // SplitMix64 finalizer over the xor-combined halves; the map compares
  // full keys, so this only spreads buckets.
  uint64_t h = k.signature ^ (k.walk_digest * 0x9e3779b97f4a7c15ULL);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<size_t>(h ^ (h >> 31));
}

SharedPlanCache::SharedPlanCache(int num_shards) {
  shards_.reserve(static_cast<size_t>(std::max(1, num_shards)));
  for (int i = 0; i < std::max(1, num_shards); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

template <class Key, class Entry, class Hash>
Result<std::shared_ptr<const Entry>> SharedPlanCache::LookupOrClaim(
    Shard& shard, Table<Key, Entry, Hash>& table, const Key& key,
    double wait_seconds, PlanCacheClaim* claim, std::atomic<int64_t>& hits,
    std::atomic<int64_t>& misses) {
  std::unique_lock<std::mutex> lock(shard.mu);
  const auto fill_ended = [&] { return table.filling.count(key) == 0; };
  if (!fill_ended()) {
    fill_waits_.fetch_add(1, std::memory_order_relaxed);
    if (!std::isfinite(wait_seconds)) {
      shard.fill_ended.wait(lock, fill_ended);
    } else if (!shard.fill_ended.wait_for(
                   lock,
                   std::chrono::duration<double>(std::max(0.0, wait_seconds)),
                   fill_ended)) {
      return Status::Timeout(
          "deadline passed waiting for another session's plan-cache fill");
    }
  }
  auto it = table.entries.find(key);
  if (it != table.entries.end()) {
    hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  // A miss (or a fill given up without an entry): this caller fills.
  table.filling.insert(key);
  *claim = PlanCacheClaim([&shard, &table, key] {
    {
      std::lock_guard<std::mutex> release_lock(shard.mu);
      table.filling.erase(key);
    }
    shard.fill_ended.notify_all();
  });
  misses.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<const Entry>();
}

template <class Key, class Entry, class Hash>
bool SharedPlanCache::Insert(Shard& shard, Table<Key, Entry, Hash>& table,
                             const Key& key,
                             std::shared_ptr<const Entry> entry) {
  std::lock_guard<std::mutex> lock(shard.mu);
  // First writer wins: a racing publisher's identical entry is dropped
  // so every reader of this key sees one immutable value forever.
  return table.entries.emplace(key, std::move(entry)).second;
}

Result<std::shared_ptr<const SharedTemplateEntry>>
SharedPlanCache::LookupTemplates(uint64_t signature, double wait_seconds,
                                 PlanCacheClaim* claim) {
  Shard& shard = ShardFor(signature);
  return LookupOrClaim(shard, shard.templates, signature, wait_seconds, claim,
                       template_hits_, template_misses_);
}

void SharedPlanCache::PublishTemplates(
    uint64_t signature, std::shared_ptr<const SharedTemplateEntry> entry,
    PlanCacheClaim claim) {
  Shard& shard = ShardFor(signature);
  if (Insert(shard, shard.templates, signature, std::move(entry))) {
    template_inserts_.fetch_add(1, std::memory_order_relaxed);
  }
  claim.Release();
}

Result<std::shared_ptr<const SharedGammaEntry>> SharedPlanCache::LookupGammas(
    uint64_t signature, uint64_t walk_digest, double wait_seconds,
    PlanCacheClaim* claim) {
  Shard& shard = ShardFor(signature);
  return LookupOrClaim(shard, shard.gammas, GammaKey{signature, walk_digest},
                       wait_seconds, claim, gamma_hits_, gamma_misses_);
}

void SharedPlanCache::PublishGammas(
    uint64_t signature, uint64_t walk_digest,
    std::shared_ptr<const SharedGammaEntry> entry, PlanCacheClaim claim) {
  Shard& shard = ShardFor(signature);
  if (Insert(shard, shard.gammas, GammaKey{signature, walk_digest},
             std::move(entry))) {
    gamma_inserts_.fetch_add(1, std::memory_order_relaxed);
  }
  claim.Release();
}

PlanCacheStats SharedPlanCache::stats() const {
  PlanCacheStats s;
  s.template_hits = template_hits_.load(std::memory_order_relaxed);
  s.template_misses = template_misses_.load(std::memory_order_relaxed);
  s.template_inserts = template_inserts_.load(std::memory_order_relaxed);
  s.gamma_hits = gamma_hits_.load(std::memory_order_relaxed);
  s.gamma_misses = gamma_misses_.load(std::memory_order_relaxed);
  s.gamma_inserts = gamma_inserts_.load(std::memory_order_relaxed);
  s.fill_waits = fill_waits_.load(std::memory_order_relaxed);
  return s;
}

int64_t SharedPlanCache::NumTemplateEntries() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += static_cast<int64_t>(shard->templates.entries.size());
  }
  return n;
}

int64_t SharedPlanCache::NumGammaEntries() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += static_cast<int64_t>(shard->gammas.entries.size());
  }
  return n;
}

}  // namespace cophy
