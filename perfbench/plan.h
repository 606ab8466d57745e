// The three benchmark workloads as fixed op sequences generated from the
// seed. The program only ever receives the generated statements; the
// sequence (which round removes, adds, re-budgets or vetoes what) is a
// pure function of (workload, seed, seconds), so every run of a seed
// replays exactly the same ops and ends after a set number of them.
#ifndef PERFBENCH_PLAN_H_
#define PERFBENCH_PLAN_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "core/drift.h"
#include "query/query.h"
#include "workload/compressor.h"
#include "workload/generator.h"

namespace perfbench {

using cophy::Catalog;
using cophy::Query;
using cophy::QueryId;

/// What a tuning round exercises (used to split latencies by path).
enum class RoundKind {
  kLoad,      ///< initial load + cold Tune of a tenant (set-up only)
  kCold,      ///< fresh tenant, fresh statements, cold Tune
  kReweight,  ///< known classes only: pure re-weighting Retune
  kNewClass,  ///< one class retires, one new class opens
  kBudget,    ///< storage budget changes: warm dual re-entry of the root LP
  kFeedback,  ///< DBA veto or clear on one recommended index
  kChurn,     ///< tenant delta over skewed statistics (classes come and go)
};

inline const char* RoundKindName(RoundKind k) {
  switch (k) {
    case RoundKind::kLoad: return "load";
    case RoundKind::kCold: return "cold";
    case RoundKind::kReweight: return "reweight";
    case RoundKind::kNewClass: return "new_class";
    case RoundKind::kBudget: return "budget";
    case RoundKind::kFeedback: return "feedback";
    case RoundKind::kChurn: return "churn";
  }
  return "?";
}

enum class Feedback { kNone, kVeto, kClear };

/// One client round: delta ops on the tenant's lane, then one tuning op.
/// Lane order: AdvanceEpoch, RemoveStatements, AddStatements, feedback,
/// Tune/Retune.
struct Round {
  std::string tenant;
  RoundKind kind = RoundKind::kReweight;
  bool advance_epoch = false;
  std::vector<QueryId> remove;    ///< session ids
  std::vector<Query> add;
  std::vector<QueryId> add_ids;   ///< session ids the service must assign
  std::vector<int> add_class;     ///< bench-side cost class of each add
  Feedback feedback = Feedback::kNone;  ///< index picked at run time
  bool cold = false;                    ///< Tune, else Retune
  double budget_fraction = 0.5;         ///< of the catalog's data bytes
};

/// Cost-equivalence classes of every generated statement, so the output
/// check costs each class once instead of each statement.
class CostClasses {
 public:
  /// The class of `q`, or -1 if no registered statement is equivalent.
  int Find(const Query& q, const Catalog& cat) const {
    auto range = by_signature_.equal_range(cophy::StatementCostSignature(q, cat));
    for (auto it = range.first; it != range.second; ++it) {
      if (cophy::CostEquivalent(exemplars_[it->second], q, cat)) {
        return it->second;
      }
    }
    return -1;
  }
  /// The class of `q`, registering a new one when needed.
  int Classify(const Query& q, const Catalog& cat) {
    const int found = Find(q, cat);
    if (found >= 0) return found;
    by_signature_.emplace(cophy::StatementCostSignature(q, cat),
                          static_cast<int>(exemplars_.size()));
    exemplars_.push_back(q);
    return static_cast<int>(exemplars_.size()) - 1;
  }
  const Query& exemplar(int cls) const { return exemplars_[cls]; }
  int size() const { return static_cast<int>(exemplars_.size()); }

 private:
  std::vector<Query> exemplars_;
  std::unordered_multimap<uint64_t, int> by_signature_;
};

/// A workload: per client, rounds [0, load_rounds) are initial loads run
/// one tenant at a time in set-up, the next warmup_rounds are the
/// untimed warm-up prefix, and the rest are timed.
struct Plan {
  std::string workload;
  double zipf = 0;        ///< catalog skew
  int workers = 2;        ///< service worker threads
  cophy::DriftOptions drift;
  int load_rounds = 0;
  int warmup_rounds = 0;
  std::vector<std::vector<Round>> clients;
  CostClasses classes;

  int timed_rounds() const {
    int n = 0;
    for (const auto& c : clients) {
      n += static_cast<int>(c.size()) - load_rounds - warmup_rounds;
    }
    return n;
  }
};

/// splitmix64: independent sub-seeds from the run seed.
inline uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Per-tenant session-id bookkeeping while a plan is generated: ids are
/// dense per tenant in AddStatements order and never reused.
struct TenantIds {
  QueryId next = 0;
  std::vector<QueryId> Assign(size_t n) {
    std::vector<QueryId> ids;
    for (size_t i = 0; i < n; ++i) ids.push_back(next++);
    return ids;
  }
};

inline void AddStatements(Round& r, std::vector<Query> stmts, TenantIds& ids,
                          CostClasses& classes, const Catalog& cat) {
  for (Query& q : stmts) {
    q.id = -1;
    r.add_class.push_back(classes.Classify(q, cat));
    r.add.push_back(std::move(q));
  }
  const std::vector<QueryId> assigned = ids.Assign(stmts.size());
  r.add_ids.insert(r.add_ids.end(), assigned.begin(), assigned.end());
}

/// W_het statements bucketed by how many tables they join (1 to 4),
/// drawn on demand from seeded generator batches. Batches built with a
/// fixed count per bucket keep the generator's shape mix in every batch,
/// so seeds change which statements run but not how hard a batch is.
class HetSource {
 public:
  HetSource(const Catalog& cat, uint64_t seed) : cat_(cat), seed_(seed) {}

  /// The next unused statement joining `tables` tables.
  Query Next(int tables) {
    std::vector<Query>& bucket = buckets_[tables - 1];
    while (next_[tables - 1] >= bucket.size()) {
      cophy::WorkloadOptions o;
      o.num_statements = 256;
      o.seed = Mix(seed_, 50'000 + batches_++);
      const cophy::Workload w = cophy::MakeHeterogeneousWorkload(cat_, o);
      for (const Query& q : w.statements()) {
        buckets_[q.tables.size() - 1].push_back(q);
      }
    }
    return bucket[next_[tables - 1]++];
  }

  /// `n` statements spread evenly over the four join sizes.
  std::vector<Query> Batch(int n) {
    std::vector<Query> out;
    for (int i = 0; i < n; ++i) out.push_back(Next(1 + i % 4));
    return out;
  }

 private:
  const Catalog& cat_;
  uint64_t seed_;
  uint64_t batches_ = 0;
  std::vector<Query> buckets_[4];
  size_t next_[4] = {0, 0, 0, 0};
};

// --- cold_het --------------------------------------------------------
// One client; every op is a new tenant adding a fresh batch of read-only
// W_het statements and tuning cold at half the data size. Batches stay
// small because cold W_het cost grows superlinearly with batch size.
constexpr int kHetBatch = 30;
constexpr int kColdHetWarmup = 3;
constexpr double kColdHetOpsPerSecond = 5;

inline Plan ColdHetPlan(const Catalog& cat, uint64_t seed, int seconds) {
  Plan p;
  p.workload = "cold_het";
  p.warmup_rounds = kColdHetWarmup;
  const int timed =
      std::max(12, static_cast<int>(std::lround(seconds * kColdHetOpsPerSecond)));
  p.clients.resize(1);
  HetSource het(cat, seed);
  for (int i = 0; i < kColdHetWarmup + timed; ++i) {
    Round r;
    r.tenant = "het-" + std::to_string(i);
    r.kind = RoundKind::kCold;
    r.cold = true;
    TenantIds ids;
    AddStatements(r, het.Batch(kHetBatch), ids, p.classes, cat);
    p.clients[0].push_back(std::move(r));
  }
  return p;
}

// --- interactive -----------------------------------------------------
// One long-lived tenant with decay and hysteresis on. Set-up loads a
// W_hom core (10% UPDATEs) plus a small W_het minority and tunes cold.
// Every round ticks the epoch and swaps 1% of the core for fresh
// instances of the removed statements' classes; a fixed 20-round cycle
// adds three W_het slides (one class retires, one opens), one budget
// change and one feedback round, so re-weighting is 75% of the mix.
constexpr int kCore = 1000;
constexpr int kSwap = 10;
constexpr int kHetMinority = 8;
constexpr int kCycle = 20;
constexpr int kInteractiveWarmup = kCycle;
constexpr double kInteractiveRoundsPerSecond = 30;

inline RoundKind InteractiveKind(int round) {
  switch ((round - 1) % kCycle) {
    case 3:
    case 9:
    case 15: return RoundKind::kNewClass;
    case 12: return RoundKind::kBudget;
    case 19: return RoundKind::kFeedback;
    default: return RoundKind::kReweight;
  }
}

inline Plan InteractivePlan(const Catalog& cat, uint64_t seed, int seconds) {
  Plan p;
  p.workload = "interactive";
  p.drift.half_life_epochs = 25;
  p.drift.materialize_after = 2;
  p.drift.drop_after = 2;
  p.load_rounds = 1;
  p.warmup_rounds = kInteractiveWarmup;
  const int timed = std::max(
      40, static_cast<int>(std::lround(seconds * kInteractiveRoundsPerSecond)));
  const int rounds = 1 + kInteractiveWarmup + timed;
  p.clients.resize(1);
  std::vector<Round>& out = p.clients[0];
  TenantIds ids;

  cophy::WorkloadOptions core_opts;
  core_opts.num_statements = kCore;
  core_opts.seed = Mix(seed, 1);
  core_opts.update_fraction = 0.1;
  const cophy::Workload core = cophy::MakeHomogeneousWorkload(cat, core_opts);
  HetSource het(cat, Mix(seed, 2));

  Round load;
  load.tenant = "dba";
  load.kind = RoundKind::kLoad;
  load.cold = true;
  std::vector<Query> initial = core.statements();
  for (Query& q : het.Batch(kHetMinority)) initial.push_back(std::move(q));
  AddStatements(load, std::move(initial), ids, p.classes, cat);
  const int core_classes = p.classes.size();

  // Live core and minority in arrival order (FIFO removal).
  struct Live {
    QueryId id;
    int cls;
  };
  std::vector<Live> core_live, het_live;
  for (int i = 0; i < kCore + kHetMinority; ++i) {
    (i < kCore ? core_live : het_live)
        .push_back({load.add_ids[i], load.add_class[i]});
  }
  out.push_back(std::move(load));

  // Fresh instances per class, drawn from extra W_hom batches on demand;
  // a class the generator rarely hits falls back to a repeat of its
  // exemplar, which is an instance of the same class too.
  constexpr uint64_t kMaxBatches = 64;
  std::vector<std::vector<Query>> fresh(core_classes);
  std::vector<size_t> fresh_next(core_classes, 0);
  uint64_t batch = 0;
  auto next_instance = [&](int cls) {
    while (fresh_next[cls] >= fresh[cls].size() && batch < kMaxBatches) {
      cophy::WorkloadOptions o = core_opts;
      o.seed = Mix(seed, 1000 + batch++);
      const cophy::Workload extra = cophy::MakeHomogeneousWorkload(cat, o);
      for (const Query& q : extra.statements()) {
        const int c = p.classes.Find(q, cat);
        if (c >= 0 && c < core_classes) fresh[c].push_back(q);
      }
    }
    if (fresh_next[cls] >= fresh[cls].size()) return p.classes.exemplar(cls);
    return fresh[cls][fresh_next[cls]++];
  };

  double budget = 0.5;
  bool vetoed = false;
  size_t core_head = 0, het_head = 0;
  for (int r = 1; r < rounds; ++r) {
    Round round;
    round.tenant = "dba";
    round.kind = InteractiveKind(r);
    round.advance_epoch = true;
    std::vector<Query> add;
    std::vector<int> swapped;
    for (int s = 0; s < kSwap; ++s) {
      const Live& gone = core_live[core_head++];
      round.remove.push_back(gone.id);
      swapped.push_back(gone.cls);
      add.push_back(next_instance(gone.cls));
    }
    if (round.kind == RoundKind::kNewClass) {
      // The slid-in statement joins as many tables as the one it
      // replaces, so the minority keeps its shape mix.
      const Live& gone = het_live[het_head++];
      round.remove.push_back(gone.id);
      add.push_back(het.Next(
          static_cast<int>(p.classes.exemplar(gone.cls).tables.size())));
    }
    if (round.kind == RoundKind::kBudget) budget = budget == 0.5 ? 0.45 : 0.5;
    if (round.kind == RoundKind::kFeedback) {
      round.feedback = vetoed ? Feedback::kClear : Feedback::kVeto;
      vetoed = !vetoed;
    }
    round.budget_fraction = budget;
    AddStatements(round, std::move(add), ids, p.classes, cat);
    for (size_t i = 0; i < round.add_ids.size(); ++i) {
      const bool is_core = i < swapped.size();
      (is_core ? core_live : het_live)
          .push_back({round.add_ids[i], round.add_class[i]});
    }
    out.push_back(std::move(round));
  }
  return p;
}

// --- tenant_churn ----------------------------------------------------
// Tenants outnumber service workers. Each tenant is a closed loop with
// one tuning request in flight and holds a window of W_hom statements
// over skewed statistics (z = 1, so new constants open new classes);
// 75% of statement draws are shared across tenants, which is what the
// shared plan cache serves. Each round drops the tenant's oldest
// statements, adds fresh ones and re-tunes. The storage budget is tight
// (5% of the data): at budgets of 10-100% a quarter or more of these
// retunes search to the node limit, which swamps the service layers this
// workload exists to load; cold_het and interactive keep the search.
constexpr int kTenants = 4;
constexpr int kChurnWorkers = 2;
constexpr int kTenantStatements = 24;
constexpr int kChurnDelta = 3;
constexpr int kChurnWarmup = 2;
constexpr double kChurnBudget = 0.05;
constexpr double kChurnRetunesPerSecond = 15;

/// Statement `position` of a tenant's stream. Templates cycle with the
/// position and three positions in four are shared across tenants, so
/// every window holds the same mix; the seed draws the constants.
inline Query TenantStatement(const Catalog& cat, uint64_t seed, int tenant,
                             int position) {
  const bool shared = position % 4 != 3;
  const uint64_t key =
      shared ? Mix(seed, 4'000'000 + position)
             : Mix(seed, 5'000'000 + tenant * 1'000'000ULL + position);
  return cophy::MakeHomogeneousStatement(
      cat, position % cophy::NumHomogeneousTemplates(), key);
}

inline Plan TenantChurnPlan(const Catalog& cat, uint64_t seed, int seconds) {
  Plan p;
  p.workload = "tenant_churn";
  p.zipf = 1.0;
  p.workers = kChurnWorkers;
  p.load_rounds = 1;
  p.warmup_rounds = kChurnWarmup;
  const int per_tenant = std::max(
      10, static_cast<int>(std::lround(seconds * kChurnRetunesPerSecond /
                                       kTenants)));
  p.clients.resize(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    TenantIds ids;
    const std::string tenant = "tenant-" + std::to_string(t);
    Round load;
    load.tenant = tenant;
    load.kind = RoundKind::kLoad;
    load.cold = true;
    load.budget_fraction = kChurnBudget;
    std::vector<Query> initial;
    for (int i = 0; i < kTenantStatements; ++i) {
      initial.push_back(TenantStatement(cat, seed, t, i));
    }
    AddStatements(load, std::move(initial), ids, p.classes, cat);
    p.clients[t].push_back(std::move(load));
    for (int r = 0; r < kChurnWarmup + per_tenant; ++r) {
      Round round;
      round.tenant = tenant;
      round.kind = RoundKind::kChurn;
      round.budget_fraction = kChurnBudget;
      std::vector<Query> fresh;
      for (int d = 0; d < kChurnDelta; ++d) {
        round.remove.push_back(r * kChurnDelta + d);
        fresh.push_back(TenantStatement(
            cat, seed, t, kTenantStatements + r * kChurnDelta + d));
      }
      AddStatements(round, std::move(fresh), ids, p.classes, cat);
      p.clients[t].push_back(std::move(round));
    }
  }
  return p;
}

}  // namespace perfbench

#endif  // PERFBENCH_PLAN_H_
