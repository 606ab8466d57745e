// The output check: replays a plan bench-side and verifies every timed
// tuning op against an independent costing. A second SystemSimulator
// over the same catalog and index pool prices the recommended
// configuration, so its calls never reach the advisor's what-if
// counter. Each cost class is priced once per distinct set of indexes
// on its tables, and the distinct costings run in parallel.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "optimizer/simulator.h"
#include "plan.h"
#include "service/service.h"
#include "trace.h"

namespace perfbench {

/// The outcome of one tuning op as the bench saw it.
struct OpRecord {
  int client = 0;
  int round = 0;
  RoundKind kind = RoundKind::kReweight;
  Clock::time_point submit;
  Clock::time_point done;
  cophy::OpResult result;
  int service_ops = 0;     ///< ops this round submitted (tuning op included)
  int failed_ops = 0;      ///< of those, not OK (or wrong session ids)
  cophy::IndexId vetoed = cophy::kInvalidIndex;  ///< ledger at this op
  cophy::PrepareStats prev_prepare;  ///< tenant's stats before this op
  int64_t whatif_calls = 0;          ///< single-client attribution only
  WhatIfTally whatif;                ///< traced run, single-client only
  // Filled by the check.
  bool checked_ok = false;
  double cost_ratio = 0;

  double LatencyMs() const {
    return std::chrono::duration<double, std::milli>(done - submit).count();
  }
};

class Checker {
 public:
  Checker(const cophy::Catalog* cat, const cophy::IndexPool* pool,
          const CostClasses* classes)
      : cat_(cat),
        pool_(pool),
        classes_(classes),
        sim_(cat, pool, cophy::CostModel::SystemA()) {}

  /// Checks every record (records of one client must be in round order)
  /// and returns the number that failed. Messages go to stderr. The
  /// distinct costings run on `threads` threads first.
  int Check(const Plan& plan, std::vector<OpRecord>* records, int threads) {
    std::vector<std::vector<OpRecord*>> by_client(plan.clients.size());
    for (OpRecord& r : *records) by_client[r.client].push_back(&r);
    struct Pending {
      OpRecord* rec;
      const Round* round;
      std::map<int, double> weights;  // live class -> decayed weight
    };
    std::vector<Pending> pending;
    for (size_t c = 0; c < plan.clients.size(); ++c) {
      std::unordered_map<std::string, Tenant> tenants;
      size_t next = 0;
      for (size_t i = 0; i < plan.clients[c].size(); ++i) {
        const Round& round = plan.clients[c][i];
        Tenant& t = tenants[round.tenant];
        Apply(round, &t);
        if (next < by_client[c].size() &&
            by_client[c][next]->round == static_cast<int>(i)) {
          pending.push_back(
              {by_client[c][next], &round, Weights(t, plan.drift)});
          ++next;
        }
      }
    }
    // Every (class, configuration) pair the checks will need, costed once.
    const cophy::Configuration empty;
    for (const Pending& p : pending) {
      if (!p.rec->result.status.ok()) continue;
      for (const auto& [cls, w] : p.weights) {
        costs_.emplace(KeyOf(cls, p.rec->result.recommendation.configuration), 0);
        costs_.emplace(KeyOf(cls, empty), 0);
      }
    }
    std::vector<std::pair<const Key, double>*> todo;
    for (auto& kv : costs_) todo.push_back(&kv);
    std::atomic<size_t> cursor{0};
    auto worker = [&] {
      for (size_t i; (i = cursor.fetch_add(1)) < todo.size();) {
        const Key& k = todo[i]->first;
        const cophy::Result<double> cost =
            sim_.Cost(classes_->exemplar(k.first), cophy::Configuration(k.second));
        todo[i]->second = cost.ok() ? cost.value() : std::nan("");
      }
    };
    std::vector<std::thread> pool;
    for (int i = 1; i < threads; ++i) pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool) t.join();

    int failed = 0;
    for (const Pending& p : pending) {
      if (!CheckOne(*p.round, p.weights, p.rec)) ++failed;
    }
    return failed;
  }

  double max_rel_diff() const { return max_rel_diff_; }

 private:
  /// A class and the configuration's indexes on the class's tables (the
  /// only ones that can change its plan or its maintenance cost).
  using Key = std::pair<int, std::vector<cophy::IndexId>>;

  struct Live {
    int cls = 0;
    double weight = 1;
    int64_t arrival = 0;
  };
  struct Tenant {
    int64_t epoch = 0;
    std::map<cophy::QueryId, Live> live;
  };

  static void Apply(const Round& r, Tenant* t) {
    if (r.advance_epoch) ++t->epoch;
    for (cophy::QueryId id : r.remove) t->live.erase(id);
    for (size_t i = 0; i < r.add.size(); ++i) {
      t->live[r.add_ids[i]] = {r.add_class[i], r.add[i].weight, t->epoch};
    }
  }

  /// Live class weights, decayed exactly like the session decays them.
  static std::map<int, double> Weights(const Tenant& t,
                                       const cophy::DriftOptions& drift) {
    std::map<int, double> weights;
    const double half_life = drift.half_life_epochs;
    for (const auto& [id, s] : t.live) {
      const int64_t age = t.epoch - s.arrival;
      const double decay =
          half_life > 0 && age > 0
              ? std::pow(0.5, static_cast<double>(age) / half_life)
              : 1.0;
      weights[s.cls] += s.weight * decay;
    }
    return weights;
  }

  Key KeyOf(int cls, const cophy::Configuration& x) const {
    const cophy::Query& q = classes_->exemplar(cls);
    std::vector<cophy::IndexId> relevant;
    for (cophy::IndexId id : x.ids()) {
      const cophy::TableId table = (*pool_)[id].table;
      if (q.References(table) || table == q.update_table) {
        relevant.push_back(id);
      }
    }
    return {cls, std::move(relevant)};
  }

  bool Fail(const OpRecord& rec, const std::string& what) {
    std::fprintf(stderr, "check failed: client %d round %d (%s): %s\n",
                 rec.client, rec.round, RoundKindName(rec.kind), what.c_str());
    return false;
  }

  bool CheckOne(const Round& round, const std::map<int, double>& weights,
                OpRecord* rec) {
    const cophy::Recommendation& r = rec->result.recommendation;
    if (!rec->result.status.ok()) {
      return Fail(*rec, rec->result.status.ToString());
    }
    if (rec->failed_ops > 0) return Fail(*rec, "a delta op failed");
    const cophy::Configuration& x = r.configuration;
    const double budget = round.budget_fraction * cat_->TotalDataBytes();
    if (x.SizeBytes(*pool_, *cat_) > budget * (1 + 1e-12)) {
      return Fail(*rec, "configuration exceeds the storage budget");
    }
    if (rec->vetoed != cophy::kInvalidIndex) {
      const auto& applied = r.materialization.applied;
      if (x.Contains(rec->vetoed) ||
          std::find(applied.begin(), applied.end(), rec->vetoed) !=
              applied.end()) {
        return Fail(*rec, "vetoed index recommended");
      }
    }
    double with_x = 0, without = 0;
    const cophy::Configuration empty;
    for (const auto& [cls, w] : weights) {
      with_x += w * costs_.at(KeyOf(cls, x));
      without += w * costs_.at(KeyOf(cls, empty));
    }
    const double diff =
        std::abs(r.objective - with_x) / std::max(1.0, std::abs(with_x));
    max_rel_diff_ = std::max(max_rel_diff_, diff);
    if (!(diff <= 1e-9)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "objective %.17g vs independent costing %.17g", r.objective,
                    with_x);
      return Fail(*rec, buf);
    }
    rec->cost_ratio = with_x / without;
    rec->checked_ok = true;
    return true;
  }

  const cophy::Catalog* cat_;
  const cophy::IndexPool* pool_;
  const CostClasses* classes_;
  cophy::SystemSimulator sim_;
  std::map<Key, double> costs_;
  double max_rel_diff_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
