// Unit + property tests for inum/: template caching, the fast-cost
// lookup, and — most importantly — the INUM ≡ what-if equivalence that
// Lemma 1 (linear composability) rests on.
#include <gtest/gtest.h>

#include <ostream>

#include "optimizer/simulator.h"
#include "catalog/catalog.h"
#include "index/candidates.h"
#include "inum/inum.h"
#include "workload/generator.h"

namespace cophy {
namespace {

class InumTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cat_ = MakeTpchCatalog(0.1, 0.0);
    sim_ = std::make_unique<SystemSimulator>(&cat_, &pool_,
                                             CostModel::SystemA());
  }

  void PrepareWorkload(int n, uint64_t seed, bool het = false,
                       double update_fraction = 0.0) {
    WorkloadOptions o;
    o.num_statements = n;
    o.seed = seed;
    o.update_fraction = update_fraction;
    w_ = het ? MakeHeterogeneousWorkload(cat_, o)
             : MakeHomogeneousWorkload(cat_, o);
    candidates_ = GenerateCandidates(w_, cat_, CandidateOptions{}, pool_);
    inum_ = std::make_unique<Inum>(sim_.get());
    inum_->Prepare(w_, candidates_);
  }

  /// A random subset of the candidate set.
  Configuration RandomConfig(Rng& rng, double p) {
    std::vector<IndexId> ids;
    for (IndexId id : candidates_) {
      if (rng.Bernoulli(p)) ids.push_back(id);
    }
    return Configuration(std::move(ids));
  }

  Catalog cat_;
  IndexPool pool_;
  std::unique_ptr<SystemSimulator> sim_;
  std::unique_ptr<Inum> inum_;
  Workload w_;
  std::vector<IndexId> candidates_;
};

TEST_F(InumTest, MatchesWhatIfOnEmptyConfiguration) {
  PrepareWorkload(10, 3);
  for (const Query& q : w_.statements()) {
    EXPECT_NEAR(inum_->Cost(q.id, Configuration::Empty()),
                sim_->Cost(q, Configuration::Empty()).value(),
                1e-6 * sim_->Cost(q, Configuration::Empty()).value())
        << q.ToString(cat_);
  }
}

TEST_F(InumTest, MatchesWhatIfOnFullCandidateSet) {
  PrepareWorkload(10, 4);
  const Configuration all(candidates_);
  for (const Query& q : w_.statements()) {
    const double whatif = sim_->Cost(q, all).value();
    EXPECT_NEAR(inum_->Cost(q.id, all), whatif, 1e-6 * whatif)
        << q.ToString(cat_);
  }
}

TEST_F(InumTest, TemplateCountsAreBounded) {
  PrepareWorkload(20, 5);
  EXPECT_GT(inum_->TotalTemplates(), 0);
  for (const Query& q : w_.statements()) {
    const QueryCache& qc = inum_->cache(q.id);
    EXPECT_GE(qc.templates.size(), 1u);
    EXPECT_LE(qc.templates.size(), 96u);
    EXPECT_EQ(qc.slot_orders.size(), q.tables.size());
  }
}

TEST_F(InumTest, GammaListsSortedAndPruned) {
  PrepareWorkload(10, 6);
  for (const Query& q : w_.statements()) {
    const QueryCache& qc = inum_->cache(q.id);
    for (const auto& per_slot : qc.access) {
      for (const auto& list : per_slot) {
        for (size_t i = 1; i < list.size(); ++i) {
          EXPECT_LE(list[i - 1].gamma, list[i].gamma);
        }
        // Domination pruning: nothing in the list is worse than base.
        double base = kInfiniteCost;
        for (const SlotAccess& sa : list) {
          if (sa.index == kInvalidIndex) base = sa.gamma;
        }
        if (base < kInfiniteCost) {
          for (const SlotAccess& sa : list) {
            if (sa.index != kInvalidIndex) {
              EXPECT_LT(sa.gamma, base);
            }
          }
        }
      }
    }
  }
  EXPECT_GE(inum_->TotalRawGammaEntries(), inum_->TotalGammaEntries());
}

TEST_F(InumTest, IncrementalAddMatchesFullPrepare) {
  PrepareWorkload(8, 7);
  // Split candidates: prepare with the first half, add the second half.
  const size_t half = candidates_.size() / 2;
  std::vector<IndexId> first(candidates_.begin(), candidates_.begin() + half);
  std::vector<IndexId> second(candidates_.begin() + half, candidates_.end());

  Inum incremental(sim_.get());
  incremental.Prepare(w_, first);
  incremental.AddCandidates(second);

  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const Configuration x = RandomConfig(rng, 0.3);
    for (const Query& q : w_.statements()) {
      EXPECT_NEAR(incremental.Cost(q.id, x), inum_->Cost(q.id, x),
                  1e-9 + 1e-9 * inum_->Cost(q.id, x));
    }
  }
}

TEST_F(InumTest, UpdateStatementsCostedExactly) {
  PrepareWorkload(20, 8, /*het=*/false, /*update_fraction=*/0.4);
  ASSERT_FALSE(w_.UpdateIds().empty());
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const Configuration x = RandomConfig(rng, 0.25);
    for (QueryId uid : w_.UpdateIds()) {
      const double whatif = sim_->Cost(w_[uid], x).value();
      EXPECT_NEAR(inum_->Cost(uid, x), whatif, 1e-6 * whatif);
    }
  }
}

TEST_F(InumTest, ShellCostExcludesMaintenance) {
  PrepareWorkload(20, 9, false, 0.4);
  ASSERT_FALSE(w_.UpdateIds().empty());
  const Configuration all(candidates_);
  for (QueryId uid : w_.UpdateIds()) {
    EXPECT_LE(inum_->ShellCost(uid, all), inum_->Cost(uid, all));
  }
}

TEST_F(InumTest, CostLookupIsCheaperThanWhatIf) {
  PrepareWorkload(5, 10);
  const Configuration all(candidates_);
  const int64_t calls_before = sim_->num_whatif_calls();
  for (int i = 0; i < 100; ++i) {
    for (const Query& q : w_.statements()) inum_->ShellCost(q.id, all);
  }
  // The fast path must not touch the what-if optimizer at all.
  EXPECT_EQ(sim_->num_whatif_calls(), calls_before);
}

// --- The central property: INUM cost == what-if cost -------------------
// (In our simulator the INUM approximation is exact by construction —
// Lemma 1's linear composability — so equality must hold for every
// configuration, not just approximately.)

struct EquivalenceCase {
  double zipf = 0.0;
  bool het = false;
  bool system_b = false;
  double density = 0.3;
};

// Names the case in test listings (the default byte dump would include
// the struct's uninitialized padding).
void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << "zipf" << c.zipf << (c.het ? "_het" : "_hom")
      << (c.system_b ? "_systemB" : "_systemA") << "_density" << c.density;
}

class InumEquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(InumEquivalenceTest, CostEqualsWhatIfOnRandomConfigurations) {
  const EquivalenceCase& c = GetParam();
  Catalog cat = MakeTpchCatalog(0.1, c.zipf);
  IndexPool pool;
  SystemSimulator sim(&cat, &pool,
                      c.system_b ? CostModel::SystemB() : CostModel::SystemA());
  WorkloadOptions o;
  o.num_statements = 10;
  o.seed = 123;
  o.update_fraction = 0.15;
  Workload w = c.het ? MakeHeterogeneousWorkload(cat, o)
                     : MakeHomogeneousWorkload(cat, o);
  const auto candidates = GenerateCandidates(w, cat, CandidateOptions{}, pool);
  Inum inum(&sim);
  inum.Prepare(w, candidates);

  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<IndexId> ids;
    for (IndexId id : candidates) {
      if (rng.Bernoulli(c.density)) ids.push_back(id);
    }
    const Configuration x(std::move(ids));
    for (const Query& q : w.statements()) {
      const double whatif = sim.Cost(q, x).value();
      const double fast = inum.Cost(q.id, x);
      EXPECT_NEAR(fast, whatif, 1e-6 * whatif)
          << "z=" << c.zipf << " het=" << c.het << " q=" << q.ToString(cat);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InumEquivalenceTest,
    ::testing::Values(EquivalenceCase{0.0, false, false, 0.3},
                      EquivalenceCase{0.0, true, false, 0.3},
                      EquivalenceCase{2.0, false, false, 0.3},
                      EquivalenceCase{2.0, true, false, 0.5},
                      EquivalenceCase{1.0, false, true, 0.3},
                      EquivalenceCase{0.0, true, true, 0.7}));

}  // namespace
}  // namespace cophy
