// Ablations over CoPhy's design choices (DESIGN.md §4):
//   1. Root relaxation machinery on a *tight* budget — presolve, root
//      LP (dual seed + reduced-cost fixing), and Lagrangian on/off.
//      Emits bench_ablation.json; CI gates on the full configuration's
//      proven gap (bench/ablation_gap_threshold.txt).
//   2. Warm starts on/off — interactive retune cost.
//   3. INUM vs direct what-if inside the advisor loop — the speedup
//      fast what-if provides (the paper's foundational assumption).
//   4. Candidate-set richness (extra variants on/off) — quality impact
//      of CGen's no-pruning philosophy.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "core/bipgen.h"
#include "core/cophy.h"
#include "index/candidates.h"

using namespace cophy;
using namespace cophy::bench;

namespace {
int EnvInt(const char* name, int def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : def;
}
}  // namespace

int main(int argc, char** argv) {
  const int n = EnvInt("COPHY_BENCH_N", 500);
  const double time_limit = EnvInt("COPHY_BENCH_TIME_LIMIT", 60);
  const char* json_path = argc > 1 ? argv[1] : "bench_ablation.json";

  Title("Ablation 1: root bounds on a tight budget (hom workload, M=0.25)");
  BenchJson json("bench_ablation");
  json.Context("statements", n).Context("time_limit_seconds", time_limit);
  {
    struct Config {
      const char* name;
      bool presolve;
      lp::RootLpMode root_lp;
      bool lagrangian;
    };
    const Config configs[] = {
        {"full", true, lp::RootLpMode::kWhenUnproven, true},
        {"no_root_lp", true, lp::RootLpMode::kOff, true},
        {"no_lagrangian", true, lp::RootLpMode::kWhenUnproven, false},
        {"baseline", false, lp::RootLpMode::kOff, false},
    };
    for (const Config& c : configs) {
      Env e = Env::Make(0.0, false, n, false);
      ConstraintSet cs = e.BudgetConstraint(0.25);
      CoPhyOptions opts = DefaultCoPhyOptions();
      opts.presolve = c.presolve;
      opts.root_lp = c.root_lp;
      opts.lagrangian = c.lagrangian;
      opts.time_limit_seconds = time_limit;
      // Time-to-proof: first moment the *proven* gap reaches 10%.
      double proof10_seconds = -1;
      opts.callback = ProofTimer(&proof10_seconds);
      CoPhy advisor(e.system.get(), &e.pool, e.workload, opts);
      advisor.Prepare();
      const Recommendation rec = advisor.Tune(cs);
      const double root_gap = RootGapPct(
          rec.objective,
          std::max(rec.root_lp_bound, rec.root_lagrangian_bound));
      Row({{"config", c.name},
           {"solve_s", Fmt("%.1f", rec.timings.solve_seconds)},
           {"gap_pct", Fmt("%.1f", 100 * rec.gap)},
           {"root_gap_pct", Fmt("%.1f", root_gap)},
           {"proof10_s", Fmt("%.2f", proof10_seconds)},
           {"fixed", std::to_string(rec.variables_fixed)},
           {"objective", Fmt("%.4g", rec.objective)}});
      json.BeginRow(std::string("ablation1/") + c.name)
          .Metric("config", c.name)
          .Metric("statements", n)
          .Metric("solve_seconds", rec.timings.solve_seconds)
          .Metric("proven_gap_pct", 100 * rec.gap)
          .Metric("root_gap_pct", root_gap)
          .Metric("proof10_seconds", proof10_seconds)
          .Metric("variables_fixed", rec.variables_fixed)
          .Metric("presolve_plans_removed", rec.presolve.PlansRemoved())
          .Metric("presolve_indexes_removed", rec.presolve.IndexesRemoved())
          .Metric("objective", rec.objective);
    }
  }
  json.Write(json_path);

  Title("Ablation 2: warm starts for retuning");
  {
    Env e = Env::Make(0.0, false, n, false);
    ConstraintSet cs = e.BudgetConstraint(1.0);
    CoPhyOptions opts = DefaultCoPhyOptions();
    opts.time_limit_seconds = 60;
    CoPhy advisor(e.system.get(), &e.pool, e.workload, opts);
    advisor.Prepare();
    const Recommendation first = advisor.Tune(cs);
    const Recommendation warm = advisor.Retune(cs);   // warm-started
    const Recommendation cold = advisor.Tune(cs);     // from scratch
    Row({{"initial_s", Fmt("%.1f", first.timings.solve_seconds)},
         {"warm_retune_s", Fmt("%.1f", warm.timings.solve_seconds)},
         {"cold_resolve_s", Fmt("%.1f", cold.timings.solve_seconds)}});
  }

  Title("Ablation 3: INUM vs direct what-if costing (per 1000 cost evals)");
  {
    Env e = Env::Make(0.0, false, 50, false);
    std::vector<IndexId> cands =
        GenerateCandidates(e.workload, e.catalog, CandidateOptions{}, e.pool);
    Inum inum(e.system.get());
    inum.Prepare(e.workload, cands);
    const Configuration x(cands);
    Stopwatch w1;
    double sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sink += inum.ShellCost(i % e.workload.size(), x);
    }
    const double inum_s = w1.Elapsed();
    Stopwatch w2;
    for (int i = 0; i < 1000; ++i) {
      sink += e.system->Cost(e.workload[i % e.workload.size()], x).value();
    }
    const double whatif_s = w2.Elapsed();
    Row({{"inum_s", Fmt("%.3f", inum_s)},
         {"whatif_s", Fmt("%.3f", whatif_s)},
         {"speedup_x", Fmt("%.0f", whatif_s / std::max(1e-9, inum_s))},
         {"checksum", Fmt("%.3g", sink)}});
  }

  Title("Ablation 4: candidate-set richness (extra variants)");
  {
    for (bool extra : {false, true}) {
      Env e = Env::Make(0.0, false, n, false);
      ConstraintSet cs = e.BudgetConstraint(1.0);
      CoPhyOptions opts = DefaultCoPhyOptions();
      opts.prepare.candidates.extra_variants = extra;
      opts.time_limit_seconds = 60;
      CoPhy advisor(e.system.get(), &e.pool, e.workload, opts);
      advisor.Prepare();
      const Recommendation rec = advisor.Tune(cs);
      Row({{"extra_variants", extra ? "on" : "off"},
           {"candidates", std::to_string(rec.num_candidates)},
           {"perf_pct",
            Fmt("%.1f", 100 * Perf(*e.system, e.workload, rec.configuration))},
           {"total_s", Fmt("%.1f", rec.timings.Total())}});
    }
  }
  return 0;
}
