// Internal diagnostics for the structured solver (not installed; used
// during development and as a worked example of the low-level API).
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "optimizer/simulator.h"
#include "catalog/catalog.h"
#include "core/bipgen.h"
#include "core/cophy.h"
#include "core/report.h"
#include "index/candidates.h"
#include "lp/branch_and_bound.h"
#include "lp/choice_problem.h"
#include "lp/presolve.h"
#include "workload/generator.h"

using namespace cophy;

/// --lp mode: solve the literal Theorem-1 BIP with the generic
/// branch-and-bound over the revised simplex, warm- and cold-started,
/// and print the pivot accounting (RenderSolverActivity).
static int RunLpMode(int num_queries, double budget_fraction) {
  Catalog catalog = MakeTpchCatalog(1.0, 0.0);
  IndexPool pool;
  SystemSimulator sim(&catalog, &pool, CostModel::SystemA());
  WorkloadOptions wopts;
  wopts.num_statements = num_queries;
  wopts.seed = 42;
  Workload w = MakeHomogeneousWorkload(catalog, wopts);
  CandidateOptions copts;
  copts.max_key_columns = 1;  // keep the literal model dense-solver sized
  std::vector<IndexId> cands = GenerateCandidates(w, catalog, copts, pool);
  if (cands.size() > 8) cands.resize(8);
  Inum inum(&sim);
  inum.Prepare(w, cands);
  double candidate_bytes = 0;
  for (IndexId id : cands) {
    candidate_bytes += IndexSizeBytes(pool[id], catalog);
  }
  ConstraintSet cs;
  cs.SetStorageBudget(budget_fraction * candidate_bytes);
  const lp::Model m = BuildModel(inum, cands, cs);
  std::printf("literal BIP: %d vars, %d rows, %lld nonzeros\n",
              m.num_variables(), m.num_rows(),
              static_cast<long long>(m.num_nonzeros()));
  for (const bool warm : {true, false}) {
    const SolverActivity before = CaptureSolverActivity();
    lp::MipOptions mo;
    mo.gap_target = 0.0;
    mo.warm_start_nodes = warm;
    const lp::MipSolution sol = lp::SolveMip(m, mo);
    SolverActivity activity = SolverActivitySince(before);
    activity.mip_nodes = sol.nodes;
    std::printf("%s nodes: status=%s obj=%.6g nodes=%lld\n  %s",
                warm ? "warm-started" : "cold-started",
                sol.status.ToString().c_str(), sol.objective,
                static_cast<long long>(sol.nodes),
                RenderSolverActivity(activity).c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--lp") == 0) {
    const int nq = argc > 2 ? std::atoi(argv[2]) : 2;
    const double bf = argc > 3 ? std::atof(argv[3]) : 0.3;
    return RunLpMode(nq, bf);
  }
  const int num_queries = argc > 1 ? std::atoi(argv[1]) : 30;
  const double budget_fraction = argc > 2 ? std::atof(argv[2]) : 0.5;
  const int node_limit = argc > 3 ? std::atoi(argv[3]) : 50000;

  Catalog catalog = MakeTpchCatalog(1.0, 0.0);
  IndexPool pool;
  SystemSimulator sim(&catalog, &pool, CostModel::SystemA());
  WorkloadOptions wopts;
  wopts.num_statements = num_queries;
  wopts.seed = 42;
  Workload w = MakeHomogeneousWorkload(catalog, wopts);

  std::vector<IndexId> cands =
      GenerateCandidates(w, catalog, CandidateOptions{}, pool);
  Inum inum(&sim);
  inum.Prepare(w, cands);

  ConstraintSet cs;
  cs.SetStorageBudget(budget_fraction * catalog.TotalDataBytes());
  lp::ChoiceProblem p = BuildChoiceProblem(inum, cands, cs);

  lp::ChoiceSolveOptions so;
  so.gap_target = 0.05;
  so.node_limit = node_limit;
  so.callback = [](const lp::MipProgress& pr) {
    std::printf("  t=%.2fs nodes=%lld inc=%.4g lb=%.4g gap=%.1f%%\n",
                pr.seconds, static_cast<long long>(pr.nodes), pr.incumbent,
                pr.lower_bound, 100 * pr.gap);
    return true;
  };
  lp::PresolveStats presolve;
  const lp::ChoiceSolution sol = lp::SolveChoiceProblem(p, so, &presolve);
  std::printf(
      "presolve: plans %lld->%lld, options %lld->%lld, indexes %lld->%lld\n",
      static_cast<long long>(presolve.plans_in),
      static_cast<long long>(presolve.plans_out),
      static_cast<long long>(presolve.options_in),
      static_cast<long long>(presolve.options_out),
      static_cast<long long>(presolve.indexes_in),
      static_cast<long long>(presolve.indexes_out));
  std::printf(
      "status=%s nodes=%lld obj=%.6g lb=%.6g gap=%.2f%% root_lp=%.6g "
      "(rows=%lld%s) root_lagr=%.6g (%lld volume iterations) fixed=%lld\n",
      sol.status.ToString().c_str(), static_cast<long long>(sol.nodes),
      sol.objective, sol.lower_bound, 100 * sol.gap, sol.root_lp_bound,
      static_cast<long long>(sol.root_lp_rows),
      sol.root_bound.lp_escalated ? ", escalated" : "",
      sol.root_lagrangian_bound,
      static_cast<long long>(sol.root_bound.dual_iterations),
      static_cast<long long>(sol.variables_fixed));
  return 0;
}
