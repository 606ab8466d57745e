// Layered benchmark of the advisor service: one workload per process,
// every op through AdvisorService::Submit with the service's production
// defaults (shared plan cache, lossless compression, no solver time
// limit).
//
//   perfbench --workload <cold_het|interactive|tenant_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// A run sets up several times from scratch (reporting the median set-up
// time), then replays the timed part of the seed's fixed op sequence on
// the last set-up, checks every tuning op's output, and prints one
// "name value unit" line per metric. The last line of standard output is
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0; with --trace 1 per-layer metrics from a second, traced
// pass over the same sequence, whose spans go to --trace-out.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "check.h"
#include "optimizer/simulator.h"
#include "plan.h"
#include "service/service.h"
#include "trace.h"

namespace perfbench {
namespace {

using cophy::AdvisorService;
using cophy::OpResult;

constexpr int kSetupRepeats = 3;
// The node cap the repository's other benches tune with. At the session
// default (50'000) the few solves that cannot prove the 5% gap search
// for seconds, so throughput and tail swing with how many of them a
// seed happens to draw; everything else stays at the service defaults.
constexpr int64_t kNodeLimit = 8000;
// Threads for the output check, which runs after the timed phase while
// the service is idle.
constexpr int kCheckThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// --- the system under test --------------------------------------------

/// One service over a fresh catalog, index pool and simulator. Members
/// are declared so the service is destroyed (drained) first.
struct Env {
  cophy::Catalog catalog;
  cophy::IndexPool pool;
  std::unique_ptr<cophy::SystemSimulator> sim;
  std::unique_ptr<TracingWhatIf> tracer;
  ProgressLog progress;
  std::unique_ptr<AdvisorService> service;
};

std::unique_ptr<Env> MakeEnv(const Plan& plan, bool traced) {
  auto env = std::make_unique<Env>();
  env->catalog = cophy::MakeTpchCatalog(1.0, plan.zipf);
  env->sim = std::make_unique<cophy::SystemSimulator>(
      &env->catalog, &env->pool, cophy::CostModel::SystemA());
  cophy::WhatIfOptimizer* whatif = env->sim.get();
  cophy::ServiceOptions options;
  options.num_threads = plan.workers;
  options.session.drift = plan.drift;
  options.session.tuning.node_limit = kNodeLimit;
  if (traced) {
    env->tracer = std::make_unique<TracingWhatIf>(env->sim.get());
    whatif = env->tracer.get();
    options.session.tuning.callback = env->progress.Callback();
  }
  env->service =
      std::make_unique<AdvisorService>(whatif, &env->pool, options);
  return env;
}

/// Per-client state carried across rounds.
struct ClientState {
  std::map<std::string, cophy::PrepareStats> last_prepare;
  std::vector<cophy::IndexId> last_configuration;
  cophy::IndexId vetoed = cophy::kInvalidIndex;
};

/// A submitted round whose tuning op has not resolved yet.
struct InFlight {
  OpRecord rec;
  std::vector<std::future<OpResult>> deltas;
  int add_at = -1;
  std::future<OpResult> tuned;
  int64_t whatif_before = 0;
  WhatIfTally tally_before;
};

/// Submits one round: delta ops, then the tuning op.
InFlight SubmitRound(Env& env, const Round& r, int client, int index,
                     ClientState& cs) {
  AdvisorService& svc = *env.service;
  InFlight f;
  f.rec.client = client;
  f.rec.round = index;
  f.rec.kind = r.kind;
  f.rec.prev_prepare = cs.last_prepare[r.tenant];
  f.whatif_before = env.sim->num_whatif_calls();
  if (env.tracer) f.tally_before = env.tracer->Snapshot();
  if (r.advance_epoch) f.deltas.push_back(svc.AdvanceEpoch(r.tenant));
  if (!r.remove.empty()) {
    f.deltas.push_back(svc.RemoveStatements(r.tenant, r.remove));
  }
  if (!r.add.empty()) {
    f.add_at = static_cast<int>(f.deltas.size());
    f.deltas.push_back(svc.AddStatements(r.tenant, r.add));
  }
  if (r.feedback == Feedback::kVeto && !cs.last_configuration.empty()) {
    cs.vetoed = cs.last_configuration.front();
    f.deltas.push_back(svc.Veto(r.tenant, cs.vetoed));
  } else if (r.feedback == Feedback::kClear &&
             cs.vetoed != cophy::kInvalidIndex) {
    f.deltas.push_back(svc.ClearFeedback(r.tenant, cs.vetoed));
    cs.vetoed = cophy::kInvalidIndex;
  }
  f.rec.vetoed = cs.vetoed;
  cophy::ConstraintSet constraints;
  constraints.SetStorageBudget(r.budget_fraction *
                               env.catalog.TotalDataBytes());
  f.rec.submit = Clock::now();
  f.tuned = r.cold ? svc.Tune(r.tenant, constraints)
                   : svc.Retune(r.tenant, constraints);
  return f;
}

/// Blocks until the round's tuning op resolves, then collects its deltas.
/// The what-if attribution is exact only when no other tenant runs.
OpRecord FinishRound(Env& env, const Round& r, InFlight f, ClientState& cs) {
  OpRecord& rec = f.rec;
  rec.result = f.tuned.get();
  rec.done = Clock::now();
  rec.service_ops = static_cast<int>(f.deltas.size()) + 1;
  for (int i = 0; i < static_cast<int>(f.deltas.size()); ++i) {
    const OpResult res = f.deltas[i].get();
    if (!res.status.ok() || (i == f.add_at && res.ids != r.add_ids)) {
      ++rec.failed_ops;
    }
  }
  if (!rec.result.status.ok()) ++rec.failed_ops;
  rec.whatif_calls = env.sim->num_whatif_calls() - f.whatif_before;
  if (env.tracer) rec.whatif = env.tracer->Snapshot() - f.tally_before;
  const cophy::Recommendation& out = rec.result.recommendation;
  cs.last_configuration = out.configuration.ids();
  cs.last_prepare[r.tenant] = out.prepare;
  return std::move(rec);
}

OpRecord RunRound(Env& env, const Round& r, int client, int index,
                  ClientState& cs) {
  return FinishRound(env, r, SubmitRound(env, r, client, index, cs), cs);
}

/// Runs rounds [begin, end) of every client. Several clients advance in
/// waves: round i of every tenant is submitted in client order, one
/// waiter thread per tenant blocks on its future, and round i + 1 starts
/// when all of them resolved. Each tenant thus keeps one tuning op in
/// flight and acts on its result before its next delta, while the
/// submission order, and so the lane interleaving, stays fixed.
std::vector<OpRecord> RunPhase(Env& env, const Plan& plan,
                               std::vector<ClientState>& states, int begin,
                               int end) {
  const int n = static_cast<int>(plan.clients.size());
  std::vector<std::vector<OpRecord>> out(n);
  int stop = begin;
  for (const auto& rounds : plan.clients) {
    stop = std::max(stop, std::min(end, static_cast<int>(rounds.size())));
  }
  for (int i = begin; i < stop; ++i) {
    if (n == 1) {
      out[0].push_back(RunRound(env, plan.clients[0][i], 0, i, states[0]));
      continue;
    }
    std::vector<std::future<OpRecord>> waiters;
    for (int c = 0; c < n; ++c) {
      if (i >= static_cast<int>(plan.clients[c].size())) continue;
      const Round& r = plan.clients[c][i];
      InFlight f = SubmitRound(env, r, c, i, states[c]);
      waiters.push_back(std::async(
          std::launch::async,
          [&env, &r, &cs = states[c]](InFlight inflight) {
            return FinishRound(env, r, std::move(inflight), cs);
          },
          std::move(f)));
    }
    for (auto& w : waiters) {
      OpRecord rec = w.get();
      out[rec.client].push_back(std::move(rec));
    }
  }
  std::vector<OpRecord> all;
  for (auto& v : out) {
    for (OpRecord& r : v) all.push_back(std::move(r));
  }
  return all;
}

int CountFailures(const std::vector<OpRecord>& records) {
  int failed = 0;
  for (const OpRecord& r : records) failed += r.failed_ops;
  return failed;
}

struct Setup {
  std::unique_ptr<Env> env;
  std::vector<ClientState> states;
  double seconds = 0;
};

/// Everything before the timed phase: a fresh service, the tenants'
/// initial loads one tenant at a time, and the warm-up prefix.
Setup RunSetup(const Plan& plan, bool traced) {
  Setup s;
  const Clock::time_point start = Clock::now();
  s.env = MakeEnv(plan, traced);
  s.states.resize(plan.clients.size());
  int failed = 0;
  for (size_t c = 0; c < plan.clients.size(); ++c) {
    for (int i = 0; i < plan.load_rounds; ++i) {
      const OpRecord r =
          RunRound(*s.env, plan.clients[c][i], static_cast<int>(c), i,
                   s.states[c]);
      failed += r.failed_ops;
    }
  }
  failed += CountFailures(RunPhase(*s.env, plan, s.states, plan.load_rounds,
                                   plan.load_rounds + plan.warmup_rounds));
  s.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  if (failed > 0) {
    std::fprintf(stderr, "set-up failed: %d ops did not succeed\n", failed);
    std::exit(1);
  }
  return s;
}

/// The timed phase of one pass.
struct Pass {
  std::vector<OpRecord> records;
  double wall_seconds = 0;
  int64_t whatif_calls = 0;
  WhatIfTally whatif;
  cophy::ServiceStats before, after;
  int attempted = 0;
  int failed = 0;  ///< failed or rejected ops, or failed checks
};

Pass RunTimed(Setup& s, const Plan& plan) {
  Env& env = *s.env;
  Pass p;
  p.before = env.service->stats();
  const int64_t whatif_before = env.sim->num_whatif_calls();
  const WhatIfTally tally_before =
      env.tracer ? env.tracer->Snapshot() : WhatIfTally{};
  const int begin = plan.load_rounds + plan.warmup_rounds;
  const Clock::time_point start = Clock::now();
  p.records = RunPhase(env, plan, s.states, begin, 1 << 30);
  p.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  env.service->Drain();
  p.after = env.service->stats();
  p.whatif_calls = env.sim->num_whatif_calls() - whatif_before;
  if (env.tracer) p.whatif = env.tracer->Snapshot() - tally_before;
  for (const OpRecord& r : p.records) p.attempted += r.service_ops;
  return p;
}

/// Output check of a pass; failed checks count as failed ops.
void CheckPass(const Plan& plan, Env& env, Pass* p, double* max_diff) {
  Checker checker(&env.catalog, &env.pool, &plan.classes);
  checker.Check(plan, &p->records, kCheckThreads);
  *max_diff = std::max(*max_diff, checker.max_rel_diff());
  p->failed = 0;  // rejected ops resolve with an error status, counted here
  for (const OpRecord& r : p->records) {
    p->failed += std::max(r.failed_ops, r.checked_ok ? 0 : 1);
  }
}

// --- statistics ---------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The value with exactly ten samples above it: the highest percentile
/// the sample supports with at least ten samples beyond it.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t beyond = std::min<size_t>(10, v.size() - 1);
  t.value = v[v.size() - 1 - beyond];
  t.percentile = 100.0 * static_cast<double>(v.size() - beyond) /
                 static_cast<double>(v.size());
  return t;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A growing stat of a cumulative counter: the change since the previous
/// op, or the new value when the counter restarted (a re-prepared shard
/// reports only its latest preparation).
double Delta(double now, double before) {
  return now >= before ? now - before : now;
}

// --- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Part of the result object. The rest are printed for readers only:
  /// on a shared host their run-to-run spread is wider than any bound
  /// the result allows (see design.json).
  bool reported = true;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (!m.reported) continue;
    json += sep;
    json += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    sep = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<double> Latencies(const Pass& p) {
  std::vector<double> v;
  for (const OpRecord& r : p.records) v.push_back(r.LatencyMs());
  return v;
}

std::vector<Metric> EndToEnd(const Plan& plan, const Pass& p,
                             const std::vector<double>& setups) {
  const std::vector<double> lat = Latencies(p);
  const Tail tail = TailOf(lat);
  const double ops = static_cast<double>(p.records.size());
  std::vector<double> ratios, gaps;
  for (const OpRecord& r : p.records) {
    ratios.push_back(r.cost_ratio);
    gaps.push_back(100.0 * r.result.recommendation.gap);
  }
  std::printf("workload %s: %zu timed tuning ops over %d clients, "
              "%d service ops attempted, %d failed\n",
              plan.workload.c_str(), p.records.size(),
              static_cast<int>(plan.clients.size()), p.attempted, p.failed);
  std::printf("op_tail_ms is p%.1f over %zu ops\n", tail.percentile,
              tail.samples);
  return {
      {"setup_s", Median(setups), "s"},
      {"op_p50_ms", Median(lat), "ms", false},
      {"op_tail_ms", tail.value, "ms", false},
      {"ops_per_s", ops / p.wall_seconds, "1/s", false},
      {"failed_pct", 100.0 * p.failed / std::max(1, p.attempted), "%", false},
      {"whatif_calls_per_op", static_cast<double>(p.whatif_calls) / ops,
       "calls"},
      {"cost_ratio", Mean(ratios), "ratio"},
      {"gap_pct", Mean(gaps), "%", false},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// --- the traced run -------------------------------------------------------

/// Per-op span boundaries reconstructed from the op's own timings. The
/// op runs queue → exec; exec runs refresh → build → solve; solve runs
/// presolve → root → search, where the root ends at the solver's root
/// report (absent when that report could not be attributed).
struct OpSpans {
  double submit = 0, exec = 0, refresh_end = 0, build_end = 0, solve_end = 0,
         presolve_end = 0, root_end = 0, done = 0;
  bool root_attributed = false;
};

std::vector<OpSpans> BuildSpans(const Pass& p, const ProgressLog& progress,
                                Clock::time_point origin) {
  std::vector<Clock::time_point> roots = progress.Roots();
  std::sort(roots.begin(), roots.end());
  std::vector<OpSpans> out;
  for (const OpRecord& r : p.records) {
    const cophy::OpResult& res = r.result;
    const cophy::TuningTimings& t = res.recommendation.timings;
    OpSpans s;
    s.submit = Ms(r.submit - origin);
    s.done = Ms(r.done - origin);
    s.exec = s.submit + 1e3 * res.queue_seconds;
    s.refresh_end = s.exec + 1e3 * t.inum_seconds;
    s.build_end = s.refresh_end + 1e3 * t.build_seconds;
    s.solve_end = s.build_end + 1e3 * t.solve_seconds;
    s.presolve_end = std::min(
        s.solve_end, s.build_end + 1e3 * res.recommendation.presolve.seconds);
    // Root reports inside this op's execution window. With concurrent
    // tenants a window can hold a neighbour's report too; such ops stay
    // unattributed.
    const Clock::time_point lo = r.submit + std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(res.queue_seconds));
    auto first = std::lower_bound(roots.begin(), roots.end(), lo);
    auto last = std::upper_bound(roots.begin(), roots.end(), r.done);
    s.root_end = s.solve_end;
    if (last - first == 1) {
      s.root_attributed = true;
      s.root_end = std::clamp(Ms(*first - origin), s.presolve_end, s.solve_end);
    }
    out.push_back(s);
  }
  return out;
}

void WriteSpans(const std::string& path, const Plan& plan, uint64_t seed,
                const Pass& p, const std::vector<OpSpans>& spans,
                bool per_op_whatif) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  f << "{\"workload\": \"" << plan.workload << "\", \"seed\": " << seed
    << ", \"time_unit\": \"ms\", \"spans\": [";
  bool first = true;
  auto span = [&](size_t op, const char* name, const char* parent, double b,
                  double e, double self) {
    f << (first ? "\n" : ",\n") << "{\"op\": " << op << ", \"name\": \"" << name
      << "\", \"parent\": " << (parent ? std::string("\"") + parent + "\"" : "null")
      << ", \"start\": " << Num(b) << ", \"end\": " << Num(e)
      << ", \"self\": " << Num(std::max(0.0, self)) << "}";
    first = false;
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const OpSpans& s = spans[i];
    const OpRecord& r = p.records[i];
    const double whatif_ms =
        per_op_whatif ? static_cast<double>(r.whatif.TotalNanos()) / 1e6 : 0;
    const double op = s.done - s.submit, queue = s.exec - s.submit,
                 exec = 1e3 * r.result.exec_seconds,
                 refresh = s.refresh_end - s.exec,
                 build = s.build_end - s.refresh_end,
                 solve = s.solve_end - s.build_end,
                 presolve = s.presolve_end - s.build_end,
                 root = s.root_end - s.presolve_end,
                 search = s.solve_end - s.root_end;
    span(i, "op", nullptr, s.submit, s.done, op - queue - exec);
    span(i, "queue", "op", s.submit, s.exec, queue);
    span(i, "exec", "op", s.exec, s.exec + exec, exec - refresh - build - solve);
    span(i, "refresh", "exec", s.exec, s.refresh_end, refresh - whatif_ms);
    span(i, "build", "exec", s.refresh_end, s.build_end, build);
    span(i, "solve", "exec", s.build_end, s.solve_end,
         solve - presolve - root - search);
    span(i, "presolve", "solve", s.build_end, s.presolve_end, presolve);
    span(i, "root", "solve", s.presolve_end, s.root_end, root);
    span(i, "search", "solve", s.root_end, s.solve_end, search);
  }
  // What-if calls are leaves under refresh, aggregated per kind: per op
  // on a single client, per workload when tenants share the backend.
  f << "\n], \"whatif_leaves\": [";
  first = true;
  auto leaf = [&](long op, const WhatIfTally& t) {
    for (int k = 0; k < kNumWhatIfKinds; ++k) {
      if (t.calls[k] == 0) continue;
      f << (first ? "\n" : ",\n") << "{\"op\": " << op << ", \"parent\": \"refresh\", \"kind\": \""
        << WhatIfKindName(k) << "\", \"calls\": " << t.calls[k]
        << ", \"ms\": " << Num(static_cast<double>(t.nanos[k]) / 1e6) << "}";
      first = false;
    }
  };
  if (per_op_whatif) {
    for (size_t i = 0; i < p.records.size(); ++i) {
      leaf(static_cast<long>(i), p.records[i].whatif);
    }
  } else {
    leaf(-1, p.whatif);
  }
  f << "\n]}\n";
}

std::vector<Metric> PerLayer(const Pass& traced,
                             const std::vector<OpSpans>& spans,
                             double overhead_ms) {
  const auto& recs = traced.records;
  const double ops = static_cast<double>(recs.size());
  std::vector<double> queue, exec;
  double refresh = 0, new_classes = 0, route = 0, cgen = 0, candidates = 0,
         inum = 0, build = 0, x_vars = 0, z_vars = 0, presolve = 0,
         plans_in = 0, plans_removed = 0, indexes_in = 0, indexes_removed = 0,
         pivots = 0, refactors = 0, ftran = 0, warm = 0, skipped = 0,
         solve = 0, nodes = 0, bound_evals = 0, fixed = 0;
  double root_ms = 0, search_ms = 0, attributed = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    const cophy::OpResult& res = recs[i].result;
    const cophy::Recommendation& r = res.recommendation;
    const cophy::PrepareStats& prev = recs[i].prev_prepare;
    queue.push_back(1e3 * res.queue_seconds);
    exec.push_back(1e3 * res.exec_seconds);
    refresh += 1e3 * r.timings.inum_seconds;
    new_classes += r.prepare.drift_new_classes;
    route += 1e3 * Delta(r.prepare.compression.seconds, prev.compression.seconds);
    cgen += 1e3 * Delta(r.prepare.cgen_seconds, prev.cgen_seconds);
    inum += 1e3 * Delta(r.prepare.inum_seconds, prev.inum_seconds);
    candidates += r.num_candidates;
    build += 1e3 * r.timings.build_seconds;
    x_vars += static_cast<double>(r.bip.x_variables);
    z_vars += static_cast<double>(r.bip.z_variables);
    presolve += 1e3 * r.presolve.seconds;
    plans_in += static_cast<double>(r.presolve.plans_in);
    plans_removed += static_cast<double>(r.presolve.PlansRemoved());
    indexes_in += static_cast<double>(r.presolve.indexes_in);
    indexes_removed += static_cast<double>(r.presolve.IndexesRemoved());
    const cophy::lp::LpSolveStats& lp = r.root_lp_stats;
    pivots += static_cast<double>(lp.phase1_pivots + lp.phase2_pivots +
                                  lp.dual_pivots);
    refactors += static_cast<double>(lp.refactorizations);
    ftran += 1e3 * lp.ftran_btran_seconds;
    warm += lp.warm_started ? 1 : 0;
    skipped += std::isinf(r.root_lp_bound) ? 1 : 0;
    solve += 1e3 * r.timings.solve_seconds;
    nodes += static_cast<double>(r.nodes);
    bound_evals += static_cast<double>(r.bound_evaluations);
    fixed += static_cast<double>(r.variables_fixed);
    if (spans[i].root_attributed) {
      root_ms += spans[i].root_end - spans[i].presolve_end;
      search_ms += spans[i].solve_end - spans[i].root_end;
      attributed += 1;
    }
  }
  const cophy::PlanCacheStats& a = traced.after.plan_cache;
  const cophy::PlanCacheStats& b = traced.before.plan_cache;
  const double hits = static_cast<double>(a.Hits() - b.Hits());
  const double lookups = static_cast<double>(a.Lookups() - b.Lookups());
  const WhatIfTally& w = traced.whatif;
  const Tail queue_tail = TailOf(queue);
  std::printf("root attributed on %.0f of %.0f ops\n", attributed, ops);
  auto per_op = [&](double v) { return v / ops; };
  auto per_attr = [&](double v) { return attributed > 0 ? v / attributed : 0; };
  return {
      {"service.queue_p50_ms", Median(queue), "ms"},
      {"service.queue_tail_ms", queue_tail.value, "ms"},
      {"service.exec_p50_ms", Median(exec), "ms"},
      {"service.rejected",
       static_cast<double>(traced.after.rejected - traced.before.rejected),
       "count"},
      {"plan_cache.hit_rate", lookups > 0 ? hits / lookups : 0, "ratio"},
      {"plan_cache.template_misses",
       per_op(static_cast<double>(a.template_misses - b.template_misses)),
       "count/op"},
      {"plan_cache.gamma_misses",
       per_op(static_cast<double>(a.gamma_misses - b.gamma_misses)),
       "count/op"},
      {"session.refresh_ms", per_op(refresh), "ms"},
      {"session.new_classes", per_op(new_classes), "count/op"},
      {"workload.route_ms", per_op(route), "ms"},
      {"index.cgen_ms", per_op(cgen), "ms"},
      {"index.candidates", per_op(candidates), "count/op"},
      {"inum.prepare_ms", per_op(inum), "ms"},
      {"optimizer.whatif_calls", per_op(static_cast<double>(traced.whatif_calls)),
       "calls/op"},
      {"optimizer.whatif_ms", per_op(static_cast<double>(w.TotalNanos()) / 1e6),
       "ms"},
      {"optimizer.template_calls",
       per_op(static_cast<double>(w.calls[kTemplateCall])), "calls/op"},
      {"optimizer.access_calls", per_op(static_cast<double>(w.calls[kAccessCall])),
       "calls/op"},
      {"optimizer.update_calls",
       per_op(static_cast<double>(w.calls[kUpdateCall] +
                                  w.calls[kBaseUpdateCall])),
       "calls/op"},
      {"bipgen.build_ms", per_op(build), "ms"},
      {"bipgen.x_vars", per_op(x_vars), "count/op"},
      {"bipgen.z_vars", per_op(z_vars), "count/op"},
      {"presolve.ms", per_op(presolve), "ms"},
      {"presolve.plans_removed_pct",
       plans_in > 0 ? 100 * plans_removed / plans_in : 0, "%"},
      {"presolve.indexes_removed_pct",
       indexes_in > 0 ? 100 * indexes_removed / indexes_in : 0, "%"},
      {"root_lp.ms", per_attr(root_ms), "ms"},
      {"root_lp.pivots", per_op(pivots), "count/op"},
      {"root_lp.refactorizations", per_op(refactors), "count/op"},
      {"root_lp.ftran_btran_ms", per_op(ftran), "ms"},
      {"root_lp.warm_pct", 100 * per_op(warm), "%"},
      {"root_lp.skipped_pct", 100 * per_op(skipped), "%"},
      {"solve.ms", per_op(solve), "ms"},
      {"solve.search_ms", per_attr(search_ms), "ms"},
      {"bnb.nodes", per_op(nodes), "count/op"},
      {"bnb.bound_evals", per_op(bound_evals), "count/op"},
      {"bnb.vars_fixed", per_op(fixed), "count/op"},
      {"trace.overhead_ms", overhead_ms, "ms"},
  };
}

/// Human-readable breakdowns of the traced pass: latency by round kind
/// and each stage's share of mean execution time.
void PrintBreakdowns(const Pass& p, const std::vector<OpSpans>& spans,
                     bool per_op_whatif) {
  std::map<std::string, std::vector<size_t>> by_kind;
  for (size_t i = 0; i < p.records.size(); ++i) {
    by_kind[RoundKindName(p.records[i].kind)].push_back(i);
  }
  for (const auto& [kind, idx] : by_kind) {
    std::vector<double> lat;
    double whatif = 0, skipped = 0, warm = 0;
    for (size_t i : idx) {
      const OpRecord& r = p.records[i];
      lat.push_back(r.LatencyMs());
      whatif += static_cast<double>(r.whatif_calls);
      skipped += std::isinf(r.result.recommendation.root_lp_bound) ? 1 : 0;
      warm += r.result.recommendation.root_lp_stats.warm_started ? 1 : 0;
    }
    const double n = static_cast<double>(idx.size());
    char calls[32] = "n/a";
    if (per_op_whatif) std::snprintf(calls, sizeof(calls), "%.2f", whatif / n);
    std::printf("round %-10s ops %5zu  p50_ms %9.3f  whatif_calls/op %s  "
                "root_lp skipped %5.1f%%  warm %5.1f%%\n",
                kind.c_str(), idx.size(), Median(lat), calls,
                100 * skipped / n, 100 * warm / n);
  }
  double exec = 0, refresh = 0, build = 0, presolve = 0, root = 0, search = 0,
         attributed = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const OpSpans& s = spans[i];
    exec += 1e3 * p.records[i].result.exec_seconds;
    refresh += s.refresh_end - s.exec;
    build += s.build_end - s.refresh_end;
    presolve += s.presolve_end - s.build_end;
    if (s.root_attributed) {
      root += s.root_end - s.presolve_end;
      search += s.solve_end - s.root_end;
      attributed += 1;
    }
  }
  const double n = static_cast<double>(spans.size());
  const double mean_exec = exec / n;
  const double scale = attributed > 0 ? n / attributed : 0;
  std::printf("share of mean exec %.3f ms: refresh %.1f%%  build %.1f%%  "
              "presolve %.1f%%  root %.1f%%  search %.1f%%\n",
              mean_exec, 100 * refresh / exec, 100 * build / exec,
              100 * presolve / exec, 100 * root * scale / exec,
              100 * search * scale / exec);
}

// --- main -----------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atoi(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--trace-out") a->trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cold_het|interactive|"
                 "tenant_churn> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  // Inputs are generated once, against a catalog identical to the one
  // every set-up builds (catalog ids are deterministic).
  const double zipf = args.workload == "tenant_churn" ? 1.0 : 0.0;
  const cophy::Catalog cat = cophy::MakeTpchCatalog(1.0, zipf);
  Plan plan;
  if (args.workload == "cold_het") {
    plan = ColdHetPlan(cat, args.seed, args.seconds);
  } else if (args.workload == "interactive") {
    plan = InteractivePlan(cat, args.seed, args.seconds);
  } else if (args.workload == "tenant_churn") {
    plan = TenantChurnPlan(cat, args.seed, args.seconds);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu: %d timed rounds, %d cost classes\n",
              plan.workload.c_str(),
              static_cast<unsigned long long>(args.seed), plan.timed_rounds(),
              plan.classes.size());

  double max_diff = 0;
  if (!args.trace) {
    std::vector<double> setups;
    Setup s;
    for (int k = 0; k < kSetupRepeats; ++k) {
      s = Setup{};  // tear the previous set-up down outside the timing
      s = RunSetup(plan, false);
      setups.push_back(s.seconds);
    }
    Pass p = RunTimed(s, plan);
    const Clock::time_point check_start = Clock::now();
    CheckPass(plan, *s.env, &p, &max_diff);
    std::printf("timed phase %.2f s, output check %.2f s\n", p.wall_seconds,
                std::chrono::duration<double>(Clock::now() - check_start).count());
    const std::vector<Metric> metrics = EndToEnd(plan, p, setups);
    std::printf("output check: %d failed, max relative objective error %.3g\n",
                p.failed, max_diff);
    PrintResult(p.failed == 0, p.attempted, p.failed, metrics);
    return p.failed == 0 ? 0 : 1;
  }

  // Traced run: an untraced pass for the overhead baseline, then the
  // traced pass over the same sequence.
  Setup plain = RunSetup(plan, false);
  Pass base = RunTimed(plain, plan);
  CheckPass(plan, *plain.env, &base, &max_diff);
  plain = Setup{};
  Setup traced_setup = RunSetup(plan, true);
  const Clock::time_point origin = Clock::now();
  Pass traced = RunTimed(traced_setup, plan);
  CheckPass(plan, *traced_setup.env, &traced, &max_diff);
  const bool single_client = plan.clients.size() == 1;
  int failed = base.failed + traced.failed;
  if (single_client) {
    // The instruments must not change what the advisor computes.
    for (size_t i = 0; i < traced.records.size(); ++i) {
      if (traced.records[i].result.recommendation.objective !=
          base.records[i].result.recommendation.objective) {
        std::fprintf(stderr, "traced op %zu differs from the untraced pass\n", i);
        ++failed;
      }
    }
  }
  const std::vector<OpSpans> spans =
      BuildSpans(traced, traced_setup.env->progress, origin);
  if (!args.trace_out.empty()) {
    WriteSpans(args.trace_out, plan, args.seed, traced, spans, single_client);
  }
  const double overhead =
      Median(Latencies(traced)) - Median(Latencies(base));
  PrintBreakdowns(traced, spans, single_client);
  std::printf("output check: %d failed, max relative objective error %.3g\n",
              failed, max_diff);
  const std::vector<Metric> metrics = PerLayer(traced, spans, overhead);
  PrintResult(failed == 0, base.attempted + traced.attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
