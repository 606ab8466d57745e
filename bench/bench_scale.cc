// Workload-scaling benchmark for the preparation pipeline: statement
// count (1k → 50k) × {compression off/on} × {1..N threads}, reporting
// Prepare/build/solve seconds, compression ratio, and the thread
// speedup. Emits the same JSON shape as bench_micro (a "context" block
// plus a "benchmarks" array) so CI uploads one perf-trajectory artifact
// per commit.
//
//   bench_scale [max_statements] [threads_csv] [out.json]
//
// Defaults: 10000, "1,2,4,8", bench_scale.json. Pass 50000 for the full
// paper-scale sweep.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "core/cophy.h"
#include "core/session.h"

namespace cophy::bench {
namespace {

struct Sample {
  int statements = 0;
  const char* mode = "";
  int threads = 0;
  PrepareStats prepare;
  double prepare_seconds = 0;
  double build_seconds = 0;  // only measured for the tuned configs
  double solve_seconds = 0;
  double speedup_vs_1thread = 0;
  double objective = 0;
  // Root-bound quality of the tuned configs (-1: not tuned / no bound).
  double proven_gap_pct = -1;   ///< proven optimality gap at return
  double root_gap_pct = -1;     ///< (objective - root LP bound) / objective
  double proof10_seconds = -1;  ///< first time the proven gap hit 10%
  int64_t variables_fixed = 0;  ///< z pinned by reduced-cost fixing
  // Sharded-session columns (1 / -1 for the classic pipeline rows).
  int shards = 1;               ///< session shard count
  double delta_retune_ms = -1;  ///< 1% add/remove delta + warm Retune
  double cold_retune_ms = -1;   ///< cold end-to-end Tune on the modified W
};

std::vector<int> ParseThreads(const char* csv) {
  std::vector<int> out;
  std::string s(csv);
  size_t pos = 0;
  while (pos < s.size()) {
    out.push_back(std::atoi(s.c_str() + pos));
    const size_t comma = s.find(',', pos);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

Sample RunOne(int n, CompressionMode mode, bool share_templates, int threads,
              bool tune) {
  // A fresh environment per run: Prepare must start cold.
  Env e = Env::Make(0.0, false, n, /*het=*/false, /*seed=*/42);
  CoPhyOptions opts = DefaultCoPhyOptions();
  opts.prepare.compression.mode = mode;
  opts.prepare.share_templates = share_templates;
  opts.prepare.num_threads = threads;
  double proof10 = -1;  // first time the proven gap reaches 10%
  opts.callback = ProofTimer(&proof10);
  CoPhy advisor(e.system.get(), &e.pool, e.workload, opts);

  Sample s;
  s.statements = n;
  s.threads = threads;
  Stopwatch watch;
  if (!advisor.Prepare().ok()) {
    std::fprintf(stderr, "prepare failed (n=%d)\n", n);
    std::exit(1);
  }
  s.prepare_seconds = watch.Elapsed();
  s.prepare = advisor.prepared().stats();
  if (tune) {
    ConstraintSet cs = e.BudgetConstraint(0.5);
    const Recommendation rec = advisor.Tune(cs);
    s.build_seconds = rec.timings.build_seconds;
    s.solve_seconds = rec.timings.solve_seconds;
    s.objective = rec.objective;
    s.proven_gap_pct = 100 * rec.gap;
    s.proof10_seconds = proof10;
    s.variables_fixed = rec.variables_fixed;
    s.root_gap_pct = RootGapPct(rec.objective, rec.root_lp_bound);
  }
  return s;
}

/// Sharded-session benchmark: prepare a session over n statements, tune
/// once cold, apply a 1% add/remove delta, and warm-Retune — against a
/// cold end-to-end Tune over the equivalent modified workload (the
/// incremental-speed acceptance gate lives on these columns).
Sample RunSessionDelta(int n, int shards) {
  Env e = Env::Make(0.0, false, n, /*het=*/false, /*seed=*/42);
  SessionOptions so;
  so.tuning = DefaultCoPhyOptions();
  so.tuning.prepare.num_threads = 0;  // hardware
  so.num_shards = shards;

  Sample s;
  s.statements = n;
  s.mode = "session";
  s.shards = shards;
  s.threads = 0;

  AdvisorSession session(e.system.get(), &e.pool, so);
  const std::vector<QueryId> ids = session.AddWorkload(e.workload);
  ConstraintSet cs = e.BudgetConstraint(0.5);
  const Recommendation first = session.Tune(cs);
  if (!first.status.ok()) {
    std::fprintf(stderr, "session tune failed (n=%d)\n", n);
    std::exit(1);
  }
  s.prepare_seconds = first.timings.inum_seconds;
  s.build_seconds = first.timings.build_seconds;
  s.solve_seconds = first.timings.solve_seconds;
  s.objective = first.objective;
  s.prepare = session.prepare_stats();

  // The 1% delta: remove the first n/100 statements, add as many fresh
  // instances (same generator, different seed).
  const int delta = std::max(1, n / 100);
  WorkloadOptions wo;
  wo.num_statements = delta;
  wo.seed = 43;
  const Workload fresh = MakeHomogeneousWorkload(e.system->catalog(), wo);
  Stopwatch delta_watch;
  std::vector<QueryId> removed(ids.begin(), ids.begin() + delta);
  if (!session.RemoveStatements(removed).ok()) {
    std::fprintf(stderr, "remove failed\n");
    std::exit(1);
  }
  session.AddWorkload(fresh);
  const Recommendation rec = session.Retune(cs);
  s.delta_retune_ms = delta_watch.Elapsed() * 1e3;
  if (!rec.status.ok()) {
    std::fprintf(stderr, "delta retune failed (n=%d)\n", n);
    std::exit(1);
  }

  // Cold comparison: end-to-end Tune over the modified workload in a
  // fresh environment.
  Env cold_env = Env::Make(0.0, false, n, /*het=*/false, /*seed=*/42);
  Workload modified;
  for (const Query& q : cold_env.workload.statements()) {
    if (q.id < delta) continue;
    modified.Add(q);
  }
  for (const Query& q : fresh.statements()) modified.Add(q);
  CoPhyOptions cold_opts = DefaultCoPhyOptions();
  cold_opts.prepare.num_threads = 0;
  CoPhy cold(cold_env.system.get(), &cold_env.pool, modified, cold_opts);
  Stopwatch cold_watch;
  if (!cold.Prepare().ok() ||
      !cold.Tune(cold_env.BudgetConstraint(0.5)).status.ok()) {
    std::fprintf(stderr, "cold retune failed (n=%d)\n", n);
    std::exit(1);
  }
  s.cold_retune_ms = cold_watch.Elapsed() * 1e3;
  return s;
}

void WriteJson(const char* path, const std::vector<Sample>& samples) {
  BenchJson json("bench_scale");
  for (const Sample& s : samples) {
    // Session rows all run on the hardware thread count and differ in
    // their shard count; the other modes differ in threads.
    const bool session = std::strcmp(s.mode, "session") == 0;
    char name[128];
    std::snprintf(name, sizeof(name), "scale/n=%d/mode=%s/%s=%d",
                  s.statements, s.mode, session ? "shards" : "threads",
                  session ? s.shards : s.threads);
    json.BeginRow(name)
        .Metric("statements", s.statements)
        .Metric("mode", s.mode)
        .Metric("threads", s.threads)
        .Metric("prepare_seconds", s.prepare_seconds)
        .Metric("compress_seconds", s.prepare.compression.seconds)
        .Metric("cgen_seconds", s.prepare.cgen_seconds)
        .Metric("inum_seconds", s.prepare.inum_seconds)
        .Metric("build_seconds", s.build_seconds)
        .Metric("solve_seconds", s.solve_seconds)
        .Metric("compression_ratio", s.prepare.compression.Ratio())
        .Metric("compressed_statements", s.prepare.compression.output_statements)
        .Metric("shared_statements", s.prepare.shared_statements)
        .Metric("speedup_vs_1thread", s.speedup_vs_1thread)
        .Metric("objective", s.objective)
        .Metric("proven_gap_pct", s.proven_gap_pct)
        .Metric("root_gap_pct", s.root_gap_pct)
        .Metric("proof10_seconds", s.proof10_seconds)
        .Metric("variables_fixed", s.variables_fixed)
        .Metric("shards", s.shards)
        .Metric("delta_retune_ms", s.delta_retune_ms)
        .Metric("cold_retune_ms", s.cold_retune_ms)
        .Metric("delta_speedup", s.delta_retune_ms > 0 && s.cold_retune_ms > 0
                                     ? s.cold_retune_ms / s.delta_retune_ms
                                     : -1.0);
  }
  if (!json.Write(path)) std::exit(1);
}

int Main(int argc, char** argv) {
  const int max_n = argc > 1 ? std::atoi(argv[1]) : 10000;
  std::vector<int> thread_counts = ParseThreads(argc > 2 ? argv[2] : "1,2,4,8");
  // speedup_vs_1thread needs the 1-thread baseline measured FIRST.
  thread_counts.erase(
      std::remove(thread_counts.begin(), thread_counts.end(), 1),
      thread_counts.end());
  thread_counts.insert(thread_counts.begin(), 1);
  const char* out_path = argc > 3 ? argv[3] : "bench_scale.json";

  std::vector<int> sizes;
  for (int n : {1000, 5000, 10000, 50000}) {
    if (n <= max_n) sizes.push_back(n);
  }
  if (sizes.empty()) sizes.push_back(max_n);

  std::vector<Sample> samples;
  for (int n : sizes) {
    Title(StrFormat("W_hom scaling, %d statements", n));

    // Naive pipeline: no compression, no template sharing, 1 thread —
    // the per-statement INUM loop the refactor replaces. Skipped above
    // 10k where it dominates the whole run.
    if (n <= 10000) {
      Sample naive = RunOne(n, CompressionMode::kNone,
                            /*share_templates=*/false, 1, /*tune=*/false);
      naive.mode = "naive";
      naive.speedup_vs_1thread = 1.0;
      Row({{"mode", "naive"},
           {"threads", "1"},
           {"prepare_s", Fmt("%.3f", naive.prepare_seconds)},
           {"ratio", "1.0"}});
      samples.push_back(naive);
    }

    // Compression off but shared templates (isolates the sharing win).
    Sample shared = RunOne(n, CompressionMode::kNone, true, 1, false);
    shared.mode = "shared";
    shared.speedup_vs_1thread = 1.0;
    Row({{"mode", "shared"},
         {"threads", "1"},
         {"prepare_s", Fmt("%.3f", shared.prepare_seconds)},
         {"shared_stmts", Fmt("%.0f", 1.0 * shared.prepare.shared_statements)}});
    samples.push_back(shared);

    // Lossless compression × thread sweep, solving once per (n, threads)
    // so the JSON also tracks build/solve alongside Prepare.
    double base_seconds = 0;
    for (int t : thread_counts) {
      Sample s = RunOne(n, CompressionMode::kLossless, true, t, /*tune=*/true);
      s.mode = "lossless";
      if (t == 1) base_seconds = s.prepare_seconds;
      s.speedup_vs_1thread =
          s.prepare_seconds > 0 ? base_seconds / s.prepare_seconds : 0.0;
      Row({{"mode", "lossless"},
           {"threads", std::to_string(t)},
           {"prepare_s", Fmt("%.3f", s.prepare_seconds)},
           {"ratio", Fmt("%.1f", s.prepare.compression.Ratio())},
           {"speedup", Fmt("%.2f", s.speedup_vs_1thread)},
           {"build_s", Fmt("%.3f", s.build_seconds)},
           {"solve_s", Fmt("%.3f", s.solve_seconds)},
           {"gap_pct", Fmt("%.1f", s.proven_gap_pct)},
           {"proof10_s", Fmt("%.2f", s.proof10_seconds)}});
      samples.push_back(s);
    }
  }

  // Sharded-session sweep at 1000 statements (the incremental-speed
  // gate's scale): cold prepare+tune, then a 1% delta + warm Retune vs
  // a cold end-to-end Tune on the modified workload.
  if (max_n >= 1000) {
    Title("sharded session, 1000 statements, 1% delta retune");
    for (int shards : {1, 4}) {
      Sample s = RunSessionDelta(1000, shards);
      Row({{"mode", "session"},
           {"shards", std::to_string(shards)},
           {"prepare_s", Fmt("%.3f", s.prepare_seconds)},
           {"delta_ms", Fmt("%.1f", s.delta_retune_ms)},
           {"cold_ms", Fmt("%.1f", s.cold_retune_ms)},
           {"speedup", Fmt("%.1f", s.cold_retune_ms /
                                       std::max(1e-9, s.delta_retune_ms))}});
      samples.push_back(s);
    }
  }

  WriteJson(out_path, samples);
  return 0;
}

}  // namespace
}  // namespace cophy::bench

int main(int argc, char** argv) { return cophy::bench::Main(argc, argv); }
