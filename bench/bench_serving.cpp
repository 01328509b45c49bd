/// Serving-layer bench (extension; no paper counterpart): wall-clock
/// throughput of the sharded concurrent serving path
/// (serve/sharded_engine.hpp) as the shard count grows, for a
/// device-modeled inner engine ("gamma") and a CPU baseline ("rf").
///
/// Sharding fans each batch's phases across N inner engines on a
/// thread pool, so different query partitions genuinely run on
/// different cores.  Batches are fed one ProcessBatch call at a time.
/// Two throughputs are reported, following the repo's convention of
/// separating what this host measures from what the design delivers:
///  * measured wall  — end-to-end batches/s on THIS host.  Scales with
///    shards only up to the core count (a 1-core CI container shows
///    ~flat wall regardless of sharding).
///  * critical path  — batches/s over the summed per-batch
///    BatchReport::critical_path_seconds (per phase, the slowest
///    shard's thread-CPU seconds):
///    the wall-clock a host with >= N free cores achieves.  This is
///    the serving analogue of "modeled device seconds" and the
///    monotone-scaling shape to check.
///
/// Expected shape: critical-path batches/s increases monotonically
/// from 1 to 4 shards on the default workload, flattening once shards
/// outnumber queries (an empty shard can't shorten the slowest one).
///
/// Emits the perf trajectory to BENCH_serving.json by default
/// (override with --json <path>; schema in docs/BENCHMARKS.md).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/timer.hpp"

using namespace bdsm;
using namespace bdsm::bench;

namespace {

/// The serving workload: `num_queries` patterns over the dataset twin
/// and a pre-built stream of sanitized batches.
struct Workload {
  const LabeledGraph* graph;
  std::vector<QueryGraph> queries;
  std::vector<UpdateBatch> stream;
};

Workload MakeWorkload(const Scale& scale, size_t num_queries,
                      size_t num_batches, size_t ops_per_batch) {
  Workload w;
  const DatasetSpec& spec = DatasetByName("GH");
  w.graph = &CachedDataset(spec.id);
  w.queries = MakeQuerySet(*w.graph, QueryGraph::StructureClass::kSparse,
                           scale.default_query_size, num_queries,
                           scale.seed);
  if (w.queries.size() < num_queries) {
    auto extra = MakeQuerySet(*w.graph, QueryGraph::StructureClass::kTree,
                              scale.default_query_size,
                              num_queries - w.queries.size(),
                              scale.seed + 1);
    w.queries.insert(w.queries.end(), extra.begin(), extra.end());
  }

  UpdateStreamGenerator gen(scale.seed + 2);
  size_t elabels = spec.edge_labels > 1 ? spec.edge_labels : 0;
  LabeledGraph evolving = *w.graph;
  for (size_t i = 0; i < num_batches; ++i) {
    UpdateBatch b = SanitizeBatch(
        evolving, gen.MakeMixed(evolving, ops_per_batch, 2, 1, elabels));
    ApplyBatch(&evolving, b);
    w.stream.push_back(std::move(b));
  }
  return w;
}

struct ServingResult {
  double wall_s = 0.0;           ///< measured on this host
  double critical_path_s = 0.0;  ///< wall on a >=N-core host
  double batches_per_s_wall = 0.0;
  double batches_per_s = 0.0;    ///< headline: critical-path throughput
  size_t total_matches = 0;
};

/// Feeds the whole stream through ProcessBatch, one batch after
/// another; engine construction and query registration are offline
/// (not timed), matching how the figure benches treat index builds.
ServingResult RunServingCell(const EngineSpec& spec, const Workload& w,
                             const EngineOptions& opts,
                             EngineInfo* info_out) {
  auto engine = MakeEngine(spec, *w.graph, opts);
  for (const QueryGraph& q : w.queries) engine->AddQuery(q);
  *info_out = engine->Describe();

  ServingResult r;
  Timer wall;
  for (const UpdateBatch& b : w.stream) {
    const BatchReport report = engine->ProcessBatch(b);
    r.total_matches += report.TotalMatches();
    r.critical_path_s += report.critical_path_seconds;
  }
  r.wall_s = wall.ElapsedSeconds();
  double n = double(w.stream.size());
  r.batches_per_s_wall = r.wall_s > 0 ? n / r.wall_s : 0.0;
  r.batches_per_s =
      r.critical_path_s > 0 ? n / r.critical_path_s : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  InitBench("bench_serving", argc, argv, "BENCH_serving.json");
  Scale scale;
  PrintHeader("Serving throughput (extension)",
              "Sharded concurrent serving: wall-clock batches/s vs shard "
              "count, one ProcessBatch per batch",
              scale);

  const size_t kQueries = 12, kBatches = 8, kOps = 300;
  Workload w = MakeWorkload(scale, kQueries, kBatches, kOps);
  printf("workload: GH twin, %zu queries, %zu batches x ~%zu ops\n\n",
         w.queries.size(), w.stream.size(), kOps);
  JsonContext("dataset", "GH");
  JsonContext("num_queries", w.queries.size());
  JsonContext("num_batches", w.stream.size());

  EngineOptions opts;
  opts.gamma.device.host_budget_seconds = scale.query_budget_s;
  opts.csm_budget_seconds = scale.query_budget_s;

  for (const char* inner : {"gamma", "rf"}) {
    printf("--- inner engine \"%s\" ---\n", inner);
    printf("%8s | %12s %14s | %12s %14s | %8s\n", "shards", "wall(ms)",
           "wall-b/s", "critpath(ms)", "critpath-b/s", "speedup");
    double base = 0.0;
    for (size_t shards : {1, 2, 4, 8}) {
      // Compose the spec as a tree, not by string concatenation — the
      // same shape any config-driven deployment would build.
      EngineSpec spec;
      spec.name = "sharded";
      spec.children.push_back(EngineSpec{inner, {}, {}});
      spec.options.emplace_back("shards", std::to_string(shards));
      EngineInfo info;
      ServingResult r = RunServingCell(spec, w, opts, &info);
      if (shards == 1) base = r.critical_path_s;
      double speedup =
          r.critical_path_s > 0 ? base / r.critical_path_s : 0.0;
      printf("%8zu | %12.1f %14.2f | %12.1f %14.2f | %7.2fx\n", shards,
             r.wall_s * 1e3, r.batches_per_s_wall,
             r.critical_path_s * 1e3, r.batches_per_s, speedup);
      fflush(stdout);

      JsonRow row;
      row.Set("engine", inner)
          .Set("spec", info.canonical_spec)
          .Set("clock", ClockDomainName(info.clock))
          .Set("shards", shards)
          .Set("wall_s", r.wall_s)
          .Set("batches_per_s_wall", r.batches_per_s_wall)
          .Set("critical_path_s", r.critical_path_s)
          .Set("batches_per_s", r.batches_per_s)
          .Set("speedup_vs_1", speedup)
          .Set("total_matches", r.total_matches);
      JsonSink::Instance().Add(std::move(row));
    }
    printf("\n");
  }

  printf("Shape check: critical-path batches/s rises monotonically "
         "1 -> 4 shards (query partitions run concurrently), flattening "
         "once shards outnumber queries; measured wall tracks it only "
         "up to this host's core count.\n");
  FinishBench();
  return 0;
}
