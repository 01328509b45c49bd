/// Reproduces **Fig. 5** — BFS vs DFS in a GPU environment, on the LS
/// dataset: (a) device-memory usage over the run, (b) time breakdown
/// into computation and host<->device communication.
///
/// Paper shape: BFS memory grows rapidly and hits the device ceiling,
/// triggering spills whose communication time dominates (several times
/// the computation); DFS stays flat and never communicates.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/bfs_kernel.hpp"

using namespace bdsm;
using namespace bdsm::bench;

namespace {

struct KernelSetup {
  LabeledGraph g;
  QueryContext ctx;
  CandidateEncoder enc;
  Gpma gpma{32};
  std::unordered_map<Edge, uint32_t, EdgeHash> order;
  std::vector<SeedEdge> seeds;

  KernelSetup(const LabeledGraph& base, const QueryGraph& q,
              const UpdateBatch& batch)
      : g(base), ctx(BuildQueryContext(q, false)), enc(q) {
    ApplyBatch(&g, batch);
    gpma.BuildFrom(g);
    enc.BuildAll(g);
    uint32_t next = 0;
    for (const UpdateOp& op : batch) {
      seeds.push_back(SeedEdge{op.u, op.v, op.elabel, next});
      order.emplace(Edge(op.u, op.v), next);
      ++next;
    }
  }

  WbmEnv Env() {
    WbmEnv env{&gpma, &ctx, &enc, &order, true};
    env.mirror = &g;  // the engine's read path
    return env;
  }
};

}  // namespace

int main(int argc, char** argv) {
  InitBench("bench_fig5", argc, argv);
  // Kernel-level bench: the rows measure gamma's BFS/DFS device kernels
  // directly (no Engine is built), so the canonical-spec + clock
  // provenance names the family whose kernels these are.
  JsonProvenance("gamma", ClockDomain::kModeledDevice);
  Scale scale;
  PrintHeader("Figure 5",
              "BFS vs DFS on LS: (a) device memory usage, (b) "
              "computation vs communication time",
              scale);

  const DatasetSpec& spec = DatasetByName("LS");
  const LabeledGraph& base = CachedDataset(spec.id);
  UpdateBatch batch =
      MakeRateBatch(base, spec, scale.default_rate, scale, scale.seed + 1);
  // Larger queries give BFS room to misbehave (geometric frontiers);
  // the paper's Fig. 5 runs full-size LS where even |V(Q)| = 6 does.
  const size_t query_size = 9;

  // Device memory scaled down with the datasets (~2000x below the
  // 3090's 24 GB): the resident graph takes most of it, frontiers
  // compete for the rest — the regime Fig. 5 demonstrates.
  const uint64_t graph_bytes = 12ull * 2 * base.NumEdges();  // key+val+dst
  DeviceConfig bfs_cfg;
  bfs_cfg.global_mem_bytes = graph_bytes + 2 * 1024;
  bfs_cfg.host_budget_seconds = scale.query_budget_s;
  DeviceConfig dfs_cfg = bfs_cfg;
  const double cap = double(bfs_cfg.global_mem_bytes);

  auto run_cls = [&](QueryGraph::StructureClass cls, auto&& fn) {
    auto queries = MakeQuerySet(base, cls, query_size, 1, scale.seed);
    if (queries.empty()) {
      printf("%-7s | (no extractable queries)\n", ToString(cls));
      return;
    }
    KernelSetup setup(base, queries[0], batch);
    Device bfs_dev(bfs_cfg), dfs_dev(dfs_cfg);
    // Charge the resident graph to both devices up front.
    bfs_dev.allocator().Alloc(graph_bytes);
    dfs_dev.allocator().Alloc(graph_bytes);
    BfsResult bfs = RunBfsKernel(bfs_dev, setup.Env(), setup.seeds);
    WbmResult dfs = RunWbmKernel(dfs_dev, setup.Env(), setup.seeds);
    fn(bfs, dfs);
  };

  printf("(a) memory usage over run (%% of device capacity; BFS sampled "
         "per frontier expansion; DFS allocates no frontiers beyond the "
         "resident graph)\n");
  printf("%-7s | %8s %8s | %-s\n", "class", "BFS-peak", "DFS-peak",
         "BFS usage timeline (10 samples)");
  for (auto cls : AllClasses()) {
    run_cls(cls, [&](const BfsResult& bfs, const WbmResult& dfs) {
      double bfs_peak = 0;
      for (double p : bfs.memory_samples) bfs_peak = std::max(bfs_peak, p);
      double dfs_peak = 100.0 * double(dfs.stats.peak_device_bytes) / cap;
      uint64_t bfs_frontier =
          bfs.stats.peak_device_bytes > graph_bytes
              ? bfs.stats.peak_device_bytes - graph_bytes
              : 0;
      printf("%-7s | %7.1f%% %7.1f%% (frontier %6llu B) |", ToString(cls),
             bfs_peak, dfs_peak,
             static_cast<unsigned long long>(bfs_frontier));
      size_t n = bfs.memory_samples.size();
      for (size_t i = 0; i < 10 && n > 0; ++i) {
        size_t idx = i * (n - 1) / 9;
        printf(" %5.1f", bfs.memory_samples[idx]);
      }
      printf("\n");
    });
  }

  printf("\n(b) time breakdown (modeled ms; Comm = host<->device spill "
         "traffic)\n");
  printf("%-7s | %10s %10s | %10s %10s\n", "class", "BFS-Comp", "BFS-Comm",
         "DFS-Comp", "DFS-Comm");
  for (auto cls : AllClasses()) {
    run_cls(cls, [&](const BfsResult& bfs, const WbmResult& dfs) {
      double tick_ms = bfs_cfg.TickSeconds() * 1e3;
      auto comp = [&](const DeviceStats& s) {
        return double(s.makespan_ticks -
                      std::min(s.makespan_ticks, s.transfer_ticks)) *
               tick_ms;
      };
      auto comm = [&](const DeviceStats& s) {
        return double(s.transfer_ticks) * tick_ms;
      };
      printf("%-7s | %10.4f %10.4f | %10.4f %10.4f\n", ToString(cls),
             comp(bfs.stats), comm(bfs.stats), comp(dfs.stats),
             comm(dfs.stats));

      double bfs_peak = 0;
      for (double p : bfs.memory_samples) bfs_peak = std::max(bfs_peak, p);
      JsonRow row;
      row.Set("dataset", "LS")
          .Set("structure", ToString(cls))
          .Set("bfs_peak_mem_pct", bfs_peak)
          .Set("dfs_peak_mem_pct",
               100.0 * double(dfs.stats.peak_device_bytes) / cap)
          .Set("bfs_comp_ms", comp(bfs.stats))
          .Set("bfs_comm_ms", comm(bfs.stats))
          .Set("dfs_comp_ms", comp(dfs.stats))
          .Set("dfs_comm_ms", comm(dfs.stats));
      JsonSink::Instance().Add(std::move(row));
    });
  }
  printf("\nShape checks (paper): BFS peak -> 100%% (exhaustion), DFS "
         "peak flat & low; BFS Comm >> BFS Comp; DFS Comm = 0.\n");
  FinishBench();
  return 0;
}
