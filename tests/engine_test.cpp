/// Unified-engine-layer tests: registry round-trip over every engine
/// name, cross-engine result parity on one identical batch (GAMMA's net
/// matches == each CSM baseline's NetEffect), streaming-sink vs
/// materialized equivalence, dynamic AddQuery/RemoveQuery, the device
/// engine's two charging rules, the one-latency-per-batch contract,
/// and the unified truncation reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "baselines/enumerate.hpp"
#include "core/engine.hpp"
#include "core/match_store.hpp"
#include "graph/graph_generator.hpp"
#include "graph/update_stream.hpp"
#include "persist/checkpoint.hpp"

namespace bdsm {
namespace {

const char* const kAllEngines[] = {"gamma", "multi", "tf", "sym",
                                   "rf",    "cl",    "gf"};

QueryGraph TriangleQuery() {
  QueryGraph q({0, 0, 1});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(0, 2);
  return q;
}

QueryGraph PathQuery() {
  QueryGraph q({0, 1, 2});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  return q;
}

/// Signed canonical keys of a report's net effect.  Device engines
/// already emit the batch delta; CSM engines emit the raw sequential
/// stream, which NetDelta reduces to the same delta.
std::vector<std::string> NetKeys(const QueryReport& qr) {
  std::vector<std::string> keys;
  for (const MatchRecord& m : NetDelta(qr)) keys.push_back(m.Key());
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(EngineRegistryTest, AllNamesConstructAndRoundTrip) {
  LabeledGraph g = GenerateUniformGraph(60, 150, 2, 1, 11);
  for (const char* name : kAllEngines) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    ASSERT_NE(engine, nullptr);
    EXPECT_STREQ(engine->Name(), name);
    EXPECT_EQ(engine->NumQueries(), 0u);
    EXPECT_EQ(engine->host_graph().NumEdges(), g.NumEdges());

    QueryId a = engine->AddQuery(TriangleQuery());
    QueryId b = engine->AddQuery(PathQuery());
    EXPECT_NE(a, b);
    EXPECT_EQ(engine->QueryIds(), (std::vector<QueryId>{a, b}));

    EXPECT_TRUE(engine->RemoveQuery(a));
    EXPECT_FALSE(engine->RemoveQuery(a));  // ids are never reused
    EXPECT_EQ(engine->QueryIds(), (std::vector<QueryId>{b}));

    QueryId c = engine->AddQuery(TriangleQuery());
    EXPECT_NE(c, a);
    EXPECT_NE(c, b);
    EXPECT_EQ(engine->NumQueries(), 2u);
  }
}

TEST(EngineRegistryTest, AliasesAndCaseInsensitivity) {
  LabeledGraph g = GenerateUniformGraph(40, 90, 2, 1, 12);
  EXPECT_STREQ(MakeEngine("TF", g)->Name(), "tf");
  EXPECT_STREQ(MakeEngine("turboflux", g)->Name(), "tf");
  EXPECT_STREQ(MakeEngine("RapidFlow", g)->Name(), "rf");
  EXPECT_STREQ(MakeEngine("GAMMA", g)->Name(), "gamma");
  EXPECT_STREQ(MakeEngine("multigamma", g)->Name(), "multi");
  EXPECT_TRUE(EngineRegistry::Instance().Has("sym"));
  EXPECT_FALSE(EngineRegistry::Instance().Has("no-such-engine"));

  std::vector<std::string> names = EngineNames();
  for (const char* name : kAllEngines) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

TEST(EngineRegistryTest, DescribeSplitsClockDomains) {
  LabeledGraph g = GenerateUniformGraph(40, 90, 2, 1, 13);
  for (const char* name : {"gamma", "multi"}) {
    EngineInfo info = MakeEngine(name, g)->Describe();
    EXPECT_EQ(info.clock, ClockDomain::kModeledDevice) << name;
    EXPECT_EQ(info.canonical_spec, name);
    EXPECT_EQ(info.num_shards, 1u);
    EXPECT_TRUE(info.supports_remove_query);
  }
  for (const char* name : {"tf", "sym", "rf", "cl", "gf"}) {
    EngineInfo info = MakeEngine(name, g)->Describe();
    EXPECT_EQ(info.clock, ClockDomain::kHostWall) << name;
    EXPECT_EQ(info.canonical_spec, name);
  }
  // Aliases canonicalize in the provenance spec.
  EXPECT_EQ(MakeEngine("TurboFlux", g)->Describe().canonical_spec, "tf");
  EXPECT_STREQ(ClockDomainName(ClockDomain::kModeledDevice),
               "modeled-device");
  EXPECT_STREQ(ClockDomainName(ClockDomain::kCriticalPath),
               "critical-path");
  EXPECT_STREQ(ClockDomainName(ClockDomain::kHostWall), "host-wall");
}

TEST(EngineRegistryTest, CustomRegistration) {
  LabeledGraph g = GenerateUniformGraph(40, 90, 2, 1, 14);
  EngineRegistry::Instance().Register(
      "gamma-aggressive",
      [](const EngineSpec&, const LabeledGraph& graph,
         const EngineOptions& options) {
        EngineOptions tuned = options;
        tuned.gamma.aggressive_coalescing = true;
        return EngineRegistry::Instance().Make("gamma", graph, tuned);
      });
  auto engine = MakeEngine("gamma-aggressive", g);
  EXPECT_STREQ(engine->Name(), "gamma");
  // Provenance names the spec that rebuilds this engine — the
  // delegating factory's nested Make("gamma") stamp must not leak.
  EXPECT_EQ(engine->Describe().canonical_spec, "gamma-aggressive");
  EXPECT_TRUE(EngineRegistry::Instance().Has("gamma-aggressive"));
  // The shorthand registration accepts no inline options or children.
  EXPECT_FALSE(EngineRegistry::Instance().Has("gamma-aggressive(x=1)"));
  EXPECT_FALSE(EngineRegistry::Instance().Has("gamma-aggressive(gamma)"));
}

// Acceptance bar: one identical fixed-seed batch through every engine
// via the uniform interface; GAMMA's net matches equal each baseline's
// NetEffect, per query.
TEST(EngineParityTest, IdenticalBatchAcrossAllEngines) {
  LabeledGraph g = GenerateUniformGraph(120, 420, 3, 1, 2024);
  UpdateStreamGenerator gen(2025);
  UpdateBatch batch = gen.MakeMixed(g, 30, 2, 1, 0);

  std::vector<QueryGraph> queries = {TriangleQuery(), PathQuery()};

  // Reference: the GAMMA engine.
  auto reference = MakeEngine("gamma", g);
  std::vector<QueryId> ref_ids;
  for (const QueryGraph& q : queries) ref_ids.push_back(reference->AddQuery(q));
  BatchReport ref = reference->ProcessBatch(batch);

  std::vector<std::vector<std::string>> want;
  for (QueryId id : ref_ids) want.push_back(NetKeys(*ref.Find(id)));
  ASSERT_FALSE(want[0].empty());  // the workload must exercise matching

  for (const char* name : kAllEngines) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    std::vector<QueryId> ids;
    for (const QueryGraph& q : queries) ids.push_back(engine->AddQuery(q));
    BatchReport report = engine->ProcessBatch(batch);
    ASSERT_EQ(report.queries.size(), queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const QueryReport* qr = report.Find(ids[qi]);
      ASSERT_NE(qr, nullptr);
      EXPECT_EQ(NetKeys(*qr), want[qi]) << "query " << qi;
    }
  }
}

// Streaming-sink delivery must produce the same match multiset as the
// materialized report vectors, for every engine family.
TEST(EngineSinkTest, SinkEqualsMaterialized) {
  LabeledGraph g = GenerateUniformGraph(100, 350, 3, 1, 31);
  UpdateStreamGenerator gen(32);
  UpdateBatch batch = gen.MakeMixed(g, 25, 2, 1, 0);

  for (const char* name : kAllEngines) {
    SCOPED_TRACE(name);
    auto materialized = MakeEngine(name, g);
    auto streaming = MakeEngine(name, g);
    QueryId mq = materialized->AddQuery(TriangleQuery());
    QueryId sq = streaming->AddQuery(TriangleQuery());

    BatchReport mr = materialized->ProcessBatch(batch);

    CollectingSink sink;
    BatchOptions bo;
    bo.sink = &sink;
    bo.materialize = false;
    BatchReport sr = streaming->ProcessBatch(batch, bo);

    const QueryReport* mqr = mr.Find(mq);
    const QueryReport* sqr = sr.Find(sq);
    ASSERT_NE(mqr, nullptr);
    ASSERT_NE(sqr, nullptr);

    // Counts survive non-materialization; vectors do not.
    EXPECT_EQ(sqr->num_positive, mqr->num_positive);
    EXPECT_EQ(sqr->num_negative, mqr->num_negative);
    EXPECT_TRUE(sqr->positive_matches.empty());
    EXPECT_TRUE(sqr->negative_matches.empty());

    // Same multiset through the sink as in the materialized vectors.
    std::vector<MatchRecord> all = mqr->positive_matches;
    all.insert(all.end(), mqr->negative_matches.begin(),
               mqr->negative_matches.end());
    std::vector<std::string> want = CanonicalKeys(all);
    std::vector<std::string> got = CanonicalKeys(sink.MatchesFor(sq));
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
  }
}

// Delta ordering end-to-end: a MatchStore-backed sink (which aborts on
// out-of-order deltas) maintained purely from streamed matches must
// arrive at exactly the oracle's post-batch match set — for the device
// family (batch-level delta) and the CSM family (raw interleaved
// stream, whose emission order DeliverDirect preserves).
TEST(EngineSinkTest, StoreSinkTracksOracleAcrossFamilies) {
  LabeledGraph g = GenerateUniformGraph(80, 260, 2, 1, 35);
  QueryGraph wedge({1, 0, 1});
  wedge.AddEdge(0, 1);
  wedge.AddEdge(1, 2);
  UpdateStreamGenerator gen(36);
  UpdateBatch batch = gen.MakeMixed(g, 30, 2, 1, 0);

  struct StoreSink final : ResultSink {
    MatchStore store;
    void OnMatch(QueryId, const MatchRecord& m) override {
      store.ApplyDelta(m);
    }
  };

  for (const char* name : {"gamma", "multi", "gf", "rf"}) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    QueryId q = engine->AddQuery(wedge);

    StoreSink sink;
    for (MatchRecord m : EnumerateAllMatches(g, wedge)) {
      m.positive = true;
      sink.OnMatch(q, m);
    }

    BatchOptions bo;
    bo.sink = &sink;
    bo.materialize = false;
    engine->ProcessBatch(batch, bo);

    std::vector<std::string> got = CanonicalKeys(sink.store.Snapshot());
    std::vector<MatchRecord> after_ms =
        EnumerateAllMatches(engine->host_graph(), wedge);
    for (MatchRecord& m : after_ms) m.positive = true;
    std::vector<std::string> want = CanonicalKeys(after_ms);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

// Sink alongside materialization: both delivery paths active at once.
TEST(EngineSinkTest, SinkAndMaterializeTogether) {
  LabeledGraph g = GenerateUniformGraph(100, 350, 3, 1, 33);
  UpdateStreamGenerator gen(34);
  UpdateBatch batch = gen.MakeInsertions(g, 20, 0);

  auto engine = MakeEngine("multi", g);
  QueryId q1 = engine->AddQuery(TriangleQuery());
  QueryId q2 = engine->AddQuery(PathQuery());

  CollectingSink sink;
  BatchOptions bo;
  bo.sink = &sink;  // materialize stays true
  BatchReport report = engine->ProcessBatch(batch, bo);

  for (QueryId q : {q1, q2}) {
    const QueryReport* qr = report.Find(q);
    ASSERT_NE(qr, nullptr);
    EXPECT_EQ(qr->positive_matches.size() + qr->negative_matches.size(),
              sink.MatchesFor(q).size());
    EXPECT_EQ(qr->TotalMatches(), sink.MatchesFor(q).size());
  }
}

// The device engine's two charging rules over one shared graph:
// "gamma" charges each query as if it ran alone (bit-equal to one-query
// engines), so the shared GPMA update is paid once per query; "multi"
// fuses every query into one launch per polarity and pays the update
// once.  Both find the same matches.
TEST(EngineChargingTest, GammaPerQueryMultiFused) {
  LabeledGraph g = GenerateUniformGraph(150, 500, 3, 1, 91);
  QueryGraph star({1, 0, 0, 2});
  star.AddEdge(0, 1);
  star.AddEdge(0, 2);
  star.AddEdge(0, 3);
  const std::vector<QueryGraph> queries = {TriangleQuery(), PathQuery(),
                                           star};

  auto gamma = MakeEngine("gamma", g);
  auto multi = MakeEngine("multi", g);
  std::vector<std::unique_ptr<Engine>> singles;
  for (const QueryGraph& q : queries) {
    gamma->AddQuery(q);
    multi->AddQuery(q);
    singles.push_back(MakeEngine("gamma", g));
    singles.back()->AddQuery(q);
  }

  UpdateStreamGenerator gen(92);
  size_t matches = 0;
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    UpdateBatch batch = gen.MakeMixed(gamma->host_graph(), 40, 2, 1, 0);
    BatchReport per_query = gamma->ProcessBatch(batch);
    BatchReport fused = multi->ProcessBatch(batch);
    ASSERT_EQ(per_query.queries.size(), queries.size());
    ASSERT_EQ(fused.queries.size(), queries.size());
    EXPECT_GT(fused.update_stats.makespan_ticks, 0u);
    EXPECT_EQ(per_query.update_stats.makespan_ticks,
              queries.size() * fused.update_stats.makespan_ticks);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      SCOPED_TRACE("query " + std::to_string(qi));
      const QueryReport alone = singles[qi]->ProcessBatch(batch).queries[0];
      const QueryReport& got = per_query.queries[qi];
      EXPECT_EQ(got.update_stats, alone.update_stats);
      EXPECT_EQ(got.match_stats, alone.match_stats);
      EXPECT_EQ(got.positive_matches, alone.positive_matches);
      EXPECT_EQ(got.negative_matches, alone.negative_matches);

      const QueryReport& shared = fused.queries[qi];
      EXPECT_EQ(shared.update_stats, fused.update_stats);
      EXPECT_EQ(CanonicalKeys(shared.positive_matches),
                CanonicalKeys(got.positive_matches));
      EXPECT_EQ(CanonicalKeys(shared.negative_matches),
                CanonicalKeys(got.negative_matches));
      matches += got.TotalMatches();
    }
  }
  EXPECT_GT(matches, 0u);  // the stream must exercise matching
}

// One latency per batch: ProcessBatch fills BatchReport::latency_seconds
// on the engine's declared clock, bit-equal to the clock's definition,
// through every wrapper layer; a Checkpointer's running total is
// exactly the sum of those values.
TEST(EngineLatencyTest, LatencyFollowsTheDeclaredClock) {
  LabeledGraph g = GenerateUniformGraph(150, 500, 3, 1, 95);
  const std::pair<const char*, ClockDomain> kCases[] = {
      {"gamma", ClockDomain::kModeledDevice},
      {"multi", ClockDomain::kModeledDevice},
      {"tf", ClockDomain::kHostWall},
      {"sharded(gamma, shards=2)", ClockDomain::kModeledDevice},
      {"sharded(tf, shards=2)", ClockDomain::kCriticalPath},
      {"tenant(gamma)", ClockDomain::kModeledDevice},
      {"replicated(gamma, followers=1)", ClockDomain::kModeledDevice},
  };
  for (size_t i = 0; i < std::size(kCases); ++i) {
    const auto& [spec, clock] = kCases[i];
    SCOPED_TRACE(spec);
    auto engine = MakeEngine(spec, g);
    const EngineInfo info = engine->Describe();
    ASSERT_EQ(info.clock, clock);
    engine->AddQuery(TriangleQuery());
    engine->AddQuery(PathQuery());

    // A replica group tees its own WAL; everything else gets one here.
    std::unique_ptr<persist::Checkpointer> cp;
    if (engine->replication_control() == nullptr) {
      cp = std::make_unique<persist::Checkpointer>(
          ::testing::TempDir() + "/latency_contract_" + std::to_string(i));
      cp->Begin(*engine, /*seed=*/0, /*scenario=*/"");
    }
    UpdateStreamGenerator gen(96);
    double sum = 0.0;
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      UpdateBatch batch = gen.MakeMixed(engine->host_graph(), 40, 2, 1, 0);
      BatchReport r = engine->ProcessBatch(batch);
      double want = r.host_wall_seconds;
      if (clock == ClockDomain::kModeledDevice) {
        want = std::max(static_cast<double>(r.update_stats.makespan_ticks +
                                            r.match_stats.makespan_ticks) *
                            info.tick_seconds,
                        r.preprocess_host_seconds);
        EXPECT_GT(r.update_stats.makespan_ticks, 0u);
      } else if (clock == ClockDomain::kCriticalPath) {
        want = r.critical_path_seconds;
        EXPECT_GT(want, 0.0);
      }
      EXPECT_EQ(r.latency_seconds, want);
      sum += r.latency_seconds;
      if (cp) cp->OnBatchApplied(*engine, batch, r);
    }
    if (cp) {
      cp->Finish();
      EXPECT_EQ(cp->totals().latency_seconds, sum);
    }
  }
}

// Queries registered/removed mid-stream: a query added after batch 1
// sees exactly what a fresh engine over the evolved graph sees.
TEST(EngineDynamicTest, AddQueryMidStream) {
  LabeledGraph g = GenerateUniformGraph(120, 400, 3, 1, 41);
  UpdateStreamGenerator gen(42);
  UpdateBatch batch1 = gen.MakeMixed(g, 25, 2, 1, 0);

  for (const char* name : {"gamma", "multi", "rf"}) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    engine->AddQuery(TriangleQuery());
    engine->ProcessBatch(batch1);

    // Register a second pattern against the evolved graph.
    QueryId late = engine->AddQuery(PathQuery());
    UpdateBatch batch2 =
        SanitizeBatch(engine->host_graph(),
                      gen.MakeMixed(engine->host_graph(), 25, 2, 1, 0));
    BatchReport got = engine->ProcessBatch(batch2);

    // host_graph() already includes batch2; rebuild the pre-batch state.
    LabeledGraph before = g;
    ApplyBatch(&before, SanitizeBatch(g, batch1));
    auto witness = MakeEngine(name, before);
    QueryId wq = witness->AddQuery(PathQuery());
    BatchReport want = witness->ProcessBatch(batch2);

    EXPECT_EQ(NetKeys(*got.Find(late)), NetKeys(*want.Find(wq)));
  }
}

TEST(EngineDynamicTest, RemoveQueryDropsItsResults) {
  LabeledGraph g = GenerateUniformGraph(120, 400, 3, 1, 43);
  UpdateStreamGenerator gen(44);
  UpdateBatch batch = gen.MakeMixed(g, 25, 2, 1, 0);

  for (const char* name : kAllEngines) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    QueryId keep = engine->AddQuery(TriangleQuery());
    QueryId drop = engine->AddQuery(PathQuery());
    ASSERT_TRUE(engine->RemoveQuery(drop));

    BatchReport report = engine->ProcessBatch(batch);
    EXPECT_EQ(report.queries.size(), 1u);
    EXPECT_NE(report.Find(keep), nullptr);
    EXPECT_EQ(report.Find(drop), nullptr);

    // The survivor's results equal a never-shared engine's.
    auto witness = MakeEngine(name, g);
    QueryId wq = witness->AddQuery(TriangleQuery());
    BatchReport want = witness->ProcessBatch(batch);
    EXPECT_EQ(NetKeys(*report.Find(keep)), NetKeys(*want.Find(wq)));

    // Removing the last query empties the engine but keeps it usable.
    ASSERT_TRUE(engine->RemoveQuery(keep));
    EXPECT_TRUE(engine->ProcessBatch(batch).queries.empty());
  }
}

// The unified truncation story: a tiny result cap reports Truncated()
// through the same flag set for both engine families.
TEST(EngineReportTest, TruncationIsUnified) {
  LabeledGraph g = GenerateUniformGraph(150, 600, 2, 1, 51);
  UpdateStreamGenerator gen(52);
  UpdateBatch batch = gen.MakeInsertions(g, 120, 0);

  EngineOptions tiny;
  tiny.gamma.result_cap = 1;
  tiny.csm_result_cap = 1;

  // A 2-label wedge so the 2-label graph actually produces matches.
  QueryGraph wedge({1, 0, 1});
  wedge.AddEdge(0, 1);
  wedge.AddEdge(1, 2);

  for (const char* name : {"gamma", "multi", "gf"}) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g, tiny);
    QueryId q = engine->AddQuery(wedge);
    BatchReport report = engine->ProcessBatch(batch);
    const QueryReport* qr = report.Find(q);
    ASSERT_NE(qr, nullptr);
    EXPECT_TRUE(qr->Truncated());
    EXPECT_TRUE(report.Truncated());
  }
}

TEST(EngineReportTest, EmptyEngineStillAdvancesGraph) {
  LabeledGraph g = GenerateUniformGraph(60, 150, 2, 1, 53);
  UpdateStreamGenerator gen(54);
  UpdateBatch batch = gen.MakeInsertions(g, 10, 0);
  for (const char* name : kAllEngines) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    BatchReport report = engine->ProcessBatch(batch);
    EXPECT_TRUE(report.queries.empty());
    EXPECT_EQ(report.TotalMatches(), 0u);
    EXPECT_EQ(engine->host_graph().NumEdges(), g.NumEdges() + 10);
  }
}

}  // namespace
}  // namespace bdsm
