/// \file quickstart.cpp
/// GAMMA in ~40 lines: the paper's running example (Fig. 1), driven
/// through the unified Engine interface (core/engine.hpp).
///
/// Builds the data graph G, registers the query Q (an A-vertex with two
/// interconnected B-neighbors, one of which has a C-neighbor), applies
/// the batch {+(v0,v2), +(v1,v4), -(v4,v5)} and prints the incremental
/// matches — the four positive matches of the BDSM column of Fig. 1(c).
/// Swap "gamma" for any registry name ("multi", "tf", "sym", "rf",
/// "cl", "gf") and the same code runs a different system.
///
///   ./example_quickstart [engine]
#include <cstdio>
#include <optional>
#include <string>

#include "core/engine.hpp"

using namespace bdsm;

int main(int argc, char** argv) {
  const char* engine_name = argc > 1 ? argv[1] : "gamma";
  if (std::optional<std::string> err =
          EngineRegistry::Instance().Validate(engine_name)) {
    fprintf(stderr, "%s\n", err->c_str());
    return 2;
  }

  // Data graph G of Fig. 1(b).  Labels: A=0, B=1, C=2.
  LabeledGraph g({0, 0, 1, 1, 1, 1, 1, 2, 2, 2});
  for (auto [u, v] : {std::pair<VertexId, VertexId>{0, 3}, {0, 4}, {2, 3},
                      {2, 4}, {2, 7}, {3, 8}, {4, 8}, {1, 5}, {5, 6},
                      {5, 9}, {6, 9}, {4, 5}}) {
    g.InsertEdge(u, v);
  }

  // Query graph Q of Fig. 1(a).
  QueryGraph q({0, 1, 1, 2});  // u0=A, u1=B, u2=B, u3=C
  q.AddEdge(0, 1);
  q.AddEdge(0, 2);
  q.AddEdge(1, 2);
  q.AddEdge(1, 3);

  // The system: one registry call, one registered query.
  auto engine = MakeEngine(engine_name, g);
  QueryId qid = engine->AddQuery(q);
  printf("engine: %s\n", engine->Name());

  // The update batch of Example 1.
  UpdateBatch batch = {
      {true, 0, 2, kNoLabel},   // +(v0, v2)
      {true, 1, 4, kNoLabel},   // +(v1, v4)
      {false, 4, 5, kNoLabel},  // -(v4, v5)
  };
  BatchReport report = engine->ProcessBatch(batch);
  const QueryReport& res = *report.Find(qid);

  // Device engines emit the batch delta directly; the sequential CSM
  // baselines emit a raw per-edge stream whose (+,-) flips cancel —
  // either way NetDelta yields the BDSM delta of Fig. 1(c).
  std::vector<MatchRecord> delta = NetDelta(res);

  size_t positives = 0;
  for (const MatchRecord& m : delta) positives += m.positive;
  printf("positive matches: %zu\n", positives);
  for (const MatchRecord& m : delta) {
    if (!m.positive) continue;
    printf("  u0->v%u u1->v%u u2->v%u u3->v%u\n", m.m[0], m.m[1], m.m[2],
           m.m[3]);
  }
  printf("negative matches: %zu\n", delta.size() - positives);
  for (const MatchRecord& m : delta) {
    if (m.positive) continue;
    printf("  u0->v%u u1->v%u u2->v%u u3->v%u\n", m.m[0], m.m[1], m.m[2],
           m.m[3]);
  }
  const ClockDomain clock = engine->Describe().clock;
  printf("latency: %.3f us (%s)\n", report.latency_seconds * 1e6,
         ClockDomainName(clock));
  if (clock == ClockDomain::kModeledDevice) {
    printf("device: update %llu + match %llu ticks, utilization %.1f%%\n",
           static_cast<unsigned long long>(res.update_stats.makespan_ticks),
           static_cast<unsigned long long>(res.match_stats.makespan_ticks),
           100.0 * res.match_stats.Utilization());
  }
  return 0;
}
