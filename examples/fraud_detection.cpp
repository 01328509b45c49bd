/// \file fraud_detection.cpp
/// E-commerce fraud monitoring — one of the batch-dynamic applications
/// the paper's introduction motivates ("identifying patterns of
/// malicious activity" over graph databases "collected and updated in
/// batches").
///
/// Scenario: a transaction graph whose vertices are accounts (label 0),
/// merchants (label 1) and payment instruments (label 2).  A fraud desk
/// monitors several typologies at once and changes the set at runtime —
/// exactly what the unified Engine interface provides: one "multi"
/// engine (shared device graph, fused launches), one AddQuery per
/// typology, alerts streamed through a ResultSink into per-typology
/// MatchStores (no unbounded result vectors), RemoveQuery when a
/// typology is retired.
///
/// Typologies:
///  * "diamond": two accounts sharing a payment instrument and both
///    paying the same merchant (a 4-cycle through instrument+merchant).
///  * "fan": one instrument shared by two distinct accounts — a cheap
///    early-warning wedge, registered mid-stream to show runtime query
///    registration.
///
///   ./example_fraud_detection [num_batches]
#include <cstdio>
#include <cstdlib>
#include <map>

#include "baselines/enumerate.hpp"
#include "core/engine.hpp"
#include "core/match_store.hpp"
#include "graph/graph_generator.hpp"
#include "graph/update_stream.hpp"

using namespace bdsm;

namespace {

/// Accounts 60%, merchants 25%, instruments 15%.
LabeledGraph MakeTransactionGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Label> labels(n);
  for (size_t i = 0; i < n; ++i) {
    double x = rng.UniformReal();
    labels[i] = x < 0.6 ? 0 : (x < 0.85 ? 1 : 2);
  }
  LabeledGraph g(labels);
  // Transactions: account->merchant and account->instrument edges.
  size_t target_edges = n * 3;
  size_t attempts = 0;
  while (g.NumEdges() < target_edges && attempts++ < target_edges * 20) {
    VertexId a = static_cast<VertexId>(rng.Uniform(n));
    VertexId b = static_cast<VertexId>(rng.Uniform(n));
    if (g.VertexLabel(a) != 0 || g.VertexLabel(b) == 0) continue;
    g.InsertEdge(a, b);
  }
  return g;
}

/// Streams every incremental match into the per-typology alert view —
/// the postprocess hook of Fig. 3, with bounded memory.
class AlertSink final : public ResultSink {
 public:
  void OnMatch(QueryId query, const MatchRecord& m) override {
    stores_[query].ApplyDelta(m);
  }
  MatchStore& StoreFor(QueryId query) { return stores_[query]; }

 private:
  std::map<QueryId, MatchStore> stores_;
};

}  // namespace

int main(int argc, char** argv) {
  size_t num_batches = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 5;

  LabeledGraph g = MakeTransactionGraph(4000, 99);
  printf("transaction graph: %zu vertices, %zu edges\n", g.NumVertices(),
         g.NumEdges());

  // The collusion diamond: accounts u0, u2 both linked to merchant u1
  // and instrument u3.
  QueryGraph diamond({0, 1, 0, 2});
  diamond.AddEdge(0, 1);
  diamond.AddEdge(1, 2);
  diamond.AddEdge(2, 3);
  diamond.AddEdge(3, 0);

  // The sharing wedge: instrument u1 used by two distinct accounts
  // u0, u2 — a cheaper early-warning typology than the full diamond.
  QueryGraph fan({0, 2, 0});
  fan.AddEdge(0, 1);
  fan.AddEdge(1, 2);

  auto engine = MakeEngine("multi", g);
  const char* clock = ClockDomainName(engine->Describe().clock);
  QueryId q_diamond = engine->AddQuery(diamond);

  AlertSink alerts;
  BatchOptions batch_opts;
  batch_opts.sink = &alerts;
  batch_opts.materialize = false;  // alerts live in the store, not vectors

  // Initial sweep: alerts already present before the stream starts
  // (a one-off static matching; the engine maintains it incrementally).
  for (MatchRecord m : EnumerateAllMatches(g, diamond)) {
    m.positive = true;
    alerts.OnMatch(q_diamond, m);
  }
  printf("initial open diamond alerts: %zu\n",
         alerts.StoreFor(q_diamond).LiveCount());

  UpdateStreamGenerator stream(1234);
  QueryId q_fan = kInvalidQueryId;
  for (size_t b = 0; b < num_batches; ++b) {
    if (b == 2) {
      // The desk adds a typology mid-stream; the engine maintains it
      // from here on, so backfill its view with a one-off static sweep
      // of the current graph (same recipe as the diamond above).
      q_fan = engine->AddQuery(fan);
      for (MatchRecord m : EnumerateAllMatches(engine->host_graph(), fan)) {
        m.positive = true;
        alerts.OnMatch(q_fan, m);
      }
      printf("-- registered \"fan\" typology at batch %zu (now %zu live "
             "queries, %zu open alerts backfilled)\n",
             b + 1, engine->NumQueries(),
             alerts.StoreFor(q_fan).LiveCount());
    }
    // 90% new transactions, 10% charge-backs.
    UpdateBatch batch =
        SanitizeBatch(engine->host_graph(),
                      stream.MakeMixed(engine->host_graph(), 200, 9, 1, 0));
    BatchReport report = engine->ProcessBatch(batch, batch_opts);
    const QueryReport& d = *report.Find(q_diamond);
    printf("batch %zu: %3zu updates -> +%zu alerts, -%zu retractions "
           "(open: %zu) | %.1f us %s, util %.1f%%\n",
           b + 1, batch.size(), d.num_positive, d.num_negative,
           alerts.StoreFor(q_diamond).LiveCount(),
           report.latency_seconds * 1e6, clock,
           100.0 * report.match_stats.Utilization());
    if (q_fan != kInvalidQueryId) {
      const QueryReport* f = report.Find(q_fan);
      printf("         fan typology: +%zu / -%zu (open: %zu)\n",
             f->num_positive, f->num_negative,
             alerts.StoreFor(q_fan).LiveCount());
    }
  }

  // Retire the fan typology: later batches stop evaluating it.
  if (q_fan != kInvalidQueryId) {
    engine->RemoveQuery(q_fan);
    printf("-- retired \"fan\" typology (%zu live queries)\n",
           engine->NumQueries());
  }

  // Repeat offenders: accounts participating in several open alerts.
  const MatchStore& open = alerts.StoreFor(q_diamond);
  size_t repeat = 0;
  VertexId worst = kInvalidVertex;
  size_t worst_count = 0;
  for (VertexId v = 0; v < engine->host_graph().NumVertices(); ++v) {
    size_t n = open.ParticipationCount(v);
    if (engine->host_graph().VertexLabel(v) != 0) continue;  // accounts
    if (n >= 2) ++repeat;
    if (n > worst_count) {
      worst_count = n;
      worst = v;
    }
  }
  printf("repeat-offender accounts (>=2 open alerts): %zu", repeat);
  if (worst != kInvalidVertex && worst_count > 0) {
    printf("; most flagged: account %u with %zu alerts", worst,
           worst_count);
  }
  printf("\n");
  return 0;
}
