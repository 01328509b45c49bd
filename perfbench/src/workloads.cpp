#include "workloads.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <tuple>

#include "util/common.hpp"
#include "util/rng.hpp"
#include "workload/stream_gen.hpp"

namespace perfbench {

using bdsm::workload::FindScenario;
using bdsm::workload::ScenarioSpec;

namespace {

ScenarioSpec Recipe(const char* base, size_t queries, size_t query_size,
                    size_t ops_per_batch) {
  const ScenarioSpec* found = FindScenario(base);
  if (found == nullptr) {
    std::cerr << "perfbench: catalog scenario '" << base << "' missing\n";
    std::exit(2);
  }
  ScenarioSpec s = *found;
  s.stream.num_batches = kBatchesPerStream;
  s.stream.ops_per_batch = ops_per_batch;
  s.num_queries = queries;
  s.query_size = query_size;
  s.mixed_classes = true;
  // Inserts and deletes balanced, so every stream ends with the edge
  // count within a quarter of where it started.
  s.stream.insert_fraction = 0.5;
  return s;
}

/// Order-sensitive 64-bit hash fold.
struct Fold {
  uint64_t h = 0x6a09e667f3bcc908ull;
  void Add(uint64_t x) { h = bdsm::SplitMix64(h ^ x) + 0x9e3779b97f4a7c15ull; }
};

uint64_t Fingerprint(const Inputs& in) {
  Fold f;
  const bdsm::LabeledGraph& g = in.graph;
  f.Add(g.NumVertices());
  for (bdsm::Label l : g.vertex_labels()) f.Add(l);
  std::vector<std::tuple<bdsm::VertexId, bdsm::VertexId, bdsm::Label>> edges;
  edges.reserve(g.NumEdges());
  for (bdsm::VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const bdsm::Neighbor& n : g.Neighbors(v)) {
      if (v < n.v) edges.emplace_back(v, n.v, n.elabel);
    }
  }
  std::sort(edges.begin(), edges.end());
  f.Add(edges.size());
  for (const auto& [u, v, l] : edges) {
    f.Add((uint64_t{u} << 32) | v);
    f.Add(l);
  }
  f.Add(in.queries.size());
  for (const bdsm::QueryGraph& q : in.queries) {
    f.Add(q.NumVertices());
    for (bdsm::Label l : q.vertex_labels()) f.Add(l);
    f.Add(q.NumEdges());
    for (const bdsm::QueryEdge& e : q.edges()) {
      f.Add((uint64_t{e.u1} << 32) | e.u2);
      f.Add(e.elabel);
    }
  }
  f.Add(in.streams.size());
  for (const std::vector<bdsm::UpdateBatch>& stream : in.streams) {
    f.Add(stream.size());
    for (const bdsm::UpdateBatch& b : stream) {
      f.Add(b.size());
      for (const bdsm::UpdateOp& op : b) {
        f.Add((uint64_t{op.u} << 32) | op.v);
        f.Add((uint64_t{op.elabel} << 1) | (op.is_insert ? 1u : 0u));
      }
    }
  }
  return f.h;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> v;
    v.push_back({"uniform-match", "gamma", Recipe("uniform", 4, 5, 200), 4});
    Workload churn{"churn-16q", "gamma", Recipe("churn", 16, 5, 200), 2};
    // 55% deletes: a delete majority whose edge count still stays
    // within a quarter over one pass.
    churn.scenario.stream.churn_insert_fraction = 0.45;
    v.push_back(churn);
    v.push_back({"durable-multishare",
                 "replicated(sharded(multi, shards=2), followers=1)",
                 Recipe("multishare", 12, 4, 150), 3});
    return v;
  }();
  return kAll;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  in.graph = bdsm::LoadDataset(w.scenario.dataset);
  in.queries =
      bdsm::workload::BuildQuerySet(in.graph, w.scenario, kQuerySetSeed);
  in.edges_start = in.graph.NumEdges();
  const uint64_t stream_seed =
      bdsm::DeriveSeed(seed, bdsm::workload::kSeedStreamGen);
  for (size_t k = 0; k < w.streams; ++k) {
    bdsm::workload::StreamGenerator gen(w.scenario.stream,
                                        bdsm::DeriveSeed(stream_seed, k));
    in.streams.push_back(gen.Generate(in.graph));
    bdsm::LabeledGraph replica = in.graph;
    for (size_t i = 0; i < in.streams[k].size(); ++i) {
      const bdsm::UpdateBatch& b = in.streams[k][i];
      if (bdsm::SanitizeBatch(replica, b).size() != b.size()) {
        std::cerr << "perfbench: " << w.name << " stream " << k << " batch "
                  << i << " is not sanitized; the generator changed\n";
        std::exit(2);
      }
      bdsm::ApplyBatch(&replica, b);
    }
    const size_t lo = std::min(replica.NumEdges(), in.edges_start);
    const size_t hi = std::max(replica.NumEdges(), in.edges_start);
    in.edges_drift = std::max(in.edges_drift, hi - lo);
  }
  in.fingerprint = Fingerprint(in);
  return in;
}

}  // namespace perfbench
