// The benchmark's workloads and the inputs they generate from a seed.
//
// Every input — initial graph, query set, update stream — is built
// here, before any timing starts, through the library's own workload
// layer (LoadDataset, workload::BuildQuerySet, workload::StreamGenerator).
// The engine under test only ever receives finished batches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/labeled_graph.hpp"
#include "graph/query_graph.hpp"
#include "graph/update_stream.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

/// Batches in one stream; one pass runs one stream on a fresh engine.
/// Every run times at least one full round of passes, so batch_p95_ms
/// always has >= 10 samples beyond it.
inline constexpr size_t kBatchesPerStream = 100;

/// The query set is part of a workload's definition, extracted at this
/// fixed seed; `--seed` varies the update stream.  Query sets drawn at
/// different seeds differ in cost by several times, which would bury
/// any change a later commit makes under the choice of queries.
inline constexpr uint64_t kQuerySetSeed = 2024;

struct Workload {
  std::string name;
  std::string engine;  ///< engine spec under test
  bdsm::workload::ScenarioSpec scenario;  ///< dataset, stream and query recipe
  /// Independent streams per round.  Device makespans are exact per
  /// seed but vary from stream to stream; more distinct batches keep
  /// their percentiles steady across seeds.
  size_t streams = 1;
};

/// The workloads, in BENCHMARK.json order; README.md says what
/// each one stresses and why it was chosen.
const std::vector<Workload>& Workloads();
/// nullptr when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);

struct Inputs {
  bdsm::LabeledGraph graph;
  std::vector<bdsm::QueryGraph> queries;
  /// Workload::streams streams of kBatchesPerStream batches, each
  /// starting from `graph`.
  std::vector<std::vector<bdsm::UpdateBatch>> streams;
  size_t edges_start = 0;
  /// Largest |edges after a whole stream - edges_start| over streams.
  size_t edges_drift = 0;
  /// Order-sensitive hash of graph, queries and stream.
  uint64_t fingerprint = 0;
};

/// Deterministic in (workload, seed); `seed` drives the streams.  Aborts if the generator hands
/// out a batch that is not already sanitized against the evolving
/// graph (the engine would then digest fewer ops than were sent).
Inputs MakeInputs(const Workload& w, uint64_t seed);

}  // namespace perfbench
