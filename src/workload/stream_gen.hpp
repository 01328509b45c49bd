/// \file stream_gen.hpp
/// Seeded dynamic-graph stream generators (the workload layer's answer
/// to "handle as many scenarios as you can imagine").
///
/// Each generator synthesizes a whole update stream — a sequence of
/// `UpdateBatch`es in the exact format Engine::ProcessBatch already
/// consumes — against a private evolving replica of the data graph, so
/// every batch is *valid by construction*: given the initial graph and
/// the preceding batches applied in order, every op takes effect
/// (inserts hit absent edges, deletes hit present ones).  That
/// replayability is what makes a generated stream a reusable artifact
/// (see workload/trace.hpp) and lets differential tests drive two
/// engines over the identical stream.
///
/// All randomness flows through util/rng.hpp from one explicit seed;
/// the same (graph, StreamSpec, seed) triple always yields the
/// byte-identical stream.  Generator catalog and parameter semantics
/// are documented in docs/WORKLOADS.md.
#pragma once

#include <string>
#include <vector>

#include "graph/labeled_graph.hpp"
#include "graph/update_stream.hpp"
#include "util/rng.hpp"

namespace bdsm::workload {

/// The generator families (docs/WORKLOADS.md has the catalog):
enum class StreamKind {
  kUniform,   ///< endpoints uniform over V, mixed insert/delete
  kPowerLaw,  ///< Chung-Lu style: endpoints ~ Zipf(skew) over a seeded
              ///< vertex permutation (degree-skewed growth)
  kTemporal,  ///< sliding window: fresh inserts each batch, edges expire
              ///< (are deleted) `window_batches` batches after insertion
  kBurst,     ///< flash crowd: every `burst_period`-th batch is
              ///< `burst_factor` x larger and concentrates on a small
              ///< per-burst crowd vertex set
  kChurn,     ///< deletion-heavy turnover (inserts a minority share)
  kHotspot,   ///< a fixed small hot vertex set attracts most endpoints
};

/// "uniform" | "powerlaw" | "temporal" | "burst" | "churn" | "hotspot".
const char* StreamKindName(StreamKind kind);
/// Inverse of StreamKindName; false when `name` is unknown.
bool StreamKindFromName(const std::string& name, StreamKind* out);
/// All kinds, catalog order.
const std::vector<StreamKind>& AllStreamKinds();

/// Shape of one generated stream.  Per-kind fields are ignored by the
/// kinds that do not use them.
struct StreamSpec {
  StreamKind kind = StreamKind::kUniform;
  size_t num_batches = 8;
  /// Base op count per batch (kTemporal: inserts per batch, expiry
  /// deletions ride on top; kBurst: off-peak size).
  size_t ops_per_batch = 200;
  /// Fraction of ops that are insertions for the mixed kinds
  /// (kUniform/kPowerLaw/kBurst/kHotspot default, kChurn overrides).
  double insert_fraction = 0.65;
  /// Edge-label alphabet for inserted edges (0 = unlabeled).
  size_t elabels = 0;

  // --- kPowerLaw ---
  double skew = 1.1;  ///< Zipf exponent over the vertex permutation

  // --- kTemporal ---
  size_t window_batches = 3;  ///< lifetime of an inserted edge

  // --- kBurst ---
  double burst_factor = 6.0;  ///< burst batch size multiplier
  size_t burst_period = 4;    ///< every Nth batch is a burst
  double crowd_fraction = 0.02;  ///< |crowd| / |V| per burst

  // --- kChurn ---
  double churn_insert_fraction = 0.35;  ///< inserts share under churn

  // --- kHotspot ---
  double hotspot_fraction = 0.01;  ///< |hot| / |V| (>= 2 vertices)
  double hotspot_prob = 0.8;       ///< P(endpoint drawn from hot set)
};

/// Synthesizes one stream.  Stateless between Generate calls except for
/// the RNG, so construct one generator per stream for reproducibility.
class StreamGenerator {
 public:
  StreamGenerator(const StreamSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed) {}

  /// Generates spec.num_batches batches against an evolving private
  /// copy of `g` (the caller's graph is untouched).  Every returned
  /// batch is sanitized and effective in sequence (see file comment).
  std::vector<UpdateBatch> Generate(const LabeledGraph& g);

 private:
  // Samples `count` insertions with endpoints drawn by `pick` (both
  // endpoints), avoiding existing and already-sampled edges.
  template <typename PickFn>
  UpdateBatch SampleInsertions(const LabeledGraph& g, size_t count,
                               PickFn&& pick);
  // Uniformly samples `count` existing edges as deletions (labels
  // recorded so traces can be reverted).
  UpdateBatch SampleDeletions(const LabeledGraph& g, size_t count);

  StreamSpec spec_;
  Rng rng_;
};

}  // namespace bdsm::workload
