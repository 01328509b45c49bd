/// \file network_motifs.cpp
/// Cellular-network monitoring — the paper cites CellIQ-style analytics
/// as a batch-dynamic consumer; here a congestion motif is tracked over
/// a stream of link updates by GAMMA *and* a sequential CSM baseline,
/// both driven by the exact same Engine loop (the engine name is the
/// only difference), showing the batch-amortization the paper argues
/// for.
///
/// Vertices: cell towers (label 0), aggregation switches (label 1) and
/// gateways (label 2); edges carry a load-class label (0 = normal,
/// 1 = hot).  The motif: a tower connected by *hot* links to two
/// switches that both uplink to the same gateway — an early congestion
/// signature.
///
///   ./example_network_motifs [num_batches] [baseline-engine]
#include <cstdio>
#include <cstdlib>

#include "core/engine.hpp"
#include "graph/graph_generator.hpp"
#include "graph/update_stream.hpp"

using namespace bdsm;

namespace {

LabeledGraph MakeTopology(size_t towers, size_t switches, size_t gateways,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Label> labels;
  for (size_t i = 0; i < towers; ++i) labels.push_back(0);
  for (size_t i = 0; i < switches; ++i) labels.push_back(1);
  for (size_t i = 0; i < gateways; ++i) labels.push_back(2);
  LabeledGraph g(labels);
  auto rand_in = [&](size_t base, size_t count) {
    return static_cast<VertexId>(base + rng.Uniform(count));
  };
  // Every tower homed to ~3 switches, every switch to ~2 gateways.
  for (size_t t = 0; t < towers; ++t) {
    for (int i = 0; i < 3; ++i) {
      g.InsertEdge(static_cast<VertexId>(t), rand_in(towers, switches),
                   rng.Chance(0.2) ? 1 : 0);
    }
  }
  for (size_t s = 0; s < switches; ++s) {
    for (int i = 0; i < 2; ++i) {
      g.InsertEdge(static_cast<VertexId>(towers + s),
                   rand_in(towers + switches, gateways), 0);
    }
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_batches = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;
  const char* baseline = argc > 2 ? argv[2] : "rf";

  LabeledGraph g = MakeTopology(2500, 400, 40, 7);
  printf("topology: %zu vertices, %zu edges\n", g.NumVertices(),
         g.NumEdges());

  // Congestion motif: tower u0 -hot-> switches u1, u2; both uplink to
  // gateway u3 (uplink label 0).
  QueryGraph motif({0, 1, 1, 2});
  motif.AddEdge(0, 1, 1);
  motif.AddEdge(0, 2, 1);
  motif.AddEdge(1, 3, 0);
  motif.AddEdge(2, 3, 0);

  // Two engines, one interface: the GPU system and a sequential CSM
  // baseline, both registered with the same motif and fed the same
  // batches.
  auto gamma = MakeEngine("gamma", g);
  auto csm = MakeEngine(baseline, g);
  const ClockDomain gamma_clock = gamma->Describe().clock;
  const ClockDomain csm_clock = csm->Describe().clock;
  QueryId gq = gamma->AddQuery(motif);
  QueryId cq = csm->AddQuery(motif);

  UpdateStreamGenerator stream(55);
  for (size_t b = 0; b < num_batches; ++b) {
    UpdateBatch batch = SanitizeBatch(
        gamma->host_graph(),
        stream.MakeMixed(gamma->host_graph(), 300, 2, 1, /*elabels=*/2));

    BatchReport gr = gamma->ProcessBatch(batch);
    BatchReport cr = csm->ProcessBatch(batch);
    const QueryReport& gres = *gr.Find(gq);
    const QueryReport& cres = *cr.Find(cq);
    size_t csm_net = NetDelta(cres).size();

    printf("batch %zu (%3zu ops): GAMMA +%zu/-%zu motifs, %.1f us %s"
           " | %s (sequential CSM) net %zu in %.1f us %s\n",
           b + 1, batch.size(), gres.num_positive, gres.num_negative,
           gr.latency_seconds * 1e6, ClockDomainName(gamma_clock),
           csm->Name(), csm_net, cr.latency_seconds * 1e6,
           ClockDomainName(csm_clock));
  }
  printf("\nGAMMA processes the batch as one parallel kernel; the CSM "
         "baseline re-searches per edge — the gap grows with batch "
         "size (paper Fig. 9).\n");
  return 0;
}
