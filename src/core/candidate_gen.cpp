#include "core/candidate_gen.hpp"

#include <algorithm>
#include <span>

#include "gpusim/warp_ops.hpp"

namespace bdsm {

namespace {

/// Binary search for `w` in a sorted adjacency span.
bool FindInSpan(std::span<const Neighbor> adj, VertexId w, Label* elabel) {
  auto it = std::lower_bound(
      adj.begin(), adj.end(), w,
      [](const Neighbor& n, VertexId x) { return n.v < x; });
  if (it == adj.end() || it->v != w) return false;
  *elabel = it->elabel;
  return true;
}

}  // namespace

void GenerateCandidates(const WbmEnv& env, const SeedPlan& plan,
                        const std::array<VertexId, kMaxQueryVertices>& m,
                        uint32_t level, uint32_t seed_order, bool relaxed,
                        std::vector<Neighbor>* scratch,
                        std::vector<VertexId>* out, GenCandidatesCost* cost) {
  const QueryGraph& q = env.qctx->q;
  const CandidateEncoder& enc = *env.enc;
  const Gpma& graph = *env.graph;
  const LabeledGraph* mirror = env.mirror;
  VertexId uq = plan.order[level];
  struct MatchedNbr {
    VertexId data_v;
    Label elabel;
    std::span<const Neighbor> adj;  ///< mirror span (empty on fallback)
  };
  MatchedNbr nbrs[kMaxQueryVertices];
  size_t num_nbrs = 0;
  for (uint32_t i = 0; i < level; ++i) {
    VertexId qv = plan.order[i];
    if (q.HasEdge(qv, uq)) {
      const VertexId v = m[qv];
      nbrs[num_nbrs++] = MatchedNbr{
          v, q.EdgeLabelBetween(qv, uq),
          mirror ? mirror->Neighbors(v) : std::span<const Neighbor>{}};
    }
  }
  GAMMA_CHECK_MSG(num_nbrs > 0, "matching order must stay connected");

  out->clear();
  std::span<const Neighbor> first = nbrs[0].adj;
  if (!mirror) {
    graph.NeighborsInto(nbrs[0].data_v, scratch);
    first = *scratch;
  }
  cost->scan_words += 2 * first.size();
  cost->compute_ops += 2 * first.size();

  for (const Neighbor& nb : first) {
    VertexId w = nb.v;
    if (nb.elabel != nbrs[0].elabel) continue;
    // Relaxed (coalesced V^k) filter: w must be a candidate of at least
    // one position in uq's orbit; plain filter: candidate of uq itself.
    if (relaxed) {
      if (!enc.HasSameLabel(w, uq)) continue;
      if ((enc.CandidateMask(w) & plan.relaxed_masks[uq]) == 0) continue;
    } else if (!enc.IsCandidate(w, uq)) {
      continue;
    }
    // Injectivity against the assigned prefix.
    bool used = false;
    for (uint32_t i = 0; i < level && !used; ++i) {
      used = m[plan.order[i]] == w;
    }
    if (used) continue;
    // Adjacency (+ edge labels) to the remaining matched neighbors —
    // the paper's parallel binary search (WarpOps::IntersectOps prices
    // one probe against the GPMA's sorted adjacency).
    bool ok = true;
    for (size_t i = 1; i < num_nbrs && ok; ++i) {
      Label el;
      cost->probe_words += 2;
      cost->compute_ops +=
          WarpOps::IntersectOps(1, graph.segment_capacity());
      ok = (mirror ? FindInSpan(nbrs[i].adj, w, &el)
                   : graph.FindEdge(nbrs[i].data_v, w, &el)) &&
           el == nbrs[i].elabel;
    }
    if (!ok) continue;
    // Batch-dedup total-order rule.  An update edge (a, w) needs w to be
    // a seed endpoint, so other candidates skip the probe.
    const bool may_close_update =
        !env.seed_endpoints || env.seed_endpoints->Test(w);
    for (size_t i = 0; i < num_nbrs && ok && may_close_update; ++i) {
      auto it = env.update_order->find(Edge(nbrs[i].data_v, w));
      if (it != env.update_order->end() && it->second < seed_order) {
        ok = false;
      }
    }
    if (!ok) continue;
    out->push_back(w);
  }
}

}  // namespace bdsm
