#include "core/encoder.hpp"

#include <algorithm>

namespace bdsm {

CandidateEncoder::CandidateEncoder(const QueryGraph& q)
    : used_labels_(q.UsedVertexLabels()),
      num_query_vertices_(q.NumVertices()) {
  GAMMA_CHECK_MSG(3 * used_labels_.size() <= 64, "code exceeds 64 bits");
  if (!used_labels_.empty()) {
    GAMMA_CHECK_MSG(used_labels_.back() < (1u << 24),
                    "vertex labels must be dense alphabet indices");
    label_index_.assign(used_labels_.back() + 1, -1);
  }
  for (size_t i = 0; i < used_labels_.size(); ++i) {
    label_index_[used_labels_[i]] = static_cast<int8_t>(i);
  }
  qcodes_.resize(q.NumVertices());
  const size_t n = used_labels_.size();
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    uint64_t code = 0;
    int li = LabelIndex(q.VertexLabel(u));
    GAMMA_CHECK(li >= 0);
    code |= 1ull << li;
    // Count query-neighbors per used label.
    for (size_t i = 0; i < n; ++i) {
      size_t cnt = 0;
      for (VertexId nb : q.NeighborsOf(u)) {
        if (q.VertexLabel(nb) == used_labels_[i]) ++cnt;
      }
      code |= ThermometerBits2(cnt) << (n + 2 * i);
    }
    qcodes_[u] = code;
  }
}

uint64_t CandidateEncoder::EncodeDataVertex(const LabeledGraph& g,
                                            VertexId v) const {
  int li = LabelIndex(g.VertexLabel(v));
  if (li < 0) return 0;  // label absent from the query: never a candidate
  const size_t n = used_labels_.size();
  uint64_t code = 1ull << li;
  // One pass over the adjacency collecting per-used-label counts.
  size_t counts[kMaxQueryVertices] = {};
  for (const Neighbor& nb : g.Neighbors(v)) {
    int ni = LabelIndex(g.VertexLabel(nb.v));
    if (ni >= 0 && counts[ni] < 2) ++counts[ni];
  }
  for (size_t i = 0; i < n; ++i) {
    code |= ThermometerBits2(counts[i]) << (n + 2 * i);
  }
  return code;
}

uint16_t CandidateEncoder::ComputeMask(uint64_t code) const {
  uint16_t mask = 0;
  for (VertexId u = 0; u < num_query_vertices_; ++u) {
    // The GSI test: v is a candidate of u iff ENC(u) AND ENC(v) == ENC(u).
    if ((qcodes_[u] & code) == qcodes_[u]) {
      mask |= static_cast<uint16_t>(1u << u);
    }
  }
  return mask;
}

void CandidateEncoder::BuildAll(const LabeledGraph& g) {
  codes_.resize(g.NumVertices());
  table_.resize(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    codes_[v] = EncodeDataVertex(g, v);
    table_[v] = ComputeMask(codes_[v]);
  }
}

void CandidateEncoder::UpdateDirty(const LabeledGraph& g,
                                   std::span<const VertexId> dirty) {
  for (VertexId v : dirty) {
    if (v >= codes_.size()) {  // vertex added after BuildAll
      codes_.resize(g.NumVertices(), 0);
      table_.resize(g.NumVertices(), 0);
    }
    uint64_t code = EncodeDataVertex(g, v);
    if (code != codes_[v]) {
      codes_[v] = code;
      table_[v] = ComputeMask(code);
    }
  }
}

void CandidateEncoder::ApplyBatchDirty(const LabeledGraph& g,
                                       const UpdateBatch& batch) {
  std::vector<VertexId> dirty;
  dirty.reserve(batch.size() * 2);
  for (const UpdateOp& op : batch) {
    dirty.push_back(op.u);
    dirty.push_back(op.v);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  UpdateDirty(g, dirty);
}

size_t CandidateEncoder::CountCandidates(VertexId u) const {
  size_t n = 0;
  for (uint16_t row : table_) n += (row >> u) & 1u;
  return n;
}

}  // namespace bdsm
