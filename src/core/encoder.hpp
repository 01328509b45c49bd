/// \file encoder.hpp
/// Preprocessing: GSI-style K-bit vertex encoding and the candidate
/// table (paper §IV-B, Fig. 4).
///
/// Each vertex is a K-bit code: the first N bits one-hot encode the
/// vertex label over the labels *the query actually uses* (the paper's
/// refinement of GSI — absent labels get no bits), and the remaining 2N
/// bits hold a 2-bit *thermometer* counter of neighbors per used label
/// (0 -> 00, 1 -> 01, >=2 -> 11).  Thermometer encoding is what makes
/// the bitwise test sound: ENC(u) & ENC(v) == ENC(u) implies both the
/// label match and per-label neighbor-count dominance |N^l(v)| >= |N^l(u)|
/// (saturated at 2 — the paper's explicit space/filtering trade-off:
/// v0's encoding not changing after e(v0,v2) in Fig. 4 is this
/// saturation).
///
/// The candidate table is one 16-bit mask per data vertex: bit j set iff
/// the vertex is a candidate for query vertex u_j.  Batch updates only
/// re-encode the *dirty* vertices (update endpoints), mirroring the
/// incremental maintenance of "Encoding of dynamic graphs".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/labeled_graph.hpp"
#include "graph/query_graph.hpp"
#include "graph/update_stream.hpp"

namespace bdsm {

class CandidateEncoder {
 public:
  /// Binds the encoder to a query (fixes the used-label alphabet and the
  /// query-vertex codes).  Queries use at most kMaxQueryVertices labels,
  /// so a code always fits in one 64-bit word (N + 2N <= 48 bits).
  explicit CandidateEncoder(const QueryGraph& q);

  /// Encodes every data vertex and fills the candidate table.  O(|V| d).
  void BuildAll(const LabeledGraph& g);

  /// Re-encodes only `dirty` vertices (deduplicated internally) against
  /// the *current* state of g and refreshes their table rows.
  void UpdateDirty(const LabeledGraph& g, std::span<const VertexId> dirty);

  /// Convenience: dirty set of a batch = all endpoint vertices.
  void ApplyBatchDirty(const LabeledGraph& g, const UpdateBatch& batch);

  /// True iff data vertex v passed the filter for query vertex u.
  bool IsCandidate(VertexId v, VertexId u) const {
    return (table_[v] >> u) & 1u;
  }

  /// Label-only test (the relaxed filter the coalesced search uses
  /// during the V^k phase, where a position's full-query neighbor-count
  /// constraints may involve removed vertices and thus differ between
  /// the representative and its permutation siblings — see the paper's
  /// Remark in §V-B about V^k vertices "losing specific label
  /// constraints").
  bool HasSameLabel(VertexId v, VertexId u) const {
    uint64_t label_mask = (1ull << used_labels_.size()) - 1;
    return (codes_[v] & label_mask) == (qcodes_[u] & label_mask);
  }
  /// All query vertices v is a candidate for, as a bitmask.
  uint16_t CandidateMask(VertexId v) const { return table_[v]; }

  /// Number of candidates of query vertex u (linear scan; stats/tests).
  size_t CountCandidates(VertexId u) const;

  uint64_t VertexCode(VertexId v) const { return codes_[v]; }
  uint64_t QueryCode(VertexId u) const { return qcodes_[u]; }
  size_t CodeBits() const { return 3 * used_labels_.size(); }

 private:
  uint64_t EncodeDataVertex(const LabeledGraph& g, VertexId v) const;
  // Label -> index in used_labels_, or -1.
  int LabelIndex(Label l) const {
    return l < label_index_.size() ? label_index_[l] : -1;
  }
  uint16_t ComputeMask(uint64_t code) const;

  std::vector<Label> used_labels_;
  /// Dense label -> index in used_labels_ (-1 when unused), sized to the
  /// largest used label; larger labels are unused.
  std::vector<int8_t> label_index_;
  std::vector<uint64_t> qcodes_;   ///< per query vertex
  size_t num_query_vertices_ = 0;
  std::vector<uint64_t> codes_;    ///< per data vertex
  std::vector<uint16_t> table_;    ///< candidate table rows
};

/// Thermometer pattern for a neighbor count (exposed for tests).
inline uint64_t ThermometerBits2(size_t count) {
  if (count == 0) return 0b00;
  if (count == 1) return 0b01;
  return 0b11;
}

}  // namespace bdsm
