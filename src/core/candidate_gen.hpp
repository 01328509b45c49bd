/// \file candidate_gen.hpp
/// GenCandidates (Algorithm 1, lines 23-29) shared by the DFS (WBM) and
/// BFS kernels: candidates for the query vertex at `level` of a plan's
/// matching order, given the partial assignment `m`.
///
/// Adjacency is read from the launch's host mirror (`WbmEnv::mirror`):
/// the first matched neighbor's sorted span is scanned in place and the
/// others are binary-searched.  The GPMA stays the modeled store: the
/// charges below are computed from neighbor counts and its segment
/// capacity, so they do not depend on which copy is read.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/wbm_kernel.hpp"

namespace bdsm {

/// Cost counters the caller converts into device charges.
struct GenCandidatesCost {
  uint64_t scan_words = 0;   ///< coalesced adjacency words read
  uint64_t probe_words = 0;  ///< divergent binary-search words
  uint64_t compute_ops = 0;
};

/// Fills `out` with the data-vertex candidates of plan.order[level].
/// `relaxed` applies the label-only filter of the coalesced V^k phase.
/// `seed_order` drives the batch-dedup rule via `env.update_order`.
/// `scratch` holds the GPMA adjacency copy when `env.mirror` is null.
void GenerateCandidates(const WbmEnv& env, const SeedPlan& plan,
                        const std::array<VertexId, kMaxQueryVertices>& m,
                        uint32_t level, uint32_t seed_order, bool relaxed,
                        std::vector<Neighbor>* scratch,
                        std::vector<VertexId>* out, GenCandidatesCost* cost);

}  // namespace bdsm
