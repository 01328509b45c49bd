// Signed per-query match digests: the benchmark's correctness check.
//
// Every match folds H(query, record) into its query's digest, added for
// a positive match and subtracted for a negative one (mod 2^64).  A
// batch's digest is therefore a function of its *net* delta: the raw
// sequential stream of a CSM engine, whose (+,-) flips cancel within a
// batch, digests to the same value as GAMMA's already-net output.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Digests of one batch, indexed by query id (ids are 0..n-1 in
/// registration order on every engine).
using BatchDigest = std::vector<uint64_t>;

/// Polarity-free hash of one embedding of one query.
inline uint64_t MatchHash(bdsm::QueryId query, const bdsm::MatchRecord& m) {
  uint64_t h = bdsm::SplitMix64(0x243f6a8885a308d3ull + query);
  for (uint8_t i = 0; i < m.n; ++i) h = bdsm::SplitMix64(h ^ m.m[i]);
  return h;
}

class DigestSink : public bdsm::ResultSink {
 public:
  explicit DigestSink(size_t num_queries) : sums_(num_queries, 0) {}

  void OnMatch(bdsm::QueryId query, const bdsm::MatchRecord& m) override {
    const uint64_t h = MatchHash(query, m);
    sums_[query] += m.positive ? h : 0 - h;
  }

  /// Returns the digest accumulated since the last call and restarts.
  BatchDigest Take() {
    BatchDigest out(sums_.size(), 0);
    out.swap(sums_);
    return out;
  }

 private:
  BatchDigest sums_;
};

}  // namespace perfbench
