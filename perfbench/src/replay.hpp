// The traced run: replays one pass of a workload layer by layer,
// through the same public pieces the engine is built from, with a span
// around every call into a layer.
//
//   gamma       per query: Gpma + QueryContext + CandidateEncoder +
//               Device, driven in Gamma::ProcessBatch order, plus the
//               engine's canonical host graph.
//   replicated  the leader engine (timed as the serve layer) +
//               persist::Checkpointer + replica::Follower, in
//               ReplicatedEngine's order.
//
// The replay must reproduce the untraced run's per-batch device ticks
// and digests exactly; the caller checks that before trusting any
// per-layer number.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "digest.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One call into a layer.  Times are seconds from the replay's start;
/// `parent` indexes the enclosing span (-1 for a batch's root span).
struct Span {
  const char* name;
  double start;
  double end;
  int parent;
  uint32_t batch;  ///< shared by every span of one batch
};

struct ReplayResult {
  std::vector<uint64_t> device_ticks;  ///< per batch, as the engine's
  std::vector<BatchDigest> digests;
  std::vector<Span> spans;
  double loop_seconds = 0.0;
  /// Per-layer totals over the pass, keyed by metric name; main turns
  /// them into the reported per-batch means.
  std::map<std::string, double> totals;
};

/// Replays stream `stream` of `in` for workload `w`.
ReplayResult Replay(const Workload& w, const Inputs& in, size_t stream,
                    const std::string& work_dir);

/// Self time per span name: duration minus the time covered by direct
/// children, summed over spans, in seconds.  Root spans contribute
/// their self time as "other".  Returns false if a child is not nested
/// inside its parent or overlaps a sibling.
bool SelfTimes(const std::vector<Span>& spans,
               std::map<std::string, double>* self_seconds);

}  // namespace perfbench
