// The untraced closed loop: one caller drives one engine through
// Engine::ProcessBatch, sending the next batch only after the previous
// call returned, and times every call from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "digest.hpp"
#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// A directory under the benchmark's work dir, removed (with
/// everything in it) on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& work_dir);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// An engine built for one pass.  Declared after its shipping dir, so
/// the engine (and its open WAL) goes first.
struct EngineUnderTest {
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<bdsm::Engine> engine;
  double setup_seconds = 0.0;  ///< MakeEngine + every AddQuery
};

/// Engine options for every engine the benchmark builds: defaults,
/// except that replica shipping goes to `shipping_dir`.
bdsm::EngineOptions BenchEngineOptions(const std::string& shipping_dir);

EngineUnderTest SetUpEngine(const std::string& spec, const Inputs& in,
                            const std::string& work_dir);

struct PassResult {
  std::vector<double> batch_seconds;    ///< host wall per ProcessBatch
  std::vector<uint64_t> device_ticks;   ///< update + match makespan
  std::vector<BatchDigest> digests;
  size_t ops = 0;
  size_t failed_ops = 0;  ///< ops in batches that reported Truncated()
  double loop_seconds = 0.0;
  double setup_seconds = 0.0;
  /// Follower resyncs over the pass (replicated engines; 0 otherwise).
  uint64_t replica_resyncs = 0;
};

/// One pass: stream `stream` of `in` on a freshly set-up engine.
PassResult RunPass(const Workload& w, const Inputs& in, size_t stream,
                   const std::string& work_dir);

/// Digests of stream `stream` under the CSM reference engine (`tf`).
/// Exits nonzero if the reference itself truncates.
std::vector<BatchDigest> ReferenceDigests(const Workload& w,
                                          const Inputs& in, size_t stream,
                                          const std::string& work_dir);

/// Index of the first batch whose digest differs, or -1; `query`
/// receives the first differing query of that batch.
long FirstMismatch(const std::vector<BatchDigest>& got,
                   const std::vector<BatchDigest>& want, size_t* query);

/// Resident memory of engine set-up plus the first stream, in MiB: the
/// median over batches of the batch's peak RSS (`VmHWM`, reset through
/// `/proc/self/clear_refs`) minus the RSS just before set-up.  Runs,
/// untimed, in a forked child with a single malloc arena, so the figure
/// tracks the engine's memory rather than what per-thread arenas
/// retain.  Call it before this process starts any thread.
double MeasurePeakRss(const Workload& w, const Inputs& in,
                      const std::string& work_dir);

}  // namespace perfbench
