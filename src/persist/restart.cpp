#include "persist/restart.hpp"

#include <algorithm>
#include <sstream>

namespace bdsm::persist {

namespace {

/// First difference between cold batch `index` and the stitched run's
/// metric for the same stream batch; "" when equal.
std::string DiffBatch(size_t index, const workload::ScenarioBatchMetric& cold,
                      const workload::ScenarioBatchMetric& stitched) {
  std::ostringstream out;
  if (cold.ops != stitched.ops) {
    out << "ops " << cold.ops << " vs " << stitched.ops;
  } else if (cold.positive_matches != stitched.positive_matches) {
    out << "+matches " << cold.positive_matches << " vs "
        << stitched.positive_matches;
  } else if (cold.negative_matches != stitched.negative_matches) {
    out << "-matches " << cold.negative_matches << " vs "
        << stitched.negative_matches;
  } else if (cold.truncated_queries != stitched.truncated_queries) {
    out << "truncated " << cold.truncated_queries << " vs "
        << stitched.truncated_queries;
  } else {
    return "";
  }
  return "batch " + std::to_string(index) + " diverges: " + out.str();
}

}  // namespace

RestartOutcome RunRestartScenario(const workload::ScenarioSpec& spec,
                                  uint64_t seed,
                                  const std::string& engine_spec,
                                  size_t kill_after_batches,
                                  const std::string& checkpoint_dir,
                                  const EngineOptions& options,
                                  const CheckpointPolicy& policy) {
  RestartOutcome out;
  workload::ScenarioRunner runner(spec, seed);
  const size_t kill =
      std::min(kill_after_batches, runner.stream().size());

  // 1. The uninterrupted reference.
  out.cold = runner.Run(engine_spec, options);

  // 2. The run that "dies" after `kill` batches, checkpointing as it
  //    goes.  Checkpointer scope = process lifetime; leaving the scope
  //    is the kill (its WAL closes cleanly — the torn-write variant is
  //    exercised by tests/persist_test.cpp via file surgery).
  {
    Checkpointer checkpointer(checkpoint_dir, policy, WalOptions{},
                              options.gamma.device);
    workload::ScenarioRunner::RunControls controls;
    controls.max_batches = kill;
    controls.checkpointer = &checkpointer;
    out.prefix = runner.Run(engine_spec, options, controls);
  }

  // 3. Warm restore: snapshot + WAL tail.
  RestoredEngine restored = RestoreEngine(checkpoint_dir, options);
  out.restored_at = restored.next_batch;
  out.wal_batches_replayed = restored.wal_batches_replayed;
  out.wal_tail_torn = restored.wal_tail_torn;
  out.restored_totals = restored.totals;

  // 4. Finish the stream on the restored engine.
  {
    workload::ScenarioRunner::RunControls controls;
    controls.engine = restored.engine.get();
    controls.first_batch = static_cast<size_t>(restored.next_batch);
    out.tail = runner.Run(engine_spec, options, controls);
  }

  // 5. Verdict: the stitched per-batch counts must equal the cold
  //    run's, batch for batch (timing fields are excluded by
  //    construction — only counts are compared).
  out.identical = true;
  if (out.prefix.batches.size() + out.tail.batches.size() !=
      out.cold.batches.size()) {
    out.identical = false;
    out.detail = "batch count mismatch: cold ran " +
                 std::to_string(out.cold.batches.size()) +
                 ", prefix+tail ran " +
                 std::to_string(out.prefix.batches.size() +
                                out.tail.batches.size());
  }
  for (size_t i = 0; out.identical && i < out.cold.batches.size(); ++i) {
    const workload::ScenarioBatchMetric& stitched =
        i < out.prefix.batches.size()
            ? out.prefix.batches[i]
            : out.tail.batches[i - out.prefix.batches.size()];
    std::string diff = DiffBatch(i, out.cold.batches[i], stitched);
    if (!diff.empty()) {
      out.identical = false;
      out.detail = std::move(diff);
    }
  }
  if (out.identical) {
    out.detail = "restore at batch " + std::to_string(out.restored_at) +
                 " (" + std::to_string(out.wal_batches_replayed) +
                 " WAL batches replayed): all " +
                 std::to_string(out.cold.batches.size()) +
                 " batches match the cold run";
  }
  return out;
}

}  // namespace bdsm::persist
