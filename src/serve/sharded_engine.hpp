/// \file sharded_engine.hpp
/// Sharded concurrent serving: one Engine facade over N inner engines.
///
/// The serving subsystem's answer to heavy multi-query traffic: a
/// ShardedEngine partitions its registered queries across N inner
/// engine instances ("shards"), each built through the EngineRegistry —
/// any registry name can back a shard ("gamma", "multi", a CSM
/// baseline).  Every batch's processing phases run across all shards
/// concurrently on a persistent ThreadPool, and the per-shard
/// BatchReports are merged, in fixed shard order, into one report with
/// stable engine-scoped QueryIds — so callers see exactly the Engine
/// contract they already know, at shard-parallel wall-clock cost.
///
/// Correctness model (tested in serve_test.cpp):
///  * Every shard owns a full replica of the evolving host graph; each
///    batch's update phase advances all replicas identically, so any
///    shard can answer host_graph() and late AddQuery calls see the
///    same evolved state an unsharded engine would show.
///  * For inner engines that process queries independently ("gamma" and
///    the five CSM baselines), the merged report is bit-identical to
///    the unsharded engine's: per-query match vectors (order included),
///    counts, truncation flags, and deterministic device stats, plus
///    the aggregate device stats (DeviceStats accumulation is
///    commutative, so shard-order merging equals query-order merging).
///  * For "multi", which fuses all of a shard's queries into shared
///    kernel launches, each query's match multiset, counts and
///    truncation flags are still identical to the unsharded engine's,
///    but the emission order within a query's vectors and the
///    launch-level DeviceStats legitimately differ: N shards means N
///    smaller fused launches with their own (deterministic) schedules
///    instead of one — that decomposition is the point of sharding.
///    The merged report's aggregates are the sum over the launches
///    that actually ran.
///  * Output is independent of the pool size: workers only fill
///    per-shard scratch reports; all merging happens on the driving
///    thread in shard-index order after a barrier.
///
/// Streaming (`BatchOptions::sink`) works under sharding: each shard
/// streams through a FanInSink::Lane (result_fanin.hpp) that remaps the
/// shard-local QueryIds to public ids and serializes delivery.
/// Per-query emission order is preserved; cross-shard interleaving is
/// scheduling-dependent.
///
/// Async front door: `SubmitBatch` enqueues a batch on a *bounded*
/// ingest queue and returns a `std::future<BatchReport>`; a dedicated
/// dispatcher thread processes queued batches strictly in submission
/// order (the graph evolves, so batches cannot be reordered).  When the
/// queue is full, SubmitBatch blocks — back-pressure is explicit — and
/// `TrySubmitBatch` refuses instead, for callers that would rather shed
/// load.  Mixing SubmitBatch with direct ProcessBatch/AddQuery/
/// RemoveQuery calls requires external synchronization: drain pending
/// futures first (the engine itself is not a concurrency barrier for
/// its mutating API, same as every other Engine).
///
/// Construction: directly, or through the registry's structured spec
/// grammar — `MakeEngine("sharded(gamma, shards=8)", g)` builds 8
/// gamma shards; the shard count defaults to
/// ShardedEngine::kDefaultShards when `shards=` is omitted.  The inner
/// spec is arbitrary — option overrides and nested wrappers compose,
/// e.g. `sharded(gamma(result_cap=100000), shards=4, threads=2)`.
/// Inline keys `threads=` / `queue=` (or EngineOptions::serve_threads /
/// serve_queue_capacity) tune the pool and the ingest bound.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "serve/result_fanin.hpp"
#include "serve/thread_pool.hpp"

namespace bdsm::serve {

class ShardedEngine final : public Engine {
 public:
  /// Shard count used when a sharded spec omits `shards=N`.
  static constexpr size_t kDefaultShards = 4;

  /// Builds `num_shards` instances of the inner engine spec, all over
  /// the same initial graph.  `inner` may be any registry spec tree
  /// (option overrides and nested wrappers included).  `options`
  /// configures the inner engines and, via serve_threads /
  /// serve_queue_capacity, this layer.  Throws EngineSpecError when
  /// the inner spec does not resolve.
  ShardedEngine(const EngineSpec& inner, size_t num_shards,
                const LabeledGraph& g, const EngineOptions& options = {});
  /// Convenience: parses `inner` ("gamma", "gamma(result_cap=5)", ...).
  ShardedEngine(const std::string& inner, size_t num_shards,
                const LabeledGraph& g, const EngineOptions& options = {});
  /// Drains the ingest queue (every accepted batch is processed and its
  /// future fulfilled), then stops the dispatcher and the pool.
  ~ShardedEngine() override;

  /// The canonical spec, e.g. "sharded(gamma, shards=4)".
  const char* Name() const override { return name_.c_str(); }

  /// Capabilities: the inner engine's clock (modeled device stays
  /// modeled; CPU inner engines switch to the critical-path clock,
  /// since phases run shard-concurrently), this layer's shard count,
  /// and the inner engine's canonical spec.
  EngineInfo Describe() const override;

  /// Assigns the query to a shard round-robin by public id — a
  /// deterministic placement, so a given add/remove sequence always
  /// produces the same sharding.
  QueryId AddQuery(const QueryGraph& q) override;
  bool RemoveQuery(QueryId id) override;
  std::vector<QueryId> QueryIds() const override;

  /// Snapshot capture/restore (persist/): the public query set is the
  /// unit of persistence — shard placement is a pure function of the
  /// public id (round-robin), so restoring queries under their original
  /// ids reproduces the exact sharding.
  std::vector<RegisteredQuery> RegisteredQueries() const override;
  bool RestoreQuery(const QueryGraph& q, QueryId id) override;

  /// All shard replicas are identical; this returns shard 0's.
  const LabeledGraph& host_graph() const override {
    return shards_.front().engine->host_graph();
  }

  size_t NumShards() const { return shards_.size(); }

  // -------------------------------------------------- serving stats
  // The repo's measurement convention (README, docs/BENCHMARKS.md):
  // on a host with fewer cores than shards, measured wall-clock cannot
  // show the concurrency, so the engine also tracks the *critical
  // path* — each phase is a barrier costing max-over-shards, so the
  // accumulated critical path is the wall-clock a host with
  // >= NumShards() free cores achieves.  Shard costs are measured in
  // thread-CPU seconds (util/timer.hpp ThreadCpuSeconds), which stay
  // truthful when worker threads outnumber cores.

  /// Cumulative per-shard thread-CPU seconds across all processed
  /// batches (the shard worker's own compute; inner engines that spawn
  /// helper threads are charged only for work done on the worker).
  const std::vector<double>& ShardBusySeconds() const {
    return shard_busy_seconds_;
  }
  /// Cumulative critical-path seconds: sum over every processed
  /// phase of the slowest shard's time in that phase.
  double CriticalPathSeconds() const { return critical_path_seconds_; }
  void ResetServingStats();
  /// Shard index owning a live public query id (kInvalidShard if the
  /// id is unknown).
  static constexpr size_t kInvalidShard = static_cast<size_t>(-1);
  size_t ShardOf(QueryId id) const;

  // ------------------------------------------------- async front door

  /// Enqueues one batch; the returned future resolves to the same
  /// BatchReport a direct ProcessBatch call would produce.  Blocks
  /// while the ingest queue is at capacity (explicit back-pressure).
  /// The sink in `options`, if any, must outlive the future's
  /// resolution.
  std::future<BatchReport> SubmitBatch(UpdateBatch batch,
                                       BatchOptions options = {});

  /// Non-blocking SubmitBatch: returns nullopt instead of waiting when
  /// the queue is full (load shedding).
  std::optional<std::future<BatchReport>> TrySubmitBatch(
      UpdateBatch batch, BatchOptions options = {});

  /// Batches accepted but not yet picked up by the dispatcher (an
  /// in-flight batch no longer counts).
  size_t PendingBatches() const;
  size_t QueueCapacity() const { return queue_capacity_; }

  /// True once a batch failed mid-flight on any drive path (direct
  /// ProcessBatch or SubmitBatch).  A failure may
  /// leave the batch applied to some shard replicas and not others, so
  /// the engine poisons itself: every later batch — pending futures
  /// and direct calls alike — fails with the poison error instead of
  /// merging silently inconsistent results.  Rebuild the engine to
  /// recover.
  bool Poisoned() const { return poisoned_.load(std::memory_order_relaxed); }

 protected:
  // Engine phase fan-out: each phase runs on every shard concurrently,
  // then the per-shard scratch reports are merged in shard-index order.
  void RunMatchPhase(const UpdateBatch& batch, bool positive,
                     const BatchOptions& options,
                     BatchReport* report) override;
  void RunUpdatePhase(const UpdateBatch& batch, const BatchOptions& options,
                      BatchReport* report) override;

 private:
  struct Shard {
    std::unique_ptr<Engine> engine;
    /// Accumulates this shard's phases of the current batch.
    BatchReport scratch;
    /// This shard's entry into the streaming fan-in.
    std::unique_ptr<FanInSink::Lane> lane;
    /// Shard-local QueryId -> public QueryId (drives the lane remap).
    std::unordered_map<QueryId, QueryId> to_public;
  };
  /// One registered query, in registration order.
  struct SlotRef {
    QueryId public_id;
    size_t shard;
    QueryId inner_id;
  };
  struct PendingBatch {
    UpdateBatch batch;
    BatchOptions options;
    std::promise<BatchReport> promise;
    /// Ingest observability (BatchReport::queue_wait_seconds /
    /// queue_depth): when the batch entered the queue, and how many
    /// accepted batches sat ahead of it.  Host wall time is honest
    /// here — the queue wait is real dispatcher lag, not a modeled
    /// parallelism claim.
    std::chrono::steady_clock::time_point enqueued;
    size_t depth_at_submit = 0;
  };

  /// Resets per-shard scratch and points the fan-in at this batch's
  /// sink; called when the first phase of a batch starts.
  void BeginBatch(const BatchOptions& options);
  /// Runs one phase body on every shard via the pool, streaming through
  /// the shard's lane, then merges scratch into `report`.  Returns the
  /// phase's critical path (the slowest shard's thread-CPU seconds).
  /// `phase_name` tags the per-shard observability spans
  /// (docs/OBSERVABILITY.md): "match-", "update" or "match+".
  double ForEachShard(const BatchOptions& options, const char* phase_name,
                      const std::function<void(Shard&, const BatchOptions&)>&
                          phase_body);
  /// Copies per-query state from shard scratch into the public report
  /// (slots in registration order) and rebuilds the aggregates.
  void MergeIntoReport(const BatchOptions& options, BatchReport* report);
  void DispatchLoop();

  std::string name_;
  std::vector<Shard> shards_;
  std::vector<SlotRef> slots_;
  QueryId next_id_ = 0;

  std::vector<double> shard_busy_seconds_;
  double critical_path_seconds_ = 0.0;
  /// Critical-path span cursor for per-shard phase spans: advances by
  /// each phase's slowest shard, so shard spans tile the same timeline
  /// the engine-level critical-path spans do (obs layer; only advanced
  /// while tracing is enabled).
  double obs_shard_cursor_ = 0.0;

  FanInSink fanin_;
  ThreadPool pool_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_ready_;  ///< batch available / stopping
  std::condition_variable queue_space_;  ///< below capacity again
  std::deque<PendingBatch> queue_;
  size_t queue_capacity_;
  bool stopping_ = false;
  std::atomic<bool> poisoned_{false};
  std::thread dispatcher_;
};

/// Hook called by the EngineRegistry constructor so the "sharded"
/// serving wrapper is always available, whichever translation unit
/// first touches the registry.  (Self-registration from a static
/// initializer would be dead-stripped out of the static library when
/// no serve/ symbol is referenced directly.)
void RegisterServeEngines(EngineRegistry* registry);

}  // namespace bdsm::serve
