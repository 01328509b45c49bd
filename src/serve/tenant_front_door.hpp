/// \file tenant_front_door.hpp
/// Multi-tenant front door: tenant namespaces, admission control, and
/// SLO-aware batch formation over any inner engine.
///
/// The serving subsystem's answer to *many users* (ShardedEngine
/// answers *many queries*): a TenantFrontDoor wraps one inner engine —
/// any registry spec, `tenant(sharded(gamma, shards=4))` composes —
/// and puts a control plane in front of its data plane:
///
///  * **Namespaces.**  Tenants register through
///    `TenantControl::RegisterTenant` and own their standing queries
///    (`AddTenantQuery`); public QueryIds remain the inner engine's
///    ids, the front door only keeps the ownership map, so the Engine
///    contract (QueryIds, reports, snapshots) is unchanged.  Plain
///    `AddQuery`/`ProcessBatch` traffic belongs to the built-in
///    default tenant (id 0).  Quotas: standing-query count
///    (`TenantPolicy::max_queries`) and a per-batch result budget.
///  * **Admission.**  Each tenant ingests into its own bounded queue
///    (`Ingest`); `PumpFormedBatch` fills the next batch class by
///    class (gold, silver, best_effort; round-robin inside a class),
///    spending per-tenant token buckets that refill per formed batch —
///    batch ticks, never wall time, so admission is a pure function of
///    (stream, policy).  Overload never blocks: queue overflow sheds,
///    a blown result budget degrades (the tenant's admission share is
///    clamped for the next `degrade_batches` batches), and every
///    decision is counted per tenant.  With `admission=off` the pump
///    drains all queues in global arrival order instead — the
///    noisy-neighbor baseline.
///  * **SLO batch formation.**  The pump's target batch size adapts
///    AIMD-style to the recent formed-batch latency tail, read under
///    the inner engine's declared clock (its
///    `BatchReport::latency_seconds` — modeled device seconds, critical
///    path, or host wall; never a wall-clock parallelism claim): halve when the window's max exceeds
///    `slo_seconds`, add `batch_ops_min` when it doesn't, clamped to
///    [batch_ops_min, batch_ops_max].
///  * **Accounting.**  Per-tenant offered/admitted/shed/degraded op
///    counts, per-batch service and queue-wait samples (the wait is
///    virtual-clock: the sum of formed-batch latencies stands in for
///    time, keeping p50/p95/p99 deterministic), and a Jain fairness
///    index over admitted/offered shares — surfaced by ScenarioRunner
///    and `bench_scenarios --json`.
///
/// Pass-through guarantee (tested): the direct `ProcessBatch` path
/// forwards the engine phases 1:1 to the inner engine; under the
/// default (fully permissive) policy the wrapped engine is
/// match-identical — vectors, counts, stats — to the bare inner
/// engine.  Only when the default tenant carries a token-bucket rate
/// does the flat path clamp (admit a prefix, shed the tail,
/// deterministically).  Batch *formation* applies only on the
/// Ingest/Pump path: coalescing changes batch boundaries, and batch
/// boundaries are semantics (incremental matches are per batch).
///
/// Threading: the front door adds no threads and, like every Engine,
/// is externally synchronized; drive it from one thread at a time.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"

namespace bdsm::serve {

class TenantFrontDoor final : public Engine, public TenantControl {
 public:
  /// Wraps an engine built from `inner` (any registry spec tree) over
  /// `g`.  `options.front_door` configures this layer; inline spec
  /// keys (tenant(..., slo=0.01)) arrive already applied onto it.
  /// Throws EngineSpecError when the inner spec does not resolve.
  TenantFrontDoor(const EngineSpec& inner, const LabeledGraph& g,
                  const EngineOptions& options = {});
  /// Convenience: parses `inner` ("gamma", "sharded(gamma)", ...).
  TenantFrontDoor(const std::string& inner, const LabeledGraph& g,
                  const EngineOptions& options = {});
  ~TenantFrontDoor() override;

  /// The canonical spec, e.g. "tenant(sharded(gamma, shards=4))".
  const char* Name() const override { return name_.c_str(); }
  /// Inner engine's capabilities + supports_tenancy; the clock is the
  /// inner engine's (this layer adds no concurrency).
  EngineInfo Describe() const override;

  /// Registers for the default tenant (id 0); subject to its quota.
  QueryId AddQuery(const QueryGraph& q) override;
  bool RemoveQuery(QueryId id) override;
  std::vector<QueryId> QueryIds() const override;

  /// Snapshots pass through to the inner engine.  Tenancy is runtime
  /// policy, not matched state: restored queries re-register under the
  /// default tenant (re-attach ownership via AddTenantQuery on a fresh
  /// front door when tenant-faithful restore matters).
  std::vector<RegisteredQuery> RegisteredQueries() const override;
  bool RestoreQuery(const QueryGraph& q, QueryId id) override;

  const LabeledGraph& host_graph() const override {
    return inner_->host_graph();
  }

  TenantControl* tenant_control() override { return this; }

  Engine& inner() { return *inner_; }

  // ----------------------------------------------- TenantControl
  TenantId RegisterTenant(const std::string& name,
                          const TenantPolicy& policy) override;
  size_t NumTenants() const override { return tenants_.size(); }
  QueryId AddTenantQuery(TenantId tenant, const QueryGraph& q) override;
  TenantId OwnerOf(QueryId id) const override;
  void Ingest(TenantId tenant, const UpdateBatch& ops) override;
  size_t PendingOps() const override;
  bool PumpFormedBatch(FormedBatchStats* out) override;
  size_t TargetBatchOps() const override { return target_ops_; }
  TenantSnapshot Snapshot(TenantId tenant) const override;
  double JainFairnessIndex() const override;

 protected:
  // Flat pass-through: each phase forwards to the inner engine (the
  // friend grant in core/engine.hpp), with the default tenant's
  // token bucket optionally clamping the batch at the negative phase
  // (the fixed first phase of every batch — see the phase contract).
  void RunMatchPhase(const UpdateBatch& batch, bool positive,
                     const BatchOptions& options,
                     BatchReport* report) override;
  void RunUpdatePhase(const UpdateBatch& batch, const BatchOptions& options,
                      BatchReport* report) override;

 private:
  struct Tenant {
    std::string name;
    TenantPolicy policy;
    TenantCounters counters;
    /// FIFO of pending ops with their global arrival sequence and the
    /// virtual-clock stamp taken at Ingest.
    struct QueuedOp {
      UpdateOp op;
      TenantId owner;
      uint64_t seq;
      double arrival_vclock;
    };
    std::deque<QueuedOp> queue;
    double tokens = 0.0;        ///< token bucket (rate > 0 only)
    size_t degrade_left = 0;    ///< formed batches still clamped
    size_t live_queries = 0;
    std::vector<double> service_seconds;
    std::vector<double> queue_wait_seconds;
  };

  size_t QueueLimit(const Tenant& t) const;
  /// Refills one bucket by its per-batch rate, capped at the burst
  /// (floor 1.0 so a fractional rate still eventually admits); batch
  /// ticks are the only refill trigger — the deterministic clock.
  static void RefillBucket(Tenant* t);
  /// Admission ON: fill up to `target` ops class by class, one op per
  /// tenant per round-robin visit, spending tokens and honoring
  /// degrade clamps.  Admission OFF: drain in global arrival order.
  /// Pops the chosen ops off the queues; `admitted_per_tenant` gets
  /// one count per tenant.  The returned ops are in arrival order.
  std::vector<Tenant::QueuedOp> SelectOps(
      size_t target, std::vector<size_t>* admitted_per_tenant);
  /// Publishes this tenant's registry-backed views (`tenant.<name>.*`
  /// gauges) straight from its TenantCounters — the same variables the
  /// per-tenant report rows read, so the two can never disagree.
  /// No-op unless observability is compiled in and runtime-enabled.
  void PublishTenantObs(const Tenant& t) const;
  /// One AIMD step on target_ops_ after observing `latency`.
  void AdaptTarget(double latency);

  std::unique_ptr<Engine> inner_;
  std::string name_;
  FrontDoorOptions fd_;
  ClockDomain inner_clock_ = ClockDomain::kHostWall;  ///< trace domain

  std::vector<Tenant> tenants_;                    ///< index == TenantId
  std::unordered_map<QueryId, TenantId> owner_of_;  ///< public id -> tenant

  uint64_t next_seq_ = 0;   ///< global arrival order across queues
  double vclock_ = 0.0;     ///< sum of formed-batch latencies
  uint64_t formed_batches_ = 0;  ///< batch tag for obs spans
  size_t target_ops_ = 0;   ///< current SLO target batch size
  std::deque<double> latency_window_;
  size_t rr_cursor_ = 0;    ///< round-robin start within a class

  // Flat-path per-batch state: the clamped batch chosen at the
  // negative phase, reused by the update and positive phases so all
  // three see identical ops.
  UpdateBatch flat_clamped_;
  bool flat_use_clamped_ = false;
};

/// Registers the "tenant" wrapper (called from RegisterServeEngines).
void RegisterTenantEngine(EngineRegistry* registry);

}  // namespace bdsm::serve
