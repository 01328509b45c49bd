/// \file tenant.hpp
/// Multi-tenant serving vocabulary: tenants, priority classes,
/// admission policies, and the TenantControl capability interface.
///
/// "Millions of users" means the unit of tenancy is a user owning a
/// handful of standing queries, not a flat query set.  This header
/// defines the control-plane types the tenant front door
/// (serve/tenant_front_door.hpp) implements and that drivers
/// (ScenarioRunner, bench_scenarios, example_cli) consume:
///
///  * `TenantPolicy` — one tenant's contract: priority class,
///    token-bucket rate limit, standing-query quota, per-batch result
///    budget, and pending-op queue bound.
///  * `FrontDoorOptions` — the front door's own knobs: the admission
///    master switch, the SLO target the batch-formation controller
///    tracks, and the target-batch-size bounds.
///  * `TenantControl` — the capability interface an Engine exposes via
///    `Engine::tenant_control()` when `Describe().supports_tenancy` is
///    true.  Consumers reach tenancy through this interface the same
///    way persistence reaches snapshots through `RegisteredQueries()`:
///    no downcasts to concrete serve/ types anywhere.
///
/// Determinism convention: everything here is driven by batch ticks and
/// the engine's declared clock (`Engine::Describe().clock`), never wall
/// time — token buckets refill per formed batch, queue waits accumulate
/// the front door's virtual clock (the sum of formed-batch service
/// latencies), so a given (stream, policy, seed) always sheds, degrades
/// and forms the exact same batches on any host (docs/SERVING.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/query_graph.hpp"
#include "graph/update_stream.hpp"

namespace bdsm {

/// Stable handle of a registered query (redeclares core/engine.hpp's
/// alias identically so this header stays engine-independent).
using QueryId = uint32_t;

/// Stable handle of a registered tenant.  Id 0 is the always-present
/// "default" tenant that plain Engine::AddQuery / ProcessBatch calls
/// are attributed to.
using TenantId = uint32_t;
inline constexpr TenantId kInvalidTenantId = static_cast<TenantId>(-1);
inline constexpr TenantId kDefaultTenantId = 0;

/// Admission priority classes, strongest first.  Under overload the
/// front door fills each formed batch class by class: gold tenants are
/// served before silver, silver before best-effort — within a class,
/// round-robin keeps tenants starvation-free.
enum class PriorityClass {
  kGold = 0,
  kSilver = 1,
  kBestEffort = 2,
};

/// "gold" | "silver" | "best_effort".
const char* PriorityClassName(PriorityClass c);
/// Inverse of PriorityClassName; false when `name` is unknown.
bool PriorityClassFromName(const std::string& name, PriorityClass* out);
/// Sorted "best_effort, gold, silver" — for EngineSpecError-style
/// messages that list the valid values.
std::string ValidPriorityClassNames();

/// One tenant's serving contract.  Zero always means "unlimited" /
/// "use the front-door default", so the default-constructed policy is
/// fully permissive — the policy under which `tenant(inner)` is
/// match-identical to the bare inner engine.
struct TenantPolicy {
  PriorityClass priority = PriorityClass::kSilver;
  /// Token-bucket refill: ops this tenant may have admitted per formed
  /// batch, averaged (0 = unlimited).  Buckets refill on batch ticks,
  /// never wall time.
  double rate_ops_per_batch = 0.0;
  /// Token-bucket capacity (0 = 2x rate; irrelevant when unlimited).
  double burst_ops = 0.0;
  /// Standing-query quota: AddQuery beyond it is rejected and counted
  /// (0 = unlimited).
  size_t max_queries = 0;
  /// Per-batch result budget: a formed batch delivering more matches
  /// than this across the tenant's queries flags the tenant degraded —
  /// its admission share is clamped for the next batches (0 = never).
  size_t result_budget = 0;
  /// Pending-op bound: ops ingested beyond it are shed immediately
  /// (0 = FrontDoorOptions::queue_limit_ops).
  size_t queue_limit_ops = 0;
};

/// The front door's own configuration (EngineOptions::front_door; the
/// `tenant(...)` spec's inline keys map onto these).
struct FrontDoorOptions {
  /// Master switch: when false, no shedding, rate limiting, priority
  /// ordering or degradation happens — ops are admitted FIFO (the
  /// "admission OFF" arm of the noisy-neighbor experiment).  Batch
  /// formation still applies.
  bool admission = true;
  /// Target per-formed-batch latency under the engine's clock; the
  /// batch-formation controller adapts the target batch size (AIMD) to
  /// keep the recent latency tail under it.  0 = fixed target size.
  double slo_seconds = 0.0;
  /// Bounds and start of the adaptive target batch size (in ops).
  size_t batch_ops_min = 32;
  size_t batch_ops_max = 8192;
  size_t batch_ops_init = 256;
  /// Recent-latency window the controller reads its tail from.
  size_t slo_window = 8;
  /// Default per-tenant pending-op bound (TenantPolicy 0 falls back
  /// here; 0 = unbounded queues).
  size_t queue_limit_ops = 4096;
  /// How many formed batches a tenant stays clamped after blowing its
  /// result budget (admission capped at a quarter of the formation
  /// target, floor 1, while clamped).
  size_t degrade_batches = 2;
  /// Policy applied to the built-in default tenant and to tenants the
  /// `tenants=N` spec key pre-registers.
  TenantPolicy default_policy;
  /// Tenants to pre-register at construction ("t0".."tN-1", default
  /// policy) — the `tenants=N` spec key.
  size_t preregister_tenants = 0;
};

/// Cumulative per-tenant accounting (admitted/shed/degraded story).
struct TenantCounters {
  size_t offered_ops = 0;    ///< ops ingested (or attributed) in total
  size_t admitted_ops = 0;   ///< ops that made it into a formed batch
  size_t shed_ops = 0;       ///< ops dropped (queue bound / flat-path)
  size_t degraded_ops = 0;   ///< ops deferred by a degradation clamp
  size_t rejected_queries = 0;  ///< AddQuery calls refused by quota
  size_t batches = 0;           ///< formed batches carrying its ops
  size_t over_budget_batches = 0;  ///< batches that blew result_budget
  size_t positive_matches = 0;
  size_t negative_matches = 0;
};

/// Point-in-time view of one tenant, for reporting.
struct TenantSnapshot {
  TenantId id = kInvalidTenantId;
  std::string name;
  TenantPolicy policy;
  TenantCounters counters;
  size_t live_queries = 0;
  size_t pending_ops = 0;  ///< currently queued
  /// Per carried formed batch: service latency under the engine's
  /// clock, and the worst queue wait among the tenant's admitted ops
  /// (virtual clock).  A tenant's end-to-end latency sample is the sum
  /// of the two (docs/SERVING.md "sojourn").
  std::vector<double> service_seconds;
  std::vector<double> queue_wait_seconds;
};

/// What one PumpFormedBatch produced (scalars only; drivers that need
/// per-query detail use the Engine interface directly).
struct FormedBatchStats {
  size_t admitted_ops = 0;
  size_t queue_depth_before = 0;  ///< pending ops before formation
  size_t target_ops = 0;          ///< controller's target at formation
  double queue_wait_seconds = 0.0;  ///< worst wait among admitted ops
  double service_seconds = 0.0;     ///< under the engine's clock
  size_t positive_matches = 0;
  size_t negative_matches = 0;
  size_t truncated_queries = 0;
};

/// The tenancy capability interface.  Engines that support multi-tenant
/// serving return a non-null pointer from `Engine::tenant_control()`
/// and report `Describe().supports_tenancy == true`; everything else
/// returns nullptr.  Implemented by the tenant front door
/// (serve/tenant_front_door.hpp).
class TenantControl {
 public:
  virtual ~TenantControl() = default;

  /// Registers a tenant; ids are assigned monotonically (the built-in
  /// default tenant holds id 0).
  virtual TenantId RegisterTenant(const std::string& name,
                                  const TenantPolicy& policy) = 0;
  virtual size_t NumTenants() const = 0;

  /// Registers a query owned by `tenant`.  Returns the engine-scoped
  /// public QueryId, or the invalid id when the tenant's standing-query
  /// quota is exhausted (counted in TenantCounters::rejected_queries).
  virtual QueryId AddTenantQuery(TenantId tenant, const QueryGraph& q) = 0;
  /// Owning tenant of a live public query id (kInvalidTenantId when
  /// the id is unknown).
  virtual TenantId OwnerOf(QueryId id) const = 0;

  /// Appends `ops` to the tenant's ingest queue (data plane).  Ops
  /// beyond the tenant's pending bound are shed immediately and
  /// counted; nothing ever blocks.
  virtual void Ingest(TenantId tenant, const UpdateBatch& ops) = 0;
  /// Ops currently queued across all tenants.
  virtual size_t PendingOps() const = 0;

  /// Forms one batch from the queues (admission: priority classes,
  /// token buckets, degradation clamps; size: the SLO controller's
  /// current target), processes it on the inner engine, and updates
  /// the per-tenant accounting.  Returns false — and forms nothing —
  /// when every queue is empty.  `out` may be null.
  virtual bool PumpFormedBatch(FormedBatchStats* out) = 0;

  /// Current target formed-batch size (ops) of the SLO controller.
  virtual size_t TargetBatchOps() const = 0;

  virtual TenantSnapshot Snapshot(TenantId tenant) const = 0;

  /// Jain fairness index over per-tenant service ratios
  /// (admitted/offered): 1.0 = perfectly even service, 1/n = one
  /// tenant served only.  Tenants that offered nothing are skipped;
  /// 1.0 when no tenant offered anything.
  virtual double JainFairnessIndex() const = 0;
};

/// Jain's fairness index over arbitrary shares: (Σx)² / (n·Σx²).
/// Returns 1.0 for empty/all-zero input (nothing to be unfair about).
double JainIndex(const std::vector<double>& shares);

}  // namespace bdsm
