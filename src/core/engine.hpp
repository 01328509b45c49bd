/// \file engine.hpp
/// The unified engine layer: every matching system in this repository —
/// the GAMMA device engine ("gamma" launches per query, "multi" fuses
/// every query into one launch) and the five sequential CSM baselines
/// (TurboFlux, SymBi, RapidFlow, CaLiG, Graphflow) — behind one
/// interface, so benches, examples and serving code select an engine by
/// name instead of by code path.
///
/// The interface is the paper's problem statement made operational:
/// queries are registered and removed at runtime (`AddQuery` /
/// `RemoveQuery`), one `ProcessBatch` call digests an update batch for
/// every live query, and results are delivered either materialized in
/// the returned `BatchReport` or streamed through a `ResultSink`
/// callback (the postprocess hook of Fig. 3) without ever building
/// unbounded vectors.
///
/// Quickstart:
///   auto engine = MakeEngine("gamma", initial_graph);
///   QueryId q = engine->AddQuery(query);
///   BatchReport r = engine->ProcessBatch(batch);
///   // r.Find(q)->positive_matches / ->negative_matches, r.*_stats
///
/// Streaming:
///   struct Alert : ResultSink {
///     void OnMatch(QueryId q, const MatchRecord& m) override { ... }
///   } sink;
///   BatchOptions opts;
///   opts.sink = &sink;
///   opts.materialize = false;  // counts only, no vectors
///   engine->ProcessBatch(batch, opts);
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine_spec.hpp"
#include "core/match.hpp"
#include "core/replication.hpp"
#include "core/tenant.hpp"
#include "gpma/gpma_kernel.hpp"
#include "gpusim/device_config.hpp"
#include "graph/labeled_graph.hpp"
#include "graph/query_graph.hpp"
#include "graph/update_stream.hpp"

namespace bdsm {

namespace serve {
class ShardedEngine;
class TenantFrontDoor;
}

namespace replica {
class ReplicatedEngine;
}

/// Stable handle of a registered query.  Ids are engine-scoped,
/// monotonically assigned, and never reused after RemoveQuery.
using QueryId = uint32_t;
inline constexpr QueryId kInvalidQueryId = static_cast<QueryId>(-1);

/// One registered query together with its public id — the unit the
/// persistence layer (persist/snapshot.hpp) captures and restores.
struct RegisteredQuery {
  QueryId id = kInvalidQueryId;
  QueryGraph query;
};

/// Streaming delivery target.  OnMatch is invoked once per incremental
/// match, after each processing phase, on the caller's thread.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void OnMatch(QueryId query, const MatchRecord& m) = 0;
};

/// A ResultSink that collects matches per query (tests, small tools).
class CollectingSink : public ResultSink {
 public:
  void OnMatch(QueryId query, const MatchRecord& m) override {
    matches_[query].push_back(m);
  }
  const std::vector<MatchRecord>& MatchesFor(QueryId q) const {
    static const std::vector<MatchRecord> kEmpty;
    auto it = matches_.find(q);
    return it == matches_.end() ? kEmpty : it->second;
  }
  size_t TotalCount() const {
    size_t n = 0;
    for (const auto& [q, v] : matches_) n += v.size();
    return n;
  }

 private:
  std::unordered_map<QueryId, std::vector<MatchRecord>> matches_;
};

/// Configuration of the device engine ("gamma", "multi").
struct GammaOptions {
  DeviceConfig device;          ///< steal_policy lives here (§V-A)
  bool coalesced_search = true; ///< §V-B
  /// Keep k >= 1 equivalent-edge groups even when their position orbits
  /// carry different encoder constraints (see BuildQueryContext).
  bool aggressive_coalescing = false;
  GpmaKernelOptions gpma;       ///< CG + cached-layer options (§V-C)
  /// Segment capacity of the GPMA (power of two).
  uint32_t gpma_segment_capacity = 32;
  /// Cap on incremental matches materialized per kernel launch
  /// (0 = unlimited).  Queries whose result sets exceed it are reported
  /// as unsolved, bounding memory the way the paper's 30-minute timeout
  /// bounds its 128 GB testbed.
  size_t result_cap = 1'500'000;
};

/// Per-ProcessBatch knobs.
struct BatchOptions {
  /// Per-query host budget in seconds for the CPU (CSM) engines; 0 uses
  /// the engine default (EngineOptions::csm_budget_seconds).  Device
  /// engines take their budget from
  /// GammaOptions::device.host_budget_seconds at construction.
  double budget_seconds = 0.0;
  /// When set, every incremental match is also delivered via OnMatch.
  ResultSink* sink = nullptr;
  /// When false, match vectors in the report stay empty (counts are
  /// still exact) — combine with `sink` for bounded-memory streaming.
  bool materialize = true;
};

/// One query's share of a batch: matches (or just counts when not
/// materializing) plus the timing/truncation story shared by every
/// engine family.
struct QueryReport {
  QueryId id = kInvalidQueryId;

  std::vector<MatchRecord> positive_matches;  ///< empty if !materialize
  std::vector<MatchRecord> negative_matches;  ///< empty if !materialize
  size_t num_positive = 0;  ///< exact counts, independent of materialize
  size_t num_negative = 0;

  bool timed_out = false;   ///< a host/launch budget expired
  bool overflowed = false;  ///< a result cap was hit

  DeviceStats update_stats;  ///< zero for CPU engines
  DeviceStats match_stats;   ///< zero for CPU engines
  double preprocess_host_seconds = 0.0;
  double host_wall_seconds = 0.0;  ///< this query's host time share

  /// The "unsolved query" condition of Table III: results are partial.
  bool Truncated() const { return timed_out || overflowed; }

  size_t TotalMatches() const { return num_positive + num_negative; }

  // Streaming bookkeeping (managed by Engine; not part of the API).
  size_t streamed_positive = 0;
  size_t streamed_negative = 0;
};

/// Everything one batch produced across all registered queries.
struct BatchReport {
  /// One entry per live query, in registration order.
  std::vector<QueryReport> queries;

  /// Aggregate device stats: the graph-update kernel (charged once for
  /// shared-graph engines) and the matching launches.
  DeviceStats update_stats;
  DeviceStats match_stats;
  double preprocess_host_seconds = 0.0;
  double host_wall_seconds = 0.0;  ///< whole ProcessBatch call
  /// This batch's critical-path seconds (sum over phases of the
  /// slowest shard's thread-CPU time) — the wall-clock a host with
  /// enough free cores pays.  Filled only by the sharded serving
  /// layer; 0 for single-instance engines.  This is the clock behind
  /// ClockDomain::kCriticalPath (see Engine::Describe()).
  double critical_path_seconds = 0.0;
  /// This batch's latency on the engine's own clock (Describe().clock):
  /// the modeled device makespan (update + matching ticks) overlapped
  /// with host preprocessing (§IV-A) for kModeledDevice,
  /// critical_path_seconds for kCriticalPath, host_wall_seconds for
  /// kHostWall.  Filled once by Engine::ProcessBatch, the one place
  /// that maps a clock to seconds; every consumer reads it from here.
  double latency_seconds = 0.0;
  /// Ingest-path observability (serve layer): how long this batch sat
  /// in the ingest queue before processing started, and how many
  /// batches (ShardedEngine::SubmitBatch) or ops (TenantFrontDoor)
  /// were queued ahead of it at submit time.  0 on the direct
  /// ProcessBatch path — there is no queue to wait in.
  double queue_wait_seconds = 0.0;
  size_t queue_depth = 0;

  QueryReport* Find(QueryId id) {
    for (QueryReport& q : queries) {
      if (q.id == id) return &q;
    }
    return nullptr;
  }
  const QueryReport* Find(QueryId id) const {
    return const_cast<BatchReport*>(this)->Find(id);
  }

  bool Truncated() const {
    for (const QueryReport& q : queries) {
      if (q.Truncated()) return true;
    }
    return false;
  }

  size_t TotalMatches() const {
    size_t n = 0;
    for (const QueryReport& q : queries) n += q.TotalMatches();
    return n;
  }
};

/// Which clock an engine's latencies must be read from.  The repo's
/// measurement convention (docs/BENCHMARKS.md): never claim wall-clock
/// parallelism this host cannot show.
enum class ClockDomain {
  kModeledDevice,  ///< simulated makespan (BatchReport::latency_seconds)
  kCriticalPath,   ///< BatchReport::critical_path_seconds (sharded CPU)
  kHostWall,       ///< BatchReport::host_wall_seconds (sequential CPU)
};

/// Stable name of a clock domain: "modeled-device" | "critical-path" |
/// "host-wall" (the `latency_metric` vocabulary of bench JSON rows).
const char* ClockDomainName(ClockDomain clock);

namespace obs {
enum class Domain : uint8_t;
}

/// Maps core's ClockDomain onto the obs layer's trace Domain (the obs
/// layer sits below core and defines its own mirror of the enum; this
/// is the one sanctioned crossing — docs/OBSERVABILITY.md).
obs::Domain ToObsTraceDomain(ClockDomain clock);

/// Engine capability introspection, returned by Engine::Describe().
/// Consumers select clocks and record provenance from this struct
/// instead of sniffing engine names or downcasting.
struct EngineInfo {
  /// Alias-resolved canonical spec, e.g. "sharded(gamma, shards=8)".
  /// Stamped by the registry at construction; embedded in bench JSON
  /// rows as the provenance key (scripts/bench_diff.py joins on it).
  std::string canonical_spec;
  /// The clock its latencies are honest under.
  ClockDomain clock = ClockDomain::kHostWall;
  /// False for engines that reject RemoveQuery (none today; wrappers
  /// must forward their inner engine's answer).
  bool supports_remove_query = true;
  /// Shard topology: 1 for single-instance engines, the shard count
  /// for the sharded serving layer.
  size_t num_shards = 1;
  /// Wrapper engines: canonical spec of the inner engine ("" when the
  /// engine wraps nothing).
  std::string inner_spec;
  /// Snapshot/restore capability (persist/snapshot.hpp): true when the
  /// engine exposes its registered query set (RegisteredQueries) and
  /// can re-register a query under its original public id
  /// (RestoreQuery), so CaptureSnapshot + warm-start restore reproduce
  /// it exactly.  Wrappers forward their inner engine's answer.
  bool supports_snapshot = false;
  /// Multi-tenant capability (core/tenant.hpp): true when
  /// Engine::tenant_control() returns a usable TenantControl — tenant
  /// namespaces, admission control, SLO-aware batch formation.  Only
  /// the tenant front door (serve/tenant_front_door.hpp) sets this.
  bool supports_tenancy = false;
  /// Replica-group capability (core/replication.hpp): true when
  /// Engine::replication_control() returns a usable
  /// ReplicationControl — a leader shipping its WAL to followers with
  /// failover.  Only the replica group (replica/group.hpp) sets this.
  bool supports_replication = false;
  /// Follower replicas behind the leader (0 for unreplicated engines).
  size_t num_followers = 0;
  /// Seconds per modeled device tick for engines whose clock is
  /// kModeledDevice (0 otherwise).  Lets clock-agnostic consumers (the
  /// obs layer's phase spans) convert DeviceStats tick counts to
  /// seconds without reaching for the engine's DeviceConfig; wrappers
  /// forward their inner engine's value.
  double tick_seconds = 0.0;
};

/// The unified engine interface.  Implementations: the device engine
/// ("gamma", "multi"), CsmAdapter (each CSM baseline) and the wrapper
/// engines of serve/ and replica/.  Construct through
/// MakeEngine()/EngineRegistry.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Registry name ("gamma", "multi", "tf", ...).
  virtual const char* Name() const = 0;

  /// Capability introspection: canonical spec, clock domain, shard
  /// topology.  ProcessBatch reads Describe().clock to fill
  /// BatchReport::latency_seconds; drivers report it under
  /// ClockDomainName(Describe().clock) instead of probing concrete
  /// engine types.
  virtual EngineInfo Describe() const = 0;

  /// Registers a pattern against the *current* graph state; it takes
  /// part in every subsequent ProcessBatch.
  virtual QueryId AddQuery(const QueryGraph& q) = 0;
  /// Unregisters; returns false if the id is unknown (already removed).
  virtual bool RemoveQuery(QueryId id) = 0;
  /// Live query ids, in registration order.
  virtual std::vector<QueryId> QueryIds() const = 0;
  size_t NumQueries() const { return QueryIds().size(); }

  /// Snapshot capture (persist/snapshot.hpp): the live query set with
  /// its public ids, in registration order.  Engines that cannot
  /// reproduce their registration state return empty and report
  /// Describe().supports_snapshot == false.
  virtual std::vector<RegisteredQuery> RegisteredQueries() const {
    return {};
  }

  /// Snapshot restore: re-registers `q` under the exact public id it
  /// held when the snapshot was taken.  `id` must be ahead of every id
  /// assigned so far (snapshots list queries in registration order, so
  /// replaying them in order satisfies this); the id counter advances
  /// past `id`, so later AddQuery calls never collide with restored
  /// ids.  Returns false when the engine does not support snapshots or
  /// `id` is not ahead of the counter.
  virtual bool RestoreQuery(const QueryGraph& q, QueryId id) {
    (void)q;
    (void)id;
    return false;
  }

  /// The engine's evolving host-side graph (updated by ProcessBatch).
  virtual const LabeledGraph& host_graph() const = 0;

  /// Tenancy capability (core/tenant.hpp): non-null exactly when
  /// Describe().supports_tenancy — drivers reach tenant registration,
  /// ingest and accounting through this interface instead of
  /// downcasting to serve/ types.  Wrappers that merely contain a
  /// tenant layer (none today) would forward it.
  virtual TenantControl* tenant_control() { return nullptr; }
  const TenantControl* tenant_control() const {
    return const_cast<Engine*>(this)->tenant_control();
  }

  /// Replication capability (core/replication.hpp): non-null exactly
  /// when Describe().supports_replication — drivers reach follower
  /// state, lag accounting and the failover drill through this
  /// interface instead of downcasting to replica/ types.
  virtual ReplicationControl* replication_control() { return nullptr; }
  const ReplicationControl* replication_control() const {
    return const_cast<Engine*>(this)->replication_control();
  }

  /// Digests one update batch for every live query: sanitizes it,
  /// enumerates negative matches on the pre-update state, applies the
  /// update, enumerates positive matches on the post-update state.
  /// Matches are delivered per BatchOptions (materialized and/or
  /// streamed).
  BatchReport ProcessBatch(const UpdateBatch& batch,
                           const BatchOptions& options = {});

 protected:
  // The serving layer drives the same phases across inner engines it
  // owns (see serve/sharded_engine.hpp, serve/tenant_front_door.hpp),
  // and the replica group drives them on its leader and followers
  // (replica/group.hpp, replica/follower.hpp).
  friend class serve::ShardedEngine;
  friend class serve::TenantFrontDoor;
  friend class replica::ReplicatedEngine;

  /// Template-method phases over a batch already sanitized against
  /// host_graph().  ProcessBatch drives them, and wrapper engines drive
  /// them on the inner engines they own.  Engines whose processing
  /// cannot be split (the sequential CSM chassis interleaves matching
  /// with updates) do all their work in RunUpdatePhase and leave
  /// RunMatchPhase empty.
  ///
  /// Phase contract: a driver must run every batch through the full,
  /// fixed sequence — RunMatchPhase(positive=false), RunUpdatePhase,
  /// RunMatchPhase(positive=true) — even when a phase has no seeds.
  /// The order is semantically forced (negatives need the pre-update
  /// state, positives the post-update state), and engines may rely on
  /// the negative phase marking the start of a batch (ShardedEngine
  /// resets its per-batch shard scratch there).
  virtual void RunMatchPhase(const UpdateBatch& batch, bool positive,
                             const BatchOptions& options,
                             BatchReport* report) = 0;
  virtual void RunUpdatePhase(const UpdateBatch& batch,
                              const BatchOptions& options,
                              BatchReport* report) = 0;

  /// Creates one QueryReport slot per live query.  Slots appear in
  /// QueryIds() order, so phase implementations may index
  /// report->queries positionally instead of calling Find().
  void InitReport(BatchReport* report) const;

  /// Streams matches appended since the previous flush to the sink and,
  /// when not materializing, drops them; maintains the num_* counts.
  static void FlushPhase(const BatchOptions& options, BatchReport* report);

  /// End-of-batch hook, called by ProcessBatch after the phases,
  /// flushes and timing are complete — `batch` is the *sanitized*
  /// batch the phases actually digested, `report` is final.  Wrapper
  /// engines that must observe every applied batch exactly once at
  /// the outermost layer override this (the replica group tees the
  /// batch into its WAL and advances followers here); the default
  /// does nothing.  Runs outside the report's own clocks: work done
  /// here never inflates the batch's reported latency.
  virtual void OnBatchDigested(const UpdateBatch& batch,
                               const BatchReport& report) {
    (void)batch;
    (void)report;
  }

  /// Delivers one match immediately — count + sink + (if materializing)
  /// report vector — preserving the caller's emission order.  For
  /// engines whose matches do not arrive polarity-grouped (the CSM
  /// chassis interleaves positives and negatives edge by edge); matches
  /// delivered this way are skipped by the next FlushPhase.
  static void DeliverDirect(const BatchOptions& options, QueryReport* qr,
                            const MatchRecord& m);

  /// The alias-resolved canonical spec, reported by Describe()
  /// implementations through this accessor.  Engines without a stamp
  /// (constructed directly, not via the registry) fall back to their
  /// registry name.
  std::string CanonicalSpecOrName() const {
    return canonical_spec_.empty() ? std::string(Name()) : canonical_spec_;
  }
  /// Wrapper engines that compose their own canonical spec with
  /// defaults materialized (ShardedEngine's shard count) stamp it here
  /// during construction; the registry stamps every still-unstamped
  /// engine after its factory returns and never overwrites.
  void StampCanonicalSpec(std::string spec) {
    canonical_spec_ = std::move(spec);
  }

  // --- observability (src/obs/; docs/OBSERVABILITY.md) ---
  // Shared by ProcessBatch's span/counter publishing and by the
  // serving layer's per-shard spans (ShardedEngine is a friend and
  // tags its shard spans with the same batch sequence number).
  /// Batches this engine object has processed; tags every span it
  /// emits.  Advances only while observability is runtime-enabled.
  uint64_t obs_batch_seq_ = 0;
  /// This engine's span cursor on its own clock domain: consecutive
  /// batches' spans tile end to end from 0, which is what makes a
  /// modeled-device trace deterministic in (spec, scenario, seed).
  double obs_cursor_seconds_ = 0.0;

 private:
  friend class EngineRegistry;  // stamps canonical_spec_ post-factory
  std::string canonical_spec_;

  /// The batch's latency on this engine's clock — the value of
  /// BatchReport::latency_seconds (see there).  Caches Describe() on the
  /// first call.
  double LatencySeconds(const BatchReport& report);
  /// Publishes one batch's counters and clock-domain phase spans; only
  /// called from ProcessBatch when observability is runtime-enabled.
  /// `host_after`/`cp_after` are the cumulative host-wall /
  /// critical-path readings after each of the three phases;
  /// `match_ticks_after_neg` splits the match makespan between the
  /// negative and positive phases.
  void RecordBatchObs(const UpdateBatch& batch, const BatchReport& report,
                      const double host_after[3],
                      uint64_t match_ticks_after_neg,
                      const double cp_after[3]);
  /// Cached Describe().clock / .tick_seconds (-1 = not yet cached) so
  /// the per-batch latency never rebuilds EngineInfo strings.
  int clock_cache_ = -1;
  double tick_seconds_cache_ = 0.0;
};

/// Construction options for MakeEngine / EngineRegistry.
struct EngineOptions {
  /// Device-engine ("gamma", "multi") configuration, including the
  /// per-launch host budget and result cap.
  GammaOptions gamma;
  /// Result cap for the CPU (CSM) engines (0 = unlimited); exceeding it
  /// reports the query truncated, mirroring GammaOptions::result_cap.
  size_t csm_result_cap = 1'500'000;
  /// Default per-query host budget for the CPU engines (0 = unlimited);
  /// BatchOptions::budget_seconds overrides it per batch.
  double csm_budget_seconds = 0.0;

  /// --- serving layer (serve/sharded_engine.hpp) ---
  /// Worker threads for ShardedEngine's phase fan-out (0 = one per
  /// shard).  Output never depends on this; only wall-clock does.
  size_t serve_threads = 0;
  /// Capacity of the SubmitBatch ingest queue: SubmitBatch blocks (and
  /// TrySubmitBatch refuses) once this many batches are waiting.
  size_t serve_queue_capacity = 8;

  /// --- tenant front door (serve/tenant_front_door.hpp) ---
  /// Admission, SLO batch-formation and quota defaults for engines
  /// built from a `tenant(...)` spec; inline spec keys override these.
  FrontDoorOptions front_door;

  /// --- replica group (replica/group.hpp) ---
  /// Follower count, poll cadence, checkpoint policy and the modeled
  /// shipping link for engines built from a `replicated(...)` spec;
  /// inline spec keys override these.  `replica.dir` has no spec key
  /// (the spec grammar's values cannot carry paths) — drivers that
  /// need a stable shipping directory set it here.
  ReplicaOptions replica;
};

/// An engine factory receives the alias-resolved spec subtree it was
/// selected by (children and inline options included) and an
/// EngineOptions that already has the spec's own `key=value` overrides
/// applied.  Wrapper factories build their inner engines by passing
/// spec.children[i] back through EngineRegistry::Make with the same
/// options — each child's overrides are then applied on top, so
/// wrappers compose recursively for free.
using EngineFactory = std::function<std::unique_ptr<Engine>(
    const EngineSpec&, const LabeledGraph&, const EngineOptions&)>;

/// One inline option an engine accepts in its spec argument list.
struct EngineOptionKey {
  std::string key;  ///< lower-case, e.g. "result_cap"
  std::string doc;  ///< one-line help (docs/ENGINES.md, --list-engines)
  /// Parses `value` and applies it onto `options`; returns false on a
  /// malformed value (the registry composes the error message).
  /// Structural keys consumed by the factory itself (e.g. "shards")
  /// validate only and leave `options` untouched.
  std::function<bool(const std::string& value, EngineOptions* options)>
      apply;
};

/// Everything the registry knows about one engine name: how to build
/// it, which inline options it accepts, and how many inner engine
/// specs it takes (0..0 for leaf engines, 1..1 for wrappers).
struct EngineDef {
  EngineFactory factory;
  std::vector<EngineOptionKey> option_keys;
  /// One canonical example spec, shown by `example_cli --list-engines`.
  std::string example;
  size_t min_children = 0;
  size_t max_children = 0;
};

/// Spec-tree-keyed engine factory.  Built-in names (case-insensitive):
///   "gamma"              device engine, one matching launch per query
///   "multi"              device engine, fused multi-query launches
///   "tf" | "turboflux"   TurboFlux-lite   (CPU baseline)
///   "sym" | "symbi"      SymBi-lite       (CPU baseline)
///   "rf" | "rapidflow"   RapidFlow-lite   (CPU baseline)
///   "cl" | "calig"       CaLiG-lite       (CPU baseline)
///   "gf" | "graphflow"   Graphflow-lite   (CPU baseline)
///   "sharded"            serving wrapper over any inner spec
///                        (serve/sharded_engine.hpp)
///   "tenant"             multi-tenant front door over any inner spec
///                        (serve/tenant_front_door.hpp)
///   "replicated"         WAL-shipping replica group over any inner
///                        spec (replica/group.hpp)
///
/// Specs follow the canonical grammar of core/engine_spec.hpp —
/// `sharded(gamma, shards=8)`, `gamma(result_cap=100000)`.  Unknown names
/// and option keys raise EngineSpecError whose message lists the
/// registered names / the engine's valid keys (docs/ENGINES.md).
class EngineRegistry {
 public:
  static EngineRegistry& Instance();

  /// Registers an engine under `name` (overwrites an existing entry).
  void Register(const std::string& name, EngineDef def);
  /// Shorthand for a leaf engine with no inline options.
  void Register(const std::string& name, EngineFactory factory);
  void RegisterAlias(const std::string& alias, const std::string& target);

  /// True when `spec` parses and validates (names, arity, option keys
  /// and values, recursively).  The no-details probe; prefer Validate
  /// when the caller can print the reason.
  bool Has(const std::string& spec) const;
  /// Full fail-fast validation without building: nullopt when `spec`
  /// is buildable, otherwise the EngineSpecError message.
  std::optional<std::string> Validate(const std::string& spec) const;
  std::optional<std::string> Validate(const EngineSpec& spec) const;

  /// Canonical (non-alias) registered names, sorted.
  std::vector<std::string> Names() const;

  /// One row per canonical name, sorted, for `--list-engines` and the
  /// docs: the example spec plus the accepted option keys.
  struct Listing {
    std::string name;
    std::string example;
    std::vector<std::string> option_keys;  ///< sorted
  };
  std::vector<Listing> Listings() const;

  /// Alias-resolves every name in the tree ("turboflux" -> "tf").
  /// Throws EngineSpecError on an unknown name.
  EngineSpec Canonicalize(const EngineSpec& spec) const;

  /// Builds the engine over an initial graph.  Validates the whole
  /// tree first and throws EngineSpecError (never aborts) on unknown
  /// names, bad arity, unknown option keys or malformed values; the
  /// built engine is stamped with its canonical spec
  /// (Engine::Describe().canonical_spec).
  std::unique_ptr<Engine> Make(const std::string& spec,
                               const LabeledGraph& g,
                               const EngineOptions& options = {}) const;
  std::unique_ptr<Engine> Make(const EngineSpec& spec,
                               const LabeledGraph& g,
                               const EngineOptions& options = {}) const;

 private:
  EngineRegistry();
  struct Entry {
    EngineDef def;
    std::string alias_target;  ///< non-empty for aliases
  };
  /// Resolves a (possibly alias) name to its canonical entry; nullptr
  /// when unknown.  `canonical_name` receives the resolved name.
  const Entry* Resolve(const std::string& name,
                       std::string* canonical_name) const;
  /// Validate() after Canonicalize(): walks an alias-resolved tree
  /// checking arity and option keys/values at every node.
  std::optional<std::string> ValidateCanonical(
      const EngineSpec& canonical) const;
  /// Applies spec.options onto *options; throws on unknown key/value.
  void ApplyOptions(const EngineSpec& spec, const EngineDef& def,
                    EngineOptions* options) const;
  std::unordered_map<std::string, Entry> entries_;
};

/// Convenience wrappers over EngineRegistry::Instance().
std::unique_ptr<Engine> MakeEngine(const std::string& spec,
                                   const LabeledGraph& g,
                                   const EngineOptions& options = {});
std::unique_ptr<Engine> MakeEngine(const EngineSpec& spec,
                                   const LabeledGraph& g,
                                   const EngineOptions& options = {});
std::vector<std::string> EngineNames();

/// A query's *net* batch delta: device engines already emit it (this is
/// the identity on their output, modulo order); the CSM baselines emit
/// a raw sequential stream whose (+,-) flips cancel pairwise (the
/// paper's Example 1 redundancy).  Requires a materialized report.
std::vector<MatchRecord> NetDelta(const QueryReport& report);

}  // namespace bdsm
