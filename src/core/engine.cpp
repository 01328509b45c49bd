#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>

#include "baselines/csm_common.hpp"
#include "core/encoder.hpp"
#include "core/query_context.hpp"
#include "core/wbm_kernel.hpp"
#include "gpma/gpma.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace bdsm {

// Registration hooks of the wrapper layers (serve/sharded_engine.hpp,
// replica/group.hpp), called by the EngineRegistry constructor.
namespace serve {
void RegisterServeEngines(EngineRegistry* registry);
}
namespace replica {
void RegisterReplicaEngines(EngineRegistry* registry);
}

const char* ClockDomainName(ClockDomain clock) {
  switch (clock) {
    case ClockDomain::kModeledDevice:
      return "modeled-device";
    case ClockDomain::kCriticalPath:
      return "critical-path";
    case ClockDomain::kHostWall:
      return "host-wall";
  }
  return "unknown";
}

obs::Domain ToObsTraceDomain(ClockDomain clock) {
  switch (clock) {
    case ClockDomain::kModeledDevice:
      return obs::Domain::kModeledDevice;
    case ClockDomain::kCriticalPath:
      return obs::Domain::kCriticalPath;
    case ClockDomain::kHostWall:
      return obs::Domain::kHostWall;
  }
  return obs::Domain::kHostWall;
}

// ---------------------------------------------------------------- Engine

BatchReport Engine::ProcessBatch(const UpdateBatch& raw_batch,
                                 const BatchOptions& options) {
  BatchReport report;
  InitReport(&report);
  Timer wall;

  UpdateBatch batch = SanitizeBatch(host_graph(), raw_batch);

#if BDSM_OBS
  const bool obs_on = obs::Enabled();
  double host_after[3] = {0.0, 0.0, 0.0};
  double cp_after[3] = {0.0, 0.0, 0.0};
  uint64_t match_ticks_after_neg = 0;
#endif

  // Negative matches: deleted-edge seeds on the pre-update state.
  RunMatchPhase(batch, /*positive=*/false, options, &report);
  FlushPhase(options, &report);
#if BDSM_OBS
  if (obs_on) {
    host_after[0] = wall.ElapsedSeconds();
    cp_after[0] = report.critical_path_seconds;
    match_ticks_after_neg = report.match_stats.makespan_ticks;
  }
#endif

  // Update: device graph + host mirror + candidate re-encode (CSM
  // engines run their whole sequential loop here).
  RunUpdatePhase(batch, options, &report);
  FlushPhase(options, &report);
#if BDSM_OBS
  if (obs_on) {
    host_after[1] = wall.ElapsedSeconds();
    cp_after[1] = report.critical_path_seconds;
  }
#endif

  // Positive matches: inserted-edge seeds on the post-update state.
  RunMatchPhase(batch, /*positive=*/true, options, &report);
  FlushPhase(options, &report);

  report.host_wall_seconds = wall.ElapsedSeconds();
  for (QueryReport& qr : report.queries) {
    if (qr.host_wall_seconds == 0.0) {
      qr.host_wall_seconds = report.host_wall_seconds;
    }
  }
  report.latency_seconds = LatencySeconds(report);
#if BDSM_OBS
  if (obs_on) {
    host_after[2] = report.host_wall_seconds;
    cp_after[2] = report.critical_path_seconds;
    RecordBatchObs(batch, report, host_after, match_ticks_after_neg,
                   cp_after);
  }
#endif
  // Outermost-layer end-of-batch hook (the replica group's WAL tee +
  // follower advance): after the clocks, so its work never inflates
  // this batch's reported latency.
  OnBatchDigested(batch, report);
  return report;
}

BatchReport Engine::ReplayBatch(const UpdateBatch& raw_batch) {
  BatchReport report;
  InitReport(&report);
  Timer wall;
  const UpdateBatch batch = SanitizeBatch(host_graph(), raw_batch);
  // No seeds in either match phase; the update phase moves the state.
  const UpdateBatch no_seeds;
  BatchOptions state_only;
  state_only.materialize = false;
  RunMatchPhase(no_seeds, /*positive=*/false, state_only, &report);
  RunUpdatePhase(batch, state_only, &report);
  RunMatchPhase(no_seeds, /*positive=*/true, state_only, &report);
  FlushPhase(state_only, &report);
  report.host_wall_seconds = wall.ElapsedSeconds();
  report.latency_seconds = LatencySeconds(report);
  return report;
}

double Engine::LatencySeconds(const BatchReport& report) {
  if (clock_cache_ < 0) {
    const EngineInfo info = Describe();
    clock_cache_ = static_cast<int>(info.clock);
    tick_seconds_cache_ = info.tick_seconds;
  }
  switch (static_cast<ClockDomain>(clock_cache_)) {
    case ClockDomain::kModeledDevice:
      // Device makespan overlapped with host preprocessing (§IV-A).
      return std::max(static_cast<double>(report.update_stats.makespan_ticks +
                                          report.match_stats.makespan_ticks) *
                          tick_seconds_cache_,
                      report.preprocess_host_seconds);
    case ClockDomain::kCriticalPath:
      return report.critical_path_seconds;
    case ClockDomain::kHostWall:
      return report.host_wall_seconds;
  }
  return report.host_wall_seconds;
}

void Engine::RecordBatchObs(const UpdateBatch& batch,
                            const BatchReport& report,
                            const double host_after[3],
                            uint64_t match_ticks_after_neg,
                            const double cp_after[3]) {
#if BDSM_OBS
  // LatencySeconds ran first this batch, so the clock cache is filled.
  const ClockDomain clock = static_cast<ClockDomain>(clock_cache_);

  // Counters: the registry-backed view of the report aggregates — read
  // from the same variables the report carries, so the two can never
  // disagree.
  size_t pos = 0, neg = 0, truncated = 0;
  for (const QueryReport& qr : report.queries) {
    pos += qr.num_positive;
    neg += qr.num_negative;
    if (qr.Truncated()) ++truncated;
  }
  BDSM_OBS_COUNT("engine.batches", 1);
  BDSM_OBS_COUNT("engine.ops", batch.size());
  BDSM_OBS_COUNT("engine.matches.positive", pos);
  BDSM_OBS_COUNT("engine.matches.negative", neg);
  BDSM_OBS_COUNT("engine.queries.truncated", truncated);
  BDSM_OBS_COUNT("engine.device.update.makespan_ticks",
                 report.update_stats.makespan_ticks);
  BDSM_OBS_COUNT("engine.device.match.makespan_ticks",
                 report.match_stats.makespan_ticks);
  BDSM_OBS_COUNT("engine.device.global_transactions",
                 report.update_stats.global_transactions +
                     report.match_stats.global_transactions);
  BDSM_OBS_COUNT_US("engine.host_us", report.host_wall_seconds);

  // Per-phase split of report.latency_seconds on the engine's own
  // clock (Describe().clock).
  double phase_s[3] = {0.0, 0.0, 0.0};
  switch (clock) {
    case ClockDomain::kModeledDevice: {
      const double tick = tick_seconds_cache_;
      phase_s[0] = static_cast<double>(match_ticks_after_neg) * tick;
      phase_s[1] =
          static_cast<double>(report.update_stats.makespan_ticks) * tick;
      phase_s[2] = static_cast<double>(report.match_stats.makespan_ticks -
                                       match_ticks_after_neg) *
                   tick;
      break;
    }
    case ClockDomain::kCriticalPath:
      phase_s[0] = cp_after[0];
      phase_s[1] = cp_after[1] - cp_after[0];
      phase_s[2] = cp_after[2] - cp_after[1];
      break;
    case ClockDomain::kHostWall:
      phase_s[0] = host_after[0];
      phase_s[1] = host_after[1] - host_after[0];
      phase_s[2] = host_after[2] - host_after[1];
      break;
  }
  BDSM_OBS_HISTOGRAM_US("engine.batch_us", report.latency_seconds);

  obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
  if (tracer.enabled()) {
    const obs::Domain domain = ToObsTraceDomain(clock);
    obs::TraceSpan span;
    span.name = "engine.batch";
    span.domain = domain;
    span.batch = obs_batch_seq_;
    span.start_s = obs_cursor_seconds_;
    span.dur_s = report.latency_seconds;
    span.detail = "ops=" + std::to_string(batch.size());
    tracer.Record(std::move(span));
    static const char* kPhaseNames[3] = {"engine.match.neg",
                                         "engine.update",
                                         "engine.match.pos"};
    double cursor = obs_cursor_seconds_;
    for (int p = 0; p < 3; ++p) {
      obs::TraceSpan ps;
      ps.name = kPhaseNames[p];
      ps.domain = domain;
      ps.batch = obs_batch_seq_;
      ps.start_s = cursor;
      ps.dur_s = phase_s[p];
      cursor += phase_s[p];
      tracer.Record(std::move(ps));
    }
  }
  obs_cursor_seconds_ += report.latency_seconds;
  ++obs_batch_seq_;
#else
  (void)batch;
  (void)report;
  (void)host_after;
  (void)match_ticks_after_neg;
  (void)cp_after;
#endif
}

void Engine::InitReport(BatchReport* report) const {
  report->queries.clear();
  for (QueryId id : QueryIds()) {
    QueryReport qr;
    qr.id = id;
    report->queries.push_back(std::move(qr));
  }
}

void Engine::FlushPhase(const BatchOptions& options, BatchReport* report) {
  size_t delivered = 0;
  auto flush = [&](QueryId id, std::vector<MatchRecord>* v,
                   size_t* streamed, size_t* total) {
    for (size_t i = *streamed; i < v->size(); ++i) {
      ++*total;
      if (options.sink) {
        options.sink->OnMatch(id, (*v)[i]);
        ++delivered;
      }
    }
    *streamed = v->size();
    if (!options.materialize) {
      v->clear();
      *streamed = 0;
    }
  };
  for (QueryReport& qr : report->queries) {
    flush(qr.id, &qr.positive_matches, &qr.streamed_positive,
          &qr.num_positive);
    flush(qr.id, &qr.negative_matches, &qr.streamed_negative,
          &qr.num_negative);
  }
  if (delivered > 0) BDSM_OBS_COUNT("engine.sink.delivered", delivered);
  (void)delivered;  // referenced only through the macro when BDSM_OBS=1
}

void Engine::DeliverDirect(const BatchOptions& options, QueryReport* qr,
                           const MatchRecord& m) {
  if (m.positive) {
    ++qr->num_positive;
  } else {
    ++qr->num_negative;
  }
  if (options.sink) {
    options.sink->OnMatch(qr->id, m);
    BDSM_OBS_COUNT("engine.sink.delivered", 1);
  }
  if (options.materialize) {
    auto& v = m.positive ? qr->positive_matches : qr->negative_matches;
    v.push_back(m);
    // Already counted and streamed: advance the flush marker past it.
    (m.positive ? qr->streamed_positive : qr->streamed_negative) = v.size();
  }
}

// --------------------------------------------------------- WrapperEngine

const char* WrapperEngine::Name() const { return canonical_spec_.c_str(); }

EngineInfo WrapperEngine::Describe() const {
  EngineInfo info = inner().Describe();
  info.inner_spec = std::move(info.canonical_spec);
  info.canonical_spec = CanonicalSpecOrName();
  info.supports_tenancy = tenant_control() != nullptr;
  info.supports_replication = replication_control() != nullptr;
  return info;
}

std::vector<QueryId> WrapperEngine::QueryIds() const {
  return inner().QueryIds();
}

std::vector<RegisteredQuery> WrapperEngine::RegisteredQueries() const {
  return inner().RegisteredQueries();
}

const UpdateBatch& WrapperEngine::AppliedBatch(
    const UpdateBatch& batch) const {
  return inner().AppliedBatch(batch);
}

const LabeledGraph& WrapperEngine::host_graph() const {
  return inner().host_graph();
}

void WrapperEngine::RunMatchPhase(const UpdateBatch& batch, bool positive,
                                  const BatchOptions& options,
                                  BatchReport* report) {
  inner().RunMatchPhase(batch, positive, options, report);
}

void WrapperEngine::RunUpdatePhase(const UpdateBatch& batch,
                                   const BatchOptions& options,
                                   BatchReport* report) {
  inner().RunUpdatePhase(batch, options, report);
}

Engine& WrapperEngine::AddInner(const EngineSpec& spec, const LabeledGraph& g,
                                const EngineOptions& options) {
  inners_.push_back(EngineRegistry::Instance().MakeInner(spec, g, options));
  return *inners_.back();
}

void WrapperEngine::ReplaceInner(std::unique_ptr<Engine> engine) {
  GAMMA_CHECK(!inners_.empty() && engine != nullptr);
  inners_.front() = std::move(engine);
}

void WrapperEngine::StampWrapperSpec(
    const std::string& name,
    std::vector<std::pair<std::string, std::string>> keys) {
  // Composed from the *built* inner engine (aliases resolved by the
  // registry), so Name() and Describe().canonical_spec fully identify
  // the configuration — the provenance key bench JSON rows are diffed
  // by.
  EngineSpec self;
  self.name = name;
  self.children.push_back(
      EngineSpec::Parse(inner().Describe().canonical_spec));
  self.options = std::move(keys);
  canonical_spec_ = self.ToString();
}

namespace {

// ------------------------------------------------------------ LeafEngine

/// Registration bookkeeping of the leaf engines: the evolving host graph
/// plus one `Slot` per live query, in registration order.  A Slot has a
/// public `id` and a `Query()` accessor returning its pattern.
template <typename Slot>
class LeafEngine : public Engine {
 public:
  explicit LeafEngine(const LabeledGraph& g) : graph_(g) {}

  std::vector<RegisteredQuery> RegisteredQueries() const override {
    std::vector<RegisteredQuery> out;
    out.reserve(slots_.size());
    for (const Slot& s : slots_) {
      out.push_back(RegisteredQuery{s.id, s.Query()});
    }
    return out;
  }

  bool RestoreQuery(const QueryGraph& q, QueryId id) override {
    if (id < next_id_) return false;
    next_id_ = id;
    return AddQuery(q) == id;
  }

  bool RemoveQuery(QueryId id) override {
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->id == id) {
        slots_.erase(it);
        return true;
      }
    }
    return false;
  }

  std::vector<QueryId> QueryIds() const override {
    std::vector<QueryId> ids;
    ids.reserve(slots_.size());
    for (const Slot& s : slots_) ids.push_back(s.id);
    return ids;
  }

  const LabeledGraph& host_graph() const override { return graph_; }

 protected:
  /// Appends `slot` under the next id and returns that id.
  QueryId Register(Slot slot) {
    slot.id = next_id_++;
    slots_.push_back(std::move(slot));
    return slots_.back().id;
  }

  LabeledGraph graph_;  ///< canonical evolving host graph
  std::vector<Slot> slots_;
  QueryId next_id_ = 0;
};

// ---------------------------------------------------------- DeviceEngine

/// One registered query of the device engine.
struct DeviceSlot {
  QueryId id = kInvalidQueryId;
  QueryContext qctx;
  std::unique_ptr<CandidateEncoder> encoder;
  const QueryGraph& Query() const { return qctx.q; }
};

/// "gamma" and "multi": the pipeline of Fig. 3 over one host graph, one
/// GPMA and one simulated device, with only a query context and a
/// candidate table per registered query.  The two names differ in how a
/// batch is charged to the device:
/// * "multi" fuses every query's seeds into one launch per polarity and
///   charges the GPMA update once;
/// * "gamma" launches once per query and charges the update once per
///   live query — the paper's single-query system run side by side,
///   whose per-query GPMAs (same graph, same batches) would be identical.
class DeviceEngine final : public LeafEngine<DeviceSlot> {
 public:
  DeviceEngine(const char* name, bool fused, const LabeledGraph& g,
               const EngineOptions& options)
      : LeafEngine(g),
        name_(name),
        fused_(fused),
        options_(options.gamma),
        gpma_(options.gamma.gpma_segment_capacity),
        device_(options.gamma.device) {
    gpma_.BuildFrom(graph_);
  }

  const char* Name() const override { return name_; }

  EngineInfo Describe() const override {
    EngineInfo info;
    info.canonical_spec = CanonicalSpecOrName();
    info.clock = ClockDomain::kModeledDevice;
    info.supports_snapshot = true;
    info.tick_seconds = options_.device.TickSeconds();
    return info;
  }

  QueryId AddQuery(const QueryGraph& q) override {
    DeviceSlot slot;
    slot.qctx = BuildQueryContext(q, options_.coalesced_search,
                                  options_.aggressive_coalescing);
    slot.encoder = std::make_unique<CandidateEncoder>(q);
    slot.encoder->BuildAll(graph_);
    return Register(std::move(slot));
  }

 protected:
  void RunMatchPhase(const UpdateBatch& batch, bool positive,
                     const BatchOptions& /*options*/,
                     BatchReport* report) override {
    // Polarity-ordered seeds plus the order map the dedup rule reads.
    std::vector<SeedEdge> seeds;
    std::unordered_map<Edge, uint32_t, EdgeHash> order;
    for (const UpdateOp& op : batch) {
      if (op.is_insert != positive) continue;
      const auto next = static_cast<uint32_t>(seeds.size());
      seeds.push_back(SeedEdge{op.u, op.v, op.elabel, next});
      order.emplace(Edge(op.u, op.v), next);
    }
    if (seeds.empty() || slots_.empty()) return;

    // Matching reads graph_, which must hold exactly the GPMA's edges:
    // both are pre-update here in the negative phase and post-update in
    // the positive one (RunUpdatePhase applies the batch to both).
    GAMMA_CHECK(2 * graph_.NumEdges() == gpma_.NumEntries());
    Bitset endpoints(graph_.NumVertices());
    for (const SeedEdge& seed : seeds) {
      endpoints.Set(seed.v1);
      endpoints.Set(seed.v2);
    }

    // The launched tasks point into these envs: they must outlive every
    // Launch below.
    std::vector<WbmEnv> envs;
    envs.reserve(slots_.size());
    for (const DeviceSlot& s : slots_) {
      envs.push_back(
          WbmEnv{&gpma_, &s.qctx, s.encoder.get(), &order, positive});
      envs.back().result_cap = options_.result_cap;
      envs.back().mirror = &graph_;
      envs.back().seed_endpoints = &endpoints;
    }
    auto charge = [&](size_t i, const DeviceStats& stats, bool over) {
      QueryReport& qr = report->queries[i];  // InitReport order
      GAMMA_CHECK(qr.id == slots_[i].id);
      qr.match_stats.MergeSequential(stats);
      qr.timed_out = qr.timed_out || stats.timed_out;
      qr.overflowed = qr.overflowed || over;
    };

    if (!fused_) {
      // Separate launches, modeled back to back on the one device and
      // simulated together on its host pool.  Charging runs after the
      // barrier in query order, so reports match sequential launches.
      struct QueryLaunch {
        std::atomic<size_t> emitted{0};
        std::atomic<bool> overflowed{false};
        std::vector<std::vector<MatchRecord>> slots;
      };
      std::vector<QueryLaunch> launches(slots_.size());
      std::vector<Device::TaskList> lists;
      lists.reserve(slots_.size());
      for (size_t i = 0; i < slots_.size(); ++i) {
        if (envs[i].result_cap > 0) {  // per-launch cap
          envs[i].emitted = &launches[i].emitted;
          envs[i].overflowed = &launches[i].overflowed;
        }
        lists.push_back(MakeWbmTasks(envs[i], seeds, &launches[i].slots));
      }
      // Each query's slots are gathered, and freed, as soon as its own
      // launch finishes; only query i's report is touched.
      const std::vector<DeviceStats> stats =
          device_.LaunchEach(std::move(lists), [&](size_t i) {
            AppendSlots(&launches[i].slots,
                        &Matches(&report->queries[i], positive));
          });
      for (size_t i = 0; i < slots_.size(); ++i) {
        charge(i, stats[i],
               launches[i].overflowed.load(std::memory_order_relaxed));
        report->match_stats.MergeSequential(stats[i]);
      }
      return;
    }

    // One launch for every query: the result cap is launch-wide.
    std::atomic<size_t> emitted{0};
    std::atomic<bool> overflowed{false};
    std::vector<std::vector<std::vector<MatchRecord>>> out(slots_.size());
    std::vector<std::unique_ptr<WarpTask>> tasks;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (envs[i].result_cap > 0) {
        envs[i].emitted = &emitted;
        envs[i].overflowed = &overflowed;
      }
      for (auto& t : MakeWbmTasks(envs[i], seeds, &out[i])) {
        tasks.push_back(std::move(t));
      }
    }
    const DeviceStats stats = device_.Launch(std::move(tasks));
    const bool over = overflowed.load(std::memory_order_relaxed);
    for (size_t i = 0; i < slots_.size(); ++i) {
      AppendSlots(&out[i], &Matches(&report->queries[i], positive));
      // Every query's record describes the same shared kernel.
      charge(i, stats, over);
    }
    report->match_stats.MergeSequential(stats);
  }

  void RunUpdatePhase(const UpdateBatch& batch,
                      const BatchOptions& /*options*/,
                      BatchReport* report) override {
    const UpdatePlan plan = gpma_.ApplyBatch(batch);
    const DeviceStats update =
        SimulateGpmaUpdate(device_, plan, options_.gpma);
    Timer host;
    ApplyBatch(&graph_, batch);
    // Each encoder reads graph_ and writes only its own rows.
    device_.HostParallelFor(slots_.size(), [&](size_t i) {
      slots_[i].encoder->ApplyBatchDirty(graph_, batch);
    });
    report->preprocess_host_seconds = host.ElapsedSeconds();
    // "multi" pays the shared update once, "gamma" once per live query.
    if (fused_) report->update_stats = update;
    for (QueryReport& qr : report->queries) {
      qr.update_stats = update;
      qr.timed_out = qr.timed_out || update.timed_out;
      qr.preprocess_host_seconds = report->preprocess_host_seconds;
      if (!fused_) report->update_stats.MergeSequential(update);
    }
  }

 private:
  static std::vector<MatchRecord>& Matches(QueryReport* qr, bool positive) {
    return positive ? qr->positive_matches : qr->negative_matches;
  }

  /// Moves per-seed result slots, in seed order, onto `dst` and frees
  /// them.
  static void AppendSlots(std::vector<std::vector<MatchRecord>>* slots,
                          std::vector<MatchRecord>* dst) {
    size_t total = dst->size();
    for (const auto& s : *slots) total += s.size();
    dst->reserve(total);
    for (auto& s : *slots) {
      dst->insert(dst->end(), std::make_move_iterator(s.begin()),
                  std::make_move_iterator(s.end()));
    }
    std::vector<std::vector<MatchRecord>>().swap(*slots);
  }

  const char* name_;
  bool fused_;  ///< "multi": one launch per polarity, update charged once
  GammaOptions options_;
  Gpma gpma_;
  Device device_;
};

// ------------------------------------------------------------ CsmAdapter

/// One registered query of a CSM baseline.
struct CsmSlot {
  QueryId id = kInvalidQueryId;
  std::unique_ptr<CsmEngine> engine;
  const QueryGraph& Query() const { return engine->query(); }
};

/// The five sequential CPU baselines behind the Engine interface: one
/// CsmEngine instance per registered query, each processing the batch
/// edge-at-a-time.  Matching is interleaved with updates in the CSM
/// chassis, so everything happens in RunUpdatePhase.
class CsmAdapter final : public LeafEngine<CsmSlot> {
 public:
  CsmAdapter(const char* registry_name, std::string csm_key,
             const LabeledGraph& g, const EngineOptions& options)
      : LeafEngine(g),
        name_(registry_name),
        csm_key_(std::move(csm_key)),
        result_cap_(options.csm_result_cap),
        default_budget_(options.csm_budget_seconds) {}

  const char* Name() const override { return name_; }

  EngineInfo Describe() const override {
    EngineInfo info;
    info.canonical_spec = CanonicalSpecOrName();
    info.clock = ClockDomain::kHostWall;
    info.supports_snapshot = true;
    return info;
  }

  QueryId AddQuery(const QueryGraph& q) override {
    CsmSlot slot;
    slot.engine = MakeCsmEngine(csm_key_, graph_, q);
    slot.engine->set_result_cap(result_cap_);
    return Register(std::move(slot));
  }

 protected:
  void RunMatchPhase(const UpdateBatch&, bool, const BatchOptions&,
                     BatchReport*) override {}

  void RunUpdatePhase(const UpdateBatch& batch,
                      const BatchOptions& options,
                      BatchReport* report) override {
    double budget = options.budget_seconds > 0 ? options.budget_seconds
                                               : default_budget_;
    for (size_t i = 0; i < slots_.size(); ++i) {
      CsmSlot& s = slots_[i];
      QueryReport* qr = &report->queries[i];  // InitReport order
      GAMMA_CHECK(qr->id == s.id);
      Timer t;
      std::vector<MatchRecord> raw = s.engine->ProcessBatch(batch, budget);
      qr->host_wall_seconds = t.ElapsedSeconds();
      qr->timed_out = qr->timed_out || s.engine->timed_out();
      qr->overflowed = qr->overflowed || s.engine->overflowed();
      // The chassis interleaves positives and negatives edge by edge;
      // deliver in that order so order-sensitive sinks (delta views)
      // see the same sequence the engine produced.
      for (const MatchRecord& m : raw) {
        DeliverDirect(options, qr, m);
      }
    }
    ApplyBatch(&graph_, batch);
  }

 private:
  const char* name_;
  std::string csm_key_;  ///< MakeCsmEngine key ("TF", "SYM", ...)
  size_t result_cap_;
  double default_budget_;
};

std::string Canonical(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

/// Joins strings as `a, b, c` for error messages and listings.
std::string JoinSorted(std::vector<std::string> items) {
  std::sort(items.begin(), items.end());
  std::string out;
  for (const std::string& s : items) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out;
}

/// Inline option table of the device engines ("gamma", "multi").
std::vector<EngineOptionKey> DeviceOptionKeys() {
  return {
      {"result_cap",
       "cap on matches materialized per kernel launch (0 = unlimited)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n)) return false;
         o->gamma.result_cap = n;
         return true;
       }},
      {"budget", "per-launch host budget in seconds (0 = unlimited)",
       [](const std::string& v, EngineOptions* o) {
         double s;
         if (!ParseDoubleValue(v, &s) || s < 0.0) return false;
         o->gamma.device.host_budget_seconds = s;
         return true;
       }},
      {"segment_capacity", "GPMA segment capacity (a power of two)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n) || n == 0 || (n & (n - 1)) != 0 ||
             n > (size_t{1} << 31)) {
           return false;
         }
         o->gamma.gpma_segment_capacity = static_cast<uint32_t>(n);
         return true;
       }},
      {"coalesced", "coalesced candidate search on/off (paper §V-B)",
       [](const std::string& v, EngineOptions* o) {
         bool b;
         if (!ParseBoolValue(v, &b)) return false;
         o->gamma.coalesced_search = b;
         return true;
       }},
      {"aggressive_coalescing",
       "coalesce equivalent edges across encoder-constraint orbits",
       [](const std::string& v, EngineOptions* o) {
         bool b;
         if (!ParseBoolValue(v, &b)) return false;
         o->gamma.aggressive_coalescing = b;
         return true;
       }},
  };
}

/// Inline option table of the CPU (CSM) baselines.
std::vector<EngineOptionKey> CsmOptionKeys() {
  return {
      {"result_cap", "cap on matches per query (0 = unlimited)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n)) return false;
         o->csm_result_cap = n;
         return true;
       }},
      {"budget", "per-query host budget in seconds (0 = unlimited)",
       [](const std::string& v, EngineOptions* o) {
         double s;
         if (!ParseDoubleValue(v, &s) || s < 0.0) return false;
         o->csm_budget_seconds = s;
         return true;
       }},
  };
}

}  // namespace

// --------------------------------------------------------- EngineRegistry

EngineRegistry::EngineRegistry() {
  EngineDef gamma_def;
  gamma_def.option_keys = DeviceOptionKeys();
  gamma_def.example = "gamma(result_cap=100000)";
  gamma_def.factory = [](const EngineSpec&, const LabeledGraph& g,
                         const EngineOptions& o) {
    return std::unique_ptr<Engine>(new DeviceEngine("gamma", false, g, o));
  };
  EngineDef multi_def = gamma_def;
  multi_def.example = "multi(budget=1.0)";
  multi_def.factory = [](const EngineSpec&, const LabeledGraph& g,
                         const EngineOptions& o) {
    return std::unique_ptr<Engine>(new DeviceEngine("multi", true, g, o));
  };
  Register("gamma", std::move(gamma_def));
  Register("multi", std::move(multi_def));

  struct Csm {
    const char* name;
    const char* alias;
    const char* key;
  };
  for (const Csm& c : {Csm{"tf", "turboflux", "TF"},
                       Csm{"sym", "symbi", "SYM"},
                       Csm{"rf", "rapidflow", "RF"},
                       Csm{"cl", "calig", "CL"},
                       Csm{"gf", "graphflow", "GF"}}) {
    EngineDef def;
    def.option_keys = CsmOptionKeys();
    def.example = std::string(c.name) + "(result_cap=100000, budget=1.0)";
    def.factory = [c](const EngineSpec&, const LabeledGraph& g,
                      const EngineOptions& o) {
      return std::unique_ptr<Engine>(new CsmAdapter(c.name, c.key, g, o));
    };
    Register(c.name, std::move(def));
    RegisterAlias(c.alias, c.name);
  }
  RegisterAlias("multigamma", "multi");

  // The serving wrapper ("sharded") and the replica group
  // ("replicated").  Registered through explicit hooks rather than
  // layer-local static initializers, which the linker would drop from
  // the static library whenever no serve//replica/ symbol is
  // referenced directly.
  serve::RegisterServeEngines(this);
  replica::RegisterReplicaEngines(this);
}

EngineRegistry& EngineRegistry::Instance() {
  static EngineRegistry registry;
  return registry;
}

void EngineRegistry::Register(const std::string& name, EngineDef def) {
  entries_[Canonical(name)] = Entry{std::move(def), /*alias_target=*/""};
}

void EngineRegistry::Register(const std::string& name,
                              EngineFactory factory) {
  EngineDef def;
  def.factory = std::move(factory);
  def.example = Canonical(name);
  Register(name, std::move(def));
}

void EngineRegistry::RegisterAlias(const std::string& alias,
                                   const std::string& target) {
  std::string canonical_target = Canonical(target);
  GAMMA_CHECK_MSG(entries_.count(canonical_target) > 0,
                  "alias target must be registered first");
  Entry entry;
  entry.alias_target = canonical_target;
  entries_[Canonical(alias)] = std::move(entry);
}

const EngineRegistry::Entry* EngineRegistry::Resolve(
    const std::string& name, std::string* canonical_name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  if (!it->second.alias_target.empty()) {
    *canonical_name = it->second.alias_target;
    it = entries_.find(it->second.alias_target);
    GAMMA_CHECK(it != entries_.end());
  } else {
    *canonical_name = name;
  }
  return &it->second;
}

EngineSpec EngineRegistry::Canonicalize(const EngineSpec& spec) const {
  EngineSpec out = spec;
  out.name = Canonical(out.name);
  std::string canonical_name;
  if (Resolve(out.name, &canonical_name) == nullptr) {
    throw EngineSpecError("unknown engine \"" + out.name +
                          "\"; registered engines: " + JoinSorted(Names()));
  }
  out.name = canonical_name;
  for (EngineSpec& child : out.children) child = Canonicalize(child);
  return out;
}

void EngineRegistry::ApplyOptions(const EngineSpec& spec,
                                  const EngineDef& def,
                                  EngineOptions* options) const {
  for (const auto& [key, value] : spec.options) {
    const EngineOptionKey* found = nullptr;
    for (const EngineOptionKey& ok : def.option_keys) {
      if (ok.key == key) {
        found = &ok;
        break;
      }
    }
    if (found == nullptr) {
      std::vector<std::string> keys;
      for (const EngineOptionKey& ok : def.option_keys) {
        keys.push_back(ok.key);
      }
      throw EngineSpecError(
          "unknown option \"" + key + "\" for engine \"" + spec.name +
          "\"; " +
          (keys.empty() ? std::string("it takes no options")
                        : "valid keys: " + JoinSorted(std::move(keys))));
    }
    if (!found->apply(value, options)) {
      throw EngineSpecError("bad value \"" + value + "\" for option \"" +
                            key + "\" of engine \"" + spec.name + "\"");
    }
  }
}

namespace {

/// Arity error text: "no inner engine spec" / "exactly one inner
/// engine spec" / "between 1 and 2 inner engine specs".
std::string ArityText(size_t min_children, size_t max_children) {
  if (max_children == 0) return "no inner engine spec";
  if (min_children == max_children) {
    return (min_children == 1 ? std::string("exactly one")
                              : std::to_string(min_children)) +
           " inner engine spec" + (min_children == 1 ? "" : "s");
  }
  return "between " + std::to_string(min_children) + " and " +
         std::to_string(max_children) + " inner engine specs";
}

}  // namespace

std::optional<std::string> EngineRegistry::Validate(
    const EngineSpec& spec) const {
  try {
    return ValidateCanonical(Canonicalize(spec), /*nested=*/false);
  } catch (const EngineSpecError& e) {
    return std::string(e.what());
  }
}

std::optional<std::string> EngineRegistry::ValidateCanonical(
    const EngineSpec& canonical, bool nested) const {
  try {
    // Walk the canonical tree: arity, option and root-only checks at
    // every node.
    std::vector<const EngineSpec*> todo = {&canonical};
    while (!todo.empty()) {
      const EngineSpec* node = todo.back();
      todo.pop_back();
      std::string name;
      const Entry* entry = Resolve(node->name, &name);
      GAMMA_CHECK(entry != nullptr);  // Canonicalize resolved every name
      const EngineDef& def = entry->def;
      if (def.root_only && (nested || node != &canonical)) {
        throw EngineSpecError(
            "engine \"" + node->name +
            "\" must be the root of the spec: its end-of-batch hook runs "
            "only on the outermost engine, so nested it would do nothing; "
            "move it outward in \"" + canonical.ToString() + "\"");
      }
      if (node->children.size() < def.min_children ||
          node->children.size() > def.max_children) {
        throw EngineSpecError(
            "engine \"" + node->name + "\" takes " +
            ArityText(def.min_children, def.max_children) + ", got " +
            std::to_string(node->children.size()) + " in \"" +
            node->ToString() + "\"" +
            (def.example.empty() ? "" : "; example: " + def.example));
      }
      EngineOptions scratch;
      ApplyOptions(*node, def, &scratch);
      for (const EngineSpec& child : node->children) todo.push_back(&child);
    }
  } catch (const EngineSpecError& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

std::optional<std::string> EngineRegistry::Validate(
    const std::string& spec) const {
  try {
    return Validate(EngineSpec::Parse(spec));
  } catch (const EngineSpecError& e) {
    return std::string(e.what());
  }
}

bool EngineRegistry::Has(const std::string& spec) const {
  return !Validate(spec).has_value();
}

std::vector<std::string> EngineRegistry::Names() const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : entries_) {
    if (entry.alias_target.empty()) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<EngineRegistry::Listing> EngineRegistry::Listings() const {
  std::vector<Listing> listings;
  for (const std::string& name : Names()) {
    auto it = entries_.find(name);
    Listing listing;
    listing.name = name;
    listing.example = it->second.def.example;
    for (const EngineOptionKey& ok : it->second.def.option_keys) {
      listing.option_keys.push_back(ok.key);
    }
    std::sort(listing.option_keys.begin(), listing.option_keys.end());
    listings.push_back(std::move(listing));
  }
  return listings;
}

std::unique_ptr<Engine> EngineRegistry::Make(
    const EngineSpec& spec, const LabeledGraph& g,
    const EngineOptions& options) const {
  return Build(spec, g, options, /*nested=*/false);
}

std::unique_ptr<Engine> EngineRegistry::MakeInner(
    const EngineSpec& spec, const LabeledGraph& g,
    const EngineOptions& options) const {
  return Build(spec, g, options, /*nested=*/true);
}

std::unique_ptr<Engine> EngineRegistry::Build(const EngineSpec& spec,
                                              const LabeledGraph& g,
                                              const EngineOptions& options,
                                              bool nested) const {
  EngineSpec canonical = Canonicalize(spec);
  // Fail fast over the whole tree before any engine is built: a bad
  // inner spec must not surface after the outer wrapper spun up
  // threads or replicated graphs.
  if (std::optional<std::string> err = ValidateCanonical(canonical, nested)) {
    throw EngineSpecError(*err);
  }
  std::string name;
  const Entry* entry = Resolve(canonical.name, &name);
  EngineOptions applied = options;
  ApplyOptions(canonical, entry->def, &applied);
  // Programmatic EngineOptions bypass the spec-string option parsers, so
  // the same structural constraints are re-checked here: a bad value must
  // surface as an EngineSpecError before any engine is constructed, not
  // as an internal-check abort inside the Gpma constructor.
  if (uint32_t cap = applied.gamma.gpma_segment_capacity;
      cap == 0 || (cap & (cap - 1)) != 0) {
    throw EngineSpecError(
        "gpma_segment_capacity must be a nonzero power of two, got " +
        std::to_string(cap) +
        " (set via EngineOptions.gamma.gpma_segment_capacity or the "
        "segment_capacity= spec option)");
  }
  std::unique_ptr<Engine> engine = entry->def.factory(canonical, g, applied);
  GAMMA_CHECK(engine != nullptr);
  // An engine that stamped its own spec during construction (wrappers
  // materialize defaults, e.g. the shard count) keeps it — but only
  // when that stamp names the engine we just built.  A delegating
  // factory (one that returns a nested Make() of another name) hands
  // back an engine stamped as the *inner* spec, which must not leak
  // into provenance: rebuilding from it would produce a different
  // engine.
  bool keep_stamp = false;
  if (!engine->canonical_spec_.empty()) {
    try {
      keep_stamp =
          EngineSpec::Parse(engine->canonical_spec_).name == canonical.name;
    } catch (const EngineSpecError&) {
      keep_stamp = false;
    }
  }
  if (!keep_stamp) engine->canonical_spec_ = canonical.ToString();
  return engine;
}

std::unique_ptr<Engine> EngineRegistry::Make(
    const std::string& spec, const LabeledGraph& g,
    const EngineOptions& options) const {
  return Make(EngineSpec::Parse(spec), g, options);
}

std::unique_ptr<Engine> MakeEngine(const std::string& spec,
                                   const LabeledGraph& g,
                                   const EngineOptions& options) {
  return EngineRegistry::Instance().Make(spec, g, options);
}

std::unique_ptr<Engine> MakeEngine(const EngineSpec& spec,
                                   const LabeledGraph& g,
                                   const EngineOptions& options) {
  return EngineRegistry::Instance().Make(spec, g, options);
}

std::vector<std::string> EngineNames() {
  return EngineRegistry::Instance().Names();
}

std::vector<MatchRecord> NetDelta(const QueryReport& report) {
  std::vector<MatchRecord> raw = report.positive_matches;
  raw.insert(raw.end(), report.negative_matches.begin(),
             report.negative_matches.end());
  return NetEffect(raw);
}

}  // namespace bdsm
