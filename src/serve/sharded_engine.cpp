#include "serve/sharded_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/tenant_front_door.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

namespace bdsm::serve {

ShardedEngine::ShardedEngine(const EngineSpec& inner, size_t num_shards,
                             const LabeledGraph& g,
                             const EngineOptions& options)
    : pool_(options.serve_threads > 0 ? options.serve_threads : num_shards),
      queue_capacity_(options.serve_queue_capacity) {
  GAMMA_CHECK_MSG(num_shards > 0, "ShardedEngine needs at least one shard");
  GAMMA_CHECK_MSG(queue_capacity_ > 0, "ingest queue needs capacity >= 1");
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    Shard shard;
    shard.engine = MakeEngine(inner, g, options);
    shards_.push_back(std::move(shard));
  }
  // Compose the canonical spec from the *built* inner engine (aliases
  // resolved by the registry), not the raw argument,
  // materializing every non-default knob of this layer — whether it
  // arrived inline (threads=2) or via EngineOptions — so Name() and
  // Describe().canonical_spec fully identify the configuration (they
  // are the provenance key bench JSON rows are diffed by).
  const EngineOptions defaults;
  EngineSpec self;
  self.name = "sharded";
  self.children.push_back(
      EngineSpec::Parse(shards_.front().engine->Describe().canonical_spec));
  self.options.emplace_back("shards", std::to_string(num_shards));
  if (options.serve_threads != defaults.serve_threads) {
    self.options.emplace_back("threads",
                              std::to_string(options.serve_threads));
  }
  if (options.serve_queue_capacity != defaults.serve_queue_capacity) {
    self.options.emplace_back("queue", std::to_string(queue_capacity_));
  }
  name_ = self.ToString();
  StampCanonicalSpec(name_);
  shard_busy_seconds_.assign(num_shards, 0.0);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_[s].lane = std::make_unique<FanInSink::Lane>(
        &fanin_, [this, s](QueryId inner_id) {
          const auto& map = shards_[s].to_public;
          auto it = map.find(inner_id);
          return it == map.end() ? inner_id : it->second;
        });
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

ShardedEngine::ShardedEngine(const std::string& inner, size_t num_shards,
                             const LabeledGraph& g,
                             const EngineOptions& options)
    : ShardedEngine(EngineSpec::Parse(inner), num_shards, g, options) {}

EngineInfo ShardedEngine::Describe() const {
  EngineInfo inner = shards_.front().engine->Describe();
  EngineInfo info;
  info.canonical_spec = CanonicalSpecOrName();
  // Device-modeled inner engines stay on the modeled clock (the merge
  // reproduces the unsharded launch accounting); CPU inner engines run
  // shard-concurrently, so the honest clock is the critical path.
  info.clock = inner.clock == ClockDomain::kModeledDevice
                   ? ClockDomain::kModeledDevice
                   : ClockDomain::kCriticalPath;
  info.supports_remove_query = inner.supports_remove_query;
  info.tick_seconds = inner.tick_seconds;
  info.num_shards = shards_.size();
  info.inner_spec = inner.canonical_spec;
  info.supports_snapshot = inner.supports_snapshot;
  return info;
}

ShardedEngine::~ShardedEngine() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_ready_.notify_all();
  queue_space_.notify_all();
  dispatcher_.join();
}

QueryId ShardedEngine::AddQuery(const QueryGraph& q) {
  QueryId public_id = next_id_++;
  size_t shard = public_id % shards_.size();
  QueryId inner_id = shards_[shard].engine->AddQuery(q);
  shards_[shard].to_public[inner_id] = public_id;
  slots_.push_back(SlotRef{public_id, shard, inner_id});
  return public_id;
}

bool ShardedEngine::RemoveQuery(QueryId id) {
  for (auto it = slots_.begin(); it != slots_.end(); ++it) {
    if (it->public_id != id) continue;
    Shard& shard = shards_[it->shard];
    GAMMA_CHECK(shard.engine->RemoveQuery(it->inner_id));
    shard.to_public.erase(it->inner_id);
    slots_.erase(it);
    return true;
  }
  return false;
}

std::vector<QueryId> ShardedEngine::QueryIds() const {
  std::vector<QueryId> ids;
  ids.reserve(slots_.size());
  for (const SlotRef& ref : slots_) ids.push_back(ref.public_id);
  return ids;
}

std::vector<RegisteredQuery> ShardedEngine::RegisteredQueries() const {
  // One capture per shard, indexed by inner id (this sits on the
  // snapshot path, which checkpoint policies may hit every batch).
  std::vector<std::unordered_map<QueryId, QueryGraph>> by_inner(
      shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (RegisteredQuery& rq : shards_[s].engine->RegisteredQueries()) {
      by_inner[s].emplace(rq.id, std::move(rq.query));
    }
  }
  std::vector<RegisteredQuery> out;
  out.reserve(slots_.size());
  for (const SlotRef& ref : slots_) {
    auto it = by_inner[ref.shard].find(ref.inner_id);
    if (it == by_inner[ref.shard].end()) {
      return {};  // inner engine cannot capture its set
    }
    // The public id is what the snapshot records.
    out.push_back(RegisteredQuery{ref.public_id, std::move(it->second)});
  }
  return out;
}

bool ShardedEngine::RestoreQuery(const QueryGraph& q, QueryId id) {
  if (id < next_id_) return false;
  // Round-robin placement is keyed on the public id, so advancing the
  // counter to the snapshot id reproduces the original shard
  // assignment exactly (gaps from removed queries included).
  next_id_ = id;
  return AddQuery(q) == id;
}

size_t ShardedEngine::ShardOf(QueryId id) const {
  for (const SlotRef& ref : slots_) {
    if (ref.public_id == id) return ref.shard;
  }
  return kInvalidShard;
}

void ShardedEngine::BeginBatch(const BatchOptions& options) {
  if (poisoned_.load(std::memory_order_relaxed)) {
    throw std::runtime_error(
        "ShardedEngine poisoned: an earlier batch failed mid-flight "
        "and shard replicas may have diverged");
  }
  fanin_.set_downstream(options.sink);
  for (Shard& shard : shards_) {
    // InitReport only rebuilds the query slots; the aggregates must be
    // zeroed explicitly since scratch is reused across batches.
    shard.scratch = BatchReport{};
    shard.engine->InitReport(&shard.scratch);
  }
}

double ShardedEngine::ForEachShard(
    const BatchOptions& options, const char* phase_name,
    const std::function<void(Shard&, const BatchOptions&)>& phase_body) {
  std::vector<double> phase_seconds(shards_.size(), 0.0);
  try {
    pool_.ParallelFor(shards_.size(), [&](size_t s) {
      // Thread-CPU, not wall: each shard task runs on one worker, and
      // its cost must not inflate when workers share cores (see
      // ShardBusySeconds docs).
      ThreadCpuTimer timer;
      Shard& shard = shards_[s];
      // A nested sharded inner engine does its work on its *own* pool
      // (this worker blocks on its barrier, accruing ~no thread-CPU),
      // reporting the cost as scratch critical path instead — charge
      // the delta so nesting keeps the clock honest.
      double inner_critical_before = shard.scratch.critical_path_seconds;
      BatchOptions inner = options;
      inner.sink = options.sink != nullptr ? shard.lane.get() : nullptr;
      phase_body(shard, inner);
      // Stream this phase's new matches through the shard's lane and
      // maintain the shard-local counts, exactly as the unsharded
      // driver would between phases.
      Engine::FlushPhase(inner, &shard.scratch);
      phase_seconds[s] =
          timer.ElapsedSeconds() +
          (shard.scratch.critical_path_seconds - inner_critical_before);
    });
  } catch (...) {
    // A shard failing mid-phase may leave the replicas diverged (some
    // applied this batch's work, some did not) — poison on every drive
    // path, not just the dispatcher's.
    poisoned_.store(true, std::memory_order_relaxed);
    throw;
  }
  // Serving stats: each phase is a barrier, so its concurrent cost is
  // the slowest shard's (the critical path a host with enough cores
  // pays); per-shard busy time accumulates for utilization views.
  double slowest = 0.0;
  double busy = 0.0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    shard_busy_seconds_[s] += phase_seconds[s];
    busy += phase_seconds[s];
    slowest = std::max(slowest, phase_seconds[s]);
  }
  critical_path_seconds_ += slowest;
#if BDSM_OBS
  if (obs::Enabled()) {
    BDSM_OBS_COUNT_US("serve.critical_path_us", slowest);
    BDSM_OBS_COUNT_US("serve.shards.busy_us", busy);
    obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
    if (tracer.enabled()) {
      // Per-shard fan-out lanes on the critical-path clock: all shards
      // of a phase start together (barrier semantics), the slowest one
      // advances the cursor — mirroring critical_path_seconds_.
      for (size_t s = 0; s < shards_.size(); ++s) {
        obs::TraceSpan span;
        span.name = "serve.shard";
        span.domain = obs::Domain::kCriticalPath;
        span.start_s = obs_shard_cursor_;
        span.dur_s = phase_seconds[s];
        span.batch = obs_batch_seq_;
        span.shard = static_cast<int32_t>(s);
        span.detail = phase_name;
        tracer.Record(std::move(span));
      }
      obs_shard_cursor_ += slowest;
    }
  }
#else
  (void)phase_name;
  (void)busy;
#endif
  return slowest;
}

void ShardedEngine::ResetServingStats() {
  shard_busy_seconds_.assign(shards_.size(), 0.0);
  critical_path_seconds_ = 0.0;
}

void ShardedEngine::MergeIntoReport(const BatchOptions& options,
                                    BatchReport* report) {
  GAMMA_CHECK(report->queries.size() == slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    const SlotRef& ref = slots_[i];
    QueryReport& out = report->queries[i];  // InitReport order
    GAMMA_CHECK(out.id == ref.public_id);
    const QueryReport* in = shards_[ref.shard].scratch.Find(ref.inner_id);
    GAMMA_CHECK(in != nullptr);

    out.num_positive = in->num_positive;
    out.num_negative = in->num_negative;
    out.timed_out = in->timed_out;
    out.overflowed = in->overflowed;
    out.update_stats = in->update_stats;
    out.match_stats = in->match_stats;
    out.preprocess_host_seconds = in->preprocess_host_seconds;
    out.host_wall_seconds = in->host_wall_seconds;
    if (options.materialize) {
      // Shard scratch accumulates across phases; append only the tail
      // this merge hasn't seen yet (the public vector's size tracks it).
      out.positive_matches.insert(
          out.positive_matches.end(),
          in->positive_matches.begin() +
              static_cast<ptrdiff_t>(out.positive_matches.size()),
          in->positive_matches.end());
      out.negative_matches.insert(
          out.negative_matches.end(),
          in->negative_matches.begin() +
              static_cast<ptrdiff_t>(out.negative_matches.size()),
          in->negative_matches.end());
    }
    // The fan-in lanes already streamed and counted everything merged
    // here; advance the flush markers so the outer FlushPhase neither
    // re-counts nor re-delivers.
    out.streamed_positive = out.positive_matches.size();
    out.streamed_negative = out.negative_matches.size();
  }

  // Aggregates, rebuilt from the shard aggregates in shard-index order.
  // DeviceStats accumulation is commutative (sums/maxes/ors), so for
  // per-query-independent inner engines this equals the unsharded
  // engine's query-order accumulation bit for bit.
  report->update_stats = DeviceStats{};
  report->match_stats = DeviceStats{};
  report->preprocess_host_seconds = 0.0;
  for (const Shard& shard : shards_) {
    report->update_stats.MergeSequential(shard.scratch.update_stats);
    report->match_stats.MergeSequential(shard.scratch.match_stats);
    report->preprocess_host_seconds +=
        shard.scratch.preprocess_host_seconds;
  }
}

void ShardedEngine::RunMatchPhase(const UpdateBatch& batch, bool positive,
                                  const BatchOptions& options,
                                  BatchReport* report) {
  // The negative phase is always the first phase of a batch (every
  // driver runs negative -> update -> positive), so it doubles as the
  // per-batch reset point.
  if (!positive) BeginBatch(options);
  report->critical_path_seconds += ForEachShard(
      options, positive ? "match+" : "match-",
      [&](Shard& shard, const BatchOptions& inner) {
        shard.engine->RunMatchPhase(batch, positive, inner, &shard.scratch);
      });
  MergeIntoReport(options, report);
}

void ShardedEngine::RunUpdatePhase(const UpdateBatch& batch,
                                   const BatchOptions& options,
                                   BatchReport* report) {
  // Every shard applies the batch to its own replica, keeping all
  // host graphs (and any late AddQuery) in lockstep.
  report->critical_path_seconds += ForEachShard(
      options, "update", [&](Shard& shard, const BatchOptions& inner) {
        shard.engine->RunUpdatePhase(batch, inner, &shard.scratch);
      });
  MergeIntoReport(options, report);
}

std::future<BatchReport> ShardedEngine::SubmitBatch(UpdateBatch batch,
                                                    BatchOptions options) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_space_.wait(lock, [this] {
    return queue_.size() < queue_capacity_ || stopping_;
  });
  GAMMA_CHECK_MSG(!stopping_, "SubmitBatch on a stopping engine");
  PendingBatch pending;
  pending.batch = std::move(batch);
  pending.options = options;
  pending.enqueued = std::chrono::steady_clock::now();
  pending.depth_at_submit = queue_.size();
  std::future<BatchReport> result = pending.promise.get_future();
  queue_.push_back(std::move(pending));
  lock.unlock();
  queue_ready_.notify_one();
  return result;
}

std::optional<std::future<BatchReport>> ShardedEngine::TrySubmitBatch(
    UpdateBatch batch, BatchOptions options) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  if (queue_.size() >= queue_capacity_ || stopping_) return std::nullopt;
  PendingBatch pending;
  pending.batch = std::move(batch);
  pending.options = options;
  pending.enqueued = std::chrono::steady_clock::now();
  pending.depth_at_submit = queue_.size();
  std::future<BatchReport> result = pending.promise.get_future();
  queue_.push_back(std::move(pending));
  lock.unlock();
  queue_ready_.notify_one();
  return result;
}

size_t ShardedEngine::PendingBatches() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

void ShardedEngine::DispatchLoop() {
  for (;;) {
    PendingBatch pending;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_ready_.wait(lock,
                        [this] { return stopping_ || !queue_.empty(); });
      // On shutdown the queue is drained first: every accepted batch
      // still gets processed and its future fulfilled.
      if (queue_.empty()) return;
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_space_.notify_one();
    // A failing batch (e.g. bad_alloc out of a shard) must fail its own
    // future, not take down the dispatcher and the process with it.
    // It also poisons the engine: the batch may have been applied to
    // some shard replicas and not others, so serving on would produce
    // silently inconsistent merges.
    try {
      if (poisoned_.load(std::memory_order_relaxed)) {
        throw std::runtime_error(
            "ShardedEngine poisoned: an earlier batch failed mid-flight "
            "and shard replicas may have diverged");
      }
      // Queue wait ends when the dispatcher picks the batch up, before
      // processing starts — the pure ingest-queue component.
      const double waited =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        pending.enqueued)
              .count();
#if BDSM_OBS
      if (obs::Enabled()) {
        BDSM_OBS_COUNT("serve.ingest.batches", 1);
        BDSM_OBS_COUNT_US("serve.ingest.queue_wait_us", waited);
        BDSM_OBS_GAUGE_SET("serve.ingest.queue_depth",
                           static_cast<int64_t>(pending.depth_at_submit));
        obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
        if (tracer.enabled()) {
          obs::TraceSpan span;
          span.name = "serve.ingest.wait";
          span.domain = obs::Domain::kHostWall;
          span.start_s = tracer.HostNowSeconds() - waited;
          span.dur_s = waited;
          span.batch = obs_batch_seq_;
          tracer.Record(std::move(span));
        }
      }
#endif
      BatchReport report = ProcessBatch(pending.batch, pending.options);
      report.queue_wait_seconds = waited;
      report.queue_depth = pending.depth_at_submit;
      pending.promise.set_value(std::move(report));
    } catch (...) {
      poisoned_.store(true, std::memory_order_relaxed);
      pending.promise.set_exception(std::current_exception());
    }
  }
}

void RegisterServeEngines(EngineRegistry* registry) {
  EngineDef def;
  def.example = "sharded(gamma, shards=8)";
  def.min_children = 1;
  def.max_children = 1;
  def.option_keys = {
      {"shards", "inner engine instances to partition queries across",
       // Structural key: consumed by the factory below, validated here.
       [](const std::string& v, EngineOptions*) {
         size_t n;
         return ParseSizeValue(v, &n) && n >= 1 &&
                n <= 4096;  // sanity bound, not a target
       }},
      {"threads", "phase fan-out worker threads (0 = one per shard)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n)) return false;
         o->serve_threads = n;
         return true;
       }},
      {"queue", "SubmitBatch ingest queue capacity (back-pressure bound)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n) || n == 0) return false;
         o->serve_queue_capacity = n;
         return true;
       }},
  };
  def.factory = [](const EngineSpec& spec, const LabeledGraph& g,
                   const EngineOptions& options) {
    size_t num_shards = ShardedEngine::kDefaultShards;
    if (const std::string* v = spec.FindOption("shards")) {
      ParseSizeValue(*v, &num_shards);  // validated by the key table
    }
    return std::unique_ptr<Engine>(
        new ShardedEngine(spec.children.front(), num_shards, g, options));
  };
  registry->Register("sharded", std::move(def));
  RegisterTenantEngine(registry);
}

}  // namespace bdsm::serve
