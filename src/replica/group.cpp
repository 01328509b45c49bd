#include "replica/group.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>

#include "obs/metrics.hpp"
#include "persist/snapshot.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

namespace bdsm::replica {

namespace fs = std::filesystem;

namespace {

/// A fresh shipping directory under the system temp dir.  Pid +
/// process-wide counter: unique without clocks or randomness.
std::string AutoShippingDir() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  fs::path p = fs::temp_directory_path() /
               ("bdsm-replica-" + std::to_string(::getpid()) + "-" +
                std::to_string(n));
  return p.string();
}

}  // namespace

ReplicatedEngine::ReplicatedEngine(const EngineSpec& spec,
                                   const LabeledGraph& g,
                                   const EngineOptions& options)
    : options_(options), transport_(options.replica) {
  leader_ = EngineRegistry::Instance().Make(spec, g, options_);
  if (!leader_->Describe().supports_snapshot) {
    throw EngineSpecError(
        "replicated(...) needs an inner engine with snapshot support "
        "(Describe().supports_snapshot); \"" +
        leader_->Describe().canonical_spec + "\" has none");
  }
  dir_ = options_.replica.dir;
  if (dir_.empty()) {
    dir_ = AutoShippingDir();
    own_dir_ = true;
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw persist::PersistError("cannot create replica shipping dir " +
                                dir_ + ": " + ec.message());
  }
  persist::CheckpointPolicy policy;
  policy.every_batches = options_.replica.checkpoint_every;
  policy.prune = true;
  persist::WalOptions wal;
  wal.batches_per_segment = options_.replica.segment_batches;
  checkpointer_ = std::make_unique<persist::Checkpointer>(dir_, policy, wal);

  const std::string inner = leader_->Describe().canonical_spec;
  size_t n = options_.replica.followers;
  if (n == 0) n = 1;  // a group without a follower cannot fail over
  followers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    followers_.push_back(std::make_unique<Follower>(
        static_cast<int>(i), inner, g, options_, &transport_, dir_));
  }
  max_lag_.assign(n, 0);
  StampCanonicalSpec("replicated(" + inner +
                     ", followers=" + std::to_string(n) + ")");
}

ReplicatedEngine::~ReplicatedEngine() {
  // Close the WAL before unlinking anything under it.
  checkpointer_.reset();
  followers_.clear();
  if (own_dir_) {
    std::error_code ec;
    fs::remove_all(dir_, ec);  // best effort; temp dir either way
  }
}

EngineInfo ReplicatedEngine::Describe() const {
  EngineInfo info = leader_->Describe();
  info.inner_spec = info.canonical_spec;
  info.canonical_spec = CanonicalSpecOrName();
  info.supports_replication = true;
  info.num_followers = followers_.size();
  // Tenant drive bypasses ProcessBatch (and therefore the tee);
  // replicating a tenant front door is unsupported by design.
  info.supports_tenancy = false;
  return info;
}

uint64_t ReplicatedEngine::LeaderNextBatch() const {
  return shipping_ ? checkpointer_->next_batch() : 0;
}

QueryId ReplicatedEngine::AddQuery(const QueryGraph& q) {
  GAMMA_CHECK_MSG(!leader_dead_, "AddQuery on a killed replica group");
  const QueryId id = leader_->AddQuery(q);
  for (auto& f : followers_) {
    const QueryId fid = f->AddQuery(q);
    GAMMA_CHECK_MSG(fid == id, "replica query ids diverged");
  }
  RecheckpointAfterMutation();
  return id;
}

bool ReplicatedEngine::RemoveQuery(QueryId id) {
  GAMMA_CHECK_MSG(!leader_dead_, "RemoveQuery on a killed replica group");
  const bool ok = leader_->RemoveQuery(id);
  for (auto& f : followers_) f->RemoveQuery(id);
  if (ok) RecheckpointAfterMutation();
  return ok;
}

std::vector<QueryId> ReplicatedEngine::QueryIds() const {
  return leader_->QueryIds();
}

std::vector<RegisteredQuery> ReplicatedEngine::RegisteredQueries() const {
  return leader_->RegisteredQueries();
}

bool ReplicatedEngine::RestoreQuery(const QueryGraph& q, QueryId id) {
  GAMMA_CHECK_MSG(!leader_dead_, "RestoreQuery on a killed replica group");
  if (!leader_->RestoreQuery(q, id)) return false;
  for (auto& f : followers_) {
    GAMMA_CHECK_MSG(f->RestoreQuery(q, id),
                    "replica RestoreQuery diverged");
  }
  RecheckpointAfterMutation();
  return true;
}

const LabeledGraph& ReplicatedEngine::host_graph() const {
  return leader_->host_graph();
}

void ReplicatedEngine::RunMatchPhase(const UpdateBatch& batch,
                                     bool positive,
                                     const BatchOptions& options,
                                     BatchReport* report) {
  GAMMA_CHECK_MSG(!leader_dead_,
                  "ProcessBatch on a killed replica group (run "
                  "Failover() first)");
  leader_->RunMatchPhase(batch, positive, options, report);
}

void ReplicatedEngine::RunUpdatePhase(const UpdateBatch& batch,
                                      const BatchOptions& options,
                                      BatchReport* report) {
  leader_->RunUpdatePhase(batch, options, report);
}

void ReplicatedEngine::EnsureShipping() {
  if (shipping_) return;
  // Lazy Begin: pre-stream query registrations land in the base
  // snapshot (scenario ad-hoc provenance; the manifest's engine_spec
  // is the inner engine's, so restore/resync rebuild bare inner
  // engines, never nested replica groups).
  checkpointer_->Begin(*leader_, /*seed=*/0, /*scenario=*/"");
  shipping_ = true;
}

void ReplicatedEngine::RecheckpointAfterMutation() {
  if (!shipping_) return;
  // The WAL records batches only; a mutated query set is durable (and
  // resync-consistent) from the next snapshot on, so cut one now
  // under a fresh generation.
  checkpointer_->Begin(*leader_, /*seed=*/0, /*scenario=*/"",
                       checkpointer_->next_batch(),
                       checkpointer_->totals());
}

void ReplicatedEngine::OnBatchDigested(const UpdateBatch& batch,
                                       const BatchReport& report) {
  EnsureShipping();
  checkpointer_->OnBatchApplied(*leader_, batch, report);
  leader_ops_ += batch.size();
  const uint64_t bytes = TransportModel::BatchWireBytes(batch);
  shipped_batches_ += followers_.size();
  shipped_bytes_ += bytes * followers_.size();
  BDSM_OBS_COUNT("replica.shipped_batches", followers_.size());
  BDSM_OBS_COUNT("replica.shipped_bytes", bytes * followers_.size());
  AdvanceFollowers(/*force=*/false);
}

void ReplicatedEngine::AdvanceFollowers(bool force) {
  const uint64_t leader_next = LeaderNextBatch();
  uint64_t max_lag_batches = 0;
  uint64_t max_lag_updates = 0;
  for (size_t i = 0; i < followers_.size(); ++i) {
    Follower& f = *followers_[i];
    uint64_t lag = leader_next - f.next_batch();
    const size_t slot = static_cast<size_t>(f.id());
    if (slot < max_lag_.size() && lag > max_lag_[slot]) {
      max_lag_[slot] = lag;
    }
    if (force || lag >= options_.replica.poll_every) f.CatchUp();
    lag = leader_next - f.next_batch();
    const uint64_t lag_updates = leader_ops_ - f.covered_ops();
    if (lag > max_lag_batches) max_lag_batches = lag;
    if (lag_updates > max_lag_updates) max_lag_updates = lag_updates;
  }
  BDSM_OBS_GAUGE_SET("replica.lag_batches", max_lag_batches);
  BDSM_OBS_GAUGE_SET("replica.lag_updates", max_lag_updates);
}

const Engine* ReplicatedEngine::FollowerEngine(size_t index) const {
  if (index >= followers_.size()) return nullptr;
  return followers_[index]->engine();
}

void ReplicatedEngine::DrainFollowers() {
  if (!shipping_) return;
  AdvanceFollowers(/*force=*/true);
}

void ReplicatedEngine::KillLeader() {
  if (leader_dead_) return;
  leader_dead_ = true;
  // The kill is the end of the leader process: its WAL closes (the
  // torn-write variant is exercised by tests/replica_test.cpp via
  // file surgery, exactly like the restart drill's).
  if (shipping_) checkpointer_->Finish();
  BDSM_OBS_COUNT("replica.leader_kills", 1);
}

bool ReplicatedEngine::Failover() {
  if (!leader_dead_ || !shipping_ || followers_.empty()) return false;
  Timer wall;

  // Election: the most caught-up follower wins (lowest id on ties —
  // deterministic).
  size_t elected = 0;
  for (size_t i = 1; i < followers_.size(); ++i) {
    if (followers_[i]->next_batch() > followers_[elected]->next_batch()) {
      elected = i;
    }
  }

  // The promoted leader restores from the durable chain: latest
  // checkpoint generation + WAL tail.  Everything the old leader
  // acknowledged was fsynced before the kill, so this loses nothing.
  persist::RestoredEngine restored = persist::RestoreEngine(dir_, options_);

  // Zero-loss verification: the elected follower's live replica,
  // drained to the durable end of the log, must agree with the
  // restored leader on stream position and graph state bit for bit.
  Follower& winner = *followers_[elected];
  winner.CatchUp();
  GAMMA_CHECK_MSG(winner.next_batch() == restored.next_batch,
                  "failover divergence: elected follower and restored "
                  "leader disagree on the stream position");
  GAMMA_CHECK_MSG(winner.engine()->host_graph() ==
                      restored.engine->host_graph(),
                  "failover divergence: elected follower and restored "
                  "leader disagree on the graph replica");

  // Modeled duration on the critical-path clock: election timeout +
  // shipping the tail + replaying it (persist reports the tail's ops
  // and its latency under the restored engine's clock).
  last_failover_seconds_ =
      transport_.election_timeout_seconds() +
      transport_.ShipSeconds(TransportModel::WireBytes(
          static_cast<size_t>(restored.tail_ops))) +
      restored.tail_latency_seconds;
  last_failover_replayed_ = restored.wal_batches_replayed;
  ++failovers_;

  // Promote: the restored engine takes over, the winner leaves the
  // follower set, shipping resumes under a fresh generation at the
  // resume offset.  Remaining followers ride the generation switch
  // through WalReader's gap/resync protocol.
  leader_ = std::move(restored.engine);
  leader_dead_ = false;
  followers_.erase(followers_.begin() +
                   static_cast<std::ptrdiff_t>(elected));
  leader_ops_ = restored.totals.ops;
  checkpointer_->Begin(*leader_, /*seed=*/0, /*scenario=*/"",
                       restored.next_batch, restored.totals);

  BDSM_OBS_COUNT("replica.failovers", 1);
  BDSM_OBS_COUNT("replica.failover_replayed_batches",
                 last_failover_replayed_);
  BDSM_OBS_HISTOGRAM_US("replica.failover_us", wall.ElapsedSeconds());
  return true;
}

ReplicationStats ReplicatedEngine::Stats() const {
  ReplicationStats out;
  out.poll_every = std::max<uint64_t>(options_.replica.poll_every, 1);
  out.leader_batches = LeaderNextBatch();
  out.shipped_batches = shipped_batches_;
  out.shipped_bytes = shipped_bytes_;
  out.failovers = failovers_;
  out.last_failover_seconds = last_failover_seconds_;
  out.last_failover_replayed = last_failover_replayed_;
  const uint64_t leader_next = LeaderNextBatch();
  for (const auto& f : followers_) {
    ReplicaStats r;
    r.replica = f->id();
    r.applied_batches = f->applied_batches();
    r.applied_ops = f->applied_ops();
    r.lag_batches = leader_next - f->next_batch();
    r.lag_updates = leader_ops_ - f->covered_ops();
    const size_t slot = static_cast<size_t>(f->id());
    r.max_lag_batches = slot < max_lag_.size() ? max_lag_[slot] : 0;
    r.resyncs = f->resyncs();
    r.transport_seconds = f->transport_seconds();
    r.apply_seconds = f->apply_seconds();
    out.replicas.push_back(r);
  }
  return out;
}

void RegisterReplicaEngines(EngineRegistry* registry) {
  EngineDef def;
  def.example = "replicated(gamma, followers=2, poll_every=1)";
  def.min_children = 1;
  def.max_children = 1;
  def.option_keys = {
      {"followers", "follower replicas consuming the WAL tail",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n) || n < 1 || n > 64) return false;
         o->replica.followers = n;
         return true;
       }},
      {"poll_every",
       "follower poll cadence in leader batches (the staleness bound)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n) || n < 1 || n > 1024) return false;
         o->replica.poll_every = n;
         return true;
       }},
      {"checkpoint_every",
       "leader snapshot cadence in batches (0 = base snapshot only)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n)) return false;
         o->replica.checkpoint_every = n;
         return true;
       }},
      {"segment", "WAL segment rotation (batches per segment)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n) || n == 0) return false;
         o->replica.segment_batches = n;
         return true;
       }},
      {"link_us", "modeled one-way link latency in microseconds",
       [](const std::string& v, EngineOptions* o) {
         double s;
         if (!ParseDoubleValue(v, &s) || s < 0.0) return false;
         o->replica.link_latency_seconds = s * 1e-6;
         return true;
       }},
      {"link_gbps", "modeled link bandwidth in gigabits per second",
       [](const std::string& v, EngineOptions* o) {
         double s;
         if (!ParseDoubleValue(v, &s) || s <= 0.0) return false;
         o->replica.link_gbits_per_second = s;
         return true;
       }},
      {"election_us", "modeled election timeout in microseconds",
       [](const std::string& v, EngineOptions* o) {
         double s;
         if (!ParseDoubleValue(v, &s) || s < 0.0) return false;
         o->replica.election_timeout_seconds = s * 1e-6;
         return true;
       }},
  };
  def.factory = [](const EngineSpec& spec, const LabeledGraph& g,
                   const EngineOptions& options) {
    return std::unique_ptr<Engine>(
        new ReplicatedEngine(spec.children.front(), g, options));
  };
  registry->Register("replicated", std::move(def));
}

}  // namespace bdsm::replica
