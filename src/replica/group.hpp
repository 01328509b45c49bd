/// \file group.hpp
/// The replica group: a registry wrapper (`replicated(<inner>,
/// followers=N, ...)`) that makes any engine a WAL-shipping leader
/// with N follower replicas and failover.
///
/// Topology (docs/REPLICATION.md):
///
///   ProcessBatch ──> leader (inner engine) ──> WAL tee (persist/)
///                                                │  shipping dir
///                          modeled link          ▼
///   follower 0..N-1  <── WalReader::Poll() ── segments + MANIFEST
///
/// The leader is the inner engine (WrapperEngine::inner()); every phase
/// forwards to it 1:1, so a replicated engine's reports are
/// bit-identical to the bare inner engine's (tested).  After each digested batch the group tees the
/// *sanitized* batch through its own Checkpointer (WAL + periodic
/// snapshots, one tee layer exactly — do not attach a second
/// checkpointer to a replicated engine) and advances any follower
/// whose staleness reached `poll_every` batches, which bounds
/// observable lag by `poll_every` (the `replica.lag_batches` /
/// `replica.lag_updates` gauges).
///
/// Failover (`ReplicationControl::KillLeader` + `Failover`): the
/// elected (most caught-up) follower restores from the latest
/// checkpoint generation, replays the WAL tail, and is verified
/// bit-identical — graph replica and stream position — against its
/// own drained live engine before it resumes as leader under a fresh
/// checkpoint generation.  Acknowledged batches were durable before
/// the kill, so the takeover loses nothing (the `failover` scenario
/// drill proves the completed run equals an uninterrupted one).
///
/// Durability model for query mutations (inherited from PR 5's WAL,
/// which records *batches* only): AddQuery/RemoveQuery after shipping
/// has begun trigger an immediate new checkpoint generation, so every
/// snapshot a follower can resync from carries the query set that was
/// live at its stream position.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "persist/checkpoint.hpp"
#include "replica/follower.hpp"
#include "replica/transport.hpp"

namespace bdsm::replica {

class ReplicatedEngine : public WrapperEngine, public ReplicationControl {
 public:
  static constexpr size_t kDefaultFollowers = 2;

  /// `spec` is the *inner* engine's spec subtree; replica knobs come
  /// from `options.replica` (the registry's `replicated(...)` keys are
  /// already applied onto it).  An empty `options.replica.dir` uses a
  /// fresh directory under the system temp dir, removed with the
  /// group.
  ReplicatedEngine(const EngineSpec& spec, const LabeledGraph& g,
                   const EngineOptions& options);
  ~ReplicatedEngine() override;

  /// The leader's capabilities plus supports_replication and the
  /// follower count.  supports_tenancy stays false even over a tenant
  /// front door: tenant drive would bypass this group's ProcessBatch,
  /// and so the tee.
  EngineInfo Describe() const override;

  /// Query mutations mirror across the leader and every follower, so
  /// public ids align across the replica set by construction.
  QueryId AddQuery(const QueryGraph& q) override;
  bool RemoveQuery(QueryId id) override;
  bool RestoreQuery(const QueryGraph& q, QueryId id) override;

  ReplicationControl* replication_control() override { return this; }

  // --- ReplicationControl ---
  size_t NumFollowers() const override { return followers_.size(); }
  ReplicationStats Stats() const override;
  const Engine* FollowerEngine(size_t index) const override;
  void DrainFollowers() override;
  void KillLeader() override;
  bool Failover() override;
  bool LeaderDead() const override { return leader_dead_; }

  const std::string& dir() const { return dir_; }

 protected:
  /// Refuses a batch while the leader is dead, then forwards.
  void RunMatchPhase(const UpdateBatch& batch, bool positive,
                     const BatchOptions& options,
                     BatchReport* report) override;
  void OnBatchDigested(const UpdateBatch& batch,
                       const BatchReport& report) override;

 private:
  /// First tee: Begin the checkpoint so pre-stream query
  /// registrations land in the base snapshot.
  void EnsureShipping();
  /// Query mutations after shipping began cut a new generation (see
  /// file comment).
  void RecheckpointAfterMutation();
  /// Catches up every follower whose lag reached `poll_every`
  /// (`force` catches up regardless) and publishes the lag gauges.
  void AdvanceFollowers(bool force);
  uint64_t LeaderNextBatch() const;

  EngineOptions options_;
  std::string dir_;
  bool own_dir_ = false;
  TransportModel transport_;
  // The leader is inner(); Failover swaps in the restored one.
  std::vector<std::unique_ptr<Follower>> followers_;
  std::unique_ptr<persist::Checkpointer> checkpointer_;
  bool shipping_ = false;
  bool leader_dead_ = false;

  /// Stream ops teed so far (follower lag_updates accounting).
  uint64_t leader_ops_ = 0;
  uint64_t shipped_batches_ = 0;
  uint64_t shipped_bytes_ = 0;
  uint64_t failovers_ = 0;
  double last_failover_seconds_ = 0.0;
  uint64_t last_failover_replayed_ = 0;
  /// Worst pre-poll staleness ever observed, per follower id.
  std::vector<uint64_t> max_lag_;
};

/// Registers the `replicated` wrapper (called by the EngineRegistry
/// constructor, like serve::RegisterServeEngines).
void RegisterReplicaEngines(EngineRegistry* registry);

}  // namespace bdsm::replica
