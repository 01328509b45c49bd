/// \file replication.hpp
/// Replica-group vocabulary: replica options, per-replica accounting,
/// and the ReplicationControl capability interface.
///
/// "Scale out past one process" means one *leader* engine applies the
/// update stream and tees every applied batch through the persistence
/// WAL (persist/wal.hpp), while N *follower* replicas consume the WAL
/// tail over a modeled transport and serve standing-query read traffic
/// at a bounded, observable staleness lag.  This header defines the
/// control-plane types the replica group (replica/group.hpp)
/// implements and that drivers (ScenarioRunner, bench_scenarios,
/// example_cli) consume — the exact shape of core/tenant.hpp's
/// TenantControl story:
///
///  * `ReplicaOptions` — the group's knobs: follower count, poll
///    cadence, checkpoint/segment policy, and the modeled link.
///  * `ReplicaStats` / `ReplicationStats` — per-replica and
///    group-level accounting (shipped/applied, lag, resyncs,
///    failover).
///  * `ReplicationControl` — the capability interface an Engine
///    exposes via `Engine::replication_control()` when
///    `Describe().supports_replication` is true.  No downcasts to
///    concrete replica/ types anywhere.
///
/// Determinism convention (docs/REPLICATION.md): shipping and apply
/// costs live on a *modeled critical-path clock* — link seconds are a
/// pure function of batch bytes (the WAL's trace-format sizes) and the
/// configured link, apply seconds come from the follower engine's own
/// declared clock — never host wall time.  Lag, shipped/applied
/// counts, resyncs and the modeled failover duration are therefore
/// deterministic in (spec, scenario, seed), and CI gates them exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bdsm {

/// Configuration of a replica group (EngineOptions::replica; the
/// `replicated(...)` spec's inline keys map onto these).
struct ReplicaOptions {
  /// Checkpoint directory the leader ships through ("" = a fresh
  /// directory under the system temp dir, removed with the group).
  /// Not a spec key — the spec grammar's value charset has no
  /// path separators; drivers set it through EngineOptions.
  std::string dir;
  /// Follower replicas consuming the WAL tail.
  size_t followers = 2;
  /// Follower poll cadence in leader batches: a follower catches up to
  /// the durable end of the log whenever it is at least this many
  /// batches behind, so `lag_batches <= poll_every` between polls —
  /// the bounded-staleness contract.
  size_t poll_every = 1;
  /// Leader snapshot policy: snapshot every N applied batches
  /// (0 = base snapshot only; followers then never resync).
  size_t checkpoint_every = 8;
  /// WAL segment rotation (batches per segment).
  size_t segment_batches = 256;
  /// Modeled shipping link: one-way latency plus bytes over bandwidth
  /// (batch bytes are the WAL's trace-format sizes, so the model
  /// charges exactly what the log ships).
  double link_latency_seconds = 20e-6;
  double link_gbits_per_second = 10.0;
  /// Modeled election timeout charged at the front of every failover.
  double election_timeout_seconds = 150e-6;
};

/// One follower's cumulative accounting.
struct ReplicaStats {
  int replica = -1;             ///< follower index (0-based)
  uint64_t applied_batches = 0; ///< WAL batches applied so far
  uint64_t applied_ops = 0;
  uint64_t lag_batches = 0;     ///< leader batches not yet applied
  uint64_t lag_updates = 0;     ///< ops in those batches
  uint64_t max_lag_batches = 0; ///< worst lag ever observed
  uint64_t resyncs = 0;         ///< snapshot resyncs (generation gaps)
  /// Modeled critical-path clock split: link seconds vs apply seconds
  /// (follower engine's own clock).
  double transport_seconds = 0.0;
  double apply_seconds = 0.0;
};

/// Group-level accounting (leader + all followers).
struct ReplicationStats {
  /// The group's effective poll cadence (after spec-key overrides) —
  /// the bound the per-replica max_lag_batches is asserted against.
  uint64_t poll_every = 1;
  uint64_t leader_batches = 0;  ///< batches the leader applied + teed
  uint64_t shipped_batches = 0; ///< batch x follower deliveries
  uint64_t shipped_bytes = 0;   ///< trace-format bytes over the link
  uint64_t failovers = 0;
  /// Modeled duration of the last failover: election timeout + tail
  /// shipping + catch-up replay (0 before the first failover).
  double last_failover_seconds = 0.0;
  uint64_t last_failover_replayed = 0;  ///< WAL batches replayed by it
  std::vector<ReplicaStats> replicas;

  uint64_t MaxLagBatches() const {
    uint64_t m = 0;
    for (const ReplicaStats& r : replicas) {
      if (r.lag_batches > m) m = r.lag_batches;
    }
    return m;
  }
  uint64_t MaxLagUpdates() const {
    uint64_t m = 0;
    for (const ReplicaStats& r : replicas) {
      if (r.lag_updates > m) m = r.lag_updates;
    }
    return m;
  }
};

class Engine;  // core/engine.hpp

/// The replication capability interface.  Engines that replicate
/// return a non-null pointer from `Engine::replication_control()` and
/// report `Describe().supports_replication == true`; everything else
/// returns nullptr.  Implemented by the replica group
/// (replica/group.hpp).
class ReplicationControl {
 public:
  virtual ~ReplicationControl() = default;

  virtual size_t NumFollowers() const = 0;
  virtual ReplicationStats Stats() const = 0;

  /// Read-side access to one follower's live engine (nullptr when
  /// `index` is out of range or the follower was promoted away).
  /// Serve staleness-tolerant read/evaluation traffic here — its
  /// graph and query set trail the leader by at most the current lag.
  virtual const Engine* FollowerEngine(size_t index) const = 0;

  /// Applies every durable WAL batch on every follower (lag drops to
  /// the number of batches the leader applied but never made durable
  /// — zero in normal operation).  Drivers call this at end of stream
  /// so reported replica rows describe a quiesced group.
  virtual void DrainFollowers() = 0;

  /// Simulated leader crash: closes the leader's WAL tee and marks
  /// the leader dead — ProcessBatch on a killed group fails until
  /// Failover() promotes a replacement.  Idempotent.
  virtual void KillLeader() = 0;

  /// Elects the most-caught-up follower and promotes it: the promoted
  /// leader restores from the latest checkpoint generation, replays
  /// the WAL tail (zero loss — the tee was durable through the last
  /// acknowledged batch), verifies its state against the elected
  /// follower's drained live replica, and resumes shipping under a
  /// fresh checkpoint generation.  Returns false when there is no
  /// follower left to promote.
  virtual bool Failover() = 0;

  /// True after KillLeader() until a successful Failover().
  virtual bool LeaderDead() const = 0;
};

}  // namespace bdsm
