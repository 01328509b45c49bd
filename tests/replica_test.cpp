/// Replica-group subsystem tests (src/replica/;
/// docs/REPLICATION.md): the incremental WalReader (poll semantics,
/// segment roll mid-stream, torn final write, generation switch while
/// a follower is mid-tail — converge, never double-apply), follower
/// convergence and the bounded-staleness contract, wrapper
/// transparency (a replicated engine's reports are bit-identical to
/// the bare inner engine's), follower replays that keep the device
/// state (GPMA, mirror, encoders) in lockstep, and the headline
/// invariant — kill the leader mid-stream, fail over to a follower,
/// finish the stream, and the completed run is bit-identical (matches,
/// order, counts, truncation flags) to an uninterrupted unreplicated
/// run for gamma / CSM / sharded inners, match-multiset-identical for
/// the fused "multi" engine, across smoke and churn scenarios.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/checkpoint.hpp"
#include "persist/wal_reader.hpp"
#include "replica/failover.hpp"
#include "replica/follower.hpp"
#include "replica/group.hpp"
#include "replica/transport.hpp"
#include "workload/scenario_runner.hpp"

namespace bdsm::replica {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const char* name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  fclose(f);
}

const workload::ScenarioRunner& SmokeRunner() {
  static const workload::ScenarioRunner runner(
      *workload::FindScenario("smoke"), workload::kDefaultScenarioSeed);
  return runner;
}

/// The 8-batch "uniform" scenario, for tests whose setups need a
/// longer stream than smoke's 3 batches (mid-stream mutations,
/// generation switches, torn tails past the first checkpoint).
const workload::ScenarioRunner& UniformRunner() {
  static const workload::ScenarioRunner runner(
      *workload::FindScenario("uniform"), workload::kDefaultScenarioSeed);
  return runner;
}

/// A fresh inner engine with the scenario's queries registered.
std::unique_ptr<Engine> FreshEngine(const workload::ScenarioRunner& r,
                                    const std::string& spec,
                                    const EngineOptions& options = {}) {
  std::unique_ptr<Engine> engine = MakeEngine(spec, r.graph(), options);
  for (const QueryGraph& q : r.queries()) engine->AddQuery(q);
  return engine;
}

// ------------------------------------------------------------ WalReader

TEST(WalReaderTest, PollsNewlyDurableBatchesExactlyOnce) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::string dir = TempDir("walreader_poll");
  std::unique_ptr<Engine> engine = FreshEngine(r, "gamma");

  persist::Checkpointer cp(dir);  // base snapshot only
  cp.Begin(*engine, 2024, "smoke");
  persist::WalReader reader(dir, 0);

  uint64_t seen = 0;
  for (const UpdateBatch& batch : r.stream()) {
    BatchReport report = engine->ProcessBatch(batch);
    cp.OnBatchApplied(*engine, batch, report);
    persist::WalReader::PollResult poll = reader.Poll();
    EXPECT_FALSE(poll.gap);
    EXPECT_FALSE(poll.no_manifest);
    ASSERT_EQ(poll.batches.size(), 1u) << "batch " << seen;
    EXPECT_EQ(poll.batches[0], batch);
    ++seen;
    EXPECT_EQ(reader.next_batch(), seen);
    // An immediate re-poll sees nothing new — the cursor is monotone.
    EXPECT_TRUE(reader.Poll().batches.empty());
  }
  EXPECT_EQ(seen, r.stream().size());
}

TEST(WalReaderTest, SegmentRollMidStreamIsSeamless) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::string dir = TempDir("walreader_roll");
  std::unique_ptr<Engine> engine = FreshEngine(r, "gamma");

  // Two batches per segment forces rolls mid-stream; the reader must
  // chain across them without loss or duplication.
  persist::Checkpointer cp(dir, persist::CheckpointPolicy{},
                           persist::WalOptions{.batches_per_segment = 2,
                                               .sync_every_batch = true});
  cp.Begin(*engine, 2024, "smoke");
  persist::WalReader reader(dir, 0);
  std::vector<UpdateBatch> got;
  for (const UpdateBatch& batch : r.stream()) {
    BatchReport report = engine->ProcessBatch(batch);
    cp.OnBatchApplied(*engine, batch, report);
    persist::WalReader::PollResult poll = reader.Poll();
    for (UpdateBatch& b : poll.batches) got.push_back(std::move(b));
  }
  EXPECT_EQ(got, r.stream());
  ASSERT_GE(persist::ReadManifest(dir).wal.size(), 2u)
      << "segment roll never happened; the test is vacuous";
}

TEST(WalReaderTest, TornFinalWriteStopsAtLastDurableBatchThenResumes) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::string dir = TempDir("walreader_torn");
  std::unique_ptr<Engine> engine = FreshEngine(r, "gamma");

  persist::Checkpointer cp(dir);
  cp.Begin(*engine, 2024, "smoke");
  const size_t total = r.stream().size();
  for (const UpdateBatch& batch : r.stream()) {
    BatchReport report = engine->ProcessBatch(batch);
    cp.OnBatchApplied(*engine, batch, report);
  }

  // Tear the live tail: chop the final batch's last bytes, as a crash
  // mid-append would.
  persist::Manifest m = persist::ReadManifest(dir);
  ASSERT_FALSE(m.wal.empty());
  std::string seg = dir + "/" + m.wal.back().file;
  std::string bytes = ReadFileBytes(seg);
  WriteFileBytes(seg, bytes.substr(0, bytes.size() - 3));

  persist::WalReader reader(dir, 0);
  persist::WalReader::PollResult poll = reader.Poll();
  EXPECT_TRUE(poll.torn);
  EXPECT_EQ(poll.batches.size(), total - 1);
  EXPECT_EQ(reader.next_batch(), total - 1);

  // The append completes (bytes restored): the reader resumes at the
  // durable point and sees exactly the one missing batch — no
  // double-apply across the torn read.
  WriteFileBytes(seg, bytes);
  poll = reader.Poll();
  EXPECT_FALSE(poll.torn);
  ASSERT_EQ(poll.batches.size(), 1u);
  EXPECT_EQ(poll.batches[0], r.stream().back());
  EXPECT_EQ(reader.next_batch(), total);
}

TEST(WalReaderTest, GenerationSwitchBehindCursorReportsGap) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::string dir = TempDir("walreader_gen");
  std::unique_ptr<Engine> engine = FreshEngine(r, "gamma");

  persist::Checkpointer cp(dir);
  cp.Begin(*engine, 2024, "smoke");
  persist::WalReader reader(dir, 0);
  for (size_t i = 0; i < 3; ++i) {
    BatchReport report = engine->ProcessBatch(r.stream()[i]);
    cp.OnBatchApplied(*engine, r.stream()[i], report);
  }
  EXPECT_EQ(reader.Poll().batches.size(), 3u);

  // A new generation whose snapshot point is past the reader's cursor
  // (with the old segments swept) means the log can no longer serve
  // the cursor: the reader reports a gap instead of silently skipping.
  cp.Begin(*engine, 2024, "smoke", cp.next_batch(), cp.totals());
  reader.Reset(0);
  persist::WalReader::PollResult poll = reader.Poll();
  EXPECT_TRUE(poll.gap);
  EXPECT_TRUE(poll.batches.empty());
  // Jumping to the snapshot point (what a follower resync does) makes
  // the next poll serve again.
  reader.Reset(persist::ReadManifest(dir).snapshot_batch);
  poll = reader.Poll();
  EXPECT_FALSE(poll.gap);
}

// --------------------------------------------------------- replica group

// The tenant spec's token bucket admits only a prefix of each smoke
// batch: followers replay the log as state only, so it must record the
// admitted ops (Engine::AppliedBatch), not the offered ones.
TEST(ReplicaGroupTest, FollowersConvergeToLeaderState) {
  const workload::ScenarioRunner& r = SmokeRunner();
  for (const char* spec : {"replicated(gamma, followers=2)",
                           "replicated(tenant(gamma, rate=5), followers=2)"}) {
    SCOPED_TRACE(spec);
    std::unique_ptr<Engine> group = FreshEngine(r, spec);
    ReplicationControl* rc = group->replication_control();
    ASSERT_NE(rc, nullptr);
    EXPECT_TRUE(group->Describe().supports_replication);
    EXPECT_EQ(group->Describe().num_followers, 2u);

    for (const UpdateBatch& batch : r.stream()) group->ProcessBatch(batch);
    rc->DrainFollowers();

    ReplicationStats stats = rc->Stats();
    EXPECT_EQ(stats.leader_batches, r.stream().size());
    EXPECT_EQ(stats.shipped_batches, 2 * r.stream().size());
    EXPECT_EQ(stats.MaxLagBatches(), 0u);
    EXPECT_EQ(stats.MaxLagUpdates(), 0u);
    ASSERT_EQ(stats.replicas.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
      const Engine* follower = rc->FollowerEngine(i);
      ASSERT_NE(follower, nullptr);
      EXPECT_EQ(follower->host_graph(), group->host_graph())
          << "replica " << i;
      EXPECT_EQ(follower->QueryIds(), group->QueryIds()) << "replica " << i;
      EXPECT_EQ(stats.replicas[i].applied_batches, r.stream().size());
    }
  }
}

TEST(ReplicaGroupTest, StalenessBoundedByPollCadence) {
  const workload::ScenarioRunner& r = SmokeRunner();
  EngineOptions options;
  options.replica.followers = 1;
  options.replica.poll_every = 3;
  std::unique_ptr<Engine> group =
      MakeEngine("replicated(gamma)", r.graph(), options);
  for (const QueryGraph& q : r.queries()) group->AddQuery(q);
  ReplicationControl* rc = group->replication_control();

  for (const UpdateBatch& batch : r.stream()) {
    group->ProcessBatch(batch);
    // Observable staleness never exceeds the poll cadence.
    EXPECT_LE(rc->Stats().MaxLagBatches(), 3u);
  }
  EXPECT_LE(rc->Stats().replicas[0].max_lag_batches, 3u);
  EXPECT_GE(rc->Stats().replicas[0].max_lag_batches, 2u)
      << "lag never accumulated; the cadence test is vacuous";
  rc->DrainFollowers();
  EXPECT_EQ(rc->Stats().MaxLagBatches(), 0u);
  EXPECT_EQ(rc->FollowerEngine(0)->host_graph(), group->host_graph());
}

TEST(ReplicaGroupTest, ReplicatedReportsAreBitIdenticalToInner) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::unique_ptr<Engine> bare = FreshEngine(r, "gamma");
  std::unique_ptr<Engine> group = FreshEngine(r, "replicated(gamma)");
  EXPECT_EQ(group->Describe().canonical_spec,
            "replicated(gamma, followers=2)");
  EXPECT_EQ(group->Describe().inner_spec, "gamma");

  for (const UpdateBatch& batch : r.stream()) {
    BatchReport ref = bare->ProcessBatch(batch);
    BatchReport rep = group->ProcessBatch(batch);
    ASSERT_EQ(rep.queries.size(), ref.queries.size());
    for (size_t q = 0; q < ref.queries.size(); ++q) {
      EXPECT_EQ(rep.queries[q].positive_matches,
                ref.queries[q].positive_matches);
      EXPECT_EQ(rep.queries[q].negative_matches,
                ref.queries[q].negative_matches);
      EXPECT_EQ(rep.queries[q].timed_out, ref.queries[q].timed_out);
      EXPECT_EQ(rep.queries[q].overflowed, ref.queries[q].overflowed);
    }
    EXPECT_EQ(rep.match_stats, ref.match_stats);
  }
  EXPECT_EQ(group->host_graph(), bare->host_graph());
}

TEST(ReplicaGroupTest, QueryMutationsMirrorAndSurviveResync) {
  const workload::ScenarioRunner& r = UniformRunner();
  EngineOptions options;
  options.replica.followers = 1;
  // A lazy follower (poll_every past the stream) that checkpoints
  // often with pruning: by the time the follower polls, the segments
  // its cursor needs are gone — it must resync from the snapshot,
  // which must carry the mutated query set.
  options.replica.poll_every = 64;
  options.replica.checkpoint_every = 2;
  std::unique_ptr<Engine> group =
      MakeEngine("replicated(gamma)", r.graph(), options);
  ReplicationControl* rc = group->replication_control();

  ASSERT_GE(r.queries().size(), 2u);
  QueryId q0 = group->AddQuery(r.queries()[0]);
  for (size_t i = 0; i < 3; ++i) group->ProcessBatch(r.stream()[i]);
  QueryId q1 = group->AddQuery(r.queries()[1]);
  EXPECT_TRUE(group->RemoveQuery(q0));
  for (size_t i = 3; i < 6; ++i) group->ProcessBatch(r.stream()[i]);

  rc->DrainFollowers();
  ReplicationStats stats = rc->Stats();
  EXPECT_GE(stats.replicas[0].resyncs, 1u)
      << "follower never resynced; the generation-switch path is untested";
  const Engine* follower = rc->FollowerEngine(0);
  EXPECT_EQ(follower->QueryIds(), std::vector<QueryId>{q1});
  EXPECT_EQ(follower->host_graph(), group->host_graph());
}

TEST(ReplicaGroupTest, GenerationSwitchWhileFollowerMidTailConverges) {
  const workload::ScenarioRunner& r = UniformRunner();
  EngineOptions options;
  options.replica.followers = 2;
  options.replica.poll_every = 2;      // followers trail mid-tail
  options.replica.checkpoint_every = 3;  // generations switch mid-stream
  options.replica.segment_batches = 2;   // segments roll mid-stream too
  std::unique_ptr<Engine> group =
      MakeEngine("replicated(gamma)", r.graph(), options);
  for (const QueryGraph& q : r.queries()) group->AddQuery(q);
  ReplicationControl* rc = group->replication_control();

  std::unique_ptr<Engine> bare = FreshEngine(r, "gamma");
  for (const UpdateBatch& batch : r.stream()) {
    group->ProcessBatch(batch);
    bare->ProcessBatch(batch);
  }
  rc->DrainFollowers();
  ReplicationStats stats = rc->Stats();
  for (const ReplicaStats& rs : stats.replicas) {
    // Applied + resync coverage must account for every batch exactly
    // once: applied_batches < leader_batches iff a resync jumped the
    // cursor, and lag is zero after the drain either way.
    EXPECT_EQ(rs.lag_batches, 0u);
    EXPECT_EQ(rs.lag_updates, 0u);
  }
  for (size_t i = 0; i < rc->NumFollowers(); ++i) {
    EXPECT_EQ(rc->FollowerEngine(i)->host_graph(), bare->host_graph())
        << "replica " << i;
  }
}

// Followers replay the WAL as state only (Engine::ReplayBatch), so no
// match list proves them; the device state must.  A follower built the
// way perfbench's replay builds one (bare leader + Checkpointer +
// Follower) tails the first batches, then both engines digest the rest
// through ProcessBatch: matches and modeled device stats, which read
// the GPMA layout, the host mirror and every encoder, agree bit for bit.
TEST(ReplicaGroupTest, FollowerReplayKeepsDeviceStateInLockstep) {
  const workload::ScenarioRunner& r = UniformRunner();
  const std::vector<UpdateBatch>& stream = r.stream();
  const size_t replayed = stream.size() - 3;
  for (const char* spec : {"gamma", "multi", "sharded(gamma, shards=2)"}) {
    SCOPED_TRACE(spec);
    const std::string dir = TempDir("replica_lockstep");
    const EngineOptions options;
    std::unique_ptr<Engine> leader = FreshEngine(r, spec, options);
    persist::CheckpointPolicy policy;
    policy.every_batches = 0;  // base snapshot only: no resync rebuilds
    persist::Checkpointer ckpt(dir, policy);
    const TransportModel transport(options.replica);
    Follower follower(0, leader->Describe().canonical_spec, r.graph(),
                      options, &transport, dir);
    for (const QueryGraph& q : r.queries()) follower.AddQuery(q);

    for (size_t b = 0; b < replayed; ++b) {
      const UpdateBatch batch = SanitizeBatch(leader->host_graph(), stream[b]);
      const BatchReport rep = leader->ProcessBatch(batch);
      if (b == 0) ckpt.Begin(*leader, /*seed=*/0, /*scenario=*/"");
      ckpt.OnBatchApplied(*leader, batch, rep);
      if (b % 2 == 1) follower.CatchUp();  // trail mid-tail, then drain
    }
    follower.CatchUp();
    EXPECT_EQ(follower.applied_batches(), replayed);
    EXPECT_EQ(follower.resyncs(), 0u);
    EXPECT_GT(follower.apply_seconds(), 0.0);

    Engine& replica = *follower.engine();
    size_t matches = 0;
    for (size_t b = replayed; b < stream.size(); ++b) {
      SCOPED_TRACE("batch " + std::to_string(b));
      const BatchReport want = leader->ProcessBatch(stream[b]);
      const BatchReport got = replica.ProcessBatch(stream[b]);
      ASSERT_EQ(got.queries.size(), want.queries.size());
      for (size_t q = 0; q < want.queries.size(); ++q) {
        const QueryReport& g = got.queries[q];
        const QueryReport& w = want.queries[q];
        EXPECT_EQ(g.id, w.id);
        EXPECT_EQ(g.positive_matches, w.positive_matches);
        EXPECT_EQ(g.negative_matches, w.negative_matches);
        EXPECT_EQ(g.match_stats, w.match_stats);
        EXPECT_EQ(g.update_stats, w.update_stats);
      }
      EXPECT_EQ(got.match_stats, want.match_stats);
      EXPECT_EQ(got.update_stats, want.update_stats);
      matches += want.TotalMatches();
    }
    EXPECT_GT(matches, 0u) << "no matches; the lockstep check is vacuous";
    EXPECT_EQ(replica.host_graph(), leader->host_graph());
  }
}

TEST(ReplicaGroupTest, KillLeaderRefusesBatchesUntilFailover) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::unique_ptr<Engine> group =
      FreshEngine(r, "replicated(gamma, followers=2)");
  ReplicationControl* rc = group->replication_control();
  for (size_t i = 0; i < 2; ++i) group->ProcessBatch(r.stream()[i]);

  rc->KillLeader();
  EXPECT_TRUE(rc->LeaderDead());
  EXPECT_DEATH(group->ProcessBatch(r.stream()[2]), "killed replica group");

  EXPECT_TRUE(rc->Failover());
  EXPECT_FALSE(rc->LeaderDead());
  EXPECT_EQ(rc->NumFollowers(), 1u);  // the winner was promoted away
  ReplicationStats stats = rc->Stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_GT(stats.last_failover_seconds, 0.0);
  group->ProcessBatch(r.stream()[2]);  // the group serves again
}

// ------------------------------------- failover == uninterrupted replay

struct FailoverCase {
  const char* scenario;
  const char* inner;
  /// Bit-identical per-query match *vectors* (order included); false
  /// for "multi" (fused-launch emission order after a snapshot-based
  /// promotion differs legitimately — multisets must still match).
  bool bitwise;
};

class FailoverParityTest : public ::testing::TestWithParam<FailoverCase> {};

TEST_P(FailoverParityTest, FailoverRunMatchesUnreplicatedRun) {
  const FailoverCase& param = GetParam();
  workload::ScenarioRunner runner(*workload::FindScenario(param.scenario),
                                  workload::kDefaultScenarioSeed);
  const std::vector<UpdateBatch>& stream = runner.stream();
  const size_t kill = stream.size() / 2;
  ASSERT_GE(kill, 1u);

  // The unreplicated reference nobody killed.
  std::unique_ptr<Engine> cold = FreshEngine(runner, param.inner);
  std::vector<BatchReport> cold_reports;
  for (const UpdateBatch& batch : stream) {
    cold_reports.push_back(cold->ProcessBatch(batch));
  }

  // The replica group: apply the prefix, kill the leader, fail over,
  // finish the stream on the promoted follower.
  EngineOptions options;
  options.replica.checkpoint_every = 2;  // snapshot supersession + tails
  std::unique_ptr<Engine> group = MakeEngine(
      "replicated(" + std::string(param.inner) + ", followers=2)",
      runner.graph(), options);
  for (const QueryGraph& q : runner.queries()) group->AddQuery(q);
  ReplicationControl* rc = group->replication_control();

  auto check = [&](size_t i, const BatchReport& got) {
    const BatchReport& ref = cold_reports[i];
    ASSERT_EQ(got.queries.size(), ref.queries.size()) << "batch " << i;
    for (size_t q = 0; q < ref.queries.size(); ++q) {
      const QueryReport& gq = got.queries[q];
      const QueryReport& rq = ref.queries[q];
      ASSERT_EQ(gq.id, rq.id) << "batch " << i;
      EXPECT_EQ(gq.num_positive, rq.num_positive) << "batch " << i;
      EXPECT_EQ(gq.num_negative, rq.num_negative) << "batch " << i;
      EXPECT_EQ(gq.timed_out, rq.timed_out) << "batch " << i;
      EXPECT_EQ(gq.overflowed, rq.overflowed) << "batch " << i;
      if (param.bitwise) {
        EXPECT_EQ(gq.positive_matches, rq.positive_matches)
            << "batch " << i << " query " << q;
        EXPECT_EQ(gq.negative_matches, rq.negative_matches)
            << "batch " << i << " query " << q;
      } else {
        EXPECT_EQ(CanonicalKeys(gq.positive_matches),
                  CanonicalKeys(rq.positive_matches))
            << "batch " << i << " query " << q;
        EXPECT_EQ(CanonicalKeys(gq.negative_matches),
                  CanonicalKeys(rq.negative_matches))
            << "batch " << i << " query " << q;
      }
    }
  };

  for (size_t i = 0; i < kill; ++i) check(i, group->ProcessBatch(stream[i]));
  rc->KillLeader();
  ASSERT_TRUE(rc->Failover());
  for (size_t i = kill; i < stream.size(); ++i) {
    check(i, group->ProcessBatch(stream[i]));
  }
  EXPECT_EQ(group->host_graph(), cold->host_graph());

  // The surviving follower rode the failover's generation switch (or
  // resynced across it) and still converges.
  rc->DrainFollowers();
  ASSERT_EQ(rc->NumFollowers(), 1u);
  EXPECT_EQ(rc->FollowerEngine(0)->host_graph(), cold->host_graph());
  EXPECT_EQ(rc->Stats().failovers, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndScenarios, FailoverParityTest,
    ::testing::Values(FailoverCase{"smoke", "gamma", true},
                      FailoverCase{"smoke", "tf", true},
                      FailoverCase{"smoke", "multi", false},
                      FailoverCase{"smoke", "sharded(gamma, shards=2)", true},
                      FailoverCase{"churn", "gamma", true},
                      FailoverCase{"churn", "tf", true},
                      FailoverCase{"churn", "multi", false},
                      FailoverCase{"churn", "sharded(gamma, shards=2)", true}),
    [](const ::testing::TestParamInfo<FailoverCase>& info) {
      std::string name =
          std::string(info.param.scenario) + "_" + info.param.inner;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ------------------------------------------------- torn write at the kill

TEST(ReplicaFailoverTest, TornFinalWriteLosesOnlyTheUnackedBatch) {
  const workload::ScenarioRunner& r = UniformRunner();
  EngineOptions options;
  options.replica.dir = TempDir("replica_torn");
  options.replica.followers = 2;
  options.replica.poll_every = 64;  // followers stay behind the tear
  std::unique_ptr<Engine> group =
      MakeEngine("replicated(gamma)", r.graph(), options);
  for (const QueryGraph& q : r.queries()) group->AddQuery(q);
  ReplicationControl* rc = group->replication_control();

  const size_t kill = 4;
  for (size_t i = 0; i < kill; ++i) group->ProcessBatch(r.stream()[i]);
  rc->KillLeader();

  // The crash tore the final append: its last bytes never hit disk.
  persist::Manifest m = persist::ReadManifest(options.replica.dir);
  ASSERT_FALSE(m.wal.empty());
  std::string seg = options.replica.dir + "/" + m.wal.back().file;
  std::string bytes = ReadFileBytes(seg);
  WriteFileBytes(seg, bytes.substr(0, bytes.size() - 3));

  ASSERT_TRUE(rc->Failover());
  // The promoted leader recovered to the last durable batch: the torn
  // batch was never acknowledged, so re-feeding it (what an upstream
  // producer does on a non-ack) converges with the uninterrupted run.
  std::unique_ptr<Engine> bare = FreshEngine(r, "gamma");
  for (size_t i = 0; i < kill; ++i) bare->ProcessBatch(r.stream()[i]);
  EXPECT_NE(group->host_graph(), bare->host_graph());
  group->ProcessBatch(r.stream()[kill - 1]);
  EXPECT_EQ(group->host_graph(), bare->host_graph());
}

// ----------------------------------------------------------- drill API

TEST(FailoverScenarioTest, DrillReportsZeroLossAndBoundedLag) {
  FailoverOutcome outcome = RunFailoverScenario(
      *workload::FindScenario("smoke"), workload::kDefaultScenarioSeed,
      "gamma", 2);
  EXPECT_TRUE(outcome.identical) << outcome.detail;
  EXPECT_TRUE(outcome.lag_bounded) << outcome.detail;
  EXPECT_EQ(outcome.killed_at, 2u);
  EXPECT_EQ(outcome.stats.failovers, 1u);
  EXPECT_GT(outcome.stats.last_failover_seconds, 0.0);
  EXPECT_EQ(outcome.prefix.batches.size() + outcome.tail.batches.size(),
            outcome.cold.batches.size());
  // The replica rows rode into the scenario reports.
  EXPECT_FALSE(outcome.tail.replicas.empty());
  EXPECT_GT(outcome.prefix.shipped_batches, 0u);
}

TEST(FailoverScenarioTest, ExplicitReplicatedSpecIsAccepted) {
  FailoverOutcome outcome = RunFailoverScenario(
      *workload::FindScenario("smoke"), workload::kDefaultScenarioSeed,
      "replicated(gamma, followers=2, poll_every=2)", 3);
  EXPECT_TRUE(outcome.identical) << outcome.detail;
  EXPECT_EQ(outcome.lag_bound, 2u);  // the spec key, not the defaults
}

// ------------------------------------------------------- observability

#if BDSM_OBS
/// Mirrors tests/obs_test.cpp for the replica surface: `replica.*`
/// counters/gauges are deterministic across same-seed runs, follower
/// ship/apply spans carry replica ids on the critical-path clock, and
/// the span structure is digest-stable (docs/OBSERVABILITY.md).
class ReplicaObsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }
  static void ResetAll() {
    obs::SetEnabled(false);
    obs::TraceRecorder::Instance().SetEnabled(false);
    obs::MetricsRegistry::Instance().Reset();
    obs::TraceRecorder::Instance().Reset();
  }
  /// Smoke through a 2-follower group (runner drains at end of
  /// stream), returning the registry snapshot.
  static obs::MetricsSnapshot RunReplicatedSmoke() {
    workload::ScenarioRunner runner(*workload::FindScenario("smoke"),
                                    workload::kDefaultScenarioSeed);
    runner.Run("replicated(gamma, followers=2, poll_every=2)",
               EngineOptions{});
    return obs::MetricsRegistry::Instance().Snapshot();
  }
  /// The `*_us` measured-time filter of docs/OBSERVABILITY.md: what is
  /// left must be bit-identical across same-seed runs.
  static std::vector<std::pair<std::string, uint64_t>> Deterministic(
      const obs::MetricsSnapshot& snap) {
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const auto& [name, value] : snap.counters) {
      if (name.size() >= 3 &&
          name.compare(name.size() - 3, 3, "_us") == 0) {
        continue;
      }
      out.emplace_back(name, value);
    }
    return out;
  }
};

TEST_F(ReplicaObsTest, ReplicaCountersDeterministicAcrossRuns) {
  obs::SetEnabled(true);
  obs::MetricsSnapshot first = RunReplicatedSmoke();
  // 3 smoke batches x 2 followers, shipped and (post-drain) applied.
  EXPECT_EQ(first.CounterValue("replica.shipped_batches"), 6u);
  EXPECT_EQ(first.CounterValue("replica.applied_batches"), 6u);
  EXPECT_GT(first.CounterValue("replica.shipped_bytes"), 0u);
  EXPECT_GT(first.CounterValue("replica.applied_ops"), 0u);
  // The staleness gauges read zero after the runner's drain.
  EXPECT_EQ(first.GaugeValue("replica.lag_batches"), 0);
  EXPECT_EQ(first.GaugeValue("replica.lag_updates"), 0);

  obs::MetricsRegistry::Instance().Reset();
  obs::MetricsSnapshot second = RunReplicatedSmoke();
  EXPECT_EQ(Deterministic(first), Deterministic(second));
  EXPECT_FALSE(Deterministic(first).empty());
}

// engine.* counts what drivers digest: the leader's batches, once.
// Followers replay through Engine::ReplayBatch, which publishes no
// engine.* counters; their work shows up in replica.applied_*.
TEST_F(ReplicaObsTest, EngineCountersCountLeaderBatchesOnly) {
  obs::SetEnabled(true);
  workload::ScenarioRunner runner(*workload::FindScenario("smoke"),
                                  workload::kDefaultScenarioSeed);
  const workload::ScenarioReport report = runner.Run(
      "replicated(gamma, followers=2, poll_every=1)", EngineOptions{});
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Instance().Snapshot();
  ASSERT_GT(report.total_matches, 0u);
  EXPECT_EQ(snap.CounterValue("engine.batches"), report.batches.size());
  EXPECT_EQ(snap.CounterValue("engine.matches.positive") +
                snap.CounterValue("engine.matches.negative"),
            report.total_matches);
  EXPECT_EQ(snap.CounterValue("replica.applied_batches"),
            2 * report.batches.size());
}

TEST_F(ReplicaObsTest, FailoverPublishesCounterAndDurationHistogram) {
  obs::SetEnabled(true);
  RunFailoverScenario(*workload::FindScenario("smoke"),
                      workload::kDefaultScenarioSeed, "gamma", 2);
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
  EXPECT_EQ(snap.CounterValue("replica.failovers"), 1u);
  EXPECT_EQ(snap.CounterValue("replica.leader_kills"), 1u);
  bool found = false;
  for (const obs::MetricsSnapshot::Hist& h : snap.histograms) {
    if (h.name == "replica.failover_us") {
      found = true;
      EXPECT_EQ(h.data.count, 1u);
    }
  }
  EXPECT_TRUE(found) << "no replica.failover_us duration histogram";
}

TEST_F(ReplicaObsTest, FollowerSpansTaggedAndStructurallyDeterministic) {
  obs::SetEnabled(true);
  obs::TraceRecorder::Instance().SetEnabled(true);
  RunReplicatedSmoke();
  std::set<int32_t> ids;
  size_t ship = 0, apply = 0;
  for (const obs::TraceSpan& s : obs::TraceRecorder::Instance().Spans()) {
    if (s.replica < 0) continue;
    ids.insert(s.replica);
    if (s.name == "replica.ship") ++ship;
    if (s.name == "replica.apply") ++apply;
    EXPECT_EQ(s.domain, obs::Domain::kCriticalPath) << s.name;
  }
  EXPECT_EQ(ids, (std::set<int32_t>{0, 1}));
  EXPECT_EQ(ship, 6u);   // every shipped batch got a ship span...
  EXPECT_EQ(apply, 6u);  // ...tiled against its apply span
  const uint64_t digest1 = obs::TraceRecorder::Instance().StructuralDigest();
  EXPECT_NE(digest1, 0u);

  ResetAll();
  obs::SetEnabled(true);
  obs::TraceRecorder::Instance().SetEnabled(true);
  RunReplicatedSmoke();
  EXPECT_EQ(obs::TraceRecorder::Instance().StructuralDigest(), digest1);
}
#endif  // BDSM_OBS

}  // namespace
}  // namespace bdsm::replica
