/// Tests for the SIMT device simulator: charging/cost model, allocator
/// spill accounting, block scheduling determinism, work stealing
/// (active + passive) semantics and utilization effects.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <string>

#include "gpusim/coop_groups.hpp"
#include "gpusim/device.hpp"

namespace bdsm {
namespace {

/// A splittable task that burns `units` steps, each charging `cost_words`
/// of global memory traffic.  Mirrors the shape of WBM's DFS work.
class BurnTask : public WarpTask {
 public:
  BurnTask(uint64_t units, uint64_t cost_words, std::atomic<uint64_t>* done)
      : units_(units), cost_words_(cost_words), done_(done) {}

  bool Step(WarpContext& ctx) override {
    if (units_ == 0) return false;
    ctx.ChargeGlobal(cost_words_, /*coalesced=*/true);
    ctx.ChargeCompute(cost_words_);
    --units_;
    done_->fetch_add(1, std::memory_order_relaxed);
    return units_ > 0;
  }

  uint64_t EstimateRemaining() const override { return units_; }

  std::unique_ptr<WarpTask> StealHalf() override {
    if (units_ < 2) return nullptr;
    uint64_t half = units_ / 2;
    units_ -= half;
    return std::make_unique<BurnTask>(half, cost_words_, done_);
  }

 private:
  uint64_t units_;
  uint64_t cost_words_;
  std::atomic<uint64_t>* done_;
};

DeviceConfig SmallConfig(StealPolicy policy) {
  DeviceConfig cfg;
  cfg.num_sms = 2;
  cfg.warps_per_block = 4;
  cfg.steal_policy = policy;
  return cfg;
}

TEST(WarpContextTest, ComputeChargesSimtSteps) {
  DeviceConfig cfg;
  SharedMemory shm(1024);
  DeviceAllocator alloc(1 << 20);
  WarpContext ctx(cfg, &shm, &alloc, 0, 0);
  ctx.ChargeCompute(64);  // 64 ops over 32 lanes = 2 steps
  EXPECT_EQ(ctx.compute_steps(), 2u);
  EXPECT_EQ(ctx.DrainTicks(), 2u * cfg.ticks_per_compute_step);
  EXPECT_EQ(ctx.DrainTicks(), 0u) << "drain must reset";
}

TEST(WarpContextTest, CoalescingMatters) {
  DeviceConfig cfg;
  SharedMemory shm(1024);
  DeviceAllocator alloc(1 << 20);
  WarpContext a(cfg, &shm, &alloc, 0, 0);
  WarpContext b(cfg, &shm, &alloc, 0, 1);
  a.ChargeGlobal(128, true);
  b.ChargeGlobal(128, false);
  EXPECT_EQ(a.global_transactions(), 4u);    // 128/32
  EXPECT_EQ(b.global_transactions(), 128u);  // one per word
  EXPECT_EQ(a.DrainTicks() * 32, b.DrainTicks());
}

TEST(WarpContextTest, TransferBilledPerKiB) {
  DeviceConfig cfg;
  SharedMemory shm(1024);
  DeviceAllocator alloc(1 << 20);
  WarpContext ctx(cfg, &shm, &alloc, 0, 0);
  ctx.ChargeTransfer(4096);
  EXPECT_EQ(ctx.transfer_bytes(), 4096u);
  EXPECT_EQ(ctx.transfer_ticks(), 4u * cfg.ticks_per_kib_transfer);
}

TEST(SharedMemoryTest, AllocAndBudget) {
  SharedMemory shm(256);
  uint32_t* a = shm.Alloc<uint32_t>(16);
  ASSERT_NE(a, nullptr);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a[i], 0u);
  EXPECT_GE(shm.used(), 64u);
  EXPECT_DEATH(shm.Alloc<uint64_t>(1000), "shared memory budget");
  shm.Reset();
  EXPECT_EQ(shm.used(), 0u);
}

TEST(DeviceAllocatorTest, SpillAccounting) {
  DeviceAllocator alloc(1000);
  EXPECT_EQ(alloc.Alloc(600), 0u);
  EXPECT_EQ(alloc.Alloc(600), 200u);  // 200 bytes over capacity
  EXPECT_EQ(alloc.live_bytes(), 1200u);
  EXPECT_EQ(alloc.peak_bytes(), 1200u);
  EXPECT_GT(alloc.UsagePercent(), 100.0);
  EXPECT_EQ(alloc.total_spill_traffic(), 400u);  // evict + reload
  alloc.Free(600);
  EXPECT_EQ(alloc.live_bytes(), 600u);
  EXPECT_EQ(alloc.peak_bytes(), 1200u);
}

TEST(DeviceTest, AllWorkExecutes) {
  Device dev(SmallConfig(StealPolicy::kNone));
  std::atomic<uint64_t> done{0};
  std::vector<std::unique_ptr<WarpTask>> tasks;
  uint64_t expected = 0;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back(std::make_unique<BurnTask>(10 + i, 8, &done));
    expected += 10 + static_cast<uint64_t>(i);
  }
  DeviceStats stats = dev.Launch(std::move(tasks));
  EXPECT_EQ(done.load(), expected);
  EXPECT_EQ(stats.tasks_executed, 20u);
  EXPECT_GT(stats.makespan_ticks, 0u);
  EXPECT_GT(stats.Utilization(), 0.0);
  EXPECT_LE(stats.Utilization(), 1.0);
}

TEST(DeviceTest, DeterministicAcrossRuns) {
  auto run = [](uint32_t host_threads) {
    Device dev(SmallConfig(StealPolicy::kActive), host_threads);
    std::atomic<uint64_t> done{0};
    std::vector<std::unique_ptr<WarpTask>> tasks;
    for (int i = 0; i < 17; ++i) {
      tasks.push_back(
          std::make_unique<BurnTask>(5 + (i * 7) % 23, 4, &done));
    }
    return dev.Launch(std::move(tasks));
  };
  const DeviceStats reference = run(1);
  EXPECT_EQ(run(1), reference);
  for (uint32_t host_threads : {2u, 4u}) {
    SCOPED_TRACE("host_threads " + std::to_string(host_threads));
    EXPECT_EQ(run(host_threads), reference);
  }
}

// LaunchEach simulates several launches as one host job list; each
// launch's stats must still be exactly those of the same launch run
// alone on one host thread, for every steal policy and host thread
// count.  An empty list
// yields zero stats, and on_done fires once per launch, after all of
// that launch's work.
TEST(DeviceTest, LaunchEachEqualsSequentialLaunches) {
  constexpr size_t kLaunches = 4;
  std::atomic<uint64_t> done[kLaunches + 1] = {};
  auto make_lists = [&done] {
    std::vector<Device::TaskList> lists(kLaunches + 1);
    for (size_t k = 0; k < kLaunches; ++k) {
      if (k == 2) continue;  // lists[2] stays empty
      // Skewed: one heavy task per list, many light ones.
      lists[k].push_back(
          std::make_unique<BurnTask>(300 * (k + 1), 4, &done[k]));
      for (size_t i = 0; i < 9 + 5 * k; ++i) {
        lists[k].push_back(std::make_unique<BurnTask>(
            3 + (i * 7 + k) % 11, 2 + k % 3, &done[k]));
      }
    }
    // A fifth, heavy list so later jobs overlap earlier tails.
    for (size_t i = 0; i < 40; ++i) {
      lists[kLaunches].push_back(
          std::make_unique<BurnTask>(50 + i % 13, 3, &done[kLaunches]));
    }
    return lists;
  };
  std::vector<uint64_t> expected_units;
  for (const Device::TaskList& list : make_lists()) {
    uint64_t units = 0;
    for (const auto& t : list) units += t->EstimateRemaining();
    expected_units.push_back(units);
  }

  for (StealPolicy policy :
       {StealPolicy::kNone, StealPolicy::kPassive, StealPolicy::kActive}) {
    DeviceConfig cfg = SmallConfig(policy);
    cfg.num_sms = 3;
    std::vector<DeviceStats> sequential;
    {
      Device dev(cfg, /*host_threads=*/1);
      for (Device::TaskList& list : make_lists()) {
        sequential.push_back(dev.Launch(std::move(list)));
      }
    }
    for (auto& d : done) d = 0;

    for (uint32_t host_threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) +
                   " host_threads " + std::to_string(host_threads));
      std::atomic<uint32_t> calls[kLaunches + 1] = {};
      std::atomic<bool> complete_at_done[kLaunches + 1] = {};
      Device dev(cfg, host_threads);
      const std::vector<DeviceStats> each =
          dev.LaunchEach(make_lists(), [&](size_t i) {
            calls[i].fetch_add(1);
            complete_at_done[i] = done[i].load() == expected_units[i];
          });
      ASSERT_EQ(each.size(), sequential.size());
      for (size_t i = 0; i < each.size(); ++i) {
        SCOPED_TRACE("launch " + std::to_string(i));
        EXPECT_EQ(each[i], sequential[i]);
        EXPECT_EQ(calls[i].load(), 1u);
        EXPECT_TRUE(complete_at_done[i].load());
      }
      EXPECT_EQ(each[2], DeviceStats{});
      if (policy != StealPolicy::kNone) {
        EXPECT_GT(each[0].steal_events, 0u);  // the skew is exercised
      }
      for (auto& d : done) d = 0;
    }
  }
}

TEST(DeviceTest, ActiveStealingBalancesSkew) {
  // One giant task + many tiny ones in a single block: without stealing
  // the giant task serializes on one warp; with active stealing siblings
  // share it, shrinking the makespan and raising utilization.
  auto run = [](StealPolicy policy) {
    DeviceConfig cfg;
    cfg.num_sms = 1;
    cfg.warps_per_block = 4;
    cfg.steal_policy = policy;
    Device dev(cfg);
    std::atomic<uint64_t> done{0};
    std::vector<std::unique_ptr<WarpTask>> tasks;
    tasks.push_back(std::make_unique<BurnTask>(4000, 8, &done));
    for (int i = 0; i < 3; ++i) {
      tasks.push_back(std::make_unique<BurnTask>(10, 8, &done));
    }
    DeviceStats s = dev.Launch(std::move(tasks));
    EXPECT_EQ(done.load(), 4000u + 30u);
    return s;
  };
  DeviceStats without = run(StealPolicy::kNone);
  DeviceStats with = run(StealPolicy::kActive);
  EXPECT_EQ(without.steal_events, 0u);
  EXPECT_GT(with.steal_events, 0u);
  EXPECT_LT(with.makespan_ticks, without.makespan_ticks / 2);
  EXPECT_GT(with.Utilization(), without.Utilization());
}

TEST(DeviceTest, PassiveStealingAlsoBalances) {
  auto run = [](StealPolicy policy) {
    DeviceConfig cfg;
    cfg.num_sms = 1;
    cfg.warps_per_block = 4;
    cfg.steal_policy = policy;
    Device dev(cfg);
    std::atomic<uint64_t> done{0};
    std::vector<std::unique_ptr<WarpTask>> tasks;
    tasks.push_back(std::make_unique<BurnTask>(2000, 8, &done));
    tasks.push_back(std::make_unique<BurnTask>(5, 8, &done));
    return dev.Launch(std::move(tasks));
  };
  DeviceStats passive = run(StealPolicy::kPassive);
  DeviceStats none = run(StealPolicy::kNone);
  EXPECT_GT(passive.steal_events, 0u);
  EXPECT_LT(passive.makespan_ticks, none.makespan_ticks);
}

TEST(DeviceTest, MoreTasksThanWarpsAllRun) {
  DeviceConfig cfg;
  cfg.num_sms = 2;
  cfg.warps_per_block = 2;
  Device dev(cfg);
  std::atomic<uint64_t> done{0};
  std::vector<std::unique_ptr<WarpTask>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back(std::make_unique<BurnTask>(3, 2, &done));
  }
  DeviceStats stats = dev.Launch(std::move(tasks));
  EXPECT_EQ(stats.tasks_executed, 100u);
  EXPECT_EQ(done.load(), 300u);
}

TEST(DeviceTest, EmptyLaunchIsNoop) {
  Device dev(SmallConfig(StealPolicy::kActive));
  DeviceStats stats = dev.Launch({});
  EXPECT_EQ(stats.makespan_ticks, 0u);
  EXPECT_EQ(stats.tasks_executed, 0u);
}

TEST(CoopGroupsTest, PartitionSizes) {
  EXPECT_EQ(PartitionForSegment(1).group_size, 1u);
  EXPECT_EQ(PartitionForSegment(1).num_groups, 32u);
  EXPECT_EQ(PartitionForSegment(9).group_size, 16u);
  EXPECT_EQ(PartitionForSegment(16).group_size, 16u);
  EXPECT_EQ(PartitionForSegment(16).num_groups, 2u);
  EXPECT_EQ(PartitionForSegment(17).group_size, 32u);
  EXPECT_EQ(PartitionForSegment(100).group_size, 32u);
}

TEST(CoopGroupsTest, CgNeverSlowerForSmallSegments) {
  for (uint32_t seg = 1; seg <= 32; ++seg) {
    for (uint64_t n : {1ull, 7ull, 64ull, 1000ull}) {
      EXPECT_LE(SegmentPassSteps(n, seg, true),
                SegmentPassSteps(n, seg, false))
          << "seg=" << seg << " n=" << n;
    }
  }
  // And strictly better in the paper's 16-entry example with many segs.
  EXPECT_LT(SegmentPassSteps(64, 16, true), SegmentPassSteps(64, 16, false));
}

}  // namespace
}  // namespace bdsm
