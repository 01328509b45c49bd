#include "gpusim/device.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bdsm {

namespace {

/// One launch of a LaunchEach call: its blocks' queues and results.
struct PendingLaunch {
  std::vector<Device::TaskList> per_block;
  std::vector<BlockResult> results;
  std::atomic<uint32_t> blocks_left{0};
  std::once_flag started;
  Timer timer;  ///< the launch's budget clock, reset at first dispatch
};

}  // namespace

Device::Device(DeviceConfig cfg, uint32_t host_threads)
    : cfg_(cfg), allocator_(cfg.global_mem_bytes) {
  host_threads_ = host_threads != 0
                      ? host_threads
                      : std::max(1u, std::thread::hardware_concurrency());
}

Device::~Device() = default;

DeviceStats Device::Launch(TaskList tasks) {
  std::vector<TaskList> lists;
  lists.push_back(std::move(tasks));
  return LaunchEach(std::move(lists)).front();
}

std::vector<DeviceStats> Device::LaunchEach(
    std::vector<TaskList> lists, const std::function<void(size_t)>& on_done) {
  std::vector<PendingLaunch> launches(lists.size());
  std::vector<std::pair<uint32_t, uint32_t>> jobs;  // (launch, block)
  for (size_t i = 0; i < lists.size(); ++i) {
    TaskList& tasks = lists[i];
    if (tasks.empty()) {
      if (on_done) on_done(i);
      continue;
    }
    // One wave of resident blocks; grids larger than the device are
    // folded into the per-block queues (persistent-thread style), which
    // is how the makespan accounts for multi-wave grids too.
    const uint64_t warps_needed =
        (tasks.size() + cfg_.warps_per_block - 1) / cfg_.warps_per_block;
    const uint32_t num_blocks = static_cast<uint32_t>(
        std::min<uint64_t>(cfg_.num_sms, warps_needed));

    // Static grid-stride assignment keeps every block's queue — and
    // hence the whole simulation — deterministic under host-thread
    // parallelism.
    PendingLaunch& l = launches[i];
    l.per_block.resize(num_blocks);
    for (size_t t = 0; t < tasks.size(); ++t) {
      l.per_block[t % num_blocks].push_back(std::move(tasks[t]));
    }
    l.results.resize(num_blocks);
    l.blocks_left = num_blocks;
    for (uint32_t b = 0; b < num_blocks; ++b) {
      jobs.emplace_back(static_cast<uint32_t>(i), b);
    }
  }

  std::atomic<size_t> next_job{0};
  auto worker = [&](size_t /*thread*/) {
    for (size_t j; (j = next_job.fetch_add(1)) < jobs.size();) {
      const auto [i, b] = jobs[j];
      PendingLaunch& l = launches[i];
      std::call_once(l.started, [&l] { l.timer.Reset(); });
      BlockScheduler sched(cfg_, b, &allocator_, std::move(l.per_block[b]),
                           l.timer);
      l.results[b] = sched.Run();
      if (l.blocks_left.fetch_sub(1) == 1 && on_done) on_done(i);
    }
  };
  HostParallelFor(std::min<size_t>(host_threads_, jobs.size()), worker);

  std::vector<DeviceStats> stats(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    const std::vector<BlockResult>& results = launches[i].results;
    if (results.empty()) continue;
    DeviceStats& total = stats[i];
    for (const BlockResult& r : results) {
      total.timed_out = total.timed_out || r.timed_out;
      total.makespan_ticks = std::max(total.makespan_ticks, r.makespan_ticks);
      total.total_busy_ticks += r.busy_ticks;
      total.steal_events += r.steal_events;
      total.tasks_executed += r.tasks_executed;
      total.global_transactions += r.mem.global_transactions;
      total.coalesced_words += r.mem.coalesced_words;
      total.uncoalesced_words += r.mem.uncoalesced_words;
      total.shared_accesses += r.mem.shared_accesses;
      total.compute_steps += r.mem.compute_steps;
      total.transfer_bytes += r.mem.transfer_bytes;
      total.transfer_ticks += r.mem.transfer_ticks;
    }
    // Warp lifetime is uniform across the launch: every warp of every
    // resident block lives until the last block finishes.
    total.total_warp_ticks =
        total.makespan_ticks * cfg_.warps_per_block * results.size();
    total.peak_device_bytes = allocator_.peak_bytes();
  }
  return stats;
}

void Device::HostParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (std::min<size_t>(host_threads_, n) <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  if (!pool_) pool_ = std::make_unique<ThreadPool>(host_threads_);
  pool_->ParallelFor(n, body);
}

}  // namespace bdsm
