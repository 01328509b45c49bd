/// \file device.hpp
/// The simulated GPU: grid-level task distribution over blocks/SMs.
///
/// A launch takes a flat list of warp tasks (for GAMMA: one per updated
/// edge), statically grid-strides them over blocks, executes every block
/// to completion, and reports the kernel makespan as the maximum block
/// finish time — all resident blocks start together, which models a
/// grid that fits the device in one wave.
///
/// Host simulation: blocks are independent, so the device simulates
/// them on a persistent host worker pool (created on the first call
/// that needs more than one host thread).  LaunchEach simulates several
/// independent launches as one host job list; each launch is still
/// modeled on its own, so its stats are those of the same launch run
/// alone.  The simulated result does not depend on the host thread
/// count for kernels that do not allocate device memory.  Known
/// exception: BFS frontiers allocate through the one shared
/// DeviceAllocator, so spill traffic and peak_device_bytes can depend on
/// which blocks happen to run concurrently on the host.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gpusim/block.hpp"
#include "gpusim/device_allocator.hpp"
#include "gpusim/device_config.hpp"
#include "gpusim/warp_task.hpp"

namespace bdsm {

class ThreadPool;

class Device {
 public:
  using TaskList = std::vector<std::unique_ptr<WarpTask>>;

  explicit Device(DeviceConfig cfg = {}, uint32_t host_threads = 0);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceConfig& config() const { return cfg_; }
  DeviceAllocator& allocator() { return allocator_; }

  /// Executes the tasks as one kernel launch and returns its statistics:
  /// the one-list case of LaunchEach.
  DeviceStats Launch(TaskList tasks);

  /// Executes each list as its own kernel launch and returns one stats
  /// record per list; stats[i] equals what Launch(lists[i]) alone
  /// returns.  The host hands out (launch, block) jobs in launch order,
  /// so later launches' blocks overlap earlier launches' tails.  Each
  /// launch's cfg.host_budget_seconds clock starts when its first block
  /// is dispatched.  `on_done(i)`, if set, runs on the host thread that
  /// finished launch i's last block (on the caller, before any block
  /// runs, for an empty list), while other launches may still run.
  std::vector<DeviceStats> LaunchEach(
      std::vector<TaskList> lists,
      const std::function<void(size_t)>& on_done = {});

  /// Runs body(0..n-1) on the host worker pool and returns once every
  /// call returned (on the caller's thread when one host thread
  /// suffices).  For host work beside the simulation; models nothing.
  void HostParallelFor(size_t n, const std::function<void(size_t)>& body);

 private:
  DeviceConfig cfg_;
  DeviceAllocator allocator_;
  uint32_t host_threads_;
  std::unique_ptr<ThreadPool> pool_;  ///< created on first parallel use
};

}  // namespace bdsm
