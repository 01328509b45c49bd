/// \file device_allocator.hpp
/// Global-memory allocator of the simulated device.
///
/// Tracks live and peak allocation against the configured capacity.
/// When a kernel's working set exceeds capacity the allocator does what
/// the systems the paper measures do (§IV-C, Fig. 5): it *spills* to host
/// memory, recording the host<->device traffic that then dominates BFS's
/// runtime.  Allocation never fails; exceeding capacity is an accounted
/// performance event, not an error.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>

#include "util/common.hpp"

namespace bdsm {

class DeviceAllocator {
 public:
  explicit DeviceAllocator(size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Reserves `bytes` of device memory.  Returns the number of bytes that
  /// did NOT fit and therefore spilled to host memory.  Thread-safe:
  /// blocks run on host threads and allocate concurrently.
  uint64_t Alloc(uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    live_ += bytes;
    peak_ = std::max(peak_, live_);
    if (live_ <= capacity_) return 0;
    uint64_t over = live_ - capacity_;
    uint64_t newly_spilled = over > spilled_ ? over - spilled_ : 0;
    spilled_ = std::max(spilled_, over);
    total_spill_traffic_ += 2 * newly_spilled;  // evict + reload
    return newly_spilled;
  }

  void Free(uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    GAMMA_CHECK(bytes <= live_);
    live_ -= bytes;
    if (live_ <= capacity_) spilled_ = 0;
    else spilled_ = live_ - capacity_;
  }

  uint64_t live_bytes() const { return live_; }
  uint64_t peak_bytes() const { return peak_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t total_spill_traffic() const { return total_spill_traffic_; }

  /// Device-memory occupancy in percent (can exceed 100 when spilling —
  /// Fig. 5(a) clamps at 100).  Sampled by blocks that run concurrently.
  double UsagePercent() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_ == 0 ? 0.0
                          : 100.0 * static_cast<double>(live_) /
                                static_cast<double>(capacity_);
  }

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t live_ = 0;
  uint64_t peak_ = 0;
  uint64_t spilled_ = 0;
  uint64_t total_spill_traffic_ = 0;
};

}  // namespace bdsm
