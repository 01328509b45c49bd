/// \file thread_pool.hpp
/// Persistent host worker pool.
///
/// Two owners keep one alive for their lifetime, so per-call cost is the
/// work itself, not thread creation: ShardedEngine (src/serve/) fans each
/// processing phase out across its shards, and Device (src/gpusim/)
/// simulates blocks of its launches on it.  The pool is deliberately
/// minimal: FIFO task queue, `Post` for fire-and-forget work, and a
/// blocking `ParallelFor` barrier.
///
/// Determinism: the pool makes no ordering promises between tasks; its
/// users get determinism by merging results in a fixed order *after*
/// the ParallelFor barrier, never from scheduling.  ShardedEngine and
/// Device output is therefore identical for any pool size (tested in
/// serve_test.cpp and gpusim_test.cpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bdsm {

/// Fixed-size pool of worker threads consuming a FIFO task queue.
/// Thread-safe: Post/ParallelFor may be called from any thread,
/// including (for Post) a pool worker.  ParallelFor must not be called
/// from a worker — the caller blocks on the barrier, and a blocked
/// worker could deadlock the pool.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);
  /// Drains nothing: pending tasks are completed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t NumThreads() const { return workers_.size(); }

  /// Enqueues one task; returns immediately.
  void Post(std::function<void()> task);

  /// Runs body(0..n-1) on the pool and blocks until every call
  /// returned.  The first exception thrown by any body is rethrown on
  /// the caller's thread after the barrier (remaining indices still
  /// run).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace bdsm
