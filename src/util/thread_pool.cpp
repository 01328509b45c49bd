#include "util/thread_pool.hpp"

#include <exception>

#include "util/common.hpp"

namespace bdsm {

ThreadPool::ThreadPool(size_t num_threads) {
  GAMMA_CHECK_MSG(num_threads > 0, "thread pool needs at least one worker");
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;

  struct Barrier {
    std::mutex mu;
    std::condition_variable done;
    size_t remaining;
    std::exception_ptr first_error;
  } barrier;
  barrier.remaining = n;

  for (size_t i = 0; i < n; ++i) {
    Post([&barrier, &body, i] {
      std::exception_ptr error;
      try {
        body(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(barrier.mu);
      if (error && !barrier.first_error) barrier.first_error = error;
      if (--barrier.remaining == 0) barrier.done.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(barrier.mu);
  barrier.done.wait(lock, [&barrier] { return barrier.remaining == 0; });
  if (barrier.first_error) std::rethrow_exception(barrier.first_error);
}

}  // namespace bdsm
