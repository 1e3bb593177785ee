/// \file thread_pool.hpp
/// \brief Persistent worker pool executing index-parallel jobs. Built for
///        the vectorized rollout engine: one job is "run fn(i) for every
///        i in [0, n)" where fn only touches state owned by index i, so
///        results are bitwise-identical regardless of thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qrc::rl {

/// Fixed-size pool of worker threads. A pool of size <= 1 executes jobs
/// inline on the calling thread (no threads spawned, zero sync overhead),
/// which keeps the serial path free of threading costs.
class WorkerPool {
 public:
  explicit WorkerPool(int num_threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Number of threads that execute jobs (>= 1; includes the caller).
  [[nodiscard]] int size() const { return num_threads_; }

  /// Runs fn(i) for every i in [0, n), distributing indices across the
  /// pool (the calling thread participates; a one-index job runs on the
  /// caller alone). Blocks until every index is done. If any invocation
  /// throws, the first exception is rethrown on the caller after the job
  /// completes. Indices run with no ambient trace context
  /// (obs::TraceContext::current() is null), on the caller too.
  ///
  /// fn must only write to state owned by its index; under that contract
  /// the outcome is deterministic for any pool size.
  void parallel_for(int n, const std::function<void(int)>& fn);

 private:
  void worker_loop();
  void run_indices();

  int num_threads_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;

  // Current job (valid while workers_active_ > 0).
  const std::function<void(int)>* job_ = nullptr;
  int job_size_ = 0;
  std::atomic<int> next_index_{0};
  int workers_active_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace qrc::rl
