#include "rl/thread_pool.hpp"

#include <stdexcept>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace qrc::rl {

WorkerPool::WorkerPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  // The calling thread works too, so spawn one fewer.
  for (int i = 0; i + 1 < num_threads_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void WorkerPool::run_indices() {
  while (true) {
    const int i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_size_) {
      return;
    }
    try {
      (*job_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
    }
  }
}

void WorkerPool::worker_loop() {
  // Pool threads run the hot kernels, so they dominate sampled stacks;
  // enrolling caches the stack bounds the SIGPROF fp-walk validates
  // against (unenrolled threads degrade to PC-only samples).
  obs::Profiler::enroll_current_thread();
  std::uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) {
        return;
      }
      seen_generation = generation_;
    }
    run_indices();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --workers_active_;
    }
    done_cv_.notify_one();
  }
}

void WorkerPool::parallel_for(int n, const std::function<void(int)>& fn) {
  if (n <= 0) {
    return;
  }
  // Workers have no ambient trace; the caller's share runs without one
  // too, so which thread ran an index never changes a span tree.
  const obs::CurrentTraceScope untraced(nullptr);
  // A single index gains nothing from waking the workers.
  if (threads_.empty() || n == 1) {
    for (int i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    job_size_ = n;
    next_index_.store(0, std::memory_order_relaxed);
    workers_active_ = static_cast<int>(threads_.size());
    first_error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();
  run_indices();  // the caller participates
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return workers_active_ == 0; });
    job_ = nullptr;
    error = first_error_;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace qrc::rl
