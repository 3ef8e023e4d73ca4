// Fixed-size worker pool used by the zeroth-order gradient estimator
// (S independent matching solves per step, Algorithm 2), the experiment
// harnesses (independent replications) and, through global(), TSM's
// predictor pretraining (one job per cluster and head).
//
// Design notes (HPC guide idioms):
//  - explicit parallelism: callers submit tasks or use parallel_for;
//    library internals use global() and never spawn threads of their own;
//  - parallel_for called from one of a pool's own workers runs inline,
//    so nested use of the same pool (global() inside global()) cannot
//    deadlock;
//  - exceptions from tasks propagate to the waiting caller via futures;
//  - the pool is an RAII type: destruction joins all workers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace mfcp {

class ThreadPool {
 public:
  /// Creates `threads` workers. `threads == 0` selects
  /// std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers after draining queued tasks.
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool owns_current_thread() const noexcept;

  /// Enqueues a task; the future rethrows any exception the task threw.
  ///
  /// When obs::set_default_registry installed a registry, every task also
  /// records its queue wait (submit -> first instruction) and run latency
  /// into `mfcp_pool_queue_wait_seconds` / `mfcp_pool_task_seconds`, and
  /// `mfcp_pool_queue_depth` tracks the backlog. With no registry (the
  /// default) the instrumentation is a single null check.
  ///
  /// Lifetime: the instrumentation wraps the user function INSIDE the
  /// packaged_task, so every registry touch happens strictly before the
  /// task's future becomes ready — a caller that waits on its futures may
  /// tear the registry down immediately afterwards.
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    obs::MetricsRegistry* reg = obs::default_registry();
    std::shared_ptr<std::packaged_task<R()>> task;
    if (reg == nullptr) {
      task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    } else {
      // Histogram handles are resolved here, on the submitting thread, so
      // the worker's hot path is two observes — no registry lookups.
      obs::Histogram* wait_hist = &reg->histogram(
          "mfcp_pool_queue_wait_seconds", obs::default_time_bounds());
      obs::Histogram* task_hist = &reg->histogram(
          "mfcp_pool_task_seconds", obs::default_time_bounds());
      const auto enqueued = std::chrono::steady_clock::now();
      task = std::make_shared<std::packaged_task<R()>>(
          [fn = std::forward<F>(fn), wait_hist, task_hist,
           enqueued]() mutable -> R {
            const auto begun = std::chrono::steady_clock::now();
            wait_hist->observe(
                std::chrono::duration<double>(begun - enqueued).count());
            // ScopedSpan records even when fn throws (the destructor runs
            // during unwinding, before packaged_task stores the exception).
            obs::ScopedSpan span(task_hist, "pool_task");
            return fn();
          });
    }
    std::future<R> fut = task->get_future();
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
      depth = queue_.size();
    }
    if (reg != nullptr) {
      reg->counter("mfcp_pool_tasks_total").add(1);
      reg->gauge("mfcp_pool_queue_depth").set(static_cast<double>(depth));
    }
    cv_.notify_one();
    return fut;
  }

  /// Shared process-wide pool (lazily constructed, hardware concurrency).
  /// Intended for library internals that need "a" pool without plumbing one
  /// through every call; experiment code constructs its own pools.
  static ThreadPool& global();

 private:
  void worker_loop(std::size_t worker);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace mfcp
