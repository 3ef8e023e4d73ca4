#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <string>

#include "obs/flight.hpp"
#include "obs/profiler.hpp"

namespace mfcp {

namespace {

/// The pool whose worker_loop runs on this thread, if any.
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

bool ThreadPool::owns_current_thread() const noexcept {
  return t_worker_of == this;
}

void ThreadPool::worker_loop(std::size_t worker) {
  t_worker_of = this;
  // Watchdog heartbeat against the process-wide flight recorder. The
  // handle is re-resolved by *generation* immediately before every use —
  // including right after waking from a park, which can outlast any
  // recorder — so tearing a recorder down (set_default_flight(nullptr)
  // once outstanding futures are waited on) can never leave a worker
  // beating a dead slot, even if a successor recorder reuses the address.
  std::uint64_t pulse_generation = 0;
  obs::HeartbeatHandle pulse;
  const auto resolve_pulse = [&] {
    const std::uint64_t generation = obs::default_flight_generation();
    if (generation != pulse_generation || generation == 0) {
      pulse_generation = generation;
      obs::FlightRecorder* recorder = obs::default_flight();
      pulse = recorder != nullptr
                  ? recorder->register_heartbeat("pool_worker_" +
                                                 std::to_string(worker))
                  : obs::HeartbeatHandle();
    }
  };
  // Sampling-profiler registration, same generation discipline: workers
  // run the offloaded match solves, so their stacks belong in profiles.
  // The profiler (like the recorder) must outlive the pool; re-resolving
  // by generation keeps a worker from touching a replaced instance.
  std::uint64_t profiler_generation = 0;
  const auto resolve_profiler = [&] {
    const std::uint64_t generation = obs::default_profiler_generation();
    if (generation != profiler_generation || generation == 0) {
      profiler_generation = generation;
      if (obs::SamplingProfiler* profiler = obs::default_profiler()) {
        profiler->register_current_thread("pool_worker_" +
                                          std::to_string(worker));
      }
    }
  };
  for (;;) {
    std::function<void()> task;
    std::size_t depth = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      resolve_pulse();
      resolve_profiler();
      pulse.idle();  // a parked worker is not a stall
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stop_ and drained: detach from the current profiler (if any)
        // so no future session targets this exiting thread's id.
        if (obs::SamplingProfiler* profiler = obs::default_profiler()) {
          profiler->unregister_current_thread();
        }
        return;
      }
      resolve_pulse();  // the park may have outlived the recorder
      resolve_profiler();
      pulse.beat();
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
    }
    if (obs::MetricsRegistry* reg = obs::default_registry()) {
      reg->gauge("mfcp_pool_queue_depth").set(static_cast<double>(depth));
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mfcp
