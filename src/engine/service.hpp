// External-submission service layer: the thread-safe bridge between the
// platform gateway's HTTP workers and the engine's single-threaded round
// loop.
//
//   HTTP worker ── GatewayLink::submit() ──> bounded inbox ──┐
//                                                            ▼
//   engine serve loop ── drain() ──> admission queue ──> rounds
//                  │
//                  └──> TaskStatusTable (queued → matched → dispatched,
//                       or expired / rejected) read by GET /task/<id>
//
// Contract: HTTP workers only ever touch the GatewayLink (mutex-guarded
// inbox + status table + relaxed-atomic pressure hints); the engine
// drains submissions between events and writes status transitions as
// rounds close. Status states only move forward, so a reader polling
// /task/<id> can never observe a regression — the live-socket test
// asserts exactly that.
//
// Backpressure: submit() rejects once inbox depth + the engine's queue-
// depth hint reaches high_water, returning a Retry-After derived from
// queue pressure (how many rounds must close to drain the excess, times
// the engine's round-cadence hint). This is the 429 path of POST /submit.
#pragma once

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/task.hpp"

namespace mfcp::obs {
class TraceStore;
}
namespace mfcp::control {
class TokenBucketTable;
}
namespace mfcp::storage {
class TaskWal;
}

namespace mfcp::engine {

/// External arrival ids live far above the synthetic stream's dense
/// 0-based ids, so the two sources can never collide in the queue.
inline constexpr std::uint64_t kExternalIdBase = 1ULL << 40;

/// Lifecycle of one externally submitted task. States only move forward
/// (queued < matched < dispatched; expired/rejected are terminal).
enum class TaskState : int {
  kQueued = 0,     // admitted, waiting in the admission queue
  kMatched = 1,    // assigned a cluster by a matching round
  kDispatched = 2, // executed; realized time and outcome known
  kExpired = 3,    // deadline passed while waiting
  kRejected = 4,   // dropped by the bounded queue after admission
};

std::string to_string(TaskState state);

/// Status record returned by GET /task/<id>.
struct TaskStatus {
  std::uint64_t id = 0;
  TaskState state = TaskState::kQueued;
  double submit_hours = 0.0;     // simulated submission time
  std::size_t cluster = 0;       // valid from kMatched
  std::string cluster_name;      // valid from kMatched
  double predicted_hours = 0.0;  // T̂ on the assigned cluster (kMatched)
  double realized_hours = 0.0;   // observed runtime (kDispatched)
  bool succeeded = false;        // first-attempt success (kDispatched)
  std::uint64_t round = 0;       // round that matched it (kMatched)
};

/// Thread-safe id-keyed status store with monotonic state transitions.
///
/// Bounded: past `capacity` resident entries, *terminal* tasks
/// (dispatched/expired/rejected) are evicted FIFO — in the order they
/// reached a terminal state — so a long-lived service holds at most the
/// cap plus every still-live task. Live (queued/matched) entries are
/// never evicted; the forward-only contract is preserved because an
/// evicted id can only re-surface as "gone" (was_evicted), never as an
/// earlier state. capacity == 0 means unbounded (tests, batch runs).
class TaskStatusTable {
 public:
  explicit TaskStatusTable(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Registers a new task, assigning the next external id.
  std::uint64_t insert(double submit_hours);

  /// Recovery path: re-registers a task under the id it was issued by a
  /// previous incarnation (WAL replay), advancing the id allocator past
  /// it so new submissions never collide with replayed ones. Counted as
  /// submitted + queued, exactly like insert().
  void restore_entry(std::uint64_t id, double submit_hours);

  void mark_matched(std::uint64_t id, std::size_t cluster,
                    std::string cluster_name, double predicted_hours,
                    std::uint64_t round);
  void mark_dispatched(std::uint64_t id, double realized_hours,
                       bool succeeded);
  /// Terminal loss: `state` must be kExpired or kRejected.
  void mark_lost(std::uint64_t id, TaskState state);

  [[nodiscard]] std::optional<TaskStatus> get(std::uint64_t id) const;

  /// True for ids this table once held and has since evicted (the GET
  /// /task/<id> 410 path). False for live ids and never-issued ids.
  [[nodiscard]] bool was_evicted(std::uint64_t id) const;

  [[nodiscard]] std::size_t resident() const;
  [[nodiscard]] std::uint64_t evicted_total() const;

  /// Point-in-time count of tasks in each state.
  struct Counts {
    std::uint64_t submitted = 0;
    std::uint64_t queued = 0;
    std::uint64_t matched = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t expired = 0;
    std::uint64_t rejected = 0;
  };
  [[nodiscard]] Counts counts() const;

 private:
  /// Records `id` as terminal and evicts past capacity. Caller holds
  /// mutex_.
  void note_terminal_locked(std::uint64_t id);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, TaskStatus> tasks_;
  std::deque<std::uint64_t> terminal_fifo_;  // eviction order
  std::uint64_t next_id_ = kExternalIdBase;
  std::uint64_t evicted_ = 0;
  Counts counts_;
};

/// Outcome of one POST /submit as decided by the link.
struct SubmitTicket {
  bool accepted = false;
  std::uint64_t id = 0;                // valid when accepted
  double retry_after_seconds = 0.0;    // valid when rejected
  std::size_t pressure = 0;            // inbox + queue depth at decision
  bool throttled = false;              // rejected by the client's bucket
  std::uint64_t trace_id = 0;          // minted when accepted (always set)
  bool trace_sampled = false;          // whether /trace/<id> will resolve
};

/// One accepted submission travelling from the inbox to the engine.
struct ExternalSubmission {
  std::uint64_t id = 0;
  sim::TaskDescriptor task;
  double deadline_hours = 0.0;  // patience, relative to admission time
};

struct GatewayLinkConfig {
  /// Inbox bound: submissions waiting for the engine to drain them.
  std::size_t max_pending = 256;
  /// Reject new submissions once inbox + engine queue depth reaches this.
  std::size_t high_water = 48;
  /// Status-table bound: terminal entries past this are evicted FIFO and
  /// GET /task/<id> answers 410 for them. 0 = unbounded.
  std::size_t status_capacity = 65536;

  /// Task-lifecycle tracing (null store disables it entirely). The
  /// store's sample rate decides, deterministically in the task id; the
  /// engine asks the same store for its side of the chain.
  obs::TraceStore* traces = nullptr;

  /// Ratekeeper enforcement point: when set, every submit first spends a
  /// token from the caller's bucket (shared with the engine, which both
  /// replenishes it from the controller's rate and charges its own
  /// synthetic arrivals against it). A dry bucket rejects with 429 and a
  /// Retry-After derived from the bucket's actual replenish time — the
  /// same replenish_seconds formula the pressure-shed path uses.
  /// Borrowed, optional.
  control::TokenBucketTable* buckets = nullptr;

  /// Durability: when set, every accepted submission is appended to the
  /// write-ahead task log *before* the ticket (and so the HTTP 200) is
  /// returned — the ack outlives the process. Borrowed, optional; null
  /// keeps submission handling byte-for-byte as before.
  storage::TaskWal* wal = nullptr;
};

/// Aggregate service state returned by GET /stats.
struct ServiceStats {
  std::size_t inbox_depth = 0;
  std::size_t queue_depth = 0;
  std::uint64_t submitted = 0;      // accepted submissions
  std::uint64_t rejected_busy = 0;  // pressure/drain 429s at the door
  std::uint64_t rejected_throttled = 0;  // token-bucket 429s at the door
  std::uint64_t rounds = 0;
  std::uint64_t tasks_matched = 0;
  double sim_time_hours = 0.0;
  double last_round_close_hours = 0.0;
  double round_seconds_ewma = 0.0;  // wall-clock cadence estimate
  double cumulative_regret = 0.0;
  bool draining = false;
  /// WAL recovery bookkeeping (zero unless this incarnation recovered a
  /// data dir): tasks replayed into the queue, and tasks whose terminal
  /// record the WAL already witnessed before the restart. Together they
  /// cover every acceptance the previous incarnation logged.
  std::uint64_t recovered_tasks = 0;
  std::uint64_t recovered_terminal = 0;
  TaskStatusTable::Counts tasks;
};

class GatewayLink {
 public:
  explicit GatewayLink(GatewayLinkConfig config = {});

  // ----- gateway (HTTP worker) side --------------------------------------

  /// Admission decision + registration. `deadline_hours <= 0` applies a
  /// 2 h default. Rejects when draining, when the client's token
  /// bucket is dry (buckets configured; empty `client` uses the anonymous
  /// bucket), or over high water — in that order.
  SubmitTicket submit(const sim::TaskDescriptor& task,
                      double deadline_hours = 0.0,
                      std::string_view client = {});

  [[nodiscard]] std::optional<TaskStatus> status(std::uint64_t id) const {
    return table_.get(id);
  }

  /// Current simulated time as last hinted by the engine (timestamps the
  /// gateway's SLO observations on the same clock the engine uses).
  [[nodiscard]] double sim_time_hours() const noexcept {
    return sim_time_hours_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ServiceStats stats() const;

  /// Requests a drain: new submissions are rejected, the engine flushes
  /// the queue and returns from serve(). Only stores an atomic, so it is
  /// safe to call from a signal handler.
  void request_stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  // ----- engine side -----------------------------------------------------

  /// Takes every pending submission (FIFO). Non-blocking.
  std::vector<ExternalSubmission> drain();

  /// Blocks until a submission arrives, stop is requested, or `wait`
  /// elapses. Returns true when there is something to do.
  bool wait_for_event(std::chrono::milliseconds wait);

  /// Engine hints consumed by the backpressure and /stats paths.
  void note_queue_depth(std::size_t depth) noexcept {
    queue_depth_.store(depth, std::memory_order_relaxed);
  }
  void note_sim_time(double hours) noexcept {
    sim_time_hours_.store(hours, std::memory_order_relaxed);
  }
  /// Simulated hours per wall second (the serve clock rate): converts
  /// bucket deficits into wall-clock Retry-After values.
  void note_sim_rate(double hours_per_second) noexcept {
    if (hours_per_second > 0.0) {
      sim_hours_per_second_.store(hours_per_second,
                                  std::memory_order_relaxed);
    }
  }
  /// One closed round: feeds the cadence EWMA and the /stats aggregates.
  void note_round(std::uint64_t round, double close_hours, double regret,
                  std::size_t batch);

  /// Recovery bookkeeping (engine recover()): surfaces the WAL replay
  /// outcome through /stats so clients (loadgen --resume-report) can
  /// verify conservation across the restart.
  void note_recovery(std::uint64_t replayed, std::uint64_t terminal) noexcept {
    recovered_tasks_.store(replayed, std::memory_order_relaxed);
    recovered_terminal_.store(terminal, std::memory_order_relaxed);
  }

  [[nodiscard]] TaskStatusTable& table() noexcept { return table_; }
  [[nodiscard]] const GatewayLinkConfig& config() const noexcept {
    return config_;
  }

  /// Current pressure = inbox depth + engine queue-depth hint.
  [[nodiscard]] std::size_t pressure() const;

  /// The Retry-After (seconds) a rejection at `pressure` would report.
  /// Exposed for unit tests; monotone in pressure.
  [[nodiscard]] double retry_after_seconds(std::size_t pressure) const;

  /// Engine setup: round-size and cadence priors for Retry-After before
  /// any round has closed.
  void configure_drain(std::size_t round_batch,
                       double expected_round_seconds);

 private:
  GatewayLinkConfig config_;
  TaskStatusTable table_;

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<ExternalSubmission> inbox_;

  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> queue_depth_{0};
  std::atomic<double> sim_time_hours_{0.0};
  std::atomic<double> sim_hours_per_second_{1.0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_busy_{0};
  std::atomic<std::uint64_t> rejected_throttled_{0};
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> tasks_matched_{0};
  std::atomic<std::uint64_t> recovered_tasks_{0};
  std::atomic<std::uint64_t> recovered_terminal_{0};
  std::atomic<double> last_round_close_hours_{0.0};
  std::atomic<double> cumulative_regret_{0.0};
  std::atomic<double> round_seconds_ewma_{0.0};
  std::atomic<std::size_t> round_batch_{6};

  /// Wall timestamp of the previous note_round, for the cadence EWMA.
  std::chrono::steady_clock::time_point last_round_wall_{};
  bool saw_round_ = false;
};

}  // namespace mfcp::engine
