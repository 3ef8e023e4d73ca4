// Black-box flight recorder: per-thread lock-free event rings, a stall
// watchdog, and an async-signal-safe crash-dump path (FoundationDB-style
// always-on diagnostics).
//
// Recording model
//   Every thread that records gets its own fixed-capacity SPSC ring of
//   64-byte event slots. A slot is eight 64-bit words; the writer
//   invalidates the slot (seq word <- 0, relaxed), stores the payload
//   words relaxed, then publishes with a release store of the sequence
//   number — a per-slot seqlock. Readers (debug routes, the watchdog,
//   JSONL dumps) copy slots and keep only those whose seq word reads the
//   same valid value before and after the payload copy, so a concurrent
//   overwrite is detected, never blocked on. Recording is therefore a
//   handful of relaxed atomic stores plus one clock read: cheap enough to
//   leave on in production (<2% on bench/exp_online_engine, measured by
//   the bench's paired on/off run).
//
// Determinism
//   The recorder is write-only telemetry: nothing in the engine reads it
//   back, and wall-clock values live only in rings / `.flight` dumps —
//   never in the byte-compared round journal (CI runs the engine with
//   --flight and cmp's the journal against the baseline).
//
// Watchdog
//   Long-running loops (engine rounds, HTTP workers, pool workers)
//   register a heartbeat slot and beat() each iteration; blocking waits
//   are bracketed with idle() so an idle worker parked on a condition
//   variable never looks stalled. A background watchdog thread flags any
//   *busy* heartbeat older than the stall budget: it dumps every ring
//   plus all heartbeat ages to the configured `.flight` JSONL file and
//   reports a fire/resolve transition through the SLO monitor's alert
//   sink (same record shape as the burn-rate rules).
//
// Crash path
//   install_crash_handlers() arms SIGSEGV/SIGABRT/SIGBUS handlers that
//   write the raw ring memory to a pre-configured path using only
//   async-signal-safe calls (open/write — no malloc, no locks; see
//   support/signal_safe.hpp and DESIGN.md §12). The raw-POD dump is
//   decoded and validated by `tools/obs_selfcheck --flight`.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/http_server.hpp"
#include "obs/metrics.hpp"

namespace mfcp::obs {

class JsonlWriter;
class SloMonitor;

/// Closed set of recorded event kinds. Values are part of the on-disk
/// crash-dump format — append only, never renumber.
enum class FlightKind : std::uint16_t {
  kNone = 0,             // empty slot sentinel, never recorded
  kRoundBegin = 1,       // a0 round, a1 queue depth, a2 trigger ordinal
  kRoundEnd = 2,         // a0 round, a1 batch size, a2 dispatch failures
  kBatchFormed = 3,      // a0 round, a1 batch size, a2 queue depth after
  kSolverIters = 4,      // a0 round, a1 iterations, a2 batch size
  kAdmission = 5,        // a0 task id, a1 admitted(1)/shed(0), a2 reason
  kRateChange = 6,       // a0/a1 old/new rate (double bits), a2 signal
  kHttpBegin = 7,        // a0 worker ordinal
  kHttpEnd = 8,          // a0 worker ordinal, a1 status, a2 response bytes
  kQueueTransition = 9,  // a0 task id, a1 state ordinal, a2 queue depth
  kRetrain = 10,         // a0 round, a1 retrain_total, a2 drift flag
  kWatchdogStall = 11,   // a0 heartbeat ordinal, a1 age ns, a2 budget ns
};

/// Stable lower-snake name for a kind ("round_begin", ...); "none" for
/// the sentinel, "unknown" past the closed set.
[[nodiscard]] std::string_view to_string(FlightKind kind) noexcept;

/// Inverse of to_string; nullopt for unknown names (and for "none").
[[nodiscard]] std::optional<FlightKind> parse_flight_kind(
    std::string_view name) noexcept;

/// One decoded event. This plain POD is also the crash-dump wire format:
/// eight little-endian 64-bit words, sim_hours as IEEE-754 bits in word
/// 2, kind and thread packed into the low half of word 7.
struct FlightEvent {
  std::uint64_t seq = 0;      // per-thread, 1-based, strictly increasing
  std::uint64_t wall_ns = 0;  // steady clock, process-relative
  double sim_hours = 0.0;     // simulated time (0 outside the engine)
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t a2 = 0;
  std::uint64_t trace_id = 0;  // task trace correlation; 0 = untraced
  std::uint16_t kind = 0;      // FlightKind
  std::uint16_t thread = 0;    // recorder thread ordinal
  std::uint32_t reserved = 0;
};
static_assert(sizeof(FlightEvent) == 64, "event is one cache line");

/// Single-writer ring of event slots (public for tests; production code
/// records through FlightRecorder). Capacity is rounded up to a power of
/// two. record() must only ever be called from one thread; snapshot() is
/// safe from any thread concurrently with the writer.
class FlightRing {
 public:
  explicit FlightRing(std::size_t capacity);

  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  /// Records one event (seq is assigned internally; `event.seq` ignored).
  void record(FlightEvent event) noexcept;

  /// Events ever written (== the newest live sequence number).
  [[nodiscard]] std::uint64_t head() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Copies out the currently-valid window, oldest first. Slots the
  /// writer is overwriting mid-copy are detected via the seqlock and
  /// skipped, so the result is always a consistent (possibly gappy at the
  /// oldest edge) suffix of the stream.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// Raw slot memory for the crash path (capacity() * 64 bytes). The
  /// atomics inside are plain 64-bit words in memory; writing these bytes
  /// with write(2) is the crash-dump format.
  [[nodiscard]] const void* raw_slots() const noexcept {
    return slots_.get();
  }
  [[nodiscard]] std::size_t raw_bytes() const noexcept {
    return capacity() * sizeof(FlightEvent);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> word[8];
  };
  static_assert(sizeof(Slot) == 64, "slot matches the wire format");

  std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// Health view of one registered heartbeat.
struct ThreadHealth {
  std::string name;
  double age_seconds = 0.0;  // since the last beat()/idle()
  bool busy = false;         // between beat() and idle()
  bool stalled = false;      // watchdog currently flags this heartbeat
};

class FlightRecorder;

/// Cheap value handle to one heartbeat slot. beat() marks the thread busy
/// and refreshes the timestamp; idle() marks it parked (a blocked wait is
/// not a stall). Both are two relaxed atomic stores. An invalid handle
/// (default-constructed, or registration past the 64 slots) no-ops.
/// The owning FlightRecorder must outlive every use.
class HeartbeatHandle {
 public:
  HeartbeatHandle() = default;

  void beat() noexcept;
  void idle() noexcept;
  [[nodiscard]] bool valid() const noexcept { return slot_ != nullptr; }

 private:
  friend class FlightRecorder;
  struct Slot;
  explicit HeartbeatHandle(Slot* slot) noexcept : slot_(slot) {}
  Slot* slot_ = nullptr;
};

struct FlightConfig {
  /// Events retained per thread (rounded up to a power of two).
  std::size_t ring_capacity = 1024;
  /// Threads that can register rings; later threads drop their events
  /// into `dropped_total` instead of silently aliasing a ring.
  std::size_t max_threads = 32;
  /// A busy heartbeat older than this is a stall.
  double stall_budget_seconds = 2.0;
  /// Watchdog wake-up cadence.
  double watchdog_poll_seconds = 0.25;
};

/// Parsed ?thread=&kind=&limit= filter of the GET /debug/flight route.
struct FlightQuery {
  int thread = -1;                       // -1 = all threads
  FlightKind kind = FlightKind::kNone;   // kNone = all kinds
  std::size_t limit = 256;               // newest N events
  bool valid = true;                     // false on a malformed filter
};

/// Parses the query-string suffix of a debug-route path ("/debug/flight"
/// or "/debug/flight?thread=2&kind=round_begin&limit=64"). Unknown keys
/// and malformed values flip `valid` so the route can answer 400.
[[nodiscard]] FlightQuery parse_flight_query(std::string_view path);

/// Process black box. Construction preallocates every ring (max_threads *
/// ring_capacity slots), so the crash path walks plain arrays and thread
/// registration is one fetch_add. All record/beat paths are lock-free;
/// snapshots and dumps are wait-free with respect to writers.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightConfig config = {});
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event on the calling thread's ring (registered on first
  /// use). Threads past max_threads count into dropped_total instead.
  void record(FlightKind kind, double sim_hours, std::uint64_t a0 = 0,
              std::uint64_t a1 = 0, std::uint64_t a2 = 0,
              std::uint64_t trace_id = 0) noexcept;

  /// Registers the mfcp_flight_* counter families. Call before traffic;
  /// null detaches. (The internal lifetime counters always run.)
  void bind_metrics(MetricsRegistry* registry);

  /// Merged view across rings, oldest first (by wall_ns). `thread` -1
  /// means all threads; `kind` kNone means all kinds; `limit` 0 means
  /// unlimited, otherwise the newest `limit` events after filtering.
  [[nodiscard]] std::vector<FlightEvent> snapshot(
      int thread = -1, FlightKind kind = FlightKind::kNone,
      std::size_t limit = 0) const;

  /// Registers a named heartbeat for a long-running loop. Returns an
  /// invalid handle past 64 heartbeats (counted into dropped_total).
  [[nodiscard]] HeartbeatHandle register_heartbeat(std::string_view name);

  /// Ages of every registered heartbeat, registration order.
  [[nodiscard]] std::vector<ThreadHealth> heartbeat_ages() const;

  /// Starts the watchdog thread. On a stall (busy heartbeat older than
  /// the budget) it records a kWatchdogStall event, rewrites `dump_path`
  /// with a full JSONL dump, and reports a "watchdog_stall" fire
  /// transition through `slo` (resolve when the heartbeat recovers);
  /// `slo` may be null to only dump. Idempotent restart is not supported:
  /// call stop_watchdog() first.
  void start_watchdog(std::string dump_path, SloMonitor* slo = nullptr);

  /// Stops and joins the watchdog (idempotent; also run by ~FlightRecorder).
  void stop_watchdog();

  /// Writes the meta record, heartbeat ages, and every ring's events
  /// (grouped per thread, seq ascending) as JSONL. The path overload
  /// truncates and returns false when the file cannot be opened.
  void dump_jsonl(JsonlWriter& out, std::string_view reason) const;
  bool dump_jsonl(const std::string& path, std::string_view reason) const;

  /// Async-signal-safe raw dump: file header + per-ring headers + raw
  /// slot bytes, written with write(2) only. Safe to call from a signal
  /// handler (and from tests). Returns false on a short write.
  bool write_crash_dump(int fd, int signal_number) const noexcept;

  [[nodiscard]] std::uint64_t events_total() const noexcept;
  [[nodiscard]] std::uint64_t dropped_total() const noexcept;
  [[nodiscard]] std::uint64_t watchdog_stalls() const noexcept;
  /// Most recent sim_hours any event carried (what non-engine layers
  /// stamp their events with).
  [[nodiscard]] double last_sim_hours() const noexcept;
  [[nodiscard]] std::size_t threads_registered() const noexcept;
  [[nodiscard]] const FlightConfig& config() const noexcept {
    return config_;
  }

 private:
  friend class HeartbeatHandle;

  FlightRing* ring_for_this_thread() noexcept;
  void watchdog_loop();
  void watchdog_scan();

  FlightConfig config_;
  /// Process-unique instance id; thread-local ring bindings are keyed on
  /// it so a recorder at a recycled address never inherits stale rings.
  std::uint64_t serial_;
  std::vector<std::unique_ptr<FlightRing>> rings_;  // fixed at construction
  std::atomic<std::size_t> threads_{0};

  std::unique_ptr<HeartbeatHandle::Slot[]> heartbeats_;
  std::atomic<std::size_t> heartbeat_count_{0};

  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<double> last_sim_hours_{0.0};

  Counter* events_metric_ = nullptr;   // bound before traffic, see
  Counter* dropped_metric_ = nullptr;  // bind_metrics()
  Counter* stalls_metric_ = nullptr;

  // Watchdog state (mutated only by start/stop + the watchdog thread).
  std::string dump_path_;
  SloMonitor* watchdog_slo_ = nullptr;
  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};
  mutable std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
};

/// Process-wide default recorder (same idiom as default_registry): layers
/// that are not worth plumbing a pointer through (thread pool, ratekeeper)
/// record here when set. Starts null. Clear it (and quiesce recording
/// threads) before destroying the recorder it points to.
[[nodiscard]] FlightRecorder* default_flight() noexcept;
void set_default_flight(FlightRecorder* recorder) noexcept;
/// Bumped on every set_default_flight(). Long-lived loops that cache the
/// resolved pointer (plus a heartbeat handle into it) compare generations
/// rather than pointers before reuse, so a successor recorder allocated
/// at a recycled address can never be mistaken for the one the handle
/// belongs to.
[[nodiscard]] std::uint64_t default_flight_generation() noexcept;

/// Arms the process-wide crash path: SIGSEGV/SIGABRT/SIGBUS handlers that
/// write `recorder`'s raw rings to `path` with only async-signal-safe
/// calls, then restore the default disposition and re-raise so the
/// process still dies with the original signal. `path` is copied into a
/// fixed static buffer (truncated past ~500 bytes). Passing null disarms
/// without touching signal dispositions.
void install_crash_handlers(FlightRecorder* recorder, const char* path);

/// JSON bodies of the debug routes, shared by the gateway and the
/// metrics exporter.
[[nodiscard]] std::string flight_events_json(const FlightRecorder& recorder,
                                             const FlightQuery& query);
[[nodiscard]] std::string flight_threads_json(const FlightRecorder& recorder);

/// net::ServerObserver adapter: per-worker heartbeats plus kHttpBegin /
/// kHttpEnd events on the recorder. Stateless per-request (worker
/// identity rides thread-locals), so one instance can serve a whole
/// HttpServer. The recorder must outlive the server.
class FlightServerObserver : public net::ServerObserver {
 public:
  FlightServerObserver(FlightRecorder* recorder, std::string name_prefix);

  void on_worker_start(std::size_t worker) override;
  void on_worker_idle(std::size_t worker) override;
  void on_request_begin(std::size_t worker) override;
  void on_request_end(std::size_t worker, int status,
                      std::size_t response_bytes) override;

 private:
  FlightRecorder* recorder_;
  std::string prefix_;
};

}  // namespace mfcp::obs
