// RAII stage guard: one per-stage measurement for every sink.
//
// A ScopedSpan reads the steady clock once when it opens and once when it
// closes (destructor or an explicit stop(), which returns the elapsed
// seconds), and hands that one duration to every sink it was given:
//   - a Histogram (per-stage latency distribution, e.g.
//     engine_stage_seconds{stage="embed"}),
//   - a bounded in-memory TraceRing of SpanRecords for after-the-fact
//     inspection of the most recent activity, and
//   - an optional profiler EngineStage tag, entered at open and restored
//     at close, so CPU samples decompose along the same stages.
// Every sink is optional; callers that only need the duration (task-span
// wall times, SLO latency samples) read it from stop().
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace mfcp::obs {

class JsonlWriter;

/// One completed span. `name` must point at a string with static storage
/// duration (instrumentation sites use literals).
struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;  // steady-clock nanoseconds since epoch
  std::uint64_t duration_ns = 0;
  std::uint32_t thread = 0;  // obs::shard_index() of the recording thread
};

/// Fixed-capacity ring of the most recent spans. Mutex-protected: spans
/// close at stage granularity (a handful per matching round), so
/// contention is negligible next to the work being measured.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  void record(const SpanRecord& record);

  /// The retained spans, oldest first.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Writes every retained span to `out` as one JSONL record each
  /// ({"span":...,"start_ns":...,"duration_ns":...,"thread":...}, oldest
  /// first), then clears the ring so spans survive beyond the in-memory
  /// window without double-export. Returns the number drained. Span
  /// timestamps are wall-clock — drain into a diagnostics journal, not
  /// one that must be byte-stable across runs.
  std::size_t drain_to(JsonlWriter& out);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total spans ever recorded (not capped at capacity).
  [[nodiscard]] std::uint64_t recorded() const noexcept;

  void clear();

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> ring_;
  std::size_t next_ = 0;  // write cursor once full
  std::uint64_t recorded_ = 0;
};

/// Scoped stage guard; see file comment. Instrumentation sites construct
/// it on the stack.
class ScopedSpan {
 public:
  ScopedSpan(Histogram* seconds_histogram, const char* name,
             TraceRing* ring = nullptr,
             std::optional<EngineStage> stage = std::nullopt) noexcept
      : hist_(seconds_histogram), ring_(ring), name_(name) {
    start_ = Clock::now();
    if (stage.has_value()) {
      stage_.emplace(*stage);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { stop(); }

  /// Ends the span early and returns its wall time in seconds. Idempotent:
  /// later calls (and the destructor) record nothing and return the same
  /// duration.
  double stop() noexcept;

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* hist_;
  TraceRing* ring_;
  const char* name_;
  std::optional<StageScope> stage_;
  Clock::time_point start_{};
  double seconds_ = 0.0;
  bool done_ = false;
};

}  // namespace mfcp::obs
