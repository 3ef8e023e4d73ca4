// Task-lifecycle tracing: one trace per sampled task, spanning the full
// submit → queue → batch → predict → match → dispatch → feedback chain
// across the gateway/engine boundary.
//
// Identity and sampling are deterministic so that the trace layer never
// perturbs the engine's decision stream and two seeded runs export
// byte-identical `.tasktraces` journals:
//   - mint_trace_id(task_id) is a splitmix64-style hash of the task id —
//     no RNG draw, no clock read.
//   - trace_sampled(trace_id, rate) re-hashes the trace id and compares
//     against rate * 2^64, so the sampled subset is a pure function of
//     (task id, rate). The rate lives in the TraceStore; the gateway link
//     and the engine both ask the store, so no per-task sampling state
//     crosses the boundary.
//
// Spans carry two time disciplines. Simulated-time endpoints
// (start_hours/end_hours) are deterministic and are what the JSONL export
// writes; wall-clock duration_ns is measured only for sampled tasks and
// stays in memory / the HTTP view, mirroring how the round journal
// excludes wall-clock solve times (DESIGN.md §7).
//
// The store is bounded: past `capacity` traces, eviction walks from the
// oldest trace forward and removes the first *finished* one (falling back
// to the oldest outright when everything is still in flight), so a burst
// of live tasks cannot wipe the traces a smoke test is about to read.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace mfcp::obs {

class JsonlWriter;

/// Deterministic 64-bit trace id for a task (splitmix64 of the id).
/// Never returns 0 — 0 is the "no trace" sentinel.
[[nodiscard]] std::uint64_t mint_trace_id(std::uint64_t task_id) noexcept;

/// Deterministic sampling decision: true iff hash(trace_id) falls below
/// rate * 2^64. rate >= 1 always samples; rate <= 0 or NaN never does.
[[nodiscard]] bool trace_sampled(std::uint64_t trace_id, double rate) noexcept;

/// Lower-case 16-hex-digit rendering of a trace id (the wire format used
/// by the X-Trace-Id header and GET /trace/<id>).
[[nodiscard]] std::string format_trace_id(std::uint64_t trace_id);

/// Parses the 16-hex form back to an id. Returns nullopt on malformed
/// input (wrong length, non-hex) or the zero sentinel.
[[nodiscard]] std::optional<std::uint64_t> parse_trace_id(
    std::string_view text) noexcept;

/// One lifecycle stage of a traced task. Sim-time endpoints are
/// deterministic; duration_ns is wall clock (0 when not measured).
struct TaskSpan {
  std::string name;          // submit, queue_wait, batch, predict, ...
  double start_hours = 0.0;  // simulated time
  double end_hours = 0.0;
  std::uint64_t duration_ns = 0;  // wall clock; excluded from JSONL
  double value = 0.0;             // stage-specific (predicted hours, ...)
  std::string detail;             // stage-specific (cluster name, ok/failed)
};

/// Assembled trace of one task, spans in recording order.
struct TaskTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t task_id = 0;
  double submit_hours = 0.0;
  std::string final_state;  // empty while in flight
  std::vector<TaskSpan> spans;

  [[nodiscard]] bool finished() const noexcept { return !final_state.empty(); }
  /// ">"-joined span names, e.g. "submit>queue_wait>batch>...>feedback".
  [[nodiscard]] std::string chain() const;
};

/// Bounded, indexed, thread-safe collection of task traces. All methods
/// are no-ops returning false for tasks that were never begun (not
/// sampled) or already evicted, so call sites do not branch on sampling.
class TraceStore {
 public:
  /// `sample_rate` is the share of tasks traced (see trace_sampled); the
  /// default 0 samples nothing.
  explicit TraceStore(std::size_t capacity = 4096, double sample_rate = 0.0);

  /// Whether the task with this trace id is sampled at the store's rate.
  [[nodiscard]] bool sampled(std::uint64_t trace_id) const noexcept {
    return trace_sampled(trace_id, sample_rate_);
  }

  /// Opens a trace for `task_id` (idempotent — a second begin for a live
  /// task id is ignored). Evicts per the policy above when full.
  bool begin(std::uint64_t task_id, std::uint64_t trace_id,
             double submit_hours);

  /// Appends a span to the task's trace. False when the task is untraced.
  bool append(std::uint64_t task_id, TaskSpan span);

  /// Marks the trace complete with its terminal state
  /// (dispatched/expired/rejected). The trace stays resident (and
  /// queryable) until evicted or drained.
  bool finish(std::uint64_t task_id, std::string_view final_state);

  /// The resident trace with this id. Walks the store (at most
  /// `capacity` traces): it serves the GET /trace/<id> debug route.
  [[nodiscard]] std::optional<TaskTrace> find_by_trace(
      std::uint64_t trace_id) const;

  /// All resident traces, oldest begin first.
  [[nodiscard]] std::vector<TaskTrace> snapshot() const;

  /// Writes every resident trace as one JSONL record (begin order), then
  /// clears the store. Only deterministic fields are written (sim-time
  /// endpoints; never duration_ns). A non-empty `label` leads each record
  /// as a "mode" field so two engine modes sharing task ids stay
  /// distinguishable in one file. Returns the number drained.
  std::size_t drain_to(JsonlWriter& out, std::string_view label = {});

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Lifetime counters (survive drain/eviction).
  [[nodiscard]] std::uint64_t begun() const;
  [[nodiscard]] std::uint64_t evicted() const;

 private:
  void evict_one_locked();

  std::size_t capacity_;
  double sample_rate_;
  mutable std::mutex mutex_;
  // Keyed by task id; order_ holds begin order for eviction + export.
  std::unordered_map<std::uint64_t, TaskTrace> traces_;
  std::deque<std::uint64_t> order_;  // task ids
  std::uint64_t begun_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace mfcp::obs
