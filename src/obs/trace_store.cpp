#include "obs/trace_store.hpp"

#include <algorithm>

#include "obs/sinks.hpp"
#include "support/check.hpp"

namespace mfcp::obs {

namespace {

// splitmix64 finalizer: full-avalanche 64-bit mix (public-domain constant
// schedule, same mix the engine's seeded RNGs build on conceptually but
// with no shared state — tracing must never advance a decision RNG).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t mint_trace_id(std::uint64_t task_id) noexcept {
  // The mix64(0) term is part of the id format (pinned by a test):
  // dropping it would change every trace id and `.tasktraces` byte.
  constexpr std::uint64_t kSalt = mix64(0);
  const std::uint64_t id = mix64(task_id ^ kSalt);
  return id == 0 ? 1 : id;  // 0 is the "no trace" sentinel
}

bool trace_sampled(std::uint64_t trace_id, double rate) noexcept {
  if (rate >= 1.0) {
    return true;
  }
  if (rate <= 0.0) {
    return false;
  }
  // Threshold compare in the full 64-bit space. Re-hash so the sampling
  // subset is independent of any structure in the id itself.
  const double scaled = rate * 18446744073709551616.0;  // rate * 2^64
  const std::uint64_t threshold =
      scaled >= 18446744073709551615.0
          ? ~0ULL
          : static_cast<std::uint64_t>(scaled);
  return mix64(trace_id) < threshold;
}

std::string format_trace_id(std::uint64_t trace_id) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[trace_id & 0xF];
    trace_id >>= 4;
  }
  return out;
}

std::optional<std::uint64_t> parse_trace_id(std::string_view text) noexcept {
  if (text.size() != 16) {
    return std::nullopt;
  }
  std::uint64_t id = 0;
  for (const char c : text) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<std::uint64_t>(c - 'A') + 10;
    } else {
      return std::nullopt;
    }
    id = (id << 4) | digit;
  }
  if (id == 0) {
    return std::nullopt;
  }
  return id;
}

// ------------------------------------------------------------ TaskTrace --

std::string TaskTrace::chain() const {
  std::string out;
  for (const TaskSpan& s : spans) {
    if (!out.empty()) {
      out += '>';
    }
    out += s.name;
  }
  return out;
}

// ------------------------------------------------------------ TraceStore --

TraceStore::TraceStore(std::size_t capacity, double sample_rate)
    : capacity_(capacity), sample_rate_(sample_rate) {
  MFCP_CHECK(capacity_ > 0, "trace store capacity must be positive");
}

void TraceStore::evict_one_locked() {
  // Prefer the oldest finished trace; a burst of in-flight tasks must not
  // wipe a completed trace someone is about to query. Fall back to the
  // oldest outright when everything is live.
  std::size_t victim = 0;
  bool found = false;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto it = traces_.find(order_[i]);
    if (it != traces_.end() && it->second.finished()) {
      victim = i;
      found = true;
      break;
    }
  }
  if (!found) {
    victim = 0;
  }
  const std::uint64_t task_id = order_[victim];
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(victim));
  const auto it = traces_.find(task_id);
  if (it != traces_.end()) {
    by_trace_.erase(it->second.trace_id);
    traces_.erase(it);
  }
  ++evicted_;
}

bool TraceStore::begin(std::uint64_t task_id, std::uint64_t trace_id,
                       double submit_hours) {
  if (trace_id == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (traces_.count(task_id) != 0) {
    return false;  // idempotent: keep the original begin
  }
  while (traces_.size() >= capacity_) {
    evict_one_locked();
  }
  TaskTrace trace;
  trace.trace_id = trace_id;
  trace.task_id = task_id;
  trace.submit_hours = submit_hours;
  by_trace_[trace_id] = task_id;
  traces_.emplace(task_id, std::move(trace));
  order_.push_back(task_id);
  ++begun_;
  return true;
}

bool TraceStore::append(std::uint64_t task_id, TaskSpan span) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = traces_.find(task_id);
  if (it == traces_.end()) {
    return false;
  }
  it->second.spans.push_back(std::move(span));
  return true;
}

bool TraceStore::finish(std::uint64_t task_id, std::string_view final_state) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = traces_.find(task_id);
  if (it == traces_.end()) {
    return false;
  }
  it->second.final_state.assign(final_state);
  return true;
}

std::optional<TaskTrace> TraceStore::find_by_trace(
    std::uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto mapped = by_trace_.find(trace_id);
  if (mapped == by_trace_.end()) {
    return std::nullopt;
  }
  const auto it = traces_.find(mapped->second);
  if (it == traces_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<TaskTrace> TraceStore::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TaskTrace> out;
  out.reserve(order_.size());
  for (const std::uint64_t task_id : order_) {
    const auto it = traces_.find(task_id);
    if (it != traces_.end()) {
      out.push_back(it->second);
    }
  }
  return out;
}

std::size_t TraceStore::drain_to(JsonlWriter& out, std::string_view label) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t drained = 0;
  for (const std::uint64_t task_id : order_) {
    const auto it = traces_.find(task_id);
    if (it == traces_.end()) {
      continue;
    }
    const TaskTrace& t = it->second;
    if (!label.empty()) {
      out.field("mode", label);
    }
    out.field("trace_id", format_trace_id(t.trace_id));
    out.field("task_id", t.task_id);
    out.field("submit_hours", t.submit_hours);
    out.field("state",
              t.final_state.empty() ? std::string_view("in_flight")
                                    : std::string_view(t.final_state));
    out.field("spans", static_cast<std::uint64_t>(t.spans.size()));
    out.field("chain", t.chain());
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const TaskSpan& s = t.spans[i];
      const std::string prefix = "s" + std::to_string(i) + "_";
      out.field(prefix + "name", s.name);
      out.field(prefix + "start_hours", s.start_hours);
      out.field(prefix + "end_hours", s.end_hours);
      if (s.value != 0.0) {
        out.field(prefix + "value", s.value);
      }
      if (!s.detail.empty()) {
        out.field(prefix + "detail", s.detail);
      }
    }
    out.end_record();
    ++drained;
  }
  traces_.clear();
  by_trace_.clear();
  order_.clear();
  return drained;
}

std::size_t TraceStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return traces_.size();
}

std::uint64_t TraceStore::begun() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return begun_;
}

std::uint64_t TraceStore::evicted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

}  // namespace mfcp::obs
