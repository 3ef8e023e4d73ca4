#include "obs/span.hpp"

#include "obs/sinks.hpp"
#include "support/check.hpp"

namespace mfcp::obs {

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity) {
  MFCP_CHECK(capacity_ > 0, "trace ring capacity must be positive");
  ring_.reserve(capacity_);
}

void TraceRing::record(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
    return;
  }
  ring_[next_] = record;
  next_ = (next_ + 1) % capacity_;
}

std::vector<SpanRecord> TraceRing::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // Oldest first: the ring rotates at `next_` once full.
  for (std::size_t k = 0; k < ring_.size(); ++k) {
    out.push_back(ring_[(next_ + k) % ring_.size()]);
  }
  return out;
}

std::uint64_t TraceRing::recorded() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::size_t TraceRing::drain_to(JsonlWriter& out) {
  std::vector<SpanRecord> spans;
  {
    // Take and empty the window in one critical section (no span recorded
    // concurrently can fall between the copy and the clear). The lifetime
    // `recorded_` counter deliberately survives the drain.
    std::lock_guard<std::mutex> lock(mutex_);
    spans.reserve(ring_.size());
    for (std::size_t k = 0; k < ring_.size(); ++k) {
      spans.push_back(ring_[(next_ + k) % ring_.size()]);
    }
    ring_.clear();
    next_ = 0;
  }
  for (const SpanRecord& s : spans) {
    out.field("span", std::string_view(s.name))
        .field("start_ns", s.start_ns)
        .field("duration_ns", s.duration_ns)
        .field("thread", static_cast<std::uint64_t>(s.thread));
    out.end_record();
  }
  return spans.size();
}

void TraceRing::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

double ScopedSpan::stop() noexcept {
  if (done_) {
    return seconds_;
  }
  done_ = true;
  if (stage_.has_value()) {
    stage_->close();
  }
  const Clock::time_point end = Clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_);
  seconds_ = static_cast<double>(ns.count()) * 1e-9;
  if (hist_ != nullptr) {
    hist_->observe(seconds_);
  }
  if (ring_ != nullptr) {
    SpanRecord rec;
    rec.name = name_;
    rec.start_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start_.time_since_epoch())
            .count());
    rec.duration_ns = static_cast<std::uint64_t>(ns.count());
    rec.thread = static_cast<std::uint32_t>(shard_index());
    ring_->record(rec);
  }
  return seconds_;
}

}  // namespace mfcp::obs
