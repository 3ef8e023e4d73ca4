#include "engine/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "control/token_bucket.hpp"
#include "obs/trace_store.hpp"
#include "storage/wal.hpp"
#include "support/check.hpp"

namespace mfcp::engine {

namespace {
/// Deadline (patience) applied when a submission does not name one.
constexpr double kDefaultDeadlineHours = 2.0;
/// Retry-After never reports below this (seconds).
constexpr double kRetryAfterFloorSeconds = 1.0;
}  // namespace

std::string to_string(TaskState state) {
  switch (state) {
    case TaskState::kQueued:
      return "queued";
    case TaskState::kMatched:
      return "matched";
    case TaskState::kDispatched:
      return "dispatched";
    case TaskState::kExpired:
      return "expired";
    case TaskState::kRejected:
      return "rejected";
  }
  return "?";
}

// -------------------------------------------------------- status table --

namespace {
/// Marks a slot with no resident task: evicted, or skipped by recovery.
constexpr TaskState kAbsent = static_cast<TaskState>(0xff);
}  // namespace

TaskStatus* TaskStatusTable::find_locked(std::uint64_t id) {
  if (id < first_id_ || id - first_id_ >= slots_.size()) {
    return nullptr;
  }
  TaskStatus& slot = slots_[id - first_id_];
  return slot.state == kAbsent ? nullptr : &slot;
}

const TaskStatus* TaskStatusTable::find_locked(std::uint64_t id) const {
  return const_cast<TaskStatusTable*>(this)->find_locked(id);
}

std::uint64_t TaskStatusTable::insert(double submit_hours) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = end_id_locked();
  TaskStatus& s = slots_.emplace_back();
  s.submit_hours = submit_hours;
  ++resident_;
  ++counts_.submitted;
  ++counts_.queued;
  return id;
}

void TaskStatusTable::restore_entry(std::uint64_t id, double submit_hours) {
  std::lock_guard<std::mutex> lock(mutex_);
  MFCP_CHECK(id >= kExternalIdBase, "restored ids are external ids");
  TaskStatus absent;
  absent.state = kAbsent;
  if (slots_.empty()) {
    // Ids below a fresh span count as issued (see was_evicted) without
    // holding a slot, so a restart far into the id space costs nothing.
    first_id_ = std::max(first_id_, id);
  }
  if (id < first_id_) {
    slots_.insert(slots_.begin(), first_id_ - id, absent);
    first_id_ = id;
  } else if (id >= end_id_locked()) {
    slots_.resize(id - first_id_ + 1, absent);
  }
  TaskStatus& slot = slots_[id - first_id_];
  if (slot.state != kAbsent) {
    return;  // duplicate replay; the resident entry wins
  }
  slot = TaskStatus{};
  slot.submit_hours = submit_hours;
  ++resident_;
  ++counts_.submitted;
  ++counts_.queued;
}

void TaskStatusTable::mark_matched(std::uint64_t id, std::size_t cluster,
                                   double predicted_hours,
                                   std::uint64_t round) {
  MFCP_CHECK(cluster <= std::numeric_limits<std::uint16_t>::max(),
             "cluster index exceeds the status table's 16 bits");
  std::lock_guard<std::mutex> lock(mutex_);
  TaskStatus* const s = find_locked(id);
  if (s == nullptr || s->state != TaskState::kQueued) {
    return;  // unknown or already advanced; transitions are forward-only
  }
  s->state = TaskState::kMatched;
  s->cluster = static_cast<std::uint16_t>(cluster);
  s->predicted_hours = predicted_hours;
  s->round = round;
  --counts_.queued;
  ++counts_.matched;
}

void TaskStatusTable::note_terminal_locked(std::uint64_t id) {
  if (capacity_ == 0) {
    return;  // unbounded: no eviction bookkeeping at all
  }
  terminal_fifo_.push_back(id);
  while (resident_ > capacity_ && !terminal_fifo_.empty()) {
    slots_[terminal_fifo_.front() - first_id_].state = kAbsent;
    terminal_fifo_.pop_front();
    --resident_;
    ++evicted_;
  }
  while (!slots_.empty() && slots_.front().state == kAbsent) {
    slots_.pop_front();
    ++first_id_;
  }
}

void TaskStatusTable::mark_dispatched(std::uint64_t id,
                                      double realized_hours,
                                      bool succeeded) {
  std::lock_guard<std::mutex> lock(mutex_);
  TaskStatus* const s = find_locked(id);
  if (s == nullptr || s->state != TaskState::kMatched) {
    return;
  }
  s->state = TaskState::kDispatched;
  s->realized_hours = realized_hours;
  s->succeeded = succeeded;
  --counts_.matched;
  ++counts_.dispatched;
  note_terminal_locked(id);
}

void TaskStatusTable::mark_lost(std::uint64_t id, TaskState state) {
  MFCP_CHECK(state == TaskState::kExpired || state == TaskState::kRejected,
             "mark_lost takes a terminal loss state");
  std::lock_guard<std::mutex> lock(mutex_);
  TaskStatus* const s = find_locked(id);
  if (s == nullptr || s->state != TaskState::kQueued) {
    return;  // only waiting tasks can be lost
  }
  s->state = state;
  --counts_.queued;
  if (state == TaskState::kExpired) {
    ++counts_.expired;
  } else {
    ++counts_.rejected;
  }
  note_terminal_locked(id);
}

std::optional<TaskStatus> TaskStatusTable::get(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const TaskStatus* const s = find_locked(id);
  if (s == nullptr) {
    return std::nullopt;
  }
  return *s;
}

bool TaskStatusTable::was_evicted(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Every issued id stays resident until evicted, so "issued but absent"
  // identifies eviction exactly; ids recovery skipped were issued by the
  // previous incarnation and read the same way.
  return id >= kExternalIdBase && id < end_id_locked() &&
         find_locked(id) == nullptr;
}

std::size_t TaskStatusTable::resident() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_;
}

std::uint64_t TaskStatusTable::evicted_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

TaskStatusTable::Counts TaskStatusTable::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

// ------------------------------------------------------------ link ------

GatewayLink::GatewayLink(GatewayLinkConfig config)
    : config_(config), table_(config.status_capacity) {
  MFCP_CHECK(config_.max_pending > 0, "gateway inbox must be bounded > 0");
  MFCP_CHECK(config_.high_water > 0, "gateway high water must be positive");
}

std::size_t GatewayLink::pressure() const {
  std::size_t inbox;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inbox = inbox_.size();
  }
  return inbox + queue_depth_.load(std::memory_order_relaxed);
}

double GatewayLink::retry_after_seconds(std::size_t pressure) const {
  // Pressure shed as a replenish problem, through the same honest formula
  // the token buckets use: the deficit is the backlog above high water,
  // and it drains at batch-per-round-cadence tasks per wall second.
  const std::size_t batch =
      std::max<std::size_t>(1, round_batch_.load(std::memory_order_relaxed));
  const std::size_t excess =
      pressure >= config_.high_water ? pressure - config_.high_water + 1 : 1;
  const double cadence = std::max(
      round_seconds_ewma_.load(std::memory_order_relaxed), 1e-3);
  const double drain_per_second = static_cast<double>(batch) / cadence;
  return control::replenish_seconds(static_cast<double>(excess),
                                    drain_per_second,
                                    kRetryAfterFloorSeconds);
}

SubmitTicket GatewayLink::submit(const sim::TaskDescriptor& task,
                                 double deadline_hours,
                                 std::string_view client) {
  SubmitTicket ticket;
  if (stop_requested()) {
    // Draining: the platform no longer accepts work. Pressure 0 keeps the
    // Retry-After at its floor — a restarted platform is ready at once.
    ticket.retry_after_seconds = kRetryAfterFloorSeconds;
    rejected_busy_.fetch_add(1, std::memory_order_relaxed);
    return ticket;
  }
  if (config_.buckets != nullptr) {
    const control::AdmitDecision decision = config_.buckets->try_admit(
        client, sim_time_hours_.load(std::memory_order_relaxed));
    if (!decision.admitted) {
      // Bucket deficit (simulated tokens) replenishing at the client's
      // share, converted to wall seconds through the serve clock rate.
      const double hps =
          sim_hours_per_second_.load(std::memory_order_relaxed);
      ticket.throttled = true;
      ticket.retry_after_seconds = control::replenish_seconds(
          1.0 - decision.tokens, decision.rate_per_hour * hps,
          kRetryAfterFloorSeconds);
      ticket.pressure = pressure();
      rejected_throttled_.fetch_add(1, std::memory_order_relaxed);
      return ticket;
    }
  }
  const double deadline =
      deadline_hours > 0.0 ? deadline_hours : kDefaultDeadlineHours;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t depth =
        inbox_.size() + queue_depth_.load(std::memory_order_relaxed);
    ticket.pressure = depth;
    if (depth >= config_.high_water || inbox_.size() >= config_.max_pending) {
      ticket.retry_after_seconds = retry_after_seconds(depth);
      rejected_busy_.fetch_add(1, std::memory_order_relaxed);
      return ticket;
    }
    ticket.accepted = true;
    ticket.id =
        table_.insert(sim_time_hours_.load(std::memory_order_relaxed));
    inbox_.push_back(ExternalSubmission{ticket.id, task, deadline});
  }
  // Durability point: the acceptance is logged before the ticket (and so
  // the HTTP 200) leaves this function. The WAL serializes appends under
  // its own lock, so the inbox lock above stays short. Terminal records
  // for the same id may land first (the engine can drain and finish the
  // task concurrently) — replay matches by id, not order.
  if (config_.wal != nullptr) {
    const double now = sim_time_hours_.load(std::memory_order_relaxed);
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kAccepted;
    rec.task_id = ticket.id;
    rec.hours = now;
    rec.deadline_hours = now + deadline;
    rec.task = task;
    config_.wal->append(rec);
  }
  // Trace identity is minted outside the inbox lock: deterministic in
  // the id, so the engine recomputes the same decision on its side.
  ticket.trace_id = obs::mint_trace_id(ticket.id);
  ticket.trace_sampled =
      config_.traces != nullptr && config_.traces->sampled(ticket.trace_id);
  if (ticket.trace_sampled) {
    const double now = sim_time_hours_.load(std::memory_order_relaxed);
    config_.traces->begin(ticket.id, ticket.trace_id, now);
    obs::TaskSpan span;
    span.name = "submit";
    span.start_hours = now;
    span.end_hours = now;
    config_.traces->append(ticket.id, std::move(span));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  ready_.notify_one();
  return ticket;
}

std::vector<ExternalSubmission> GatewayLink::drain() {
  std::vector<ExternalSubmission> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(inbox_.size());
  while (!inbox_.empty()) {
    out.push_back(std::move(inbox_.front()));
    inbox_.pop_front();
  }
  return out;
}

bool GatewayLink::wait_for_event(std::chrono::milliseconds wait) {
  std::unique_lock<std::mutex> lock(mutex_);
  return ready_.wait_for(lock, wait, [this] {
    return !inbox_.empty() || stop_.load(std::memory_order_relaxed);
  });
}

void GatewayLink::note_round(std::uint64_t round, double close_hours,
                             double regret, std::size_t batch) {
  rounds_.store(round + 1, std::memory_order_relaxed);
  last_round_close_hours_.store(close_hours, std::memory_order_relaxed);
  tasks_matched_.fetch_add(batch, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cumulative_regret_.store(
        cumulative_regret_.load(std::memory_order_relaxed) + regret,
        std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    if (saw_round_) {
      const double dt =
          std::chrono::duration<double>(now - last_round_wall_).count();
      const double prev = round_seconds_ewma_.load(std::memory_order_relaxed);
      round_seconds_ewma_.store(prev == 0.0 ? dt : 0.8 * prev + 0.2 * dt,
                                std::memory_order_relaxed);
    }
    last_round_wall_ = now;
    saw_round_ = true;
  }
}

void GatewayLink::configure_drain(std::size_t round_batch,
                                  double expected_round_seconds) {
  round_batch_.store(std::max<std::size_t>(1, round_batch),
                     std::memory_order_relaxed);
  if (round_seconds_ewma_.load(std::memory_order_relaxed) == 0.0) {
    round_seconds_ewma_.store(expected_round_seconds,
                              std::memory_order_relaxed);
  }
}

ServiceStats GatewayLink::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.inbox_depth = inbox_.size();
  }
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected_busy = rejected_busy_.load(std::memory_order_relaxed);
  s.rejected_throttled =
      rejected_throttled_.load(std::memory_order_relaxed);
  s.rounds = rounds_.load(std::memory_order_relaxed);
  s.tasks_matched = tasks_matched_.load(std::memory_order_relaxed);
  s.sim_time_hours = sim_time_hours_.load(std::memory_order_relaxed);
  s.last_round_close_hours =
      last_round_close_hours_.load(std::memory_order_relaxed);
  s.round_seconds_ewma =
      round_seconds_ewma_.load(std::memory_order_relaxed);
  s.cumulative_regret = cumulative_regret_.load(std::memory_order_relaxed);
  s.draining = stop_requested();
  s.recovered_tasks = recovered_tasks_.load(std::memory_order_relaxed);
  s.recovered_terminal =
      recovered_terminal_.load(std::memory_order_relaxed);
  s.tasks = table_.counts();
  return s;
}

}  // namespace mfcp::engine
