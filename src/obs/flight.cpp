#include "obs/flight.hpp"

#include <signal.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

#include "net/http.hpp"
#include "obs/profiler.hpp"
#include "obs/sinks.hpp"
#include "obs/slo.hpp"
#include "obs/trace_store.hpp"
#include "support/check.hpp"
#include "support/signal_safe.hpp"

namespace mfcp::obs {

namespace {

/// Heartbeat slots (long-running loops, not per-event threads).
constexpr std::size_t kMaxHeartbeats = 64;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

constexpr std::string_view kKindNames[] = {
    "none",        "round_begin", "round_end",  "batch_formed",
    "solver_iters", "admission",  "rate_change", "http_begin",
    "http_end",    "queue_transition", "retrain", "watchdog_stall",
};
constexpr std::size_t kKindCount = sizeof(kKindNames) / sizeof(kKindNames[0]);

}  // namespace

std::string_view to_string(FlightKind kind) noexcept {
  const auto ordinal = static_cast<std::size_t>(kind);
  if (ordinal >= kKindCount) {
    return "unknown";
  }
  return kKindNames[ordinal];
}

std::optional<FlightKind> parse_flight_kind(std::string_view name) noexcept {
  for (std::size_t i = 1; i < kKindCount; ++i) {
    if (name == kKindNames[i]) {
      return static_cast<FlightKind>(i);
    }
  }
  return std::nullopt;
}

// ------------------------------------------------------ event encoding --
//
// A FlightEvent is its slot's eight little-endian words (flight.hpp), so
// encoding and decoding are one bit_cast each; word 0 is the ring's
// sequence number.

namespace {

static_assert(std::endian::native == std::endian::little,
              "the slot words are the little-endian wire format");

std::vector<FlightEvent> decode(const FlightRing& ring) {
  std::vector<FlightEvent> out;
  for (const FlightRing::Slot& slot : ring.snapshot()) {
    out.push_back(std::bit_cast<FlightEvent>(slot));
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------ heartbeats --

struct HeartbeatHandle::Slot {
  std::atomic<std::uint64_t> last_ns{0};
  std::atomic<std::uint32_t> busy{0};
  std::atomic<std::uint32_t> stalled{0};  // watchdog-owned episode flag
  std::atomic<std::uint32_t> ready{0};    // name published
  char name[44] = {};
};

void HeartbeatHandle::beat() noexcept {
  if (slot_ == nullptr) {
    return;
  }
  slot_->last_ns.store(now_ns(), std::memory_order_relaxed);
  slot_->busy.store(1, std::memory_order_relaxed);
}

void HeartbeatHandle::idle() noexcept {
  if (slot_ == nullptr) {
    return;
  }
  slot_->last_ns.store(now_ns(), std::memory_order_relaxed);
  slot_->busy.store(0, std::memory_order_relaxed);
}

// -------------------------------------------------------- FlightRecorder --

namespace {

// Thread -> ring binding, cached so record() is branch + stores. A thread
// that outlives one recorder and records into another re-registers. The
// binding is keyed on the recorder's process-unique serial, not its
// address: a successor recorder allocated at a recycled address must not
// inherit a stale binding into rings the old recorder already freed.
struct TlsRing {
  std::uint64_t owner_serial = 0;  // 0 = unbound
  FlightRing* ring = nullptr;
  std::uint16_t ordinal = 0;
};
thread_local TlsRing t_ring;

std::atomic<std::uint64_t> g_recorder_serial{0};

}  // namespace

FlightRecorder::FlightRecorder(FlightConfig config)
    : config_(config),
      serial_(g_recorder_serial.fetch_add(1, std::memory_order_relaxed) + 1) {
  MFCP_CHECK(config_.ring_capacity > 0, "flight: ring capacity must be > 0");
  MFCP_CHECK(config_.stall_budget_seconds > 0.0,
             "flight: stall budget must be positive");
  rings_.reserve(kMaxFlightThreads);
  for (std::size_t i = 0; i < kMaxFlightThreads; ++i) {
    rings_.push_back(std::make_unique<FlightRing>(config_.ring_capacity));
  }
  heartbeats_ =
      std::make_unique<HeartbeatHandle::Slot[]>(kMaxHeartbeats);
}

FlightRecorder::~FlightRecorder() { stop_watchdog(); }

FlightRing* FlightRecorder::ring_for_this_thread() noexcept {
  if (t_ring.owner_serial == serial_) {
    return t_ring.ring;
  }
  const std::size_t ordinal = threads_.fetch_add(1, std::memory_order_relaxed);
  t_ring.owner_serial = serial_;
  if (ordinal >= kMaxFlightThreads) {
    t_ring.ring = nullptr;
    t_ring.ordinal = 0;
    return nullptr;
  }
  t_ring.ring = rings_[ordinal].get();
  t_ring.ordinal = static_cast<std::uint16_t>(ordinal);
  return t_ring.ring;
}

void FlightRecorder::record(FlightKind kind, double sim_hours,
                            std::uint64_t a0, std::uint64_t a1,
                            std::uint64_t a2,
                            std::uint64_t trace_id) noexcept {
  FlightRing* ring = ring_for_this_thread();
  if (ring == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (dropped_metric_ != nullptr) {
      dropped_metric_->add(1);
    }
    return;
  }
  const auto words = std::bit_cast<FlightRing::Slot>(FlightEvent{
      .wall_ns = now_ns(), .sim_hours = sim_hours, .a0 = a0, .a1 = a1,
      .a2 = a2, .trace_id = trace_id,
      .kind = static_cast<std::uint16_t>(kind), .thread = t_ring.ordinal});
  ring->record(words.data() + 1, words.size() - 1);
  events_.fetch_add(1, std::memory_order_relaxed);
  if (sim_hours != 0.0) {
    // Layers without a simulated clock (HTTP workers, the watchdog) stamp
    // their events with the engine's most recent sim time.
    last_sim_hours_.store(sim_hours, std::memory_order_relaxed);
  }
  if (events_metric_ != nullptr) {
    events_metric_->add(1);
  }
}

void FlightRecorder::bind_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    events_metric_ = nullptr;
    dropped_metric_ = nullptr;
    stalls_metric_ = nullptr;
    return;
  }
  events_metric_ = &registry->counter("mfcp_flight_events_total");
  dropped_metric_ = &registry->counter("mfcp_flight_dropped_total");
  stalls_metric_ = &registry->counter("mfcp_flight_watchdog_stalls_total");
}

std::vector<FlightEvent> FlightRecorder::snapshot(int thread, FlightKind kind,
                                                  std::size_t limit) const {
  const std::size_t used = threads_registered();
  std::vector<FlightEvent> merged;
  for (std::size_t t = 0; t < used; ++t) {
    if (thread >= 0 && static_cast<std::size_t>(thread) != t) {
      continue;
    }
    std::vector<FlightEvent> part = decode(*rings_[t]);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  if (kind != FlightKind::kNone) {
    merged.erase(std::remove_if(merged.begin(), merged.end(),
                                [kind](const FlightEvent& e) {
                                  return e.kind !=
                                         static_cast<std::uint16_t>(kind);
                                }),
                 merged.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              if (a.wall_ns != b.wall_ns) {
                return a.wall_ns < b.wall_ns;
              }
              if (a.thread != b.thread) {
                return a.thread < b.thread;
              }
              return a.seq < b.seq;
            });
  if (limit > 0 && merged.size() > limit) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<std::ptrdiff_t>(limit));
  }
  return merged;
}

HeartbeatHandle FlightRecorder::register_heartbeat(std::string_view name) {
  // Re-registration under an existing name (a pool worker re-resolving the
  // process default after it was cleared and restored) reuses its old slot
  // instead of burning a new one. Names are per-thread-unique, so no two
  // threads race to claim the same slot here.
  const std::size_t used = std::min(
      heartbeat_count_.load(std::memory_order_acquire), kMaxHeartbeats);
  for (std::size_t i = 0; i < used; ++i) {
    HeartbeatHandle::Slot& slot = heartbeats_[i];
    if (slot.ready.load(std::memory_order_acquire) != 0 &&
        name == slot.name) {
      slot.last_ns.store(now_ns(), std::memory_order_relaxed);
      slot.busy.store(0, std::memory_order_relaxed);
      return HeartbeatHandle{&slot};
    }
  }
  const std::size_t idx =
      heartbeat_count_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kMaxHeartbeats) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return HeartbeatHandle{};
  }
  HeartbeatHandle::Slot& slot = heartbeats_[idx];
  const std::size_t n = std::min(name.size(), sizeof(slot.name) - 1);
  std::memcpy(slot.name, name.data(), n);
  slot.name[n] = '\0';
  slot.last_ns.store(now_ns(), std::memory_order_relaxed);
  slot.busy.store(0, std::memory_order_relaxed);
  slot.ready.store(1, std::memory_order_release);
  return HeartbeatHandle{&slot};
}

std::vector<ThreadHealth> FlightRecorder::heartbeat_ages() const {
  const std::uint64_t now = now_ns();
  const std::size_t used = std::min(
      heartbeat_count_.load(std::memory_order_relaxed), kMaxHeartbeats);
  std::vector<ThreadHealth> out;
  out.reserve(used);
  for (std::size_t i = 0; i < used; ++i) {
    const HeartbeatHandle::Slot& slot = heartbeats_[i];
    if (slot.ready.load(std::memory_order_acquire) == 0) {
      continue;
    }
    ThreadHealth health;
    health.name = slot.name;
    const std::uint64_t last = slot.last_ns.load(std::memory_order_relaxed);
    health.age_seconds = now > last ? (now - last) * 1e-9 : 0.0;
    health.busy = slot.busy.load(std::memory_order_relaxed) != 0;
    health.stalled = slot.stalled.load(std::memory_order_relaxed) != 0;
    out.push_back(std::move(health));
  }
  return out;
}

void FlightRecorder::start_watchdog(std::string dump_path, SloMonitor* slo) {
  MFCP_CHECK(!watchdog_.joinable(),
             "flight: watchdog already running (stop it first)");
  dump_path_ = std::move(dump_path);
  watchdog_slo_ = slo;
  watchdog_stop_.store(false, std::memory_order_relaxed);
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void FlightRecorder::stop_watchdog() {
  if (!watchdog_.joinable()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_.store(true, std::memory_order_relaxed);
  }
  watchdog_cv_.notify_all();
  watchdog_.join();
}

void FlightRecorder::watchdog_loop() {
  const auto poll = std::chrono::duration<double>(
      std::max(config_.watchdog_poll_seconds, 1e-3));
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    watchdog_cv_.wait_for(lock, poll, [this] {
      return watchdog_stop_.load(std::memory_order_relaxed);
    });
    if (watchdog_stop_.load(std::memory_order_relaxed)) {
      return;
    }
    lock.unlock();
    watchdog_scan();
    lock.lock();
  }
}

void FlightRecorder::watchdog_scan() {
  const std::uint64_t now = now_ns();
  const auto budget_ns =
      static_cast<std::uint64_t>(config_.stall_budget_seconds * 1e9);
  const std::size_t used = std::min(
      heartbeat_count_.load(std::memory_order_relaxed), kMaxHeartbeats);
  for (std::size_t i = 0; i < used; ++i) {
    HeartbeatHandle::Slot& slot = heartbeats_[i];
    if (slot.ready.load(std::memory_order_acquire) == 0) {
      continue;
    }
    const std::uint64_t last = slot.last_ns.load(std::memory_order_relaxed);
    const bool busy = slot.busy.load(std::memory_order_relaxed) != 0;
    const std::uint64_t age = now > last ? now - last : 0;
    // Only a *busy* heartbeat can stall: a worker parked on its condition
    // variable beats idle() on the way in and is healthy at any age.
    const bool stalled_now = busy && age > budget_ns;
    const bool stalled_before =
        slot.stalled.load(std::memory_order_relaxed) != 0;
    if (stalled_now == stalled_before) {
      continue;
    }
    slot.stalled.store(stalled_now ? 1 : 0, std::memory_order_relaxed);
    if (stalled_now) {
      stalls_.fetch_add(1, std::memory_order_relaxed);
      if (stalls_metric_ != nullptr) {
        stalls_metric_->add(1);
      }
      record(FlightKind::kWatchdogStall, last_sim_hours(), i, age, budget_ns);
      if (!dump_path_.empty()) {
        dump_jsonl(dump_path_, "watchdog_stall");
      }
    }
    if (watchdog_slo_ != nullptr) {
      AlertTransition t;
      t.t_hours = last_sim_hours();
      t.sli = "watchdog_stall";
      t.firing = stalled_now;
      t.value = age * 1e-9;
      t.budget = config_.stall_budget_seconds;
      t.samples = stalls_.load(std::memory_order_relaxed);
      watchdog_slo_->report_transition(t);
    }
  }
}

void FlightRecorder::dump_jsonl(JsonlWriter& out,
                                std::string_view reason) const {
  out.field("record", std::string_view("flight_meta"))
      .field("reason", reason)
      .field("threads", static_cast<std::uint64_t>(threads_registered()))
      .field("ring_capacity",
             static_cast<std::uint64_t>(rings_[0]->capacity()))
      .field("events_total", events_total())
      .field("dropped_total", dropped_total())
      .field("watchdog_stalls_total", watchdog_stalls());
  out.end_record();
  for (const ThreadHealth& health : heartbeat_ages()) {
    out.field("record", std::string_view("heartbeat"))
        .field("name", std::string_view(health.name))
        .field("age_seconds", health.age_seconds)
        .field("busy", health.busy)
        .field("stalled", health.stalled);
    out.end_record();
  }
  const std::size_t used = threads_registered();
  for (std::size_t t = 0; t < used; ++t) {
    for (const FlightEvent& e : decode(*rings_[t])) {
      out.field("record", std::string_view("event"))
          .field("thread", static_cast<std::uint64_t>(e.thread))
          .field("seq", e.seq)
          .field("kind", to_string(static_cast<FlightKind>(e.kind)))
          .field("t_hours", e.sim_hours)
          .field("wall_ns", e.wall_ns)
          .field("a0", e.a0)
          .field("a1", e.a1)
          .field("a2", e.a2)
          .field("trace_id", e.trace_id);
      out.end_record();
    }
  }
  out.flush();
}

bool FlightRecorder::dump_jsonl(const std::string& path,
                                std::string_view reason) const {
  try {
    JsonlWriter out(path);
    dump_jsonl(out, reason);
    return true;
  } catch (...) {
    return false;
  }
}

bool FlightRecorder::write_crash_dump(int fd,
                                      int signal_number) const noexcept {
  const std::size_t ring_count = threads_registered();
  std::uint64_t header[8] = {};
  std::memcpy(&header[0], "MFCPFLT1", 8);
  header[1] = static_cast<std::uint64_t>(signal_number);
  header[2] = ring_count;
  header[3] = rings_[0]->capacity();
  header[4] = sizeof(FlightEvent);
  header[5] = events_.load(std::memory_order_relaxed);
  header[6] = dropped_.load(std::memory_order_relaxed);
  header[7] = stalls_.load(std::memory_order_relaxed);
  if (!support::write_all_fd(fd, header, sizeof(header))) {
    return false;
  }
  for (std::size_t i = 0; i < ring_count; ++i) {
    const std::uint64_t ring_header[2] = {i, rings_[i]->head()};
    if (!support::write_all_fd(fd, ring_header, sizeof(ring_header)) ||
        !support::write_all_fd(fd, rings_[i]->raw_slots(),
                               rings_[i]->raw_bytes())) {
      return false;
    }
  }
  return true;
}

std::uint64_t FlightRecorder::events_total() const noexcept {
  return events_.load(std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::dropped_total() const noexcept {
  return dropped_.load(std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::watchdog_stalls() const noexcept {
  return stalls_.load(std::memory_order_relaxed);
}

double FlightRecorder::last_sim_hours() const noexcept {
  return last_sim_hours_.load(std::memory_order_relaxed);
}

std::size_t FlightRecorder::threads_registered() const noexcept {
  return std::min(threads_.load(std::memory_order_relaxed),
                  kMaxFlightThreads);
}

// -------------------------------------------------------- default recorder --

namespace {
std::atomic<FlightRecorder*> g_default_flight{nullptr};
std::atomic<std::uint64_t> g_default_flight_generation{0};
}  // namespace

FlightRecorder* default_flight() noexcept {
  return g_default_flight.load(std::memory_order_acquire);
}

std::uint64_t default_flight_generation() noexcept {
  return g_default_flight_generation.load(std::memory_order_acquire);
}

void set_default_flight(FlightRecorder* recorder) noexcept {
  // Generation first: a consumer that caches (pointer, generation) and
  // sees a stale generation re-resolves even when a successor recorder
  // happens to reuse the same address (heartbeat slots live in separate
  // allocations, so pointer equality alone is not "same recorder").
  g_default_flight_generation.fetch_add(1, std::memory_order_acq_rel);
  g_default_flight.store(recorder, std::memory_order_release);
}

// ------------------------------------------------------------ crash path --

namespace {

std::atomic<FlightRecorder*> g_crash_recorder{nullptr};
char g_crash_path[512] = {};

// Runs with the signal's default disposition already restored
// (SA_RESETHAND). Everything here is async-signal-safe: open/write/close
// plus pure buffer formatting — no allocation, no locks, no stdio (see
// DESIGN.md §12 for the full argument).
void flight_crash_handler(int sig) {
  FlightRecorder* recorder =
      g_crash_recorder.load(std::memory_order_relaxed);
  if (recorder != nullptr && g_crash_path[0] != '\0') {
    const int fd = support::open_trunc_fd(g_crash_path);
    if (fd >= 0) {
      recorder->write_crash_dump(fd, sig);
      support::close_fd(fd);
    }
    char line[600];
    std::size_t pos = 0;
    pos = support::append_literal(line, sizeof(line), pos, "flight: signal ");
    pos += support::format_u64_decimal(line + pos, sizeof(line) - pos,
                                       static_cast<std::uint64_t>(sig));
    pos = support::append_literal(line, sizeof(line), pos,
                                  ", crash dump written to ");
    pos = support::append_literal(line, sizeof(line), pos, g_crash_path);
    pos = support::append_literal(line, sizeof(line), pos, "\n");
    support::write_all_fd(2, line, pos);
  }
  // SA_NODEFER left `sig` unblocked, so re-raising delivers the (now
  // default) fatal action immediately: the process still dies with the
  // original signal, which is what CI's SIGSEGV smoke asserts.
  ::raise(sig);
}

}  // namespace

void install_crash_handlers(FlightRecorder* recorder, const char* path) {
  if (recorder == nullptr || path == nullptr || path[0] == '\0') {
    g_crash_recorder.store(nullptr, std::memory_order_release);
    return;
  }
  const std::size_t len = std::min(std::strlen(path), sizeof(g_crash_path) - 1);
  std::memcpy(g_crash_path, path, len);
  g_crash_path[len] = '\0';
  g_crash_recorder.store(recorder, std::memory_order_release);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = flight_crash_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESETHAND | SA_NODEFER;
  const int signals[] = {SIGSEGV, SIGABRT, SIGBUS};
  for (const int sig : signals) {
    ::sigaction(sig, &action, nullptr);
  }
}

// ----------------------------------------------------------- debug routes --

FlightQuery parse_flight_query(std::string_view path) {
  FlightQuery query;
  FlightQuery invalid;
  invalid.valid = false;
  const auto params = net::parse_query(path);
  if (!params.has_value()) {
    return invalid;
  }
  for (const net::QueryParam& param : *params) {
    if (param.key == "kind") {
      const auto kind = parse_flight_kind(param.value);
      if (!kind.has_value()) {
        return invalid;
      }
      query.kind = *kind;
      continue;
    }
    const auto number = net::parse_u64(param.value);
    if (!number.has_value()) {
      return invalid;
    }
    if (param.key == "thread" && *number <= 0xFFFF) {
      query.thread = static_cast<int>(*number);
    } else if (param.key == "limit") {
      query.limit = static_cast<std::size_t>(*number);
    } else {
      return invalid;
    }
  }
  return query;
}

std::string flight_events_json(const FlightRecorder& recorder,
                               const FlightQuery& query) {
  const std::vector<FlightEvent> events =
      recorder.snapshot(query.thread, query.kind, query.limit);
  std::string out = "{\"events_total\":";
  out += std::to_string(recorder.events_total());
  out += ",\"dropped_total\":";
  out += std::to_string(recorder.dropped_total());
  out += ",\"count\":";
  out += std::to_string(events.size());
  out += ",\"events\":[";
  bool first = true;
  for (const FlightEvent& e : events) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"thread\":";
    out += std::to_string(e.thread);
    out += ",\"seq\":";
    out += std::to_string(e.seq);
    out += ",\"kind\":\"";
    out += to_string(static_cast<FlightKind>(e.kind));
    out += "\",\"t_hours\":";
    out += json_number(e.sim_hours);
    out += ",\"wall_ns\":";
    out += std::to_string(e.wall_ns);
    out += ",\"a0\":";
    out += std::to_string(e.a0);
    out += ",\"a1\":";
    out += std::to_string(e.a1);
    out += ",\"a2\":";
    out += std::to_string(e.a2);
    out += ",\"trace_id\":\"";
    out += e.trace_id == 0 ? std::string("0") : format_trace_id(e.trace_id);
    out += "\"}";
  }
  out += "]}\n";
  return out;
}

std::string flight_threads_json(const FlightRecorder& recorder) {
  std::string out = "{\"watchdog_stalls_total\":";
  out += std::to_string(recorder.watchdog_stalls());
  out += ",\"stall_budget_seconds\":";
  out += json_number(recorder.config().stall_budget_seconds);
  out += ",\"threads\":[";
  bool first = true;
  for (const ThreadHealth& health : recorder.heartbeat_ages()) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":\"";
    out += health.name;  // recorder-controlled identifiers, no escaping
    out += "\",\"age_seconds\":";
    out += json_number(health.age_seconds);
    out += ",\"busy\":";
    out += health.busy ? "true" : "false";
    out += ",\"stalled\":";
    out += health.stalled ? "true" : "false";
    out += '}';
  }
  out += "]}\n";
  return out;
}

// ---------------------------------------------------- FlightServerObserver --

namespace {
// One heartbeat per worker thread; TLS so request hooks are lock-free.
thread_local HeartbeatHandle t_server_beat;
}  // namespace

FlightServerObserver::FlightServerObserver(FlightRecorder* recorder,
                                           std::string name_prefix)
    : recorder_(recorder), prefix_(std::move(name_prefix)) {}

void FlightServerObserver::on_worker_start(std::size_t worker) {
  // HTTP workers are sampling targets too (a hot /metrics scrape or a
  // slow route shows up in profiles); registration is by process-wide
  // default so profiler-only setups reuse this observer with a null
  // recorder.
  if (SamplingProfiler* profiler = default_profiler()) {
    profiler->register_current_thread(prefix_ + "_worker_" +
                                      std::to_string(worker));
  }
  if (recorder_ == nullptr) {
    return;
  }
  t_server_beat = recorder_->register_heartbeat(prefix_ + "_worker_" +
                                                std::to_string(worker));
}

void FlightServerObserver::on_worker_idle(std::size_t) {
  t_server_beat.idle();
}

void FlightServerObserver::on_request_begin(std::size_t worker) {
  t_server_beat.beat();
  if (recorder_ != nullptr) {
    recorder_->record(FlightKind::kHttpBegin, recorder_->last_sim_hours(),
                      worker);
  }
}

void FlightServerObserver::on_request_end(std::size_t worker, int status,
                                          std::size_t response_bytes) {
  if (recorder_ != nullptr) {
    recorder_->record(FlightKind::kHttpEnd, recorder_->last_sim_hours(),
                      worker, static_cast<std::uint64_t>(status),
                      response_bytes);
  }
  t_server_beat.beat();
}

}  // namespace mfcp::obs
