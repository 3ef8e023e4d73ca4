#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // dladdr, SIGEV_THREAD_ID plumbing
#endif

#include "obs/profiler.hpp"

#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "net/http.hpp"

// glibc spells the SIGEV_THREAD_ID target field through a union member;
// musl and older headers may omit the convenience macro.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif

namespace mfcp::obs {

namespace {

constexpr std::string_view kStageNames[kEngineStageCount] = {
    "none", "embed", "predict", "match", "attribute", "dispatch",
};

/// The kernel clockid for one thread's scheduler CPU clock
/// (MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)): unlike a pthread_t from
/// pthread_getcpuclockid, a raw tid can never dangle into freed pthread
/// state — timer_create on an exited thread just fails cleanly.
clockid_t thread_cpu_clockid(pid_t tid) noexcept {
  return static_cast<clockid_t>(
      (~static_cast<unsigned int>(tid) << 3) | 6u);
}

std::uint64_t thread_cpu_ns() noexcept {
  struct timespec ts;
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// --------------------------------------------------- stage TLS + clock --
//
// The stage marker is process-global TLS (not per-profiler): the engine
// tags stages unconditionally, and whichever profiler samples a thread
// reads the same marker. The exact-CPU accounting epoch is nonzero only
// while some session is active, so idle-armed StageScope cost is one
// relaxed load plus two TLS stores.

thread_local EngineStage t_stage = EngineStage::kNone;
thread_local std::uint64_t t_stage_since = 0;  // thread CPU ns
thread_local std::uint32_t t_stage_epoch = 0;

std::atomic<std::uint32_t> g_stage_epoch{0};
std::atomic<std::uint32_t> g_stage_epoch_counter{0};
std::atomic<std::uint64_t> g_stage_ns[kEngineStageCount] = {};

/// Flushes the CPU time the calling thread spent since its previous
/// transition into `closing`'s bucket, then restarts the TLS clock. The
/// first transition a thread makes inside a new session epoch only
/// seeds the clock (the elapsed time belongs to no session).
void stage_clock_transition(std::uint32_t epoch,
                            EngineStage closing) noexcept {
  const std::uint64_t now = thread_cpu_ns();
  if (t_stage_epoch == epoch && now > t_stage_since) {
    g_stage_ns[static_cast<std::size_t>(closing)].fetch_add(
        now - t_stage_since, std::memory_order_relaxed);
  }
  t_stage_epoch = epoch;
  t_stage_since = now;
}

}  // namespace

std::string_view to_string(EngineStage stage) noexcept {
  const auto ordinal = static_cast<std::size_t>(stage);
  if (ordinal >= kEngineStageCount) {
    return "unknown";
  }
  return kStageNames[ordinal];
}

EngineStage current_stage() noexcept { return t_stage; }

StageScope::StageScope(EngineStage stage) noexcept : previous_(t_stage) {
  const std::uint32_t epoch = g_stage_epoch.load(std::memory_order_relaxed);
  if (epoch != 0) {
    stage_clock_transition(epoch, previous_);
  }
  t_stage = stage;
}

StageScope::~StageScope() { close(); }

void StageScope::close() noexcept {
  if (closed_) {
    return;
  }
  closed_ = true;
  const std::uint32_t epoch = g_stage_epoch.load(std::memory_order_relaxed);
  if (epoch != 0) {
    stage_clock_transition(epoch, t_stage);
  }
  t_stage = previous_;
}

// ------------------------------------------------- registration + signal --

struct ProfilerThreadEntry {
  pid_t tid = 0;
  std::uint16_t ordinal = 0;
  char name[32] = {};
  SampleRing ring{kSampleRingCapacity};  // allocated at registration
  std::atomic<std::uint64_t>* samples = nullptr;    // profiler counters
  std::atomic<std::uint64_t>* truncated = nullptr;
  std::atomic<bool> active{false};  // registered, thread still alive
  std::atomic<bool> armed{false};   // current session samples this entry
  timer_t timer{};
  bool timer_created = false;
};

namespace {

/// Thread -> entry binding, keyed on the profiler's process-unique
/// serial (mirrors obs/flight's TlsRing: a successor profiler at a
/// recycled address must never inherit a stale binding).
struct TlsProfilerBinding {
  std::uint64_t owner_serial = 0;  // 0 = unbound
  ProfilerThreadEntry* entry = nullptr;
};
thread_local TlsProfilerBinding t_binding;

std::atomic<std::uint64_t> g_profiler_serial{0};

/// SIGPROF handler; runs on the sampled thread. Async-signal-safe by
/// construction: backtrace(3) (warmed up at profiler construction so
/// its one-time libgcc initialisation never happens here), TLS reads,
/// and the ring's atomic stores. errno is preserved for the
/// interrupted code. The sample's encoding (SampleRing, profiler.hpp) is
/// written here and read back only by folded().
void sigprof_handler(int /*sig*/, siginfo_t* info, void* /*ucontext*/) {
  if (info == nullptr || info->si_code != SI_TIMER) {
    return;  // not one of our timers (e.g. a stray kill -PROF)
  }
  auto* entry = static_cast<ProfilerThreadEntry*>(info->si_value.sival_ptr);
  if (entry == nullptr || !entry->armed.load(std::memory_order_relaxed)) {
    return;  // late delivery after stop()/unregister
  }
  const int saved_errno = errno;
  // Two leading frames are signal plumbing (this handler + the kernel
  // restorer trampoline); skip them so stacks root at interrupted code.
  constexpr std::size_t kSkip = 2;
  void* pcs[kMaxSampleFrames + kSkip + 1];
  const int n = ::backtrace(pcs, kMaxSampleFrames + kSkip + 1);
  const std::size_t total = n > 0 ? static_cast<std::size_t>(n) : 0;
  const std::size_t skip = std::min(kSkip, total);
  const std::size_t depth = total - skip;
  if (depth > 0) {
    const std::size_t kept = std::min(depth, kMaxSampleFrames);
    std::uint64_t words[1 + kMaxSampleFrames] = {};
    words[0] = kept | (static_cast<std::uint64_t>(t_stage) << 8) |
               (static_cast<std::uint64_t>(entry->ordinal) << 16);
    for (std::size_t i = 0; i < kept; ++i) {
      words[1 + i] = reinterpret_cast<std::uint64_t>(pcs[skip + i]);
    }
    entry->ring.record(words, 1 + kept);
    entry->samples->fetch_add(1, std::memory_order_relaxed);
    if (depth > kMaxSampleFrames) {
      entry->truncated->fetch_add(1, std::memory_order_relaxed);
    }
  }
  errno = saved_errno;
}

void install_sigprof_handler_once() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = sigprof_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    ::sigaction(SIGPROF, &action, nullptr);
  });
}

std::string sanitize_frame(const char* text) {
  std::string out(text);
  for (char& c : out) {
    // The folded format splits frames on ';' and the trailing count on
    // the last space; mangled names contain neither, but be safe.
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') {
      c = '_';
    }
  }
  return out;
}

std::string hex_offset(std::uintptr_t value) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// dladdr-based frame name: the (mangled) symbol when one is exported,
/// else module+offset, else the raw address. Mangled names keep the
/// folded grammar valid and every flamegraph renderer demangles them.
std::string symbolize_pc(const void* pc) {
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  if (::dladdr(pc, &info) != 0) {
    if (info.dli_sname != nullptr && info.dli_sname[0] != '\0') {
      return sanitize_frame(info.dli_sname);
    }
    if (info.dli_fname != nullptr && info.dli_fbase != nullptr) {
      const char* base = std::strrchr(info.dli_fname, '/');
      std::string module = base != nullptr ? base + 1 : info.dli_fname;
      return sanitize_frame(module.c_str()) + "+" +
             hex_offset(reinterpret_cast<std::uintptr_t>(pc) -
                        reinterpret_cast<std::uintptr_t>(info.dli_fbase));
    }
  }
  return hex_offset(reinterpret_cast<std::uintptr_t>(pc));
}

}  // namespace

// ------------------------------------------------------ SamplingProfiler --

SamplingProfiler::SamplingProfiler()
    : serial_(g_profiler_serial.fetch_add(1, std::memory_order_relaxed) + 1) {
  install_sigprof_handler_once();
  // Warm up backtrace: its first call may dlopen/allocate inside libgcc,
  // which must never happen inside the signal handler.
  void* warmup[4];
  ::backtrace(warmup, 4);
}

SamplingProfiler::~SamplingProfiler() { stop(); }

bool SamplingProfiler::register_current_thread(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (t_binding.owner_serial == serial_ && t_binding.entry != nullptr) {
    t_binding.entry->active.store(true, std::memory_order_relaxed);
    return true;  // already registered; keep the original ring + name
  }
  t_binding.owner_serial = serial_;
  t_binding.entry = nullptr;
  const std::size_t ordinal = entries_.size();
  if (ordinal >= kMaxProfiledThreads) {
    return false;
  }
  auto entry = std::make_unique<ProfilerThreadEntry>();
  entry->tid = static_cast<pid_t>(::syscall(SYS_gettid));
  entry->ordinal = static_cast<std::uint16_t>(ordinal);
  const std::size_t n = std::min(name.size(), sizeof(entry->name) - 1);
  std::memcpy(entry->name, name.data(), n);
  entry->name[n] = '\0';
  entry->samples = &samples_;
  entry->truncated = &truncated_;
  entry->active.store(true, std::memory_order_relaxed);
  t_binding.entry = entry.get();
  entries_.push_back(std::move(entry));
  // Threads registering mid-session join at the *next* session: arming a
  // timer here would sample a partial window and complicate teardown.
  return true;
}

void SamplingProfiler::unregister_current_thread() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (t_binding.owner_serial != serial_ || t_binding.entry == nullptr) {
    return;
  }
  ProfilerThreadEntry* entry = t_binding.entry;
  entry->active.store(false, std::memory_order_relaxed);
  if (entry->timer_created) {
    entry->armed.store(false, std::memory_order_relaxed);
    ::timer_delete(entry->timer);
    entry->timer_created = false;
  }
  t_binding.entry = nullptr;
  t_binding.owner_serial = 0;
}

bool SamplingProfiler::start(double hz) {
  if (!(hz > 0.0) || hz > 1000.0) {
    return false;
  }
  bool expected = false;
  if (!session_active_.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
    return false;  // one session at a time (HTTP route answers 409)
  }
  std::lock_guard<std::mutex> lock(mutex_);
  session_hz_ = hz;
  for (auto& entry : entries_) {
    entry->ring.reset();
  }
  for (auto& ns : g_stage_ns) {
    ns.store(0, std::memory_order_relaxed);
  }
  // A fresh nonzero epoch turns the exact stage clock on; threads seed
  // their TLS clock lazily at their first transition inside it.
  const std::uint32_t epoch =
      g_stage_epoch_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  g_stage_epoch.store(epoch == 0 ? 1 : epoch, std::memory_order_relaxed);

  const double period_s = 1.0 / hz;
  struct itimerspec spec;
  spec.it_interval.tv_sec = static_cast<time_t>(period_s);
  spec.it_interval.tv_nsec =
      static_cast<long>((period_s - std::floor(period_s)) * 1e9);
  if (spec.it_interval.tv_sec == 0 && spec.it_interval.tv_nsec == 0) {
    spec.it_interval.tv_nsec = 1;
  }
  spec.it_value = spec.it_interval;
  for (auto& entry : entries_) {
    if (!entry->active.load(std::memory_order_relaxed)) {
      continue;
    }
    struct sigevent sev;
    std::memset(&sev, 0, sizeof(sev));
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_value.sival_ptr = entry.get();
    sev.sigev_notify_thread_id = entry->tid;
    if (::timer_create(thread_cpu_clockid(entry->tid), &sev,
                       &entry->timer) != 0) {
      // The thread exited without unregistering; skip it this session.
      entry->active.store(false, std::memory_order_relaxed);
      continue;
    }
    entry->timer_created = true;
    entry->armed.store(true, std::memory_order_release);
    ::timer_settime(entry->timer, 0, &spec, nullptr);
  }
  sessions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SamplingProfiler::stop() {
  if (!session_active_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : entries_) {
    if (entry->timer_created) {
      entry->armed.store(false, std::memory_order_relaxed);
      ::timer_delete(entry->timer);
      entry->timer_created = false;
    }
  }
  g_stage_epoch.store(0, std::memory_order_relaxed);
  for (std::size_t s = 0; s < kEngineStageCount; ++s) {
    stage_ns_[s] = g_stage_ns[s].load(std::memory_order_relaxed);
  }
  session_active_.store(false, std::memory_order_release);
}

bool SamplingProfiler::session_active() const noexcept {
  return session_active_.load(std::memory_order_acquire);
}

std::optional<std::string> SamplingProfiler::collect_folded(double seconds,
                                                            double hz) {
  if (!start(hz)) {
    return std::nullopt;
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop();
  return folded();
}

std::string SamplingProfiler::folded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<const void*, std::string> symbols;
  const auto symbol = [&symbols](const void* pc) -> const std::string& {
    auto it = symbols.find(pc);
    if (it == symbols.end()) {
      it = symbols.emplace(pc, symbolize_pc(pc)).first;
    }
    return it->second;
  };
  std::map<std::string, std::uint64_t> counts;
  for (const auto& entry : entries_) {
    for (const SampleRing::Slot& slot : entry->ring.snapshot()) {
      const std::size_t depth =
          std::min<std::size_t>(slot[1] & 0xFF, kMaxSampleFrames);
      std::string key = sanitize_frame(entry->name);
      key += ";stage:";
      key += to_string(static_cast<EngineStage>((slot[1] >> 8) & 0xFF));
      // backtrace order is innermost-first; folded wants root..leaf.
      for (std::size_t i = depth; i-- > 0;) {
        key += ';';
        const auto* frame_pc = reinterpret_cast<const char*>(slot[2 + i]);
        // Non-leaf frames hold return addresses: step back one byte so
        // the call site, not the instruction after it, is symbolized.
        key += symbol(i == 0 ? frame_pc : frame_pc - 1);
      }
      ++counts[key];
    }
  }
  // Exact stage anchors: every engine stage is present in every session's
  // output, in sample-equivalents at the session frequency (floored at
  // one), even when the stage is too fast for sampling to catch.
  if (sessions_.load(std::memory_order_relaxed) > 0 && session_hz_ > 0.0) {
    for (std::size_t s = 1; s < kEngineStageCount; ++s) {
      const double equivalents =
          static_cast<double>(stage_ns_[s]) * session_hz_ * 1e-9;
      counts[std::string("[stage_totals];") +
             std::string(to_string(static_cast<EngineStage>(s)))] =
          std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(std::llround(equivalents)));
    }
  }
  std::string out;
  for (const auto& [stack, count] : counts) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::uint64_t SamplingProfiler::samples_total() const noexcept {
  return samples_.load(std::memory_order_relaxed);
}

std::uint64_t SamplingProfiler::truncated_total() const noexcept {
  return truncated_.load(std::memory_order_relaxed);
}

std::uint64_t SamplingProfiler::sessions_total() const noexcept {
  return sessions_.load(std::memory_order_relaxed);
}

std::size_t SamplingProfiler::threads_registered() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

// ------------------------------------------------------ default profiler --

namespace {
std::atomic<SamplingProfiler*> g_default_profiler{nullptr};
std::atomic<std::uint64_t> g_default_profiler_generation{0};
}  // namespace

SamplingProfiler* default_profiler() noexcept {
  return g_default_profiler.load(std::memory_order_acquire);
}

std::uint64_t default_profiler_generation() noexcept {
  return g_default_profiler_generation.load(std::memory_order_acquire);
}

void set_default_profiler(SamplingProfiler* profiler) noexcept {
  // Generation first, same reasoning as set_default_flight: consumers
  // that cache the resolved pointer re-resolve on a stale generation
  // even when a successor reuses the address.
  g_default_profiler_generation.fetch_add(1, std::memory_order_acq_rel);
  g_default_profiler.store(profiler, std::memory_order_release);
}

// ------------------------------------------------------------ HTTP route --

ProfileQuery parse_profile_query(std::string_view path) {
  ProfileQuery query;
  ProfileQuery invalid;
  invalid.valid = false;
  const auto params = net::parse_query(path);
  if (!params.has_value()) {
    return invalid;
  }
  for (const net::QueryParam& param : *params) {
    const auto number = net::parse_finite_double(param.value);
    if (!number.has_value()) {
      return invalid;
    }
    if (param.key == "seconds" && *number > 0.0 && *number <= 30.0) {
      query.seconds = *number;
    } else if (param.key == "hz" && *number >= 1.0 && *number <= 1000.0) {
      query.hz = *number;
    } else {
      return invalid;
    }
  }
  return query;
}

ProfileRouteResult profile_route(SamplingProfiler* profiler,
                                 std::string_view path) {
  if (profiler == nullptr) {
    return {404, "profiler disabled (run with --profile)\n"};
  }
  const ProfileQuery query = parse_profile_query(path);
  if (!query.valid) {
    return {400,
            "malformed profile query: seconds in (0,30], hz in [1,1000]\n"};
  }
  std::optional<std::string> folded =
      profiler->collect_folded(query.seconds, query.hz);
  if (!folded.has_value()) {
    return {409, "a profile session is already running\n"};
  }
  return {200, std::move(*folded)};
}

}  // namespace mfcp::obs
