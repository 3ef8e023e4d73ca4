// Shared pieces of the platform benchmark: the result record every
// workload fills, the span tracer used by the traced runs, and small
// statistics helpers. See README.md for the workloads and metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Derives an independent 64-bit seed for input stream `stream` from the
/// workload seed (splitmix64 finaliser), so every generated input depends
/// on --seed alone.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Linear-interpolated quantile (numpy's default); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);
/// Mean of the values between the first and third quartiles.
[[nodiscard]] double interquartile_mean(std::vector<double> values);

/// Appends to `rates` the event rate (per second) of every whole
/// `window_ns` window in [t0, t1); `events` are (time, count) pairs. The
/// interquartile mean of these windows is robust to the short slow
/// spells a shared machine has, where a whole-run average is not.
void window_rates(const std::vector<std::pair<std::int64_t, double>>& events,
                  std::int64_t t0, std::int64_t t1, std::int64_t window_ns,
                  std::vector<double>& rates);
inline constexpr std::int64_t kRateWindowNs = 500'000'000;

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // working files, inside the checkout
};

/// One named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports. `checks` lists every output
/// gate with its verdict; any false one fails the run.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
  [[nodiscard]] bool correct() const {
    for (const auto& c : checks) {
      if (!c.second) {
        return false;
      }
    }
    return true;
  }
};

Result run_replay(const Options& options);
Result run_gateway(const Options& options, double offered_per_s);

// ----- tracing ------------------------------------------------------------

/// The repository's modules, as the traced run attributes time to them.
/// kRoot marks the per-round / per-request parent spans themselves.
enum class Layer : std::uint8_t {
  kRoot,
  kNet,
  kService,
  kStorage,
  kEngine,
  kSim,
  kMfcp,
  kMatching,
  kTrainer,
  kParallel,
};
inline constexpr int kLayerCount = 10;
[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::kRoot;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index of the enclosing span, -1 at top level
};

/// In-memory span store for the benchmark's own calls into each layer.
/// Single-threaded: spans of work run on pool threads are timed there and
/// added with record() once the future is joined.
class Tracer {
 public:
  std::int32_t begin(Layer layer, std::string name, std::int32_t parent);
  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  std::int32_t record(Layer layer, std::string name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int32_t parent);
  void rename(std::int32_t id, std::string name) {
    spans_[static_cast<std::size_t>(id)].name = std::move(name);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Durations (ms) of every span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(
      const std::string& name) const;
  /// Per span, the union length of its children's intervals (clipped to
  /// the span), restricted to children whose layer passes `keep`.
  template <typename Keep>
  [[nodiscard]] std::vector<std::int64_t> child_cover_ns(Keep keep) const;

  /// Writes every span as one JSON line (times relative to the first).
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, Layer layer, std::string name, std::int32_t parent)
      : tracer_(tracer), id_(tracer.begin(layer, std::move(name), parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int32_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Union length of [start, end) intervals (sorted in place).
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv);

template <typename Keep>
std::vector<std::int64_t> Tracer::child_cover_ns(Keep keep) const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0 || !keep(s.layer)) {
      continue;
    }
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
    }
  }
  std::vector<std::int64_t> out(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[i] = union_ns(children[i]);
  }
  return out;
}

}  // namespace perfbench
