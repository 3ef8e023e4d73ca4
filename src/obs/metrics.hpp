// Metrics registry: named counters, gauges, and fixed-bucket histograms
// for the online platform's hot paths.
//
// Design goals (in priority order):
//  1. Near-zero cost when telemetry is off. Instrumentation sites hold a
//     plain pointer (Counter*/Histogram*/MetricsRegistry*) that is null
//     when disabled, so the disabled path is a single branch — no clock
//     reads, no atomics, no allocation.
//  2. Cheap when on. Counters and histogram buckets are sharded across
//     cache-line-aligned atomics indexed by a per-thread shard id, so
//     concurrent writers on different threads do not bounce a shared line.
//     Reads (snapshot) sum the shards.
//  3. Deterministic reporting. snapshot() returns metrics sorted by name;
//     the sinks (obs/sinks.hpp) render that order verbatim, so two runs
//     that recorded the same values expose the same text.
//
// Registration (`registry.counter("name")`) takes a mutex and is expected
// once per site; instrumented components cache the returned pointer
// (references are stable for the registry's lifetime — metrics live in
// node-based maps and are never removed).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mfcp::obs {

/// Number of per-thread shards in counters and histograms. Threads are
/// assigned shards round-robin on first use; 16 covers the pool sizes the
/// engine runs with while keeping snapshot cost trivial.
inline constexpr std::size_t kShards = 16;

/// Round-robin shard id of the calling thread (stable per thread).
std::size_t shard_index() noexcept;

/// Monotonically increasing counter (sharded atomics; see file comment).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over shards. Concurrent adds may or may not be included.
  [[nodiscard]] std::uint64_t value() const noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-written double value (e.g. the current drift statistic). A gauge
/// is a single atomic — set() is a plain store, not a read-modify-write —
/// so it is not sharded.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with Prometheus "le" semantics: a sample v lands
/// in the first bucket whose upper bound satisfies v <= bound (boundaries
/// are inclusive on the upper side — exact at edges), and in the implicit
/// +Inf overflow bucket when it exceeds every bound.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double v) noexcept;

  /// Replaces the bucket layout at runtime, folding existing counts in
  /// conservatively: a count recorded under old upper bound `b` lands in
  /// the first new bucket whose bound is >= `b` (its true value was <= b,
  /// so the new bucket never under-reports it; the quantile estimate can
  /// only widen, never shrink below truth). Counts above every new bound
  /// — including the old +Inf overflow — fold into the new overflow
  /// bucket. Total count and sum are preserved. NOT safe against
  /// concurrent observe(): call during startup/reconfiguration, before
  /// traffic reaches the histogram.
  void rebucket(std::span<const double> upper_bounds);

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts (bounds().size() + 1 entries; last is overflow).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::vector<Shard> shards_;  // kShards entries
};

/// Point-in-time copy of one histogram's state.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // per-bucket (not cumulative)
  double sum = 0.0;
  std::uint64_t count = 0;
};

/// Point-in-time copy of a registry, sorted by metric name. merge() folds
/// another snapshot in: counters and histogram buckets add; gauges take
/// the other snapshot's value (last writer wins); metrics present in only
/// one snapshot are kept as-is.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  void merge(const RegistrySnapshot& other);
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Returned references are stable until destruction.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` is used on first registration; later calls with the same
  /// name must pass identical bounds (checked).
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  /// Lookup without registration (e.g. to rebucket an already-registered
  /// histogram). Null when the name is unknown.
  [[nodiscard]] Histogram* find_histogram(std::string_view name);

  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Process-wide default registry for library internals that cannot plumb a
/// registry through their call sites (matching solvers, thread pool).
/// Null (the initial state) disables their instrumentation entirely.
[[nodiscard]] MetricsRegistry* default_registry() noexcept;
void set_default_registry(MetricsRegistry* registry) noexcept;
/// Moves on every set_default_registry, so a per-thread cache of handles
/// resolved from default_registry() can tell when it is stale (a new
/// registry may reuse a destroyed one's address).
[[nodiscard]] std::uint64_t default_registry_epoch() noexcept;

/// Log-spaced upper bounds for wall-time histograms, 10 microseconds to
/// 30 seconds (1-3-10 per decade).
[[nodiscard]] std::span<const double> default_time_bounds() noexcept;

/// Upper bounds for iteration-count histograms (solver convergence).
[[nodiscard]] std::span<const double> default_iteration_bounds() noexcept;

/// Signed bounds for regret-gap histograms (per-task makespan units):
/// attribution terms can be negative (the deployed chain beating the
/// reference on one sub-step), so the grid spans both signs around zero.
[[nodiscard]] std::span<const double> default_gap_bounds() noexcept;

/// Prometheus-style quantile estimate from a fixed-bucket histogram:
/// walks the cumulative bucket counts to the bucket containing rank
/// q * count and linearly interpolates inside it (the first bucket's lower
/// edge is 0 when its upper bound is positive, the bound itself
/// otherwise). Ranks landing in the +Inf overflow bucket return the
/// largest finite bound — the estimate cannot exceed the configured grid.
/// Returns NaN for an empty histogram; q is clamped to [0, 1].
[[nodiscard]] double histogram_quantile(const HistogramSnapshot& snapshot,
                                        double q);

/// The quantiles the exposition and end-of-run summaries render
/// (p50/p90/p99).
[[nodiscard]] std::span<const double> exposition_quantiles() noexcept;

}  // namespace mfcp::obs
