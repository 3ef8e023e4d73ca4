#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"

namespace mfcp::obs {

namespace {
std::atomic<std::size_t> g_next_shard{0};
std::atomic<MetricsRegistry*> g_default_registry{nullptr};
std::atomic<std::uint64_t> g_default_registry_epoch{0};
}  // namespace

std::size_t shard_index() noexcept {
  thread_local const std::size_t idx =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return idx;
}

// ------------------------------------------------------------- counter --

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

// ----------------------------------------------------------- histogram --

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()), shards_(kShards) {
  MFCP_CHECK(!bounds_.empty(), "histogram needs at least one bucket bound");
  MFCP_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                 std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                     bounds_.end(),
             "histogram bounds must be strictly increasing");
  for (Shard& s : shards_) {
    s.buckets = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::observe(double v) noexcept {
  // First bucket with v <= bound; overflow bucket otherwise.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());
  Shard& s = shards_[shard_index()];
  s.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  double expected = s.sum.load(std::memory_order_relaxed);
  while (!s.sum.compare_exchange_weak(expected, expected + v,
                                      std::memory_order_relaxed)) {
  }
}

void Histogram::rebucket(std::span<const double> upper_bounds) {
  MFCP_CHECK(!upper_bounds.empty(), "histogram needs at least one bucket bound");
  MFCP_CHECK(std::is_sorted(upper_bounds.begin(), upper_bounds.end()) &&
                 std::adjacent_find(upper_bounds.begin(), upper_bounds.end()) ==
                     upper_bounds.end(),
             "histogram bounds must be strictly increasing");
  const std::vector<std::uint64_t> old_counts = bucket_counts();
  const std::vector<double> old_bounds = std::move(bounds_);
  const double total_sum = sum();

  bounds_.assign(upper_bounds.begin(), upper_bounds.end());
  std::vector<std::uint64_t> folded(bounds_.size() + 1, 0);
  for (std::size_t b = 0; b < old_counts.size(); ++b) {
    std::size_t target = bounds_.size();  // overflow by default
    if (b < old_bounds.size()) {
      // Conservative fold: values in this bucket were <= old_bounds[b], so
      // the first new bound >= old_bounds[b] still upper-bounds them.
      const auto it =
          std::lower_bound(bounds_.begin(), bounds_.end(), old_bounds[b]);
      target = static_cast<std::size_t>(it - bounds_.begin());
    }
    folded[target] += old_counts[b];
  }

  for (Shard& s : shards_) {
    s.buckets = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
    s.sum.store(0.0, std::memory_order_relaxed);
  }
  for (std::size_t b = 0; b < folded.size(); ++b) {
    shards_[0].buckets[b].store(folded[b], std::memory_order_relaxed);
  }
  shards_[0].sum.store(total_sum, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < counts.size(); ++b) {
      counts[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    for (const auto& b : s.buckets) {
      total += b.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::sum() const noexcept {
  double total = 0.0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

// ------------------------------------------------------------ snapshot --

void RegistrySnapshot::merge(const RegistrySnapshot& other) {
  for (const auto& [name, v] : other.counters) {
    auto it = std::find_if(counters.begin(), counters.end(),
                           [&](const auto& p) { return p.first == name; });
    if (it == counters.end()) {
      counters.emplace_back(name, v);
    } else {
      it->second += v;
    }
  }
  for (const auto& [name, v] : other.gauges) {
    auto it = std::find_if(gauges.begin(), gauges.end(),
                           [&](const auto& p) { return p.first == name; });
    if (it == gauges.end()) {
      gauges.emplace_back(name, v);
    } else {
      it->second = v;  // last writer wins
    }
  }
  for (const HistogramSnapshot& h : other.histograms) {
    auto it = std::find_if(
        histograms.begin(), histograms.end(),
        [&](const HistogramSnapshot& mine) { return mine.name == h.name; });
    if (it == histograms.end()) {
      histograms.push_back(h);
      continue;
    }
    MFCP_CHECK(it->bounds == h.bounds,
               "cannot merge histograms with different bucket bounds");
    for (std::size_t b = 0; b < it->buckets.size(); ++b) {
      it->buckets[b] += h.buckets[b];
    }
    it->sum += h.sum;
    it->count += h.count;
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(counters.begin(), counters.end(), by_name);
  std::sort(gauges.begin(), gauges.end(), by_name);
  std::sort(histograms.begin(), histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
}

// ------------------------------------------------------------ registry --

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(bounds))
             .first;
  } else {
    MFCP_CHECK(std::equal(bounds.begin(), bounds.end(),
                          it->second->bounds().begin(),
                          it->second->bounds().end()),
               "histogram re-registered with different bucket bounds");
  }
  return *it->second;
}

Histogram* MetricsRegistry::find_histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = h->bounds();
    hs.buckets = h->bucket_counts();
    hs.sum = h->sum();
    hs.count = h->count();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;  // std::map iteration is already name-sorted
}

MetricsRegistry* default_registry() noexcept {
  return g_default_registry.load(std::memory_order_acquire);
}

void set_default_registry(MetricsRegistry* registry) noexcept {
  g_default_registry.store(registry, std::memory_order_release);
  g_default_registry_epoch.fetch_add(1, std::memory_order_acq_rel);
}

std::uint64_t default_registry_epoch() noexcept {
  return g_default_registry_epoch.load(std::memory_order_acquire);
}

std::span<const double> default_time_bounds() noexcept {
  static constexpr double kBounds[] = {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
                                       1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0,
                                       10.0, 30.0};
  return kBounds;
}

std::span<const double> default_iteration_bounds() noexcept {
  static constexpr double kBounds[] = {10.0,  25.0,   50.0,   100.0,  250.0,
                                       500.0, 1000.0, 2000.0, 4000.0, 8000.0};
  return kBounds;
}

std::span<const double> default_gap_bounds() noexcept {
  static constexpr double kBounds[] = {
      -1.0,  -0.3,  -0.1,  -0.03, -0.01, -0.003, -0.001, 0.0,
      0.001, 0.003, 0.01,  0.03,  0.1,   0.3,    1.0,    3.0};
  return kBounds;
}

double histogram_quantile(const HistogramSnapshot& snapshot, double q) {
  if (snapshot.count == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(snapshot.count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < snapshot.bounds.size(); ++b) {
    const std::uint64_t prev = cumulative;
    cumulative += snapshot.buckets[b];
    if (static_cast<double>(cumulative) >= rank && snapshot.buckets[b] > 0) {
      const double upper = snapshot.bounds[b];
      const double lower =
          b == 0 ? std::min(0.0, upper) : snapshot.bounds[b - 1];
      const double within =
          (rank - static_cast<double>(prev)) /
          static_cast<double>(snapshot.buckets[b]);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, within));
    }
  }
  // Rank lies in the +Inf overflow bucket: the grid's top edge is the
  // best (and only honest) estimate.
  return snapshot.bounds.back();
}

std::span<const double> exposition_quantiles() noexcept {
  static constexpr double kQuantiles[] = {0.5, 0.9, 0.99};
  return kQuantiles;
}

}  // namespace mfcp::obs
