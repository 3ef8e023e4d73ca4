#include "control/token_bucket.hpp"

#include <algorithm>
#include <cmath>

namespace mfcp::control {

namespace {
/// A client counts as active (and earns a rate share) while it was seen
/// within this window.
constexpr double kActivityWindowHours = 0.25;
/// Resident-bucket bound; LRU eviction past it.
constexpr std::size_t kMaxClients = 256;
/// Bucket capacity = the client's rate share over this long (burst
/// tolerance), but never below kMinBurstTokens.
constexpr double kBurstHours = 0.05;
constexpr double kMinBurstTokens = 2.0;
static_assert(kMinBurstTokens >= 1.0,
              "a bucket must be able to hold at least one token");
/// Rate before the Ratekeeper publishes one: effectively unthrottled.
constexpr double kInitialRatePerHour = 1e12;
}  // namespace

double replenish_seconds(double deficit, double rate_per_second,
                         double floor_seconds) {
  // One hour caps the advice: a zero or vanishing rate means the
  // controller has clamped admission, and it recovers additively rather
  // than staying shut forever.
  constexpr double kCapSeconds = 3600.0;
  if (rate_per_second <= 0.0) {
    return kCapSeconds;
  }
  const double wait = std::max(0.0, deficit) / rate_per_second;
  return std::clamp(wait, floor_seconds, kCapSeconds);
}

TokenBucketTable::TokenBucketTable()
    : global_rate_per_hour_(kInitialRatePerHour) {}

void TokenBucketTable::set_global_rate(double rate_per_hour,
                                       double now_hours) {
  (void)now_hours;  // refills are lazy; the rate applies from each
                    // bucket's next touch onward
  std::lock_guard<std::mutex> lock(mutex_);
  global_rate_per_hour_ = std::max(0.0, rate_per_hour);
}

std::size_t TokenBucketTable::active_clients_locked(double now_hours) const {
  const double cutoff = now_hours - kActivityWindowHours;
  return static_cast<std::size_t>(std::count_if(
      buckets_.begin(), buckets_.end(), [cutoff](const auto& entry) {
        return entry.second.last_seen_hours >= cutoff;
      }));
}

AdmitDecision TokenBucketTable::try_admit(std::string_view client,
                                          double now_hours) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key(client.empty() ? kAnonymousClient : client);

  auto it = buckets_.find(key);
  if (it == buckets_.end()) {
    while (buckets_.size() >= kMaxClients && !lru_.empty()) {
      buckets_.erase(lru_.back());
      lru_.pop_back();
      ++evicted_;
    }
    lru_.push_front(key);
    Bucket fresh;
    fresh.last_refill_hours = now_hours;
    fresh.lru = lru_.begin();
    it = buckets_.emplace(key, fresh).first;
    // A new (or returning) client starts with a full burst below — first
    // contact is never throttled by its own empty history.
    it->second.tokens = -1.0;  // sentinel: filled after the share is known
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
  }
  Bucket& bucket = it->second;
  bucket.last_seen_hours = now_hours;

  const double share =
      global_rate_per_hour_ /
      static_cast<double>(std::max<std::size_t>(
          active_clients_locked(now_hours), 1));
  const double burst =
      std::max(kMinBurstTokens, share * kBurstHours);
  if (bucket.tokens < 0.0) {
    bucket.tokens = burst;
  } else {
    const double dt = std::max(0.0, now_hours - bucket.last_refill_hours);
    bucket.tokens = std::min(burst, bucket.tokens + share * dt);
  }
  bucket.last_refill_hours = now_hours;

  AdmitDecision decision;
  decision.rate_per_hour = share;
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    decision.admitted = true;
    ++bucket.admitted;
    ++admitted_;
  } else {
    decision.retry_after_hours =
        share > 0.0 ? (1.0 - bucket.tokens) / share : 1.0;
    ++bucket.throttled;
    ++throttled_;
  }
  decision.tokens = bucket.tokens;
  return decision;
}

std::uint64_t TokenBucketTable::admitted_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return admitted_;
}

std::uint64_t TokenBucketTable::throttled_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return throttled_;
}

std::uint64_t TokenBucketTable::evicted_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

double TokenBucketTable::tokens_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const auto& [name, bucket] : buckets_) {
    total += std::max(0.0, bucket.tokens);
  }
  return total;
}

std::size_t TokenBucketTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_.size();
}

std::vector<BucketView> TokenBucketTable::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BucketView> out;
  out.reserve(buckets_.size());
  for (const auto& [name, bucket] : buckets_) {
    BucketView view;
    view.client = name;
    view.tokens = std::max(0.0, bucket.tokens);
    view.rate_per_hour = global_rate_per_hour_;  // refined below
    view.admitted = bucket.admitted;
    view.throttled = bucket.throttled;
    view.last_seen_hours = bucket.last_seen_hours;
    out.push_back(std::move(view));
  }
  // Shares as of each bucket's own last touch would need per-bucket
  // recompute; report against the current active set instead (a debug
  // view, not a decision input).
  double active = 0.0;
  double latest = 0.0;
  for (const BucketView& v : out) {
    latest = std::max(latest, v.last_seen_hours);
  }
  const double cutoff = latest - kActivityWindowHours;
  for (const BucketView& v : out) {
    if (v.last_seen_hours >= cutoff) {
      active += 1.0;
    }
  }
  for (BucketView& v : out) {
    v.rate_per_hour = active > 0.0
                          ? global_rate_per_hour_ / active
                          : global_rate_per_hour_;
  }
  std::sort(out.begin(), out.end(),
            [](const BucketView& a, const BucketView& b) {
              return a.client < b.client;
            });
  return out;
}

}  // namespace mfcp::control
