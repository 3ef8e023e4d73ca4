// Per-client token buckets dividing a global admission rate.
//
// The Ratekeeper emits one scalar — tasks per simulated hour the platform
// can absorb — and this table enforces it per client: each active client
// gets an equal share of the global rate, replenishing a bounded bucket
// of admission tokens on the simulated clock. A submit spends one token;
// an empty bucket throttles, and the deficit divided by the client's
// replenish rate is the *honest* Retry-After (the same formula the
// queue-pressure shed path uses, see replenish_seconds).
//
// The table is bounded: past 256 resident buckets the least-
// recently-seen client is evicted (its token debt is forgotten — an
// evicted client that returns starts with a fresh full bucket, which
// errs toward admission, never toward stuck throttling). All bucket math
// is on simulated time passed in by the caller, so engine-side admission
// decisions replay deterministically; the mutex only serializes engine
// and HTTP threads, it never orders decisions differently across runs of
// the single-threaded batch engine.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mfcp::control {

/// Bucket key applied when a submission carries no client identity.
inline constexpr std::string_view kAnonymousClient = "anonymous";

/// Seconds until `deficit` units replenish at `rate_per_second`, floored
/// at `floor_seconds` and capped at one hour (a zero rate means "not
/// now", not "never" — the controller will recover). Shared by every 429
/// path so Retry-After never drifts between the bucket and pressure-shed
/// formulas.
[[nodiscard]] double replenish_seconds(double deficit, double rate_per_second,
                                       double floor_seconds);

/// Outcome of one try_admit.
struct AdmitDecision {
  bool admitted = false;
  /// Simulated hours until the bucket holds a full token again (0 when
  /// admitted).
  double retry_after_hours = 0.0;
  /// Tokens remaining after the decision.
  double tokens = 0.0;
  /// The client's replenish share (tasks per simulated hour) at decision
  /// time.
  double rate_per_hour = 0.0;
};

/// Point-in-time view of one bucket (GET /ratekeeper).
struct BucketView {
  std::string client;
  double tokens = 0.0;
  double rate_per_hour = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t throttled = 0;
  double last_seen_hours = 0.0;
};

class TokenBucketTable {
 public:
  TokenBucketTable();

  /// Publishes the Ratekeeper's global rate (tasks per simulated hour).
  void set_global_rate(double rate_per_hour, double now_hours);
  [[nodiscard]] double global_rate_per_hour() const;

  /// Spends one token from `client`'s bucket (empty id maps to the
  /// anonymous bucket). Touches the LRU and may evict another client.
  AdmitDecision try_admit(std::string_view client, double now_hours);

  [[nodiscard]] std::uint64_t admitted_total() const;
  [[nodiscard]] std::uint64_t throttled_total() const;
  [[nodiscard]] std::uint64_t evicted_total() const;
  /// Sum of tokens across resident buckets (the mfcp_ratekeeper_tokens
  /// gauge; refreshed lazily, so it reflects each bucket's last touch).
  [[nodiscard]] double tokens_total() const;
  [[nodiscard]] std::size_t size() const;

  /// Resident buckets sorted by client name (stable debug output).
  [[nodiscard]] std::vector<BucketView> snapshot() const;

 private:
  struct Bucket {
    double tokens = 0.0;
    double last_refill_hours = 0.0;
    double last_seen_hours = 0.0;
    std::uint64_t admitted = 0;
    std::uint64_t throttled = 0;
    std::list<std::string>::iterator lru;  // position in lru_ (front = hot)
  };

  /// Number of clients seen within the activity window of `now`.
  [[nodiscard]] std::size_t active_clients_locked(double now_hours) const;

  mutable std::mutex mutex_;
  double global_rate_per_hour_;
  std::unordered_map<std::string, Bucket> buckets_;
  std::list<std::string> lru_;  // most recently seen at the front
  std::uint64_t admitted_ = 0;
  std::uint64_t throttled_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace mfcp::control
