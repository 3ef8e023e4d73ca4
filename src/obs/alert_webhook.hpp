// Webhook alert delivery: an AlertSink that POSTs each fire/resolve
// transition as a flat JSON record to a configured HTTP endpoint.
//
// Delivery is fully decoupled from the caller: notify() renders the body
// and enqueues it on a queue of 256 bodies (drop-oldest-refused: when full
// the transition is counted into dropped_total and discarded — alerting
// must never apply backpressure to the engine). A dedicated sender thread
// drains the queue through net::http_call with a 2 s timeout; non-2xx
// responses and transport errors count into failed_total and are not
// retried (the alert log JSONL remains the durable channel; the webhook
// is a best-effort pager).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "obs/slo.hpp"

namespace mfcp::obs {

class MetricsRegistry;
class Counter;

struct WebhookConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string path = "/";
};

/// Parses "http://host:port/path" (path optional, defaults to "/"). HTTPS
/// and hostless forms are rejected with a human-readable *error. Ports
/// must be explicit: alert endpoints on default port 80 are a smell in a
/// localhost-first deployment.
[[nodiscard]] std::optional<WebhookConfig> parse_webhook_url(
    std::string_view url, std::string* error);

/// Renders the JSON body one transition posts (shared with tests so the
/// wire contract is pinned in one place).
[[nodiscard]] std::string webhook_body(const AlertTransition& transition);

class WebhookSender : public AlertSink {
 public:
  explicit WebhookSender(WebhookConfig config);
  ~WebhookSender() override;  // stops and joins the sender thread

  WebhookSender(const WebhookSender&) = delete;
  WebhookSender& operator=(const WebhookSender&) = delete;

  /// Non-blocking enqueue; drops (and counts) when the queue is full.
  void notify(const AlertTransition& transition) override;

  /// Registers mfcp_alert_webhook_{delivered,failed,dropped}_total.
  void bind_metrics(MetricsRegistry* registry);

  /// Blocks until the queue is empty and no delivery is in flight, or the
  /// timeout elapses. Test/shutdown helper; returns false on timeout.
  bool flush(double timeout_seconds);

  [[nodiscard]] std::uint64_t delivered_total() const noexcept;
  [[nodiscard]] std::uint64_t failed_total() const noexcept;
  [[nodiscard]] std::uint64_t dropped_total() const noexcept;

 private:
  void sender_loop();

  WebhookConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;   // sender: work or stop
  std::condition_variable drained_;  // flush(): queue empty + idle
  std::deque<std::string> queue_;  // pre-rendered JSON bodies
  bool in_flight_ = false;
  bool stop_ = false;

  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  Counter* delivered_metric_ = nullptr;
  Counter* failed_metric_ = nullptr;
  Counter* dropped_metric_ = nullptr;

  std::thread sender_;
};

}  // namespace mfcp::obs
