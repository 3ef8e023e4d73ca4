#include "obs/alert_webhook.hpp"

#include <chrono>

#include "net/http.hpp"
#include "net/http_client.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "support/check.hpp"

namespace mfcp::obs {

namespace {
/// Transitions queued but not yet sent beyond which notify() drops.
constexpr std::size_t kQueueCapacity = 256;
/// Per-delivery connect+send+receive budget.
constexpr int kTimeoutMs = 2000;
}  // namespace

std::optional<WebhookConfig> parse_webhook_url(std::string_view url,
                                               std::string* error) {
  const std::string_view scheme = "http://";
  if (url.substr(0, scheme.size()) != scheme) {
    if (error != nullptr) {
      *error = "webhook url must start with http:// (https is unsupported)";
    }
    return std::nullopt;
  }
  std::string_view rest = url.substr(scheme.size());
  const std::size_t slash = rest.find('/');
  const std::string_view authority =
      slash == std::string_view::npos ? rest : rest.substr(0, slash);
  const std::string_view path =
      slash == std::string_view::npos ? std::string_view("/")
                                      : rest.substr(slash);
  const std::size_t colon = authority.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == authority.size()) {
    if (error != nullptr) {
      *error = "webhook url needs an explicit host:port";
    }
    return std::nullopt;
  }
  const std::optional<std::uint64_t> port =
      net::parse_u64(authority.substr(colon + 1));
  if (!port.has_value() || *port == 0 || *port > 65535) {
    if (error != nullptr) {
      *error = "webhook url port must be 1..65535";
    }
    return std::nullopt;
  }
  WebhookConfig config;
  config.host = std::string(authority.substr(0, colon));
  config.port = static_cast<std::uint16_t>(*port);
  config.path = std::string(path);
  return config;
}

std::string webhook_body(const AlertTransition& t) {
  std::string out = "{\"sli\":\"";
  out += t.sli;  // rule names are internal identifiers, no escaping needed
  out += "\",\"event\":\"";
  out += t.firing ? "fire" : "resolve";
  out += "\",\"t_hours\":";
  out += json_number(t.t_hours);
  out += ",\"value\":";
  out += json_number(t.value);
  out += ",\"budget\":";
  out += json_number(t.budget);
  out += ",\"fast_burn\":";
  out += json_number(t.fast_burn);
  out += ",\"slow_burn\":";
  out += json_number(t.slow_burn);
  out += ",\"samples\":";
  out += std::to_string(t.samples);
  out += "}";
  return out;
}

WebhookSender::WebhookSender(WebhookConfig config)
    : config_(std::move(config)) {
  MFCP_CHECK(config_.port != 0, "webhook: port required");
  sender_ = std::thread([this] { sender_loop(); });
}

WebhookSender::~WebhookSender() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  sender_.join();
}

void WebhookSender::notify(const AlertTransition& transition) {
  std::string body = webhook_body(transition);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || queue_.size() >= kQueueCapacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      if (dropped_metric_ != nullptr) {
        dropped_metric_->add(1);
      }
      return;
    }
    queue_.push_back(std::move(body));
  }
  wake_.notify_one();
}

void WebhookSender::bind_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    delivered_metric_ = nullptr;
    failed_metric_ = nullptr;
    dropped_metric_ = nullptr;
    return;
  }
  delivered_metric_ = &registry->counter("mfcp_alert_webhook_delivered_total");
  failed_metric_ = &registry->counter("mfcp_alert_webhook_failed_total");
  dropped_metric_ = &registry->counter("mfcp_alert_webhook_dropped_total");
}

bool WebhookSender::flush(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  return drained_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [this] { return queue_.empty() && !in_flight_; });
}

std::uint64_t WebhookSender::delivered_total() const noexcept {
  return delivered_.load(std::memory_order_relaxed);
}

std::uint64_t WebhookSender::failed_total() const noexcept {
  return failed_.load(std::memory_order_relaxed);
}

std::uint64_t WebhookSender::dropped_total() const noexcept {
  return dropped_.load(std::memory_order_relaxed);
}

void WebhookSender::sender_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // stop_ and nothing left: drop-on-shutdown is acceptable
    }
    std::string body = std::move(queue_.front());
    queue_.pop_front();
    in_flight_ = true;
    lock.unlock();
    // The HTTP round trip happens unlocked, so notify() never blocks on a
    // slow endpoint.
    const net::ClientResponse response =
        net::http_call(config_.host, config_.port, "POST", config_.path,
                       body, kTimeoutMs);
    const bool delivered =
        response.ok && response.status >= 200 && response.status < 300;
    if (delivered) {
      delivered_.fetch_add(1, std::memory_order_relaxed);
      if (delivered_metric_ != nullptr) {
        delivered_metric_->add(1);
      }
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
      if (failed_metric_ != nullptr) {
        failed_metric_->add(1);
      }
    }
    lock.lock();
    in_flight_ = false;
    if (queue_.empty()) {
      drained_.notify_all();
    }
  }
}

}  // namespace mfcp::obs
