// Multi-threaded HTTP/1.1 server core on plain POSIX sockets.
//
// The one server behind every HTTP surface: the platform gateway and
// scrape-only servers that mount obs::route_debug_request:
//
//   accept thread ──> bounded accepted-connection queue ──> worker pool
//
// The accept loop only accepts and enqueues; a small worker pool reads
// each request (head + Content-Length body), parses it with the socket-
// free functions in net/http.hpp, invokes the caller's handler, and
// writes the serialized response. When the accepted-connection queue is
// full the server sheds load at the door: the connection is answered
// with an immediate 503 and closed, rather than queueing unboundedly —
// the same explicit-backpressure philosophy as the engine's admission
// queue (a counter tracks every shed connection).
//
// Graceful shutdown: stop() closes the listener, lets the workers finish
// every connection already accepted (nothing in flight is dropped), then
// joins all threads. Handler exceptions become 500 responses, never
// worker-thread deaths.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"

namespace mfcp::net {

/// Optional lifecycle hooks for server worker threads. The net layer
/// knows nothing about telemetry; observability (the flight recorder's
/// per-worker heartbeats and HTTP begin/end events) implements this
/// interface one layer up (obs::FlightServerObserver). All methods run on
/// the worker thread they describe and must be cheap and non-blocking —
/// they sit on the request path. Default implementations no-op.
class ServerObserver {
 public:
  virtual ~ServerObserver() = default;

  /// Worker thread started (called once, before any other hook).
  virtual void on_worker_start(std::size_t worker) { (void)worker; }
  /// Worker is about to block waiting for a connection.
  virtual void on_worker_idle(std::size_t worker) { (void)worker; }
  /// Worker picked up a connection and is about to read the request.
  virtual void on_request_begin(std::size_t worker) { (void)worker; }
  /// Response written (status 0 when the connection died before one).
  virtual void on_request_end(std::size_t worker, int status,
                              std::size_t response_bytes) {
    (void)worker;
    (void)status;
    (void)response_bytes;
  }
};

/// Requests whose head or declared body exceed this are answered 413.
inline constexpr std::size_t kMaxRequestBytes = 1 << 20;

struct HttpServerConfig {
  /// Loopback by default: these servers expose process introspection and
  /// a demo ingress, not an authenticated public endpoint.
  std::string bind_address = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port; read the result via port().
  std::uint16_t port = 0;
  /// Worker threads serving accepted connections.
  std::size_t worker_threads = 4;
  /// Borrowed worker-lifecycle hooks; null = no observation. Must outlive
  /// the server.
  ServerObserver* observer = nullptr;
};

class HttpServer {
 public:
  /// Maps one parsed request to a response. Runs on a worker thread; must
  /// be thread-safe. Invalid (unparseable) requests are answered 400
  /// before the handler is consulted.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Binds, listens, and starts the accept + worker threads. Throws
  /// ContractError when the socket cannot be created or bound.
  explicit HttpServer(Handler handler, HttpServerConfig config = {});

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Stops and joins every thread (see stop()).
  ~HttpServer();

  /// The actually bound port (resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Requests answered so far, any status (503 sheds included).
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Connections shed with a 503 because the accepted queue was full.
  [[nodiscard]] std::uint64_t connections_shed() const noexcept {
    return shed_.load(std::memory_order_relaxed);
  }

  /// Graceful, idempotent shutdown (also run by the destructor): closes
  /// the listener, drains already-accepted connections, joins threads.
  void stop();

 private:
  void accept_loop();
  void worker_loop(std::size_t worker);
  void serve_connection(int fd, std::size_t worker);

  Handler handler_;
  HttpServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<int> accepted_;
  bool accept_done_ = false;

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace mfcp::net
