// Observability HTTP surface: one route table, two servers.
//
// route_debug_request is the socket-free table every HTTP server in the
// platform mounts for process introspection:
//
//   GET /metrics        -> 200, Prometheus text exposition of a snapshot
//                          (404 without a snapshot source)
//   GET /healthz        -> 200, "ok\n"
//   GET /debug/flight   -> 200, recent flight-recorder events
//                          (?thread=&kind=&limit=; 400 on a bad filter,
//                          404 without a recorder)
//   GET /debug/threads  -> 200, per-thread heartbeat ages + stall flags
//                          (404 without a recorder)
//   GET /debug/profile  -> 200, folded CPU profile (?seconds=&hz=; 400 on
//                          bad params, 409 while another session runs,
//                          404 without a profiler)
//   GET /debug/build    -> 200, build provenance (git sha, compiler, ...)
//   GET <other>         -> 404;  non-GET -> 405 (Allow: GET)
//
// Error bodies are flat JSON ({"error":...}). HttpExporter serves exactly
// this table on its own net::HttpServer; net::PlatformGateway answers its
// task routes first and falls through to the same table.
//
// The exporter pulls: each scrape invokes the caller-supplied snapshot
// function, so the running engine never blocks on the exporter — scrapes
// pay the snapshot cost (summing sharded atomics), the instrumented hot
// path pays nothing. Accepting, backlog bounding, timeouts, and graceful
// shutdown all live in net::HttpServer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/http.hpp"
#include "net/http_server.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace mfcp::obs {

struct HttpExporterConfig {
  /// Loopback by default: the exporter serves process introspection, not
  /// the open internet.
  std::string bind_address = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port; read the result via port().
  std::uint16_t port = 0;
  int listen_backlog = 16;
  /// Receive timeout per connection, guarding a worker against stalled
  /// clients.
  int receive_timeout_ms = 2000;
  /// Scrapes are rare and cheap; two workers cover an overlapping scrape
  /// without reserving more threads.
  std::size_t worker_threads = 2;
  /// Flight recorder behind GET /debug/flight and /debug/threads.
  /// Borrowed, optional (404 when absent).
  const FlightRecorder* flight = nullptr;
  /// Sampling profiler behind GET /debug/profile. Borrowed, optional
  /// (404 when absent); mutable because a scrape runs a session.
  SamplingProfiler* profiler = nullptr;
  /// Worker lifecycle hooks forwarded to the underlying net::HttpServer
  /// (e.g. an obs::FlightServerObserver for watchdog heartbeats).
  net::ServerObserver* observer = nullptr;
};

/// Produces the snapshot a scrape renders. Called on a server worker
/// thread once per /metrics request; must be thread-safe.
using SnapshotFn = std::function<RegistrySnapshot()>;

/// What the shared routes read. Every source is optional; a route whose
/// source is absent answers 404.
struct DebugSources {
  SnapshotFn snapshot;                     // GET /metrics
  const FlightRecorder* flight = nullptr;  // GET /debug/flight, /threads
  SamplingProfiler* profiler = nullptr;    // GET /debug/profile
};

/// The shared route table (see file comment). Pure over the request
/// except /debug/profile, which blocks the calling worker for the
/// sampling session.
[[nodiscard]] net::HttpResponse route_debug_request(
    const net::HttpRequest& request, const DebugSources& sources);

class HttpExporter {
 public:
  /// Binds, listens, and starts the server threads. Throws ContractError
  /// when the socket cannot be created or bound.
  explicit HttpExporter(SnapshotFn snapshot, HttpExporterConfig config = {});

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Stops and joins the server threads.
  ~HttpExporter();

  /// The actually bound port (resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const noexcept {
    return server_->port();
  }

  /// Requests answered so far (any status).
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return server_->requests_served();
  }

  /// Idempotent early shutdown (also run by the destructor).
  void stop() { server_->stop(); }

 private:
  DebugSources sources_;
  std::unique_ptr<net::HttpServer> server_;
};

}  // namespace mfcp::obs
