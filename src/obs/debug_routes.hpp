// Observability HTTP routes: one table, mounted by every server.
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
// Error bodies are flat JSON ({"error":...}). A scrape-only server is a
// net::HttpServer whose handler calls this table; net::PlatformGateway
// answers its task routes first and falls through to the same table.
//
// Scrapes pull: each /metrics request invokes the caller-supplied
// snapshot function, so the running engine never blocks on a scraper —
// scrapes pay the snapshot cost (summing sharded atomics), the
// instrumented hot path pays nothing.
#pragma once

#include <functional>

#include "net/http.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace mfcp::obs {

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

}  // namespace mfcp::obs
