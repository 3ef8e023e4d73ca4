#include "obs/debug_routes.hpp"

#include "obs/build_info.hpp"
#include "obs/sinks.hpp"

namespace mfcp::obs {

net::HttpResponse route_debug_request(const net::HttpRequest& request,
                                      const DebugSources& sources) {
  if (request.method != "GET") {
    net::HttpResponse r = net::text_response(405, "method not allowed\n");
    r.headers.emplace_back("Allow", "GET");
    return r;
  }
  const std::string& path = request.path;
  if (path == "/metrics") {
    if (!sources.snapshot) {
      return net::text_response(404, "no metrics registry\n");
    }
    net::HttpResponse r =
        net::text_response(200, to_prometheus(sources.snapshot()));
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return r;
  }
  if (path == "/healthz") {
    return net::text_response(200, "ok\n");
  }
  if (net::matches_route(path, "/debug/flight")) {
    if (sources.flight == nullptr) {
      return net::error_json(404, "flight recorder disabled");
    }
    const FlightQuery query = parse_flight_query(path);
    if (!query.valid) {
      return net::error_json(
          400, "bad flight filter (thread=<n>&kind=<name>&limit=<n>)");
    }
    return net::json_response(200,
                              flight_events_json(*sources.flight, query));
  }
  if (path == "/debug/threads") {
    if (sources.flight == nullptr) {
      return net::error_json(404, "flight recorder disabled");
    }
    return net::json_response(200, flight_threads_json(*sources.flight));
  }
  if (net::matches_route(path, "/debug/profile")) {
    // profile_route owns the whole status mapping (404 disabled, 400
    // malformed query, 409 concurrent session, 200 folded stacks); the
    // body is text/plain folded-flamegraph lines, not JSON. It blocks
    // this worker for the session by design: other workers keep serving.
    ProfileRouteResult result = profile_route(sources.profiler, path);
    return net::text_response(result.status, std::move(result.body));
  }
  if (path == "/debug/build") {
    return net::json_response(200, build_info_json());
  }
  return net::text_response(404, "not found\n");
}

}  // namespace mfcp::obs
