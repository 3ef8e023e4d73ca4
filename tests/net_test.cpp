// Tests for the shared HTTP core and the platform gateway: socket-free
// protocol parsing and routing, the flat-JSON reader, live multi-threaded
// server behavior, backpressure (429 + Retry-After), and an end-to-end
// gateway-over-serving-engine loop asserting task conservation and
// forward-only status transitions.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "net/gateway.hpp"
#include "net/http.hpp"
#include "net/http_client.hpp"
#include "net/http_server.hpp"
#include "net/json.hpp"
#include "obs/alert_webhook.hpp"
#include "obs/debug_routes.hpp"
#include "obs/flight.hpp"
#include "obs/profiler.hpp"

namespace mfcp::net {
namespace {

// ------------------------------------------------------------ protocol --

TEST(HttpParse, ParsesRequestLineAndHeaders) {
  const HttpRequest r = parse_request_head(
      "POST /submit HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 12\r\n"
      "\r\n");
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.method, "POST");
  EXPECT_EQ(r.path, "/submit");
  EXPECT_EQ(r.version, "HTTP/1.1");
  // Names are case-insensitive; values keep their case.
  EXPECT_EQ(r.header("content-type"), "application/json");
  EXPECT_EQ(r.header("CONTENT-LENGTH"), "12");
  ASSERT_TRUE(r.content_length().has_value());
  EXPECT_EQ(*r.content_length(), 12u);
  EXPECT_EQ(r.header("x-missing"), "");
}

TEST(HttpParse, RejectsMalformedHeads) {
  EXPECT_FALSE(parse_request_head("").valid);
  EXPECT_FALSE(parse_request_head("GET\r\n").valid);
  EXPECT_FALSE(parse_request_head("GET /x\r\n").valid);  // no version
  EXPECT_FALSE(parse_request_head("GET  /x HTTP/1.1\r\n").valid);
  EXPECT_FALSE(
      parse_request_head("GET /x HTTP/1.1 extra\r\n").valid);
  EXPECT_FALSE(parse_request_head("GET /x HTTP/1.1\r\n"
                                  "not a header line\r\n"
                                  "\r\n")
                   .valid);
}

TEST(HttpParse, ContentLengthRejectsNonNumeric) {
  const HttpRequest r = parse_request_head(
      "GET / HTTP/1.1\r\nContent-Length: twelve\r\n\r\n");
  ASSERT_TRUE(r.valid);
  EXPECT_FALSE(r.content_length().has_value());
}

TEST(HttpParse, QueryStringSplitsIntoPairsOrFails) {
  const auto none = parse_query("/journal");
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
  const auto pairs = parse_query("/journal?from=1.5&to=3&");
  ASSERT_TRUE(pairs.has_value());
  ASSERT_EQ(pairs->size(), 2u);  // a trailing '&' adds nothing
  EXPECT_EQ((*pairs)[0].key, "from");
  EXPECT_EQ((*pairs)[0].value, "1.5");
  EXPECT_EQ((*pairs)[1].key, "to");
  EXPECT_EQ((*pairs)[1].value, "3");
  EXPECT_FALSE(parse_query("/journal?from").has_value());     // no '='
  EXPECT_FALSE(parse_query("/journal?from=").has_value());    // empty
  EXPECT_FALSE(parse_query("/journal?a=1&&b=2").has_value()); // empty pair
}

TEST(HttpParse, RouteMatchesThePathOrThePathWithAQuery) {
  EXPECT_TRUE(matches_route("/journal", "/journal"));
  EXPECT_TRUE(matches_route("/journal?from=1", "/journal"));
  EXPECT_TRUE(matches_route("/journal?", "/journal"));
  EXPECT_FALSE(matches_route("/journals", "/journal"));
  EXPECT_FALSE(matches_route("/journal/x", "/journal"));
  EXPECT_FALSE(matches_route("/jour", "/journal"));
  EXPECT_FALSE(matches_route("", "/journal"));
}

TEST(HttpParse, NumbersAreCheckedNotWrapped) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~0ULL);
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("+1").has_value());
  EXPECT_FALSE(parse_u64("12a").has_value());
  EXPECT_EQ(parse_finite_double("-2.5"), -2.5);
  EXPECT_EQ(parse_finite_double("1e3"), 1000.0);
  EXPECT_FALSE(parse_finite_double("").has_value());
  EXPECT_FALSE(parse_finite_double("1.5x").has_value());
  EXPECT_FALSE(parse_finite_double("inf").has_value());
  EXPECT_FALSE(parse_finite_double("nan").has_value());
  EXPECT_FALSE(parse_finite_double("1e999").has_value());
}

TEST(HttpParse, SerializeResponseCarriesHeadersAndLength) {
  HttpResponse resp = json_response(429, "{\"accepted\":false}");
  resp.headers.emplace_back("Retry-After", "3");
  const std::string wire = serialize_response(resp);
  EXPECT_NE(wire.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 18\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 3\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"accepted\":false}"), std::string::npos);
}

TEST(HttpParse, ClientParsesResponseWire) {
  const ClientResponse r = parse_response(
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: text/plain\r\n"
      "Content-Length: 3\r\n"
      "\r\n"
      "ok\n");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");
  EXPECT_EQ(r.header("content-type"), "text/plain");
}

// ---------------------------------------------------------------- json --

TEST(Json, ParsesFlatScalars) {
  const auto obj = parse_json_object(
      "{\"s\":\"a\\n\\u0041\",\"n\":-2.5e1,\"t\":true,\"f\":false,"
      "\"z\":null}");
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(obj->at("s").str, "a\nA");
  EXPECT_EQ(obj->at("n").num, -25.0);
  EXPECT_TRUE(obj->at("t").boolean);
  EXPECT_FALSE(obj->at("f").boolean);
  EXPECT_EQ(obj->at("z").kind, JsonValue::Kind::kNull);
}

TEST(Json, RejectsNestingDuplicatesAndGarbage) {
  EXPECT_FALSE(parse_json_object("").has_value());
  EXPECT_FALSE(parse_json_object("[1,2]").has_value());
  EXPECT_FALSE(parse_json_object("{\"a\":{\"b\":1}}").has_value());
  EXPECT_FALSE(parse_json_object("{\"a\":[1]}").has_value());
  EXPECT_FALSE(parse_json_object("{\"a\":1,\"a\":2}").has_value());
  EXPECT_FALSE(parse_json_object("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(parse_json_object("{\"a\":}").has_value());
}

TEST(Json, QuoteEscapesControlCharacters) {
  EXPECT_EQ(json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

// --------------------------------------------------------- submit body --

TEST(SubmitBody, ParsesFullDescriptor) {
  const SubmitParse p = parse_submit_body(
      "{\"family\":\"transformer\",\"dataset\":\"europarl\",\"depth\":12,"
      "\"width\":256,\"batch_size\":32,\"dataset_fraction\":0.5,"
      "\"deadline_hours\":4.0}");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.task.family, sim::TaskFamily::kTransformer);
  EXPECT_EQ(p.task.dataset, sim::DatasetKind::kEuroparl);
  EXPECT_EQ(p.task.depth, 12);
  EXPECT_EQ(p.task.width, 256);
  EXPECT_EQ(p.task.batch_size, 32);
  EXPECT_EQ(p.task.dataset_fraction, 0.5);
  EXPECT_EQ(p.deadline_hours, 4.0);
}

TEST(SubmitBody, DefaultsApplyWhenFieldsOmitted) {
  const SubmitParse p = parse_submit_body("{\"family\":\"CNN\"}");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.task.family, sim::TaskFamily::kCnn);
  const sim::TaskDescriptor defaults;
  EXPECT_EQ(p.task.depth, defaults.depth);
  EXPECT_EQ(p.task.width, defaults.width);
  EXPECT_EQ(p.deadline_hours, 0.0);  // "use the link's default"
}

TEST(SubmitBody, ParsesClientIdentity) {
  const SubmitParse p = parse_submit_body(
      "{\"family\":\"cnn\",\"client\":\"team-a.batch_7\"}");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.client, "team-a.batch_7");
  // Absent client -> empty string -> the link's anonymous bucket.
  EXPECT_TRUE(parse_submit_body("{\"family\":\"cnn\"}").client.empty());
}

TEST(SubmitBody, RejectsBadClientIdentity) {
  EXPECT_FALSE(
      parse_submit_body("{\"family\":\"cnn\",\"client\":\"\"}").ok);
  EXPECT_FALSE(
      parse_submit_body("{\"family\":\"cnn\",\"client\":\"a b\"}").ok);
  EXPECT_FALSE(
      parse_submit_body("{\"family\":\"cnn\",\"client\":\"a/b\"}").ok);
  EXPECT_FALSE(parse_submit_body("{\"family\":\"cnn\",\"client\":7}").ok);
  const std::string long_name(65, 'x');
  EXPECT_FALSE(parse_submit_body("{\"family\":\"cnn\",\"client\":\"" +
                                 long_name + "\"}")
                   .ok);
  // 64 chars of the allowed charset is the inclusive limit.
  EXPECT_TRUE(parse_submit_body("{\"family\":\"cnn\",\"client\":\"" +
                                std::string(64, 'x') + "\"}")
                  .ok);
}

TEST(SubmitBody, RejectsBadInput) {
  EXPECT_FALSE(parse_submit_body("not json").ok);
  EXPECT_FALSE(parse_submit_body("{}").ok);  // family required
  EXPECT_FALSE(parse_submit_body("{\"family\":\"gpu\"}").ok);
  EXPECT_FALSE(
      parse_submit_body("{\"family\":\"cnn\",\"depht\":3}").ok);  // typo
  EXPECT_FALSE(
      parse_submit_body("{\"family\":\"cnn\",\"depth\":2.5}").ok);
  EXPECT_FALSE(
      parse_submit_body("{\"family\":\"cnn\",\"dataset_fraction\":0}").ok);
  EXPECT_FALSE(
      parse_submit_body("{\"family\":\"cnn\",\"deadline_hours\":-1}").ok);
}

// ------------------------------------------------- socket-free routing --

HttpRequest make_request(const std::string& method, const std::string& path,
                         std::string body = {}) {
  HttpRequest r;
  r.method = method;
  r.path = path;
  r.version = "HTTP/1.1";
  r.body = std::move(body);
  r.valid = true;
  return r;
}

std::uint64_t body_u64(const std::string& body, const std::string& key) {
  const auto obj = parse_json_object(body);
  EXPECT_TRUE(obj.has_value()) << body;
  if (!obj.has_value()) {
    return 0;
  }
  const auto it = obj->find(key);
  EXPECT_TRUE(it != obj->end()) << key << " missing in " << body;
  return it == obj->end() ? 0
                          : static_cast<std::uint64_t>(it->second.num);
}

std::string body_str(const std::string& body, const std::string& key) {
  const auto obj = parse_json_object(body);
  if (!obj.has_value()) {
    return {};
  }
  const auto it = obj->find(key);
  return it == obj->end() ? std::string{} : it->second.str;
}

TEST(GatewayRoute, SubmitAcceptThenStatusAndStats) {
  engine::GatewayLink link;
  const HttpResponse submit = route_gateway_request(
      make_request("POST", "/submit", "{\"family\":\"cnn\"}"), link,
      nullptr);
  ASSERT_EQ(submit.status, 200) << submit.body;
  const std::uint64_t id = body_u64(submit.body, "id");
  EXPECT_GE(id, engine::kExternalIdBase);

  const HttpResponse status = route_gateway_request(
      make_request("GET", "/task/" + std::to_string(id)), link, nullptr);
  ASSERT_EQ(status.status, 200);
  EXPECT_EQ(body_u64(status.body, "id"), id);
  EXPECT_EQ(body_str(status.body, "state"), "queued");

  const HttpResponse stats =
      route_gateway_request(make_request("GET", "/stats"), link, nullptr);
  ASSERT_EQ(stats.status, 200);
  EXPECT_EQ(body_u64(stats.body, "tasks_submitted"), 1u);
  EXPECT_EQ(body_u64(stats.body, "tasks_queued"), 1u);
  EXPECT_EQ(body_u64(stats.body, "inbox_depth"), 1u);
}

TEST(GatewayRoute, ValidationAndMethodErrors) {
  engine::GatewayLink link;
  EXPECT_EQ(route_gateway_request(
                make_request("POST", "/submit", "not json"), link, nullptr)
                .status,
            400);
  const HttpResponse wrong_method = route_gateway_request(
      make_request("GET", "/submit"), link, nullptr);
  EXPECT_EQ(wrong_method.status, 405);
  ASSERT_EQ(wrong_method.headers.size(), 1u);
  EXPECT_EQ(wrong_method.headers[0].first, "Allow");
  EXPECT_EQ(wrong_method.headers[0].second, "POST");
  // Non-digits and ids above UINT64_MAX (which must not wrap onto a
  // small id) are both malformed.
  for (const char* path : {"/task/abc", "/task/18446744073709551617"}) {
    EXPECT_EQ(
        route_gateway_request(make_request("GET", path), link, nullptr)
            .status,
        400)
        << path;
  }
  EXPECT_EQ(route_gateway_request(make_request("GET", "/task/42"), link,
                                  nullptr)
                .status,
            404);
  EXPECT_EQ(
      route_gateway_request(make_request("GET", "/nope"), link, nullptr)
          .status,
      404);
  HttpRequest invalid;  // valid = false
  EXPECT_EQ(route_gateway_request(invalid, link, nullptr).status, 400);
}

TEST(GatewayRoute, BackpressureIs429WithDeterministicRetryAfter) {
  engine::GatewayLinkConfig cfg;
  cfg.high_water = 2;
  engine::GatewayLink link(cfg);
  // A known drain rate makes the advised backoff exactly predictable
  // through the shared replenish formula: 1 task of excess draining at
  // 4 tasks per 2 s round = 0.5 s, floored at the 1 s minimum.
  link.configure_drain(/*round_batch=*/4, /*expected_round_seconds=*/2.0);

  const std::string body = "{\"family\":\"mlp\"}";
  EXPECT_EQ(route_gateway_request(make_request("POST", "/submit", body),
                                  link, nullptr)
                .status,
            200);
  EXPECT_EQ(route_gateway_request(make_request("POST", "/submit", body),
                                  link, nullptr)
                .status,
            200);
  const HttpResponse rejected = route_gateway_request(
      make_request("POST", "/submit", body), link, nullptr);
  ASSERT_EQ(rejected.status, 429);
  ASSERT_EQ(rejected.headers.size(), 1u);
  EXPECT_EQ(rejected.headers[0].first, "Retry-After");
  EXPECT_EQ(rejected.headers[0].second, "1");
  // A pressure shed is not a rate-limit: the body says so.
  EXPECT_NE(rejected.body.find("\"throttled\":false"), std::string::npos);

  const engine::ServiceStats stats = link.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.rejected_busy, 1u);
  EXPECT_EQ(stats.rejected_throttled, 0u);
}

TEST(GatewayRoute, RetryAfterIsMonotoneInPressure) {
  engine::GatewayLink link;
  link.configure_drain(/*round_batch=*/4, /*expected_round_seconds=*/2.0);
  double prev = 0.0;
  for (std::size_t pressure = 48; pressure <= 480; pressure += 48) {
    const double s = link.retry_after_seconds(pressure);
    EXPECT_GE(s, prev);  // deeper backlog never advises a shorter wait
    prev = s;
  }
  EXPECT_LE(prev, 3600.0);
}

TEST(GatewayRoute, DryBucketThrottlesWithHonestRetryAfter) {
  control::TokenBucketTable buckets;
  // 10 tasks/h: each bucket holds its 2-token burst floor.
  buckets.set_global_rate(10.0, 0.0);
  engine::GatewayLinkConfig cfg;
  cfg.buckets = &buckets;
  engine::GatewayLink link(cfg);

  const std::string body = "{\"family\":\"mlp\",\"client\":\"alice\"}";
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(route_gateway_request(make_request("POST", "/submit", body),
                                    link, nullptr)
                  .status,
              200);
  }
  const HttpResponse throttled = route_gateway_request(
      make_request("POST", "/submit", body), link, nullptr);
  ASSERT_EQ(throttled.status, 429);
  EXPECT_NE(throttled.body.find("\"throttled\":true"), std::string::npos);
  ASSERT_EQ(throttled.headers.size(), 1u);
  EXPECT_EQ(throttled.headers[0].first, "Retry-After");
  EXPECT_GE(std::atoi(throttled.headers[0].second.c_str()), 1);

  // Buckets are per client: a different identity still has its burst.
  EXPECT_EQ(route_gateway_request(
                make_request("POST", "/submit",
                             "{\"family\":\"mlp\",\"client\":\"bob\"}"),
                link, nullptr)
                .status,
            200);

  const engine::ServiceStats stats = link.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected_throttled, 1u);
  EXPECT_EQ(stats.rejected_busy, 0u);
}

TEST(GatewayRoute, RatekeeperRouteServesStateOr404WhenDisabled) {
  engine::GatewayLink link;
  // Not wired: the route is absent, not empty.
  EXPECT_EQ(
      route_gateway_request(make_request("GET", "/ratekeeper"), link,
                            nullptr)
          .status,
      404);

  control::Ratekeeper ratekeeper;
  control::TokenBucketTable buckets;
  buckets.set_global_rate(100.0, 0.0);
  buckets.try_admit("alice", 0.0);
  const HttpResponse r = route_gateway_request(
      make_request("GET", "/ratekeeper"), link, nullptr,
      GatewayConfig{.ratekeeper = &ratekeeper, .buckets = &buckets});
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(body_str(r.body, "limiting_signal"), "none");
  EXPECT_GT(body_u64(r.body, "rate_per_hour"), 0u);
  EXPECT_EQ(body_u64(r.body, "clients"), 1u);
  EXPECT_EQ(body_str(r.body, "b0_client"), "alice");
  EXPECT_EQ(body_u64(r.body, "b0_admitted"), 1u);
}

TEST(GatewayRoute, DrainingLinkRejectsNewWork) {
  engine::GatewayLink link;
  link.request_stop();
  const HttpResponse r = route_gateway_request(
      make_request("POST", "/submit", "{\"family\":\"rnn\"}"), link,
      nullptr);
  EXPECT_EQ(r.status, 429);
  EXPECT_TRUE(link.stats().draining);
}

TEST(GatewayRoute, MetricsAndHealthRideTheSameRouter) {
  engine::GatewayLink link;
  obs::MetricsRegistry registry;
  registry.counter("mfcp_example_total").add(3);
  const HttpResponse metrics = route_gateway_request(
      make_request("GET", "/metrics"), link, &registry);
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("mfcp_example_total 3"), std::string::npos);
  EXPECT_NE(metrics.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_EQ(
      route_gateway_request(make_request("GET", "/healthz"), link, nullptr)
          .body,
      "ok\n");
  // No registry -> /metrics is absent, not empty.
  EXPECT_EQ(
      route_gateway_request(make_request("GET", "/metrics"), link, nullptr)
          .status,
      404);
}

// ---------------------------------------------- tracing + slo routes --

TEST(GatewayRoute, SubmitMintsTraceAndTraceRouteServesIt) {
  obs::TraceStore traces(64, 1.0);
  engine::GatewayLinkConfig cfg;
  cfg.traces = &traces;
  engine::GatewayLink link(cfg);

  const HttpResponse submit = route_gateway_request(
      make_request("POST", "/submit", "{\"family\":\"cnn\"}"), link, nullptr,
      GatewayConfig{.traces = &traces});
  ASSERT_EQ(submit.status, 200) << submit.body;
  const std::string trace_hex = body_str(submit.body, "trace_id");
  EXPECT_EQ(trace_hex.size(), 16u);
  // The same id rides the X-Trace-Id response header.
  bool header_matches = false;
  for (const auto& [name, value] : submit.headers) {
    if (name == "X-Trace-Id") {
      header_matches = value == trace_hex;
    }
  }
  EXPECT_TRUE(header_matches);

  const HttpResponse trace = route_gateway_request(
      make_request("GET", "/trace/" + trace_hex), link, nullptr,
      GatewayConfig{.traces = &traces});
  ASSERT_EQ(trace.status, 200) << trace.body;
  EXPECT_EQ(body_str(trace.body, "trace_id"), trace_hex);
  EXPECT_EQ(body_str(trace.body, "state"), "in_flight");
  EXPECT_EQ(body_str(trace.body, "chain"), "submit");
  EXPECT_EQ(body_u64(trace.body, "spans"), 1u);
  EXPECT_EQ(body_str(trace.body, "s0_name"), "submit");
}

TEST(GatewayRoute, TraceRouteErrorStates) {
  obs::TraceStore traces(64);
  engine::GatewayLink link;  // sampling off: nothing is ever recorded
  // Malformed id -> 400.
  EXPECT_EQ(route_gateway_request(make_request("GET", "/trace/xyz"), link,
                                  nullptr, GatewayConfig{.traces = &traces})
                .status,
            400);
  // Well-formed but unknown -> 404.
  EXPECT_EQ(route_gateway_request(
                make_request("GET", "/trace/00000000000000ff"), link,
                nullptr, GatewayConfig{.traces = &traces})
                .status,
            404);
  // Tracing disabled entirely -> 404 as well, not a crash.
  EXPECT_EQ(route_gateway_request(
                make_request("GET", "/trace/00000000000000ff"), link,
                nullptr)
                .status,
            404);
  // An unsampled submit still mints an id, but /trace cannot resolve it.
  const HttpResponse submit = route_gateway_request(
      make_request("POST", "/submit", "{\"family\":\"mlp\"}"), link, nullptr,
      GatewayConfig{.traces = &traces});
  ASSERT_EQ(submit.status, 200);
  EXPECT_EQ(body_str(submit.body, "trace_id").size(), 16u);
  EXPECT_EQ(route_gateway_request(
                make_request("GET",
                             "/trace/" + body_str(submit.body, "trace_id")),
                link, nullptr, GatewayConfig{.traces = &traces})
                .status,
            404);
}

TEST(GatewayRoute, AlertsRouteReportsSloState) {
  engine::GatewayLink link;
  // No monitor wired -> absent, like /metrics without a registry.
  EXPECT_EQ(
      route_gateway_request(make_request("GET", "/alerts"), link, nullptr)
          .status,
      404);
  obs::SloMonitor slo;
  slo.observe_submit(0.0, 1.0);  // one slow submit
  const HttpResponse alerts = route_gateway_request(
      make_request("GET", "/alerts"), link, nullptr,
      GatewayConfig{.slo = &slo});
  ASSERT_EQ(alerts.status, 200) << alerts.body;
  EXPECT_EQ(body_u64(alerts.body, "rules"), 4u);
  const auto obj = parse_json_object(alerts.body);
  ASSERT_TRUE(obj.has_value());
  EXPECT_TRUE(obj->count("submit_latency_value"));
  EXPECT_TRUE(obj->count("submit_latency_fast_burn"));
  EXPECT_TRUE(obj->count("dispatch_success_budget"));
  EXPECT_TRUE(obj->count("expiry_firing"));
  EXPECT_TRUE(obj->count("regret_gap_slow_burn"));
  EXPECT_TRUE(obj->count("firing_total"));
}

TEST(GatewayRoute, TaskStatusJsonIsByteStable) {
  // The table keeps a compact entry (no id, no name string); GET
  // /task/<id> renders the id from the key and the name from the cluster
  // index. The bodies below are the ones the per-entry-string table
  // rendered, byte for byte.
  static_assert(sizeof(engine::TaskStatus) <= 40);
  const std::uint64_t id = engine::kExternalIdBase;
  const auto get = [id](engine::GatewayLink& link) {
    return route_gateway_request(
               make_request("GET", "/task/" + std::to_string(id)), link,
               nullptr)
        .body;
  };
  engine::GatewayLink dispatched;
  dispatched.set_cluster_names({"c0", "gpu-east", "cpu-west"});
  ASSERT_EQ(body_u64(route_gateway_request(
                         make_request("POST", "/submit",
                                      "{\"family\":\"cnn\"}"),
                         dispatched, nullptr)
                         .body,
                     "id"),
            id);
  dispatched.table().mark_matched(id, 1, 1.25, 7);
  dispatched.table().mark_dispatched(id, 1.5, true);
  EXPECT_EQ(get(dispatched),
            "{\"id\":1099511627776,\"state\":\"dispatched\","
            "\"submit_hours\":0,\"cluster\":1,\"cluster_name\":\"gpu-east\","
            "\"predicted_hours\":1.25,\"round\":7,\"realized_hours\":1.5,"
            "\"succeeded\":true}\n");

  engine::GatewayLink matched;
  matched.set_cluster_names({"c0", "gpu-east", "cpu-west"});
  (void)route_gateway_request(
      make_request("POST", "/submit", "{\"family\":\"cnn\"}"), matched,
      nullptr);
  matched.table().mark_matched(id, 2, 0.1, 123456789012ULL);
  EXPECT_EQ(get(matched),
            "{\"id\":1099511627776,\"state\":\"matched\","
            "\"submit_hours\":0,\"cluster\":2,\"cluster_name\":\"cpu-west\","
            "\"predicted_hours\":0.1,\"round\":123456789012}\n");
}

TEST(GatewayRoute, EvictedTaskStatusAnswers410) {
  engine::GatewayLinkConfig cfg;
  cfg.status_capacity = 2;
  engine::GatewayLink link(cfg);
  std::vector<std::uint64_t> ids;
  for (int k = 0; k < 3; ++k) {
    const HttpResponse r = route_gateway_request(
        make_request("POST", "/submit", "{\"family\":\"cnn\"}"), link,
        nullptr);
    ASSERT_EQ(r.status, 200);
    ids.push_back(body_u64(r.body, "id"));
  }
  // Terminal transitions drive FIFO eviction once past the cap; live
  // tasks are never evicted. Transitions are forward-only, so walk each
  // task through matched first.
  for (const std::uint64_t id : ids) {
    link.table().mark_matched(id, 0, 1.0, 0);
    link.table().mark_dispatched(id, 1.0, true);
  }
  EXPECT_EQ(link.table().evicted_total(), 1u);
  EXPECT_EQ(link.table().resident(), 2u);
  const HttpResponse gone = route_gateway_request(
      make_request("GET", "/task/" + std::to_string(ids[0])), link, nullptr);
  EXPECT_EQ(gone.status, 410) << gone.body;
  EXPECT_EQ(route_gateway_request(
                make_request("GET", "/task/" + std::to_string(ids[2])),
                link, nullptr)
                .status,
            200);
  // A never-issued id stays 404 — 410 is reserved for ids we once held.
  EXPECT_EQ(route_gateway_request(
                make_request("GET", "/task/" + std::to_string(ids[2] + 100)),
                link, nullptr)
                .status,
            404);
}

TEST(GatewayRoute, RecoveredTableAnswers410ForSkippedIdsAnd404AboveThem) {
  // A recovered link holds only the replayed tasks. The ids recovery
  // skipped were issued by the previous incarnation and finished there,
  // so they answer 410 like evicted ones; ids above every issued one
  // answer 404.
  engine::GatewayLink link;
  const std::uint64_t base = engine::kExternalIdBase;
  link.table().restore_entry(base + 4, 0.0);
  link.table().restore_entry(base + 2, 0.0);
  const auto status_of = [&link](std::uint64_t id) {
    return route_gateway_request(
               make_request("GET", "/task/" + std::to_string(id)), link,
               nullptr)
        .status;
  };
  EXPECT_EQ(status_of(base + 2), 200);
  EXPECT_EQ(status_of(base + 4), 200);
  for (const std::uint64_t id : {base, base + 1, base + 3}) {
    EXPECT_EQ(status_of(id), 410) << id - base;
  }
  EXPECT_EQ(status_of(base + 5), 404);
  EXPECT_EQ(status_of(base - 1), 404);
  const HttpResponse fresh = route_gateway_request(
      make_request("POST", "/submit", "{\"family\":\"cnn\"}"), link,
      nullptr);
  ASSERT_EQ(fresh.status, 200);
  EXPECT_EQ(body_u64(fresh.body, "id"), base + 5);
  EXPECT_EQ(status_of(base + 5), 200);
  EXPECT_EQ(status_of(base + 6), 404);
}

// ------------------------------------------------------- live sockets --

TEST(HttpServerLive, ServesConcurrentClients) {
  std::atomic<int> handled{0};
  HttpServerConfig cfg;
  cfg.worker_threads = 4;
  HttpServer server(
      [&handled](const HttpRequest& r) {
        handled.fetch_add(1, std::memory_order_relaxed);
        return text_response(200, r.method + " " + r.path + " " + r.body);
      },
      cfg);
  ASSERT_GT(server.port(), 0);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        const std::string body =
            std::string("b").append(std::to_string(t * 1000 + k));
        const ClientResponse r = http_call(
            "127.0.0.1", server.port(), "POST", "/echo", body);
        if (r.ok && r.status == 200 &&
            r.body == "POST /echo " + body) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(handled.load(), kThreads * kPerThread);
  EXPECT_GE(server.requests_served(), static_cast<std::uint64_t>(
                                          kThreads * kPerThread));
}

TEST(HttpServerLive, MalformedRequestLineGets400BeforeHandler) {
  std::atomic<int> handled{0};
  HttpServer server([&handled](const HttpRequest&) {
    handled.fetch_add(1);
    return text_response(200, "ok");
  });
  // Three spaces in the request line -> unparseable -> server-side 400.
  const ClientResponse r =
      http_call("127.0.0.1", server.port(), "BAD METHOD", "/x");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(handled.load(), 0);
}

/// Sends `wire` verbatim (no client-side framing) and parses the reply.
ClientResponse raw_call(std::uint16_t port, const std::string& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  EXPECT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  std::string reply;
  char buf[1024];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return parse_response(reply);
}

TEST(HttpServerLive, OversizedDeclaredBodyGets413BeforeHandler) {
  std::atomic<int> handled{0};
  HttpServer server([&handled](const HttpRequest&) {
    handled.fetch_add(1);
    return text_response(200, "ok");
  });
  // The head alone declares a body one byte over the limit: the server
  // refuses it without reading (or waiting for) a single body byte.
  const ClientResponse r = raw_call(
      server.port(), "POST /submit HTTP/1.1\r\nContent-Length: " +
                         std::to_string(kMaxRequestBytes + 1) +
                         "\r\n\r\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 413);
  EXPECT_EQ(handled.load(), 0);
  // At the limit the body is read and handed over as usual.
  const ClientResponse at_limit = http_call(
      "127.0.0.1", server.port(), "POST", "/submit",
      std::string(kMaxRequestBytes, 'x'));
  ASSERT_TRUE(at_limit.ok) << at_limit.error;
  EXPECT_EQ(at_limit.status, 200);
  EXPECT_EQ(handled.load(), 1);
}

TEST(HttpServerLive, HandlerExceptionBecomes500) {
  HttpServer server([](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("boom");
  });
  const ClientResponse r =
      http_call("127.0.0.1", server.port(), "GET", "/");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 500);
}

TEST(HttpServerLive, GracefulShutdownStopsAccepting) {
  HttpServer server(
      [](const HttpRequest&) { return text_response(200, "ok"); });
  const std::uint16_t port = server.port();
  ASSERT_TRUE(http_call("127.0.0.1", port, "GET", "/").ok);
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(http_call("127.0.0.1", port, "GET", "/", {}, 500).ok);
}

TEST(GatewayLive, BackpressureOverTheWire) {
  // No engine draining the link: the second submission already sits at
  // the high-water mark, so the third gets a live 429 + Retry-After.
  engine::GatewayLinkConfig link_cfg;
  link_cfg.high_water = 1;
  engine::GatewayLink link(link_cfg);
  PlatformGateway gateway(link, nullptr, nullptr);

  const std::string body = "{\"family\":\"cnn\"}";
  const ClientResponse first = http_call("127.0.0.1", gateway.port(),
                                         "POST", "/submit", body);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.status, 200);
  const ClientResponse second = http_call("127.0.0.1", gateway.port(),
                                          "POST", "/submit", body);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.status, 429);
  EXPECT_FALSE(second.header("retry-after").empty());
  EXPECT_GE(std::atoi(std::string(second.header("retry-after")).c_str()),
            1);
}

TEST(GatewayLive, EveryRouteCountsUnderItsOwnLabel) {
  // The request metric's route label comes from a second route table
  // beside route_gateway_request's dispatch; one request per served path
  // pins the two together.
  engine::GatewayLink link;
  obs::MetricsRegistry registry;
  PlatformGateway gateway(link, &registry, nullptr);
  const struct {
    const char* method;
    const char* path;
    const char* label;
  } kCases[] = {
      {"POST", "/submit", "/submit"},
      {"GET", "/task/1", "/task"},
      {"GET", "/trace/1", "/trace"},
      {"GET", "/alerts", "/alerts"},
      {"GET", "/ratekeeper", "/ratekeeper"},
      {"GET", "/stats", "/stats"},
      {"GET", "/metrics", "/metrics"},
      {"GET", "/healthz", "/healthz"},
      {"GET", "/debug/flight?limit=1", "/debug/flight"},
      {"GET", "/debug/threads", "/debug/threads"},
      {"GET", "/debug/profile", "/debug/profile"},
      {"GET", "/debug/build", "/debug/build"},
      {"GET", "/debug/storage", "/debug/storage"},
      {"GET", "/journal?from=0", "/journal"},
      {"GET", "/no/such/route", "other"},
  };
  for (const auto& c : kCases) {
    const std::string body =
        std::string(c.method) == "POST" ? "{\"family\":\"cnn\"}" : "";
    ASSERT_TRUE(
        http_call("127.0.0.1", gateway.port(), c.method, c.path, body).ok)
        << c.path;
  }
  gateway.stop();

  const std::string prefix = "mfcp_gateway_requests_total{route=\"";
  std::map<std::string, std::uint64_t> by_route;
  for (const auto& [name, value] : registry.snapshot().counters) {
    if (name.rfind(prefix, 0) == 0) {
      const std::size_t end = name.find('"', prefix.size());
      by_route[name.substr(prefix.size(), end - prefix.size())] += value;
    }
  }
  for (const auto& c : kCases) {
    EXPECT_EQ(by_route[c.label], 1u) << c.path;
  }
  EXPECT_EQ(by_route.size(), std::size(kCases));
}

// -------------------------------------------------- end-to-end serving --

int state_rank(const std::string& state) {
  if (state == "queued") {
    return 0;
  }
  if (state == "matched") {
    return 1;
  }
  // All of dispatched/expired/rejected are terminal.
  return 2;
}

TEST(GatewayLive, EndToEndConservationAndForwardOnlyStatus) {
  // Small but real engine in serve mode behind a live gateway.
  sim::Platform platform =
      sim::Platform::make_setting(sim::Setting::kA, 3);
  sim::PseudoGnnEmbedder embedder;
  core::PredictorConfig pcfg;
  pcfg.hidden = {8};
  Rng init(99);
  core::PlatformPredictor predictor(3, pcfg, init);

  engine::EngineConfig cfg;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait_hours = 0.1;
  cfg.gamma = 0.6;
  cfg.online_retraining = false;
  cfg.eval.solver.max_iterations = 150;
  engine::OnlineEngine eng(cfg, platform, embedder, predictor);

  engine::GatewayLink link;
  obs::MetricsRegistry registry;
  PlatformGateway gateway(link, &registry, nullptr);

  engine::ServeConfig serve_cfg;
  serve_cfg.hours_per_second = 120.0;
  engine::EngineResult result;
  std::thread engine_thread(
      [&] { result = eng.serve(link, serve_cfg); });

  // Concurrent submitters; generous deadlines so nothing expires on a
  // slow CI machine.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  {
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int k = 0; k < kPerThread; ++k) {
          for (int attempt = 0; attempt < 50; ++attempt) {
            const ClientResponse r = http_call(
                "127.0.0.1", gateway.port(), "POST", "/submit",
                "{\"family\":\"cnn\",\"deadline_hours\":200}");
            if (r.ok && r.status == 200) {
              ids[t].push_back(body_u64(r.body, "id"));
              break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }
      });
    }
    for (std::thread& t : submitters) {
      t.join();
    }
  }
  std::vector<std::uint64_t> all_ids;
  for (const auto& v : ids) {
    all_ids.insert(all_ids.end(), v.begin(), v.end());
  }
  ASSERT_GT(all_ids.size(), 0u);

  // Poll every task to a terminal state, asserting transitions only move
  // forward (no torn reads: a dispatched task never reads queued again).
  std::map<std::uint64_t, int> rank;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::size_t terminal = 0;
  while (terminal < all_ids.size() &&
         std::chrono::steady_clock::now() < deadline) {
    terminal = 0;
    for (const std::uint64_t id : all_ids) {
      const ClientResponse r =
          http_call("127.0.0.1", gateway.port(), "GET",
                    "/task/" + std::to_string(id));
      ASSERT_TRUE(r.ok) << r.error;
      ASSERT_EQ(r.status, 200);
      const std::string state = body_str(r.body, "state");
      const int now_rank = state_rank(state);
      const auto it = rank.find(id);
      if (it != rank.end()) {
        EXPECT_LE(it->second, now_rank)
            << "task " << id << " went backwards to " << state;
      }
      rank[id] = now_rank;
      if (now_rank == 2) {
        ++terminal;
      }
    }
    if (terminal < all_ids.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_EQ(terminal, all_ids.size());

  link.request_stop();
  engine_thread.join();
  gateway.stop();

  // Conservation at drain: everything accepted is accounted terminal.
  const engine::ServiceStats stats = link.stats();
  EXPECT_EQ(stats.submitted, all_ids.size());
  EXPECT_EQ(stats.tasks.submitted, all_ids.size());
  EXPECT_EQ(stats.tasks.queued, 0u);
  EXPECT_EQ(stats.tasks.matched, 0u);
  EXPECT_EQ(stats.tasks.dispatched + stats.tasks.expired +
                stats.tasks.rejected,
            all_ids.size());
  EXPECT_GT(stats.rounds, 0u);
  // The engine's own ledger agrees with the gateway's.
  EXPECT_EQ(result.counters.arrivals, all_ids.size());
  // Request metrics were recorded with route/status labels.
  bool saw_submit_counter = false;
  for (const auto& [name, value] : registry.snapshot().counters) {
    if (name ==
        "mfcp_gateway_requests_total{route=\"/submit\",status=\"200\"}") {
      saw_submit_counter = value == all_ids.size();
    }
  }
  EXPECT_TRUE(saw_submit_counter);
}

TEST(GatewayLive, ThrottledServeModeStillConservesAcceptedWork) {
  // Serve mode behind an almost-closed Ratekeeper: most submits bounce
  // off their token bucket with a throttled 429, yet every task that was
  // accepted must still terminate in exactly one lifecycle state, and
  // the client-side and server-side throttle ledgers must agree.
  sim::Platform platform =
      sim::Platform::make_setting(sim::Setting::kA, 3);
  sim::PseudoGnnEmbedder embedder;
  core::PredictorConfig pcfg;
  pcfg.hidden = {8};
  Rng init(99);
  core::PlatformPredictor predictor(3, pcfg, init);

  // The controller's floor rate, 4 tasks/h shared by three clients. The
  // simulated clock runs at 1 h/s, so the burst of submits below spans a
  // few hundredths of an hour: each bucket refills by well under one
  // token, and the few recovery steps of 8 tasks/h cannot open the gate.
  control::RatekeeperConfig rk_cfg;
  rk_cfg.initial_rate_per_hour = 4.0;
  control::Ratekeeper ratekeeper(rk_cfg);
  control::TokenBucketTable buckets;

  engine::EngineConfig cfg;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait_hours = 0.1;
  cfg.gamma = 0.6;
  cfg.online_retraining = false;
  cfg.eval.solver.max_iterations = 150;
  cfg.ratekeeper = &ratekeeper;
  cfg.admission_buckets = &buckets;
  engine::OnlineEngine eng(cfg, platform, embedder, predictor);

  engine::GatewayLinkConfig link_cfg;
  link_cfg.buckets = &buckets;
  engine::GatewayLink link(link_cfg);
  GatewayConfig gateway_cfg;
  gateway_cfg.ratekeeper = &ratekeeper;
  gateway_cfg.buckets = &buckets;
  PlatformGateway gateway(link, nullptr, nullptr, gateway_cfg);

  engine::ServeConfig serve_cfg;
  serve_cfg.hours_per_second = 1.0;
  engine::EngineResult result;
  std::thread engine_thread(
      [&] { result = eng.serve(link, serve_cfg); });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 10;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> throttled{0};
  {
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        // Three identities across four threads: buckets shared and not.
        const std::string body = "{\"family\":\"cnn\",\"deadline_hours\":"
                                 "200,\"client\":\"tenant-" +
                                 std::to_string(t % 3) + "\"}";
        for (int k = 0; k < kPerThread; ++k) {
          const ClientResponse r = http_call(
              "127.0.0.1", gateway.port(), "POST", "/submit", body);
          ASSERT_TRUE(r.ok) << r.error;
          if (r.status == 200) {
            accepted.fetch_add(1);
          } else {
            ASSERT_EQ(r.status, 429);
            // Every rejection here is a rate limit, not queue pressure.
            EXPECT_NE(r.body.find("\"throttled\":true"),
                      std::string::npos);
            EXPECT_FALSE(r.header("retry-after").empty());
            throttled.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : submitters) {
      t.join();
    }
  }
  ASSERT_GT(accepted.load(), 0u);  // a fresh bucket's burst always admits
  EXPECT_GT(throttled.load(), 0u);

  // The debug route serves the same ledger over the wire.
  const ClientResponse rk_view =
      http_call("127.0.0.1", gateway.port(), "GET", "/ratekeeper");
  ASSERT_TRUE(rk_view.ok);
  ASSERT_EQ(rk_view.status, 200);
  EXPECT_EQ(body_u64(rk_view.body, "throttled_total"), throttled.load());

  // Wait for everything accepted to reach a terminal state, then drain.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    const engine::TaskStatusTable::Counts counts = link.stats().tasks;
    if (counts.queued == 0 && counts.matched == 0 &&
        link.stats().inbox_depth == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  link.request_stop();
  engine_thread.join();
  gateway.stop();

  const engine::ServiceStats stats = link.stats();
  EXPECT_EQ(stats.submitted, accepted.load());
  EXPECT_EQ(stats.rejected_throttled, throttled.load());
  EXPECT_EQ(stats.rejected_busy, 0u);
  EXPECT_EQ(stats.tasks.queued, 0u);
  EXPECT_EQ(stats.tasks.matched, 0u);
  EXPECT_EQ(stats.tasks.dispatched + stats.tasks.expired +
                stats.tasks.rejected,
            accepted.load());
  // No synthetic stream: the engine saw exactly the accepted submissions,
  // and the bucket table's ledger matches the link's.
  EXPECT_EQ(result.counters.arrivals, accepted.load());
  EXPECT_EQ(buckets.throttled_total(), throttled.load());
}

// --------------------------------------------- flight debug routes --

TEST(GatewayRoute, FlightDebugRoutesServeAndFilter) {
  engine::GatewayLink link;
  obs::FlightRecorder recorder;
  recorder.record(obs::FlightKind::kAdmission, 1.0, 42, 1, 0, 0xbeef);
  obs::HeartbeatHandle pulse = recorder.register_heartbeat("route_test");
  pulse.beat();

  const HttpResponse events = route_gateway_request(
      make_request("GET", "/debug/flight"), link, nullptr,
      GatewayConfig{.flight = &recorder});
  ASSERT_EQ(events.status, 200);
  EXPECT_NE(events.body.find("\"kind\":\"admission\""), std::string::npos);
  EXPECT_NE(events.body.find("\"trace_id\":\"000000000000beef\""),
            std::string::npos);

  const HttpResponse filtered = route_gateway_request(
      make_request("GET", "/debug/flight?kind=round_end"), link, nullptr,
      GatewayConfig{.flight = &recorder});
  ASSERT_EQ(filtered.status, 200);
  EXPECT_NE(filtered.body.find("\"count\":0"), std::string::npos);

  EXPECT_EQ(route_gateway_request(
                make_request("GET", "/debug/flight?kind=bogus"), link,
                nullptr, GatewayConfig{.flight = &recorder})
                .status,
            400);

  const HttpResponse threads = route_gateway_request(
      make_request("GET", "/debug/threads"), link, nullptr,
      GatewayConfig{.flight = &recorder});
  ASSERT_EQ(threads.status, 200);
  EXPECT_NE(threads.body.find("\"name\":\"route_test\""),
            std::string::npos);

  // Without a recorder the routes are absent, not empty.
  EXPECT_EQ(route_gateway_request(make_request("GET", "/debug/flight"),
                                  link, nullptr)
                .status,
            404);
  EXPECT_EQ(route_gateway_request(make_request("GET", "/debug/threads"),
                                  link, nullptr)
                .status,
            404);
}

// ----------------------------------------- profiler + build routes --

TEST(GatewayRoute, ProfileRouteStatusesMatchWiring) {
  engine::GatewayLink link;

  // Without a profiler the route is absent, not empty.
  EXPECT_EQ(route_gateway_request(make_request("GET", "/debug/profile"),
                                  link, nullptr)
                .status,
            404);

  obs::SamplingProfiler profiler;
  profiler.register_current_thread("gateway_route_test");

  EXPECT_EQ(route_gateway_request(
                make_request("GET", "/debug/profile?seconds=99"), link,
                nullptr, GatewayConfig{.profiler = &profiler})
                .status,
            400);
  EXPECT_EQ(route_gateway_request(
                make_request("GET", "/debug/profile?bogus=1"), link,
                nullptr, GatewayConfig{.profiler = &profiler})
                .status,
            400);

  const HttpResponse ok = route_gateway_request(
      make_request("GET", "/debug/profile?seconds=0.05&hz=100"), link,
      nullptr, GatewayConfig{.profiler = &profiler});
  ASSERT_EQ(ok.status, 200);
  EXPECT_NE(ok.body.find("[stage_totals];"), std::string::npos);

  // A concurrent session answers 409 and leaves it running.
  ASSERT_TRUE(profiler.start(50.0));
  EXPECT_EQ(route_gateway_request(
                make_request("GET", "/debug/profile?seconds=0.05"), link,
                nullptr, GatewayConfig{.profiler = &profiler})
                .status,
            409);
  EXPECT_TRUE(profiler.session_active());
  profiler.stop();
  profiler.unregister_current_thread();
}

TEST(GatewayRoute, BuildRouteReportsProvenance) {
  engine::GatewayLink link;
  const HttpResponse build = route_gateway_request(
      make_request("GET", "/debug/build"), link, nullptr);
  ASSERT_EQ(build.status, 200);
  EXPECT_NE(build.body.find("\"git_sha\":\""), std::string::npos);
  EXPECT_NE(build.body.find("\"compiler\":\""), std::string::npos);
  EXPECT_NE(build.body.find("\"build_type\":\""), std::string::npos);
  EXPECT_NE(build.body.find("\"sanitizers\":\""), std::string::npos);
}

TEST(GatewayRoute, SharedRoutesAnswerLikeTheExporterTable) {
  // The gateway mounts obs::route_debug_request for every route it does
  // not own, so each shared route answers the same status on both
  // servers for the same wiring.
  engine::GatewayLink link;
  obs::FlightRecorder recorder;
  struct Case {
    const char* path;
    const obs::FlightRecorder* flight;
    int status;
  };
  const Case cases[] = {
      {"/debug/flight", nullptr, 404},
      {"/debug/threads", nullptr, 404},
      {"/debug/profile", nullptr, 404},
      {"/debug/flight?kind=bogus", &recorder, 400},
      // Past UINT64_MAX: rejected, never wrapped to thread 0 / limit 1.
      {"/debug/flight?thread=18446744073709551616", &recorder, 400},
      {"/debug/flight?limit=18446744073709551617", &recorder, 400},
      {"/debug/build", nullptr, 200},
      {"/healthz", nullptr, 200},
      {"/nope", nullptr, 404},
  };
  for (const Case& c : cases) {
    const HttpRequest request = make_request("GET", c.path);
    obs::DebugSources sources;
    sources.flight = c.flight;
    const HttpResponse exporter = obs::route_debug_request(request, sources);
    const HttpResponse gateway = route_gateway_request(
        request, link, nullptr, GatewayConfig{.flight = c.flight});
    EXPECT_EQ(exporter.status, c.status) << c.path;
    EXPECT_EQ(gateway.status, c.status) << c.path;
    EXPECT_EQ(gateway.body, exporter.body) << c.path;
  }
}

// ------------------------------------------------- webhook delivery --

TEST(Webhook, ParseUrlAcceptsHostPortPathAndRejectsTheRest) {
  std::string error;
  const auto full =
      obs::parse_webhook_url("http://127.0.0.1:9920/hooks/alerts", &error);
  ASSERT_TRUE(full.has_value()) << error;
  EXPECT_EQ(full->host, "127.0.0.1");
  EXPECT_EQ(full->port, 9920);
  EXPECT_EQ(full->path, "/hooks/alerts");

  const auto bare = obs::parse_webhook_url("http://alerthost:80", &error);
  ASSERT_TRUE(bare.has_value()) << error;
  EXPECT_EQ(bare->host, "alerthost");
  EXPECT_EQ(bare->port, 80);
  EXPECT_EQ(bare->path, "/");

  EXPECT_FALSE(obs::parse_webhook_url("https://h:1/x", &error).has_value());
  EXPECT_FALSE(obs::parse_webhook_url("http://noport/x", &error).has_value());
  EXPECT_FALSE(obs::parse_webhook_url("http://:90/x", &error).has_value());
  EXPECT_FALSE(obs::parse_webhook_url("http://h:0/x", &error).has_value());
  EXPECT_FALSE(obs::parse_webhook_url("http://h:99999/x", &error).has_value());
  // 2^64 + 8080: a port read without an overflow check wraps to 8080.
  EXPECT_FALSE(
      obs::parse_webhook_url("http://127.0.0.1:18446744073709559696/", &error)
          .has_value());
  EXPECT_FALSE(obs::parse_webhook_url("ftp://h:90/x", &error).has_value());
  EXPECT_FALSE(obs::parse_webhook_url("", &error).has_value());
}

TEST(Webhook, DeliversTransitionsToALiveEndpoint) {
  std::mutex seen_mutex;
  std::vector<std::string> seen_bodies;
  std::vector<std::string> seen_paths;
  HttpServer endpoint([&](const HttpRequest& r) {
    std::lock_guard<std::mutex> lock(seen_mutex);
    seen_bodies.push_back(r.body);
    seen_paths.push_back(r.method + " " + r.path);
    return text_response(200, "ok");
  });
  ASSERT_GT(endpoint.port(), 0);

  obs::WebhookConfig cfg;
  cfg.port = endpoint.port();
  cfg.path = "/hooks/alerts";
  obs::WebhookSender sender(cfg);
  obs::MetricsRegistry registry;
  sender.bind_metrics(&registry);

  // Delivery rides the SLO monitor's sink plumbing, exactly as wired in
  // the example binary.
  obs::SloMonitor slo;
  slo.set_alert_sink(&sender);
  obs::AlertTransition fire;
  fire.t_hours = 12.5;
  fire.sli = "submit_latency";
  fire.firing = true;
  fire.value = 0.09;
  fire.budget = 0.05;
  fire.fast_burn = 3.0;
  fire.slow_burn = 1.8;
  fire.samples = 640;
  slo.report_transition(fire);
  obs::AlertTransition resolve = fire;
  resolve.firing = false;
  resolve.t_hours = 13.0;
  slo.report_transition(resolve);

  ASSERT_TRUE(sender.flush(5.0));
  EXPECT_EQ(sender.delivered_total(), 2u);
  EXPECT_EQ(sender.failed_total(), 0u);
  EXPECT_EQ(sender.dropped_total(), 0u);

  std::lock_guard<std::mutex> lock(seen_mutex);
  ASSERT_EQ(seen_bodies.size(), 2u);
  EXPECT_EQ(seen_paths[0], "POST /hooks/alerts");
  EXPECT_EQ(seen_bodies[0], obs::webhook_body(fire));
  EXPECT_EQ(seen_bodies[1], obs::webhook_body(resolve));
  EXPECT_NE(seen_bodies[0].find("\"event\":\"fire\""), std::string::npos);
  EXPECT_NE(seen_bodies[1].find("\"event\":\"resolve\""),
            std::string::npos);

  // The counters surfaced through the registry match the atomics.
  const obs::RegistrySnapshot snap = registry.snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "mfcp_alert_webhook_delivered_total") {
      EXPECT_EQ(value, 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  endpoint.stop();
}

TEST(Webhook, FailedDeliveriesAreCountedAndNeverBlock) {
  // Grab a port that was live and is now closed: connection refused.
  std::uint16_t dead_port = 0;
  {
    HttpServer ephemeral(
        [](const HttpRequest&) { return text_response(200, "ok"); });
    dead_port = ephemeral.port();
    ephemeral.stop();
  }
  obs::WebhookConfig cfg;
  cfg.port = dead_port;
  obs::WebhookSender sender(cfg);

  obs::AlertTransition t;
  t.sli = "round_cadence";
  t.firing = true;
  const auto notify_start = std::chrono::steady_clock::now();
  sender.notify(t);
  const double notify_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    notify_start)
          .count();
  // notify() only enqueues — even with a dead endpoint it returns
  // immediately (well under the delivery timeout).
  EXPECT_LT(notify_seconds, 0.1);

  ASSERT_TRUE(sender.flush(5.0));
  EXPECT_EQ(sender.delivered_total(), 0u);
  EXPECT_EQ(sender.failed_total(), 1u);
}

}  // namespace
}  // namespace mfcp::net
