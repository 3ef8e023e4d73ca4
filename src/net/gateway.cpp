#include "net/gateway.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>

#include "net/json.hpp"
#include "obs/debug_routes.hpp"
#include "obs/sinks.hpp"

namespace mfcp::net {
namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

std::string lower(std::string_view v) {
  std::string out(v);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::optional<sim::TaskFamily> parse_family(std::string_view v) {
  const std::string s = lower(v);
  if (s == "cnn") return sim::TaskFamily::kCnn;
  if (s == "transformer") return sim::TaskFamily::kTransformer;
  if (s == "rnn") return sim::TaskFamily::kRnn;
  if (s == "mlp") return sim::TaskFamily::kMlp;
  return std::nullopt;
}

std::optional<sim::DatasetKind> parse_dataset(std::string_view v) {
  const std::string s = lower(v);
  if (s == "cifar-10" || s == "cifar10") return sim::DatasetKind::kCifar10;
  if (s == "imagenet") return sim::DatasetKind::kImageNet;
  if (s == "europarl") return sim::DatasetKind::kEuroparl;
  return std::nullopt;
}

/// Reads field `name` as an integer in [lo, hi] into `out`. Returns an
/// error message, or empty on success / absence (absence keeps `out`).
std::string read_int_field(const std::map<std::string, JsonValue>& fields,
                           const std::string& name, int lo, int hi,
                           int& out) {
  const auto it = fields.find(name);
  if (it == fields.end()) {
    return {};
  }
  if (it->second.kind != JsonValue::Kind::kNumber) {
    return name + " must be a number";
  }
  const double v = it->second.num;
  if (v != std::floor(v) || v < lo || v > hi) {
    return name + " must be an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
  }
  out = static_cast<int>(v);
  return {};
}

/// Route label for the request metrics: a small closed set so the metric
/// family stays bounded no matter what paths clients probe.
std::string_view route_label(const HttpRequest& request) {
  const std::string& path = request.path;
  if (path == "/submit") return "/submit";
  if (path.rfind("/task/", 0) == 0) return "/task";
  if (path.rfind("/trace/", 0) == 0) return "/trace";
  if (path == "/alerts") return "/alerts";
  if (path == "/ratekeeper") return "/ratekeeper";
  if (path == "/stats") return "/stats";
  if (path == "/metrics") return "/metrics";
  if (path == "/healthz") return "/healthz";
  if (matches_route(path, "/debug/flight")) return "/debug/flight";
  if (path == "/debug/threads") return "/debug/threads";
  if (matches_route(path, "/debug/profile")) return "/debug/profile";
  if (path == "/debug/build") return "/debug/build";
  if (path == "/debug/storage") return "/debug/storage";
  if (matches_route(path, "/journal")) return "/journal";
  return "other";
}

std::optional<std::uint64_t> parse_task_id(std::string_view path) {
  constexpr std::string_view kPrefix = "/task/";
  if (path.rfind(kPrefix, 0) != 0) {
    return std::nullopt;
  }
  return parse_u64(path.substr(kPrefix.size()));
}

HttpResponse handle_submit(const HttpRequest& request,
                           engine::GatewayLink& link) {
  SubmitParse parsed = parse_submit_body(request.body);
  if (!parsed.ok) {
    return error_json(400, parsed.error);
  }
  const engine::SubmitTicket ticket =
      link.submit(parsed.task, parsed.deadline_hours, parsed.client);
  if (!ticket.accepted) {
    HttpResponse r = json_response(
        429, "{\"accepted\":false,\"retry_after_seconds\":" +
                 fmt_double(ticket.retry_after_seconds) +
                 ",\"pressure\":" + fmt_u64(ticket.pressure) +
                 ",\"throttled\":" +
                 (ticket.throttled ? "true" : "false") + "}\n");
    r.headers.emplace_back(
        "Retry-After",
        std::to_string(static_cast<long>(
            std::ceil(ticket.retry_after_seconds))));
    return r;
  }
  const std::string trace_hex = obs::format_trace_id(ticket.trace_id);
  HttpResponse r = json_response(
      200, "{\"accepted\":true,\"id\":" + fmt_u64(ticket.id) +
               ",\"pressure\":" + fmt_u64(ticket.pressure) +
               ",\"trace_id\":" + json_quote(trace_hex) +
               ",\"trace_sampled\":" +
               (ticket.trace_sampled ? "true" : "false") + "}\n");
  r.headers.emplace_back("X-Trace-Id", trace_hex);
  return r;
}

HttpResponse handle_task(const HttpRequest& request,
                         engine::GatewayLink& link) {
  const std::optional<std::uint64_t> id = parse_task_id(request.path);
  if (!id.has_value()) {
    return error_json(400, "task id must be a decimal integer");
  }
  const std::optional<engine::TaskStatus> status = link.status(*id);
  if (!status.has_value()) {
    if (link.table().was_evicted(*id)) {
      return error_json(410, "task status evicted (terminal, past cap)");
    }
    return error_json(404, "unknown task id");
  }
  return json_response(
      200, task_status_json(*id, *status, link.cluster_name(status->cluster)));
}

HttpResponse handle_trace(const HttpRequest& request,
                          obs::TraceStore* traces) {
  if (traces == nullptr) {
    return error_json(404, "tracing disabled");
  }
  constexpr std::string_view kPrefix = "/trace/";
  const std::optional<std::uint64_t> trace_id =
      obs::parse_trace_id(request.path.substr(kPrefix.size()));
  if (!trace_id.has_value()) {
    return error_json(400, "trace id must be 16 hex digits");
  }
  const std::optional<obs::TaskTrace> trace =
      traces->find_by_trace(*trace_id);
  if (!trace.has_value()) {
    return error_json(404, "unknown trace id (unsampled or evicted)");
  }
  return json_response(200, task_trace_json(*trace));
}

HttpResponse handle_alerts(engine::GatewayLink& link, obs::SloMonitor* slo) {
  if (slo == nullptr) {
    return error_json(404, "slo monitor disabled");
  }
  const double now = link.sim_time_hours();
  return json_response(200, slo_alerts_json(slo->evaluate(now), now));
}

HttpResponse handle_ratekeeper(const control::Ratekeeper* ratekeeper,
                               const control::TokenBucketTable* buckets) {
  if (ratekeeper == nullptr || buckets == nullptr) {
    return error_json(404, "ratekeeper disabled");
  }
  return json_response(
      200, ratekeeper_status_json(ratekeeper->status(), *buckets));
}

/// Parses "/journal?from=<h>&to=<h>" (either bound optional). Returns
/// false on a malformed pair, an unknown key, or from > to.
bool parse_journal_query(std::string_view path, double& from, double& to) {
  const auto params = parse_query(path);
  if (!params.has_value()) {
    return false;
  }
  for (const QueryParam& param : *params) {
    const std::optional<double> v = parse_finite_double(param.value);
    if (!v.has_value()) {
      return false;
    }
    if (param.key == "from") {
      from = *v;
    } else if (param.key == "to") {
      to = *v;
    } else {
      return false;
    }
  }
  return from <= to;
}

HttpResponse handle_journal(const HttpRequest& request,
                            const storage::StorageManager* storage) {
  if (storage == nullptr) {
    return text_response(404, "storage disabled\n");
  }
  double from = -std::numeric_limits<double>::max();
  double to = std::numeric_limits<double>::max();
  if (!parse_journal_query(request.path, from, to)) {
    return error_json(400, "bad journal window (from=<h>&to=<h>)");
  }
  const std::vector<std::string> lines = storage->journal().query(from, to);
  std::string body;
  for (const std::string& line : lines) {
    body += line;
    body += '\n';
  }
  HttpResponse r = text_response(200, std::move(body));
  r.content_type = "application/x-ndjson";
  return r;
}

HttpResponse handle_debug_storage(const storage::StorageManager* storage) {
  if (storage == nullptr) {
    return text_response(404, "storage disabled\n");
  }
  const storage::StorageStatus st = storage->status();
  std::string out = "{\"dir\":" + json_quote(storage->config().dir);
  out += ",\"wal_records\":" + fmt_u64(st.wal_records);
  out += ",\"wal_bytes\":" + fmt_u64(st.wal_bytes);
  out += ",\"wal_fsyncs\":" + fmt_u64(st.wal_fsyncs);
  out += ",\"wal_segments\":" + fmt_u64(st.wal_segments);
  out += ",\"wal_last_seq\":" + fmt_u64(st.wal_last_seq);
  out += ",\"recovered_tasks\":" + fmt_u64(st.recovered_tasks);
  out += ",\"recovered_terminal\":" + fmt_u64(st.recovered_terminal);
  out += ",\"truncated_bytes\":" + fmt_u64(st.truncated_bytes);
  out += ",\"checkpoints\":" + fmt_u64(st.checkpoints);
  out += ",\"checkpoint_generation\":" + fmt_u64(st.checkpoint_generation);
  out += ",\"chunks\":" + fmt_u64(st.chunks);
  out += ",\"chunk_records\":" + fmt_u64(st.chunk_records);
  out += ",\"chunk_bytes\":" + fmt_u64(st.chunk_bytes);
  out += ",\"chunks_evicted\":" + fmt_u64(st.chunks_evicted);
  out += "}\n";
  return json_response(200, std::move(out));
}

}  // namespace

SubmitParse parse_submit_body(std::string_view body) {
  SubmitParse out;
  const auto fields = parse_json_object(body);
  if (!fields.has_value()) {
    out.error = "body must be a flat JSON object";
    return out;
  }
  for (const auto& [key, value] : *fields) {
    if (key != "family" && key != "dataset" && key != "depth" &&
        key != "width" && key != "batch_size" &&
        key != "dataset_fraction" && key != "deadline_hours" &&
        key != "client") {
      out.error = "unknown field: " + key;
      return out;
    }
    (void)value;
  }

  const auto family_it = fields->find("family");
  if (family_it == fields->end() ||
      family_it->second.kind != JsonValue::Kind::kString) {
    out.error = "family is required (cnn|transformer|rnn|mlp)";
    return out;
  }
  const auto family = parse_family(family_it->second.str);
  if (!family.has_value()) {
    out.error = "unknown family: " + family_it->second.str;
    return out;
  }
  out.task.family = *family;

  if (const auto it = fields->find("dataset"); it != fields->end()) {
    if (it->second.kind != JsonValue::Kind::kString) {
      out.error = "dataset must be a string";
      return out;
    }
    const auto dataset = parse_dataset(it->second.str);
    if (!dataset.has_value()) {
      out.error = "unknown dataset: " + it->second.str;
      return out;
    }
    out.task.dataset = *dataset;
  }

  if (std::string err =
          read_int_field(*fields, "depth", 1, 512, out.task.depth);
      !err.empty()) {
    out.error = std::move(err);
    return out;
  }
  if (std::string err =
          read_int_field(*fields, "width", 1, 65536, out.task.width);
      !err.empty()) {
    out.error = std::move(err);
    return out;
  }
  if (std::string err = read_int_field(*fields, "batch_size", 1, 65536,
                                       out.task.batch_size);
      !err.empty()) {
    out.error = std::move(err);
    return out;
  }
  if (const auto it = fields->find("dataset_fraction");
      it != fields->end()) {
    if (it->second.kind != JsonValue::Kind::kNumber ||
        !(it->second.num > 0.0) || it->second.num > 1.0) {
      out.error = "dataset_fraction must be a number in (0, 1]";
      return out;
    }
    out.task.dataset_fraction = it->second.num;
  }
  if (const auto it = fields->find("deadline_hours"); it != fields->end()) {
    if (it->second.kind != JsonValue::Kind::kNumber ||
        !(it->second.num > 0.0) || !std::isfinite(it->second.num)) {
      out.error = "deadline_hours must be a positive number";
      return out;
    }
    out.deadline_hours = it->second.num;
  }
  if (const auto it = fields->find("client"); it != fields->end()) {
    if (it->second.kind != JsonValue::Kind::kString ||
        it->second.str.empty() || it->second.str.size() > 64) {
      out.error = "client must be a string of 1..64 characters";
      return out;
    }
    for (const char c : it->second.str) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
      if (!ok) {
        out.error = "client may only contain [A-Za-z0-9._-]";
        return out;
      }
    }
    out.client = it->second.str;
  }
  out.ok = true;
  return out;
}

std::string task_status_json(std::uint64_t id,
                             const engine::TaskStatus& status,
                             std::string_view cluster_name) {
  std::string out = "{\"id\":" + fmt_u64(id) + ",\"state\":" +
                    json_quote(engine::to_string(status.state)) +
                    ",\"submit_hours\":" + fmt_double(status.submit_hours);
  const bool matched = status.state == engine::TaskState::kMatched ||
                       status.state == engine::TaskState::kDispatched;
  if (matched) {
    out += ",\"cluster\":" +
           fmt_u64(static_cast<std::uint64_t>(status.cluster)) +
           ",\"cluster_name\":" + json_quote(cluster_name) +
           ",\"predicted_hours\":" + fmt_double(status.predicted_hours) +
           ",\"round\":" + fmt_u64(status.round);
  }
  if (status.state == engine::TaskState::kDispatched) {
    out += ",\"realized_hours\":" + fmt_double(status.realized_hours);
    out += ",\"succeeded\":";
    out += status.succeeded ? "true" : "false";
  }
  out += "}\n";
  return out;
}

std::string service_stats_json(const engine::ServiceStats& s) {
  std::string out = "{";
  out += "\"draining\":";
  out += s.draining ? "true" : "false";
  out += ",\"inbox_depth\":" + fmt_u64(s.inbox_depth);
  out += ",\"queue_depth\":" + fmt_u64(s.queue_depth);
  out += ",\"accepted_total\":" + fmt_u64(s.submitted);
  out += ",\"rejected_busy_total\":" + fmt_u64(s.rejected_busy);
  out += ",\"rejected_throttled_total\":" + fmt_u64(s.rejected_throttled);
  out += ",\"rounds\":" + fmt_u64(s.rounds);
  out += ",\"round_tasks_matched\":" + fmt_u64(s.tasks_matched);
  out += ",\"sim_time_hours\":" + fmt_double(s.sim_time_hours);
  out += ",\"last_round_close_hours\":" +
         fmt_double(s.last_round_close_hours);
  out += ",\"round_seconds_ewma\":" + fmt_double(s.round_seconds_ewma);
  out += ",\"cumulative_regret\":" + fmt_double(s.cumulative_regret);
  out += ",\"tasks_submitted\":" + fmt_u64(s.tasks.submitted);
  out += ",\"tasks_queued\":" + fmt_u64(s.tasks.queued);
  out += ",\"tasks_matched\":" + fmt_u64(s.tasks.matched);
  out += ",\"tasks_dispatched\":" + fmt_u64(s.tasks.dispatched);
  out += ",\"tasks_expired\":" + fmt_u64(s.tasks.expired);
  out += ",\"tasks_rejected\":" + fmt_u64(s.tasks.rejected);
  out += ",\"recovered_tasks\":" + fmt_u64(s.recovered_tasks);
  out += ",\"recovered_terminal\":" + fmt_u64(s.recovered_terminal);
  out += "}\n";
  return out;
}

std::string task_trace_json(const obs::TaskTrace& trace) {
  std::string out =
      "{\"trace_id\":" + json_quote(obs::format_trace_id(trace.trace_id)) +
      ",\"task_id\":" + fmt_u64(trace.task_id) +
      ",\"submit_hours\":" + fmt_double(trace.submit_hours) +
      ",\"state\":" +
      json_quote(trace.finished() ? trace.final_state : "in_flight");
  out += ",\"complete\":";
  out += trace.finished() ? "true" : "false";
  out += ",\"spans\":" + fmt_u64(trace.spans.size());
  out += ",\"chain\":" + json_quote(trace.chain());
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const obs::TaskSpan& s = trace.spans[i];
    const std::string p = ",\"s" + std::to_string(i) + "_";
    out += p + "name\":" + json_quote(s.name);
    out += p + "start_hours\":" + fmt_double(s.start_hours);
    out += p + "end_hours\":" + fmt_double(s.end_hours);
    if (s.duration_ns != 0) {
      out += p + "duration_ns\":" + fmt_u64(s.duration_ns);
    }
    if (s.value != 0.0) {
      out += p + "value\":" + fmt_double(s.value);
    }
    if (!s.detail.empty()) {
      out += p + "detail\":" + json_quote(s.detail);
    }
  }
  out += "}\n";
  return out;
}

std::string slo_alerts_json(const std::vector<obs::SloState>& states,
                            double now_hours) {
  std::uint64_t firing = 0;
  for (const obs::SloState& s : states) {
    firing += s.firing ? 1 : 0;
  }
  std::string out = "{\"now_hours\":" + fmt_double(now_hours) +
                    ",\"rules\":" + fmt_u64(states.size()) +
                    ",\"firing_total\":" + fmt_u64(firing);
  for (const obs::SloState& s : states) {
    out += ",\"" + s.sli + "_value\":" + fmt_double(s.value);
    out += ",\"" + s.sli + "_budget\":" + fmt_double(s.budget);
    out += ",\"" + s.sli + "_fast_burn\":" + fmt_double(s.fast_burn);
    out += ",\"" + s.sli + "_slow_burn\":" + fmt_double(s.slow_burn);
    out += ",\"" + s.sli + "_firing\":";
    out += s.firing ? "true" : "false";
    out += ",\"" + s.sli + "_samples\":" + fmt_u64(s.samples);
  }
  out += "}\n";
  return out;
}

std::string ratekeeper_status_json(const control::RatekeeperStatus& status,
                                   const control::TokenBucketTable& buckets) {
  const std::vector<control::BucketView> views = buckets.snapshot();
  std::string out = "{\"rate_per_hour\":" + fmt_double(status.rate_per_hour);
  out += ",\"limiting_signal\":" +
         json_quote(control::to_string(status.limiting));
  out += ",\"pressure\":" + fmt_double(status.pressure);
  out += ",\"queue_pressure\":" + fmt_double(status.queue_pressure);
  out += ",\"wait_pressure\":" + fmt_double(status.wait_pressure);
  out += ",\"expiry_pressure\":" + fmt_double(status.expiry_pressure);
  out += ",\"burn_pressure\":" + fmt_double(status.burn_pressure);
  out += ",\"admitted_rate_per_hour\":" +
         fmt_double(status.admitted_rate_per_hour);
  out += ",\"ticks\":" + fmt_u64(status.ticks);
  out += ",\"decreases\":" + fmt_u64(status.decreases);
  out += ",\"recoveries\":" + fmt_u64(status.recoveries);
  out += ",\"throttled_total\":" + fmt_u64(buckets.throttled_total());
  out += ",\"admitted_total\":" + fmt_u64(buckets.admitted_total());
  out += ",\"evicted_total\":" + fmt_u64(buckets.evicted_total());
  out += ",\"clients\":" + fmt_u64(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    const control::BucketView& v = views[i];
    const std::string p = ",\"b" + std::to_string(i) + "_";
    out += p + "client\":" + json_quote(v.client);
    out += p + "tokens\":" + fmt_double(v.tokens);
    out += p + "rate_per_hour\":" + fmt_double(v.rate_per_hour);
    out += p + "admitted\":" + fmt_u64(v.admitted);
    out += p + "throttled\":" + fmt_u64(v.throttled);
  }
  out += "}\n";
  return out;
}

HttpResponse route_gateway_request(const HttpRequest& request,
                                   engine::GatewayLink& link,
                                   obs::MetricsRegistry* registry,
                                   const GatewayConfig& sources) {
  if (!request.valid) {
    return text_response(400, "bad request\n");
  }
  if (request.path == "/submit") {
    if (request.method != "POST") {
      HttpResponse r = text_response(405, "method not allowed\n");
      r.headers.emplace_back("Allow", "POST");
      return r;
    }
    return handle_submit(request, link);
  }
  if (request.method == "GET") {
    if (request.path.rfind("/task/", 0) == 0) {
      return handle_task(request, link);
    }
    if (request.path.rfind("/trace/", 0) == 0) {
      return handle_trace(request, sources.traces);
    }
    if (request.path == "/alerts") {
      return handle_alerts(link, sources.slo);
    }
    if (request.path == "/ratekeeper") {
      return handle_ratekeeper(sources.ratekeeper, sources.buckets);
    }
    if (request.path == "/debug/storage") {
      return handle_debug_storage(sources.storage);
    }
    if (matches_route(request.path, "/journal")) {
      return handle_journal(request, sources.storage);
    }
    if (request.path == "/stats") {
      return json_response(200, service_stats_json(link.stats()));
    }
  }
  // Everything else — the observability routes, 404 and 405 — is the
  // table the metrics exporter serves too.
  obs::DebugSources debug;
  if (registry != nullptr) {
    debug.snapshot = [registry] { return registry->snapshot(); };
  }
  debug.flight = sources.flight;
  debug.profiler = sources.profiler;
  return obs::route_debug_request(request, debug);
}

PlatformGateway::PlatformGateway(engine::GatewayLink& link,
                                 obs::MetricsRegistry* registry,
                                 obs::TraceRing* trace, GatewayConfig config)
    : link_(link), registry_(registry), trace_(trace), config_(config) {
  if (registry_ != nullptr) {
    submit_seconds_ = &registry_->histogram("mfcp_gateway_submit_seconds",
                                            obs::default_time_bounds());
    if (config_.slo != nullptr) {
      config_.slo->bind_metrics(registry_);
    }
  }
  server_ = std::make_unique<HttpServer>(
      [this](const HttpRequest& request) { return handle(request); },
      config_.http);
}

HttpResponse PlatformGateway::handle(const HttpRequest& request) {
  const bool is_submit = request.valid && request.path == "/submit" &&
                         request.method == "POST";
  obs::ScopedSpan span(is_submit ? submit_seconds_ : nullptr,
                       "gateway_submit", is_submit ? trace_ : nullptr);
  HttpResponse response =
      route_gateway_request(request, link_, registry_, config_);
  const double seconds = span.stop();
  if (is_submit && config_.slo != nullptr) {
    config_.slo->observe_submit(link_.sim_time_hours(), seconds);
  }
  if (registry_ != nullptr) {
    registry_
        ->counter("mfcp_gateway_requests_total{route=\"" +
                  std::string(route_label(request)) + "\",status=\"" +
                  std::to_string(response.status) + "\"}")
        .add(1);
  }
  return response;
}

}  // namespace mfcp::net
