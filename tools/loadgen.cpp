// Closed-loop HTTP load generator for the platform gateway.
//
// N worker threads each run a submit loop against POST /submit: draw a
// random task descriptor, send it, record the outcome and latency, and
// (when --rate is set) pace themselves against a shared schedule so the
// offered load approximates the requested arrivals/second; --rate 0 is
// the pure closed loop, each worker submitting as fast as its previous
// response returns.
//
// After the configured duration the generator stops offering load, waits
// for the platform to drain (polling GET /stats until nothing is queued
// or --drain-seconds elapses), spot-checks a few accepted ids against
// GET /task/<id>, and prints a deterministic-format report:
//
//   loadgen: requests=... accepted=... rejected_429=... ...
//   loadgen: latency_ms p50=... p90=... p99=... max=...
//   loadgen: conservation submitted=... ... : OK
//
// The conservation line asserts the gateway's core promise: every
// accepted task is in exactly one of queued / matched / dispatched /
// expired / rejected — accepted work is never silently lost. Exit code 0
// on success, 1 on a conservation or validation failure, 2 on usage or
// total transport failure.
//
// Restart verification: --resume-report <prior.json> reads a previous
// run's --report-json output and asserts the (restarted) platform still
// accounts for every acceptance the prior run observed:
//
//   recovered_tasks + recovered_terminal >= prior accepted
//
// (>=, not ==: the WAL append precedes the HTTP 200, so a kill between
// the two leaves acceptances the client never saw). The merged totals
// across both runs are printed and folded into this run's report JSON.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "net/http_client.hpp"
#include "net/json.hpp"
#include "support/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  int concurrency = 4;
  double rate = 0.0;  // offered arrivals/second across all workers; 0 = max
  double duration_seconds = 5.0;
  double drain_seconds = 15.0;
  int timeout_ms = 5000;
  std::uint64_t seed = 0x10adULL;
  /// Distinct client identities to spread submissions across (worker w
  /// submits as "client-<w mod clients>"). 0 = no client field, so every
  /// submission lands in the gateway's anonymous bucket.
  int clients = 0;
  /// When set, the final report is also written as one JSON line — the
  /// same numbers the human-readable loadgen: lines print — so CI can
  /// archive and diff runs without scraping stdout.
  std::string report_json_path;
  /// When set, a prior run's report JSON: this run additionally asserts
  /// the platform's WAL recovery accounts for every acceptance that run
  /// observed, and merges the two runs' counts in the output.
  std::string resume_report_path;
};

/// One accepted submit, kept so the report can attribute its slowest
/// requests to a specific task trace (GET /trace/<trace_id>).
struct AcceptedSample {
  double ms = 0.0;
  std::uint64_t id = 0;
  std::string trace_id;  // 16-hex from the submit response
};

struct WorkerStats {
  std::uint64_t requests = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_429 = 0;
  std::uint64_t throttled_429 = 0;  // the rate-limited subset of the 429s
  std::uint64_t http_other = 0;
  std::uint64_t transport_errors = 0;
  std::vector<double> latencies_ms;
  std::vector<std::uint64_t> accepted_ids;
  std::vector<AcceptedSample> accepted_samples;
};

std::string random_task_body(mfcp::Rng& rng, const std::string& client) {
  static const char* kFamilies[] = {"cnn", "transformer", "rnn", "mlp"};
  const std::uint64_t f = rng.uniform_index(4);
  // Family/dataset pairings mirror the simulator: CV models on image
  // datasets, NLP models on Europarl.
  const char* dataset = "cifar-10";
  if (f == 1 || f == 2) {
    dataset = "europarl";
  } else if (rng.bernoulli(0.3)) {
    dataset = "imagenet";
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"family\":\"%s\",\"dataset\":\"%s\",\"depth\":%d,"
                "\"width\":%d,\"batch_size\":%d,\"dataset_fraction\":%.2f",
                kFamilies[f], dataset,
                static_cast<int>(2 + rng.uniform_index(30)),
                static_cast<int>(32 + 32 * rng.uniform_index(16)),
                static_cast<int>(16 + 16 * rng.uniform_index(16)),
                0.1 + 0.9 * rng.uniform());
  std::string body = buf;
  if (!client.empty()) {
    body += ",\"client\":\"" + client + "\"";
  }
  body += "}";
  return body;
}

void submit_loop(const Options& opt, int worker, Clock::time_point t0,
                 std::atomic<std::uint64_t>& ticket, mfcp::Rng rng,
                 WorkerStats& stats) {
  const auto deadline =
      t0 + std::chrono::duration<double>(opt.duration_seconds);
  // Stable per-worker identity: with --clients K the workers cycle
  // through client-0 .. client-(K-1), exercising the gateway's per-client
  // token buckets.
  std::string client;
  if (opt.clients > 0) {
    client = "client-" + std::to_string(worker % opt.clients);
  }
  for (;;) {
    if (opt.rate > 0.0) {
      // Shared open-loop schedule: ticket i fires at t0 + i/rate.
      const std::uint64_t i =
          ticket.fetch_add(1, std::memory_order_relaxed);
      const auto fire =
          t0 + std::chrono::duration<double>(static_cast<double>(i) /
                                             opt.rate);
      if (fire >= deadline) {
        return;
      }
      std::this_thread::sleep_until(fire);
    } else if (Clock::now() >= deadline) {
      return;
    }

    const std::string body = random_task_body(rng, client);
    const auto start = Clock::now();
    const mfcp::net::ClientResponse r =
        mfcp::net::http_call(opt.host, static_cast<std::uint16_t>(opt.port),
                             "POST", "/submit", body, opt.timeout_ms);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    ++stats.requests;
    if (!r.ok) {
      ++stats.transport_errors;
      continue;
    }
    stats.latencies_ms.push_back(ms);
    if (r.status == 200) {
      ++stats.accepted;
      const auto fields = mfcp::net::parse_json_object(r.body);
      if (fields.has_value()) {
        const auto it = fields->find("id");
        if (it != fields->end() &&
            it->second.kind == mfcp::net::JsonValue::Kind::kNumber) {
          const auto id = static_cast<std::uint64_t>(it->second.num);
          stats.accepted_ids.push_back(id);
          AcceptedSample sample;
          sample.ms = ms;
          sample.id = id;
          const auto trace = fields->find("trace_id");
          if (trace != fields->end() &&
              trace->second.kind == mfcp::net::JsonValue::Kind::kString) {
            sample.trace_id = trace->second.str;
          }
          stats.accepted_samples.push_back(std::move(sample));
        }
      }
    } else if (r.status == 429) {
      ++stats.rejected_429;
      const auto fields = mfcp::net::parse_json_object(r.body);
      if (fields.has_value()) {
        const auto it = fields->find("throttled");
        if (it != fields->end() &&
            it->second.kind == mfcp::net::JsonValue::Kind::kBool &&
            it->second.boolean) {
          ++stats.throttled_429;
        }
      }
      // Honor a fraction of the advised backoff so a saturated platform
      // is not hammered at full closed-loop speed, while still probing
      // recovery faster than a compliant client would.
      const std::string_view retry = r.header("retry-after");
      double seconds = 0.05;
      if (!retry.empty()) {
        seconds = std::min(0.25, std::atof(std::string(retry).c_str()) * 0.1);
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    } else {
      ++stats.http_other;
    }
  }
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::uint64_t stat_u64(const std::map<std::string, mfcp::net::JsonValue>& s,
                       const std::string& key) {
  const auto it = s.find(key);
  if (it == s.end() || it->second.kind != mfcp::net::JsonValue::Kind::kNumber) {
    return 0;
  }
  return static_cast<std::uint64_t>(it->second.num);
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port P [--host H] [--concurrency N] [--rate R]\n"
      "          [--duration-seconds S] [--drain-seconds S]\n"
      "          [--timeout-ms MS] [--seed N] [--clients K]\n"
      "          [--report-json <path>] [--resume-report <prior.json>]\n",
      argv0);
  return 2;
}

/// Reads the prior run's report JSON (one flat object) into `fields`.
bool read_report_json(const std::string& path,
                      std::map<std::string, mfcp::net::JsonValue>& fields) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  std::string body;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    body.append(buf, n);
  }
  std::fclose(f);
  const auto parsed = mfcp::net::parse_json_object(body);
  if (!parsed.has_value()) {
    return false;
  }
  fields = *parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  // Numeric flags go through the checked parsers; a malformed value (or
  // one too large for its field) is a usage error.
  const auto int_flag = [](const char* text, int& out) {
    const auto value = mfcp::net::parse_u64(text);
    if (!value || *value > static_cast<std::uint64_t>(INT_MAX)) {
      return false;
    }
    out = static_cast<int>(*value);
    return true;
  };
  const auto real_flag = [](const char* text, double& out) {
    const auto value = mfcp::net::parse_finite_double(text);
    out = value.value_or(0.0);
    return value.has_value();
  };
  for (int k = 1; k < argc; ++k) {
    bool ok = true;
    if (std::strcmp(argv[k], "--port") == 0 && k + 1 < argc) {
      ok = int_flag(argv[++k], opt.port);
    } else if (std::strcmp(argv[k], "--host") == 0 && k + 1 < argc) {
      opt.host = argv[++k];
    } else if (std::strcmp(argv[k], "--concurrency") == 0 && k + 1 < argc) {
      ok = int_flag(argv[++k], opt.concurrency);
    } else if (std::strcmp(argv[k], "--rate") == 0 && k + 1 < argc) {
      ok = real_flag(argv[++k], opt.rate);
    } else if (std::strcmp(argv[k], "--duration-seconds") == 0 &&
               k + 1 < argc) {
      ok = real_flag(argv[++k], opt.duration_seconds);
    } else if (std::strcmp(argv[k], "--drain-seconds") == 0 && k + 1 < argc) {
      ok = real_flag(argv[++k], opt.drain_seconds);
    } else if (std::strcmp(argv[k], "--timeout-ms") == 0 && k + 1 < argc) {
      ok = int_flag(argv[++k], opt.timeout_ms);
    } else if (std::strcmp(argv[k], "--seed") == 0 && k + 1 < argc) {
      const auto seed = mfcp::net::parse_u64(argv[++k]);
      opt.seed = seed.value_or(0);
      ok = seed.has_value();
    } else if (std::strcmp(argv[k], "--clients") == 0 && k + 1 < argc) {
      ok = int_flag(argv[++k], opt.clients);
    } else if (std::strcmp(argv[k], "--report-json") == 0 && k + 1 < argc) {
      opt.report_json_path = argv[++k];
    } else if (std::strcmp(argv[k], "--resume-report") == 0 && k + 1 < argc) {
      opt.resume_report_path = argv[++k];
    } else {
      ok = false;
    }
    if (!ok) {
      return usage(argv[0]);
    }
  }
  if (opt.port <= 0 || opt.port > 65535 || opt.concurrency < 1 ||
      opt.clients < 0) {
    return usage(argv[0]);
  }

  // Load the prior run's report up front so a bad path fails before any
  // load is offered.
  std::map<std::string, mfcp::net::JsonValue> prior_report;
  if (!opt.resume_report_path.empty() &&
      !read_report_json(opt.resume_report_path, prior_report)) {
    std::fprintf(stderr, "loadgen: cannot read prior report %s\n",
                 opt.resume_report_path.c_str());
    return 2;
  }

  std::printf("loadgen: target http://%s:%d concurrency=%d rate=%.3g "
              "duration_seconds=%.3g\n",
              opt.host.c_str(), opt.port, opt.concurrency, opt.rate,
              opt.duration_seconds);

  mfcp::Rng root(opt.seed);
  std::vector<WorkerStats> per_worker(
      static_cast<std::size_t>(opt.concurrency));
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> ticket{0};
  const auto t0 = Clock::now();
  for (int w = 0; w < opt.concurrency; ++w) {
    workers.emplace_back(submit_loop, std::cref(opt), w, t0,
                         std::ref(ticket), root.split(),
                         std::ref(per_worker[w]));
  }
  for (std::thread& t : workers) {
    t.join();
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  WorkerStats total;
  for (const WorkerStats& w : per_worker) {
    total.requests += w.requests;
    total.accepted += w.accepted;
    total.rejected_429 += w.rejected_429;
    total.throttled_429 += w.throttled_429;
    total.http_other += w.http_other;
    total.transport_errors += w.transport_errors;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              w.latencies_ms.begin(), w.latencies_ms.end());
    total.accepted_ids.insert(total.accepted_ids.end(),
                              w.accepted_ids.begin(), w.accepted_ids.end());
    total.accepted_samples.insert(total.accepted_samples.end(),
                                  w.accepted_samples.begin(),
                                  w.accepted_samples.end());
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());

  std::printf("loadgen: requests=%" PRIu64 " accepted=%" PRIu64
              " rejected_429=%" PRIu64 " throttled_429=%" PRIu64
              " http_other=%" PRIu64 " transport_errors=%" PRIu64 "\n",
              total.requests, total.accepted, total.rejected_429,
              total.throttled_429, total.http_other,
              total.transport_errors);
  std::printf("loadgen: achieved_qps=%.2f\n",
              elapsed > 0.0 ? static_cast<double>(total.requests) / elapsed
                            : 0.0);
  std::printf("loadgen: latency_ms p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
              quantile(total.latencies_ms, 0.50),
              quantile(total.latencies_ms, 0.90),
              quantile(total.latencies_ms, 0.99),
              total.latencies_ms.empty() ? 0.0
                                         : total.latencies_ms.back());

  // Slowest accepted submits, with their trace ids, so a latency outlier
  // in a smoke run is attributable to one task's span chain.
  std::sort(total.accepted_samples.begin(), total.accepted_samples.end(),
            [](const AcceptedSample& a, const AcceptedSample& b) {
              return a.ms > b.ms;
            });
  const std::size_t slow_k =
      std::min<std::size_t>(5, total.accepted_samples.size());
  for (std::size_t i = 0; i < slow_k; ++i) {
    const AcceptedSample& s = total.accepted_samples[i];
    std::printf("loadgen: slowest[%zu] ms=%.3f id=%" PRIu64 " trace=%s\n", i,
                s.ms, s.id,
                s.trace_id.empty() ? "-" : s.trace_id.c_str());
  }

  if (total.requests == 0 || total.transport_errors == total.requests) {
    std::fprintf(stderr, "loadgen: no successful requests\n");
    return 2;
  }

  // Drain: stop offering load and wait for the platform to settle.
  const auto drain_start = Clock::now();
  std::map<std::string, mfcp::net::JsonValue> stats;
  for (;;) {
    const mfcp::net::ClientResponse r =
        mfcp::net::http_call(opt.host, static_cast<std::uint16_t>(opt.port),
                             "GET", "/stats", {}, opt.timeout_ms);
    if (r.ok && r.status == 200) {
      const auto parsed = mfcp::net::parse_json_object(r.body);
      if (parsed.has_value()) {
        stats = *parsed;
        if (stat_u64(stats, "tasks_queued") == 0 &&
            stat_u64(stats, "inbox_depth") == 0) {
          break;
        }
      }
    }
    if (std::chrono::duration<double>(Clock::now() - drain_start).count() >=
        opt.drain_seconds) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  const double drain_waited =
      std::chrono::duration<double>(Clock::now() - drain_start).count();

  const std::uint64_t submitted = stat_u64(stats, "tasks_submitted");
  const std::uint64_t queued = stat_u64(stats, "tasks_queued");
  const std::uint64_t matched = stat_u64(stats, "tasks_matched");
  const std::uint64_t dispatched = stat_u64(stats, "tasks_dispatched");
  const std::uint64_t expired = stat_u64(stats, "tasks_expired");
  const std::uint64_t rejected = stat_u64(stats, "tasks_rejected");
  std::printf("loadgen: drain queued=%" PRIu64 " inbox=%" PRIu64
              " waited_seconds=%.2f\n",
              queued, stat_u64(stats, "inbox_depth"), drain_waited);

  // Spot-check a few accepted ids end to end. A 410 is not a failure: the
  // gateway's bounded status table evicts terminal tasks FIFO, so under
  // enough churn an old id is legitimately gone.
  std::uint64_t status_checked = 0;
  std::uint64_t status_bad = 0;
  std::uint64_t status_evicted = 0;
  const std::size_t step =
      std::max<std::size_t>(1, total.accepted_ids.size() / 16);
  for (std::size_t i = 0; i < total.accepted_ids.size(); i += step) {
    const std::uint64_t id = total.accepted_ids[i];
    const mfcp::net::ClientResponse r = mfcp::net::http_call(
        opt.host, static_cast<std::uint16_t>(opt.port), "GET",
        "/task/" + std::to_string(id), {}, opt.timeout_ms);
    ++status_checked;
    if (r.ok && r.status == 410) {
      ++status_evicted;
      continue;
    }
    if (!r.ok || r.status != 200) {
      ++status_bad;
      continue;
    }
    const auto parsed = mfcp::net::parse_json_object(r.body);
    if (!parsed.has_value() || stat_u64(*parsed, "id") != id) {
      ++status_bad;
    }
  }
  std::printf("loadgen: status_checked=%" PRIu64 " status_bad=%" PRIu64
              " status_evicted=%" PRIu64 "\n",
              status_checked, status_bad, status_evicted);

  // Conservation: every accepted task is in exactly one lifecycle state,
  // and the platform accepted at least what this client saw accepted
  // (other clients may add to `submitted`; nothing may vanish from it).
  const std::uint64_t accounted =
      queued + matched + dispatched + expired + rejected;
  const bool conserved =
      accounted == submitted && submitted >= total.accepted;
  std::printf("loadgen: conservation submitted=%" PRIu64 " queued=%" PRIu64
              " matched=%" PRIu64 " dispatched=%" PRIu64 " expired=%" PRIu64
              " rejected=%" PRIu64 " : %s\n",
              submitted, queued, matched, dispatched, expired, rejected,
              conserved ? "OK" : "FAILED");

  // Restart verification: every acceptance the prior run observed must be
  // covered by this incarnation's WAL recovery — either replayed into the
  // queue (recovered_tasks) or already terminal in the log
  // (recovered_terminal). >= because a kill between the WAL append and
  // the HTTP 200 leaves acceptances the prior client never counted.
  const std::uint64_t prior_accepted = stat_u64(prior_report, "accepted");
  const std::uint64_t recovered_tasks = stat_u64(stats, "recovered_tasks");
  const std::uint64_t recovered_terminal =
      stat_u64(stats, "recovered_terminal");
  bool resume_ok = true;
  if (!opt.resume_report_path.empty()) {
    resume_ok = recovered_tasks + recovered_terminal >= prior_accepted;
    std::printf("loadgen: resume prior_accepted=%" PRIu64
                " recovered_tasks=%" PRIu64 " recovered_terminal=%" PRIu64
                " : %s\n",
                prior_accepted, recovered_tasks, recovered_terminal,
                resume_ok ? "OK" : "FAILED");
    std::printf("loadgen: merged accepted=%" PRIu64 " requests=%" PRIu64
                "\n",
                prior_accepted + total.accepted,
                stat_u64(prior_report, "requests") + total.requests);
  }

  if (!opt.report_json_path.empty()) {
    FILE* report = std::fopen(opt.report_json_path.c_str(), "w");
    if (report == nullptr) {
      std::fprintf(stderr, "loadgen: cannot write report to %s\n",
                   opt.report_json_path.c_str());
      return 2;
    }
    std::fprintf(
        report,
        "{\"record\":\"loadgen_report\",\"requests\":%" PRIu64
        ",\"accepted\":%" PRIu64 ",\"rejected_429\":%" PRIu64
        ",\"throttled_429\":%" PRIu64 ",\"http_other\":%" PRIu64
        ",\"transport_errors\":%" PRIu64
        ",\"achieved_qps\":%.6g,\"latency_p50_ms\":%.6g"
        ",\"latency_p90_ms\":%.6g,\"latency_p99_ms\":%.6g"
        ",\"latency_max_ms\":%.6g,\"status_checked\":%" PRIu64
        ",\"status_bad\":%" PRIu64 ",\"status_evicted_410\":%" PRIu64
        ",\"submitted\":%" PRIu64 ",\"queued\":%" PRIu64
        ",\"matched\":%" PRIu64 ",\"dispatched\":%" PRIu64
        ",\"expired\":%" PRIu64 ",\"rejected\":%" PRIu64
        ",\"conserved\":%s",
        total.requests, total.accepted, total.rejected_429,
        total.throttled_429, total.http_other, total.transport_errors,
        elapsed > 0.0 ? static_cast<double>(total.requests) / elapsed : 0.0,
        quantile(total.latencies_ms, 0.50),
        quantile(total.latencies_ms, 0.90),
        quantile(total.latencies_ms, 0.99),
        total.latencies_ms.empty() ? 0.0 : total.latencies_ms.back(),
        status_checked, status_bad, status_evicted, submitted, queued,
        matched, dispatched, expired, rejected,
        conserved ? "true" : "false");
    if (!opt.resume_report_path.empty()) {
      std::fprintf(report,
                   ",\"prior_accepted\":%" PRIu64
                   ",\"recovered_tasks\":%" PRIu64
                   ",\"recovered_terminal\":%" PRIu64
                   ",\"merged_accepted\":%" PRIu64
                   ",\"resume_conserved\":%s",
                   prior_accepted, recovered_tasks, recovered_terminal,
                   prior_accepted + total.accepted,
                   resume_ok ? "true" : "false");
    }
    std::fprintf(report, "}\n");
    std::fclose(report);
    std::printf("loadgen: report written to %s\n",
                opt.report_json_path.c_str());
  }

  if (!conserved || !resume_ok || status_bad != 0) {
    return 1;
  }
  return 0;
}
