// Online platform quickstart: the engine serving a live arrival stream.
//
// Where examples/platform_simulation replays fixed-size rounds from a test
// split, this demo runs the full online spine: a Poisson arrival stream
// with deadlines flows through the bounded admission queue, the
// micro-batcher closes size-or-timeout matching rounds, each round is
// predicted + matched + dispatched, and observed outcomes feed the
// drift-aware online trainer. A mid-run hardware degradation shows the
// detector tripping and the predictor recovering.
//
// The run is fully instrumented: a metrics registry collects per-stage
// latency histograms, queue/batcher counters, and the drift gauges; a
// trace ring keeps the most recent stage spans; and a JSONL journal
// (online_platform.jsonl) records one deterministic line per round. The
// demo ends by printing the Prometheus text exposition.
//
// The registry is also served live over HTTP while the demo runs: scrape
// GET /metrics (Prometheus text) or GET /healthz on the printed port.
//
// Two modes:
//
//   batch (default)     consume the synthetic arrival stream to
//                       exhaustion, exporter on --serve-port
//   gateway             `--gateway-port N` starts the platform gateway
//                       (POST /submit, GET /task/<id>, /stats, /metrics,
//                       /healthz) and runs the engine in real-time serve
//                       mode until SIGINT/SIGTERM or --serve-seconds;
//                       tools/loadgen is the matching client
//
// Durability: `--data-dir DIR` arms the storage layer — every accepted
// task is WAL-logged before its 200 is sent, predictor+counters are
// checkpointed periodically, and the round journal is mirrored into a
// time-chunked store (GET /journal). On startup the engine recovers:
// latest valid snapshot plus WAL replay of acked-but-unterminal tasks,
// so a kill -9 mid-burst loses nothing that was acknowledged.
//
// Both modes shut down gracefully on SIGINT/SIGTERM: arrivals stop, the
// queue drains through flush rounds, the journal and span trace are
// flushed to disk, and the final metrics exposition is printed.
//
// Run:  ./build/examples/online_platform
//       ./build/examples/online_platform --serve-port 9464
//       ./build/examples/online_platform --linger-seconds 30
//           keeps the exporter up after the run so a scraper (or curl)
//           can read the final state — the CI smoke job relies on this.
//       ./build/examples/online_platform --gateway-port 0 --serve-seconds 10
//           serve mode on an ephemeral port, stopping after 10 s.
// Tip:  MFCP_LOG_LEVEL=info ./build/examples/online_platform
//       also prints drift/retrain log lines from inside the engine.
#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "control/ratekeeper.hpp"
#include "control/token_bucket.hpp"
#include "engine/engine.hpp"
#include "mfcp/trainer_tsm.hpp"
#include "net/gateway.hpp"
#include "net/http_server.hpp"
#include "obs/alert_webhook.hpp"
#include "obs/debug_routes.hpp"
#include "obs/flight.hpp"
#include "obs/profiler.hpp"
#include "obs/sinks.hpp"
#include "obs/slo.hpp"
#include "obs/trace_store.hpp"
#include "sim/dataset.hpp"

using namespace mfcp;

namespace {

// Signal handlers may only do async-signal-safe work: one atomic store.
// Both the engine (stop_flag) and the serve loop poll it.
std::atomic<bool> g_stop{false};

void handle_stop_signal(int /*signum*/) {
  g_stop.store(true, std::memory_order_relaxed);
}

void install_signal_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  int serve_port = 0;  // 0 = ephemeral, chosen by the kernel
  int linger_seconds = 0;
  int gateway_port = -1;  // -1 = batch mode; >= 0 starts the gateway
  double serve_seconds = 0.0;  // 0 = until SIGINT/SIGTERM
  double hours_per_second = 60.0;
  double trace_sample = 0.0;  // task-lifecycle trace sampling rate [0,1]
  bool ratekeeper_on = false;
  bool flight_on = false;
  bool profile_on = false;
  double stall_budget_seconds = 2.0;
  std::string slo_config_path;
  std::string alert_log_path;
  std::string alert_webhook_url;
  std::string data_dir;   // empty = durability off
  int retrain_every = 0;  // 0 = drift-triggered retraining only
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--serve-port") == 0 && k + 1 < argc) {
      serve_port = std::atoi(argv[++k]);
    } else if (std::strcmp(argv[k], "--linger-seconds") == 0 &&
               k + 1 < argc) {
      linger_seconds = std::atoi(argv[++k]);
    } else if (std::strcmp(argv[k], "--gateway-port") == 0 && k + 1 < argc) {
      gateway_port = std::atoi(argv[++k]);
    } else if (std::strcmp(argv[k], "--serve-seconds") == 0 && k + 1 < argc) {
      serve_seconds = std::atof(argv[++k]);
    } else if (std::strcmp(argv[k], "--sim-hours-per-second") == 0 &&
               k + 1 < argc) {
      hours_per_second = std::atof(argv[++k]);
    } else if (std::strcmp(argv[k], "--trace-sample") == 0 && k + 1 < argc) {
      trace_sample = std::atof(argv[++k]);
    } else if (std::strcmp(argv[k], "--ratekeeper") == 0) {
      ratekeeper_on = true;
    } else if (std::strcmp(argv[k], "--slo-config") == 0 && k + 1 < argc) {
      slo_config_path = argv[++k];
    } else if (std::strcmp(argv[k], "--alert-log") == 0 && k + 1 < argc) {
      alert_log_path = argv[++k];
    } else if (std::strcmp(argv[k], "--alert-webhook") == 0 && k + 1 < argc) {
      alert_webhook_url = argv[++k];
    } else if (std::strcmp(argv[k], "--flight") == 0) {
      flight_on = true;
    } else if (std::strcmp(argv[k], "--profile") == 0) {
      profile_on = true;
    } else if (std::strcmp(argv[k], "--stall-budget-seconds") == 0 &&
               k + 1 < argc) {
      stall_budget_seconds = std::atof(argv[++k]);
    } else if (std::strcmp(argv[k], "--data-dir") == 0 && k + 1 < argc) {
      data_dir = argv[++k];
    } else if (std::strcmp(argv[k], "--retrain-every") == 0 &&
               k + 1 < argc) {
      retrain_every = std::atoi(argv[++k]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--serve-port N] [--linger-seconds S]\n"
                   "          [--gateway-port N] [--serve-seconds S]\n"
                   "          [--sim-hours-per-second X] "
                   "[--trace-sample R]\n"
                   "          [--ratekeeper] [--slo-config FILE] "
                   "[--alert-log FILE]\n"
                   "          [--alert-webhook http://host:port/path]\n"
                   "          [--flight] [--stall-budget-seconds S] "
                   "[--profile]\n"
                   "          [--data-dir DIR] [--retrain-every N]\n",
                   argv[0]);
      return 2;
    }
  }
  const bool gateway_mode = gateway_port >= 0;
  install_signal_handlers();
  const std::size_t num_clusters = 3;

  // Environment + profiled dataset for pretraining.
  sim::Platform platform =
      sim::Platform::make_setting(sim::Setting::kA, num_clusters);
  sim::PseudoGnnEmbedder embedder;
  sim::DatasetConfig data_cfg;
  data_cfg.num_tasks = 100;
  const sim::Dataset profile =
      build_dataset(platform, embedder, data_cfg);

  Rng init(0x0417e5ULL);
  core::PlatformPredictor predictor(num_clusters, core::PredictorConfig{},
                                    init);
  core::TsmConfig tsm;
  tsm.epochs = 250;
  core::train_tsm(predictor, profile, tsm);
  std::printf("pretrained predictor on %zu profiled tasks\n",
              profile.num_tasks());

  // Engine: 300 arrivals, bursty, cluster 0 degrades 5x early on.
  engine::EngineConfig cfg;
  cfg.arrivals.rate_per_hour = 30.0;
  cfg.arrivals.burst_factor = 2.5;
  cfg.arrivals.burst_period_hours = 1.5;
  cfg.arrivals.max_arrivals = 300;
  cfg.profile_probability = 0.15;
  cfg.batcher.max_batch = 5;
  cfg.batcher.max_wait_hours = 0.25;
  cfg.gamma = 0.7;
  cfg.metrics_window = 8;
  cfg.trainer.retrain_epochs = 50;
  // The matcher spreads load, so only a fraction of each batch lands on
  // the drifted cluster — lower the trip threshold so the diluted error
  // signal still registers in this short demo.
  cfg.trainer.drift.ratio_threshold = 1.25;
  // Post-drift evidence dominates each retrain burst while the pre-drift
  // tail still regularizes it (see OnlineTrainerConfig).
  cfg.trainer.replay_recency_half_life = 128.0;
  if (retrain_every > 0) {
    cfg.trainer.retrain_every = static_cast<std::size_t>(retrain_every);
  }
  cfg.stop_flag = &g_stop;

  engine::DriftEventSpec drift;
  drift.at_hours = 2.5;
  drift.cluster = 0;
  drift.drift.time_scale = 5.0;
  drift.drift.reliability_logit_shift = -1.5;
  cfg.drift_events.push_back(drift);

  // Telemetry: explicit registry + trace ring + per-round JSONL journal on
  // the engine; the same registry installed as the process default so the
  // matching solvers and the thread pool report into it too.
  obs::MetricsRegistry registry;
  obs::TraceRing trace(128);
  obs::JsonlWriter journal("online_platform.jsonl");
  cfg.registry = &registry;
  cfg.trace = &trace;
  cfg.journal = &journal;
  cfg.attribution = true;
  obs::set_default_registry(&registry);

  // Task-lifecycle tracing (per-task span chains behind GET /trace/<id>)
  // and the SLO burn-rate monitor (behind GET /alerts + mfcp_slo_*
  // gauges). Tracing stays off unless --trace-sample > 0. SLO targets
  // come from --slo-config when given, defaults otherwise.
  obs::SloConfig slo_cfg;
  if (!slo_config_path.empty()) {
    std::string slo_err;
    const auto loaded = obs::load_slo_config(slo_config_path, &slo_err);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "--slo-config %s: %s\n", slo_config_path.c_str(),
                   slo_err.c_str());
      return 2;
    }
    slo_cfg = *loaded;
    std::printf("SLO targets loaded from %s\n", slo_config_path.c_str());
  }
  obs::TraceStore task_traces(4096, trace_sample);
  obs::SloMonitor slo(slo_cfg);
  cfg.task_traces = &task_traces;
  cfg.slo = &slo;

  // Append-only alert stream: one JSONL record per SLO rule transition
  // (fire / resolve), in addition to the live GET /alerts view.
  std::optional<obs::JsonlWriter> alert_log;
  if (!alert_log_path.empty()) {
    alert_log.emplace(alert_log_path);
    slo.set_alert_log(&*alert_log);
  }

  // Webhook pager: each fire/resolve transition POSTed as JSON from a
  // dedicated sender thread — delivery failures count, never block.
  std::optional<obs::WebhookSender> webhook;
  if (!alert_webhook_url.empty()) {
    std::string webhook_err;
    const auto webhook_cfg =
        obs::parse_webhook_url(alert_webhook_url, &webhook_err);
    if (!webhook_cfg.has_value()) {
      std::fprintf(stderr, "--alert-webhook %s: %s\n",
                   alert_webhook_url.c_str(), webhook_err.c_str());
      return 2;
    }
    webhook.emplace(*webhook_cfg);
    webhook->bind_metrics(&registry);
    slo.set_alert_sink(&*webhook);
    std::printf("alert webhook: POST %s\n", alert_webhook_url.c_str());
  }

  // Black-box flight recorder: per-thread event rings + stall watchdog +
  // async-signal-safe crash dump, all writing to online_platform.flight.
  // Declared before the thread pool so pool workers (which heartbeat via
  // the process-wide default) quiesce before the recorder dies.
  std::optional<obs::FlightRecorder> flight;
  if (flight_on) {
    obs::FlightConfig flight_cfg;
    flight_cfg.stall_budget_seconds = stall_budget_seconds;
    flight.emplace(flight_cfg);
    flight->bind_metrics(&registry);
    obs::set_default_flight(&*flight);
    obs::install_crash_handlers(&*flight, "online_platform.flight");
    flight->start_watchdog("online_platform.flight", &slo);
    cfg.flight = &*flight;
    std::printf("flight recorder armed: %zu-event rings, %.2fs stall "
                "budget, crash dumps to online_platform.flight\n",
                flight->config().ring_capacity, stall_budget_seconds);
  }

  // On-demand sampling profiler behind GET /debug/profile (gateway and
  // exporter alike). Armed-idle cost is a null/epoch check per stage, so
  // shipping with --profile on is cheap; a session only runs while a
  // /debug/profile request is in flight. Declared before the thread pool
  // so workers quiesce before the per-thread sample rings die.
  std::optional<obs::SamplingProfiler> profiler;
  if (profile_on) {
    obs::ProfilerConfig prof_cfg;
    prof_cfg.max_threads = 64;
    profiler.emplace(prof_cfg);
    obs::set_default_profiler(&*profiler);
    std::printf("sampling profiler armed: GET /debug/profile?seconds=N"
                "&hz=F returns folded stacks\n");
  }

  // Ratekeeper: the closed-loop admission controller plus the per-client
  // token buckets it drives. Initial rate is sized from the batcher (a
  // few full batches per timeout window) and the wait target leaves one
  // extra timeout of headroom before the controller pushes back.
  std::optional<control::Ratekeeper> ratekeeper;
  std::optional<control::TokenBucketTable> buckets;
  if (ratekeeper_on) {
    control::RatekeeperConfig rk_cfg;
    rk_cfg.initial_rate_per_hour = 4.0 *
                                   static_cast<double>(cfg.batcher.max_batch) /
                                   cfg.batcher.max_wait_hours;
    rk_cfg.wait_target_hours = 2.0 * cfg.batcher.max_wait_hours;
    ratekeeper.emplace(rk_cfg, slo.config());
    buckets.emplace();
    cfg.ratekeeper = &*ratekeeper;
    cfg.admission_buckets = &*buckets;
    std::printf("ratekeeper enabled: initial rate %.1f tasks/h, wait "
                "target %.2fh\n",
                rk_cfg.initial_rate_per_hour, rk_cfg.wait_target_hours);
  }

  // Durability layer: WAL + checkpoints + chunked journal under one
  // directory. Declared before the engine so the borrowed pointer
  // outlives it; recovery runs right after the engine (and, in gateway
  // mode, the link) exist.
  std::optional<storage::StorageManager> storage;
  if (!data_dir.empty()) {
    storage::StorageConfig st_cfg;
    st_cfg.dir = data_dir;
    storage.emplace(st_cfg);
    storage->bind_metrics(&registry);
    cfg.storage = &*storage;
    std::printf("storage armed: %s (wal fsync every %zu, checkpoint every "
                "%zu rounds, %.1fh chunks)\n",
                data_dir.c_str(), storage::StorageConfig::wal_fsync_every,
                storage::StorageConfig::checkpoint_every_rounds,
                storage::ChunkStoreConfig{}.chunk_hours);
  }
  if (retrain_every > 0) {
    std::printf("periodic retraining: every %d rounds (plus drift "
                "trips)\n", retrain_every);
  }

  ThreadPool pool;
  engine::OnlineEngine eng(cfg, platform, embedder, predictor, &pool);
  engine::EngineResult result;

  const auto print_recovery = [](const engine::RecoveryReport& rep) {
    std::printf("storage: recovered %llu task(s) (%llu dropped), %llu "
                "already terminal, %s, resume t=%.2fh%s\n",
                static_cast<unsigned long long>(rep.replayed),
                static_cast<unsigned long long>(rep.dropped),
                static_cast<unsigned long long>(rep.terminal),
                rep.checkpoint_loaded ? "snapshot restored" : "cold start",
                rep.resume_hours,
                rep.truncated_bytes > 0 ? " (torn WAL tail truncated)"
                                        : "");
  };

  if (gateway_mode) {
    // Platform gateway: external submissions over HTTP drive the engine
    // in real time; /metrics and /healthz ride on the same server.
    engine::GatewayLinkConfig link_cfg;
    link_cfg.traces = &task_traces;
    link_cfg.buckets = buckets.has_value() ? &*buckets : nullptr;
    // Durability point: the link WAL-logs each acceptance before its 200.
    link_cfg.wal = storage.has_value() ? &storage->wal() : nullptr;
    engine::GatewayLink link(link_cfg);
    if (storage.has_value()) {
      print_recovery(eng.recover(&link));
    }
    net::GatewayConfig gateway_cfg;
    gateway_cfg.http.port = static_cast<std::uint16_t>(gateway_port);
    gateway_cfg.slo = &slo;
    gateway_cfg.traces = &task_traces;
    gateway_cfg.ratekeeper = ratekeeper.has_value() ? &*ratekeeper : nullptr;
    gateway_cfg.buckets = buckets.has_value() ? &*buckets : nullptr;
    gateway_cfg.storage = storage.has_value() ? &*storage : nullptr;
    // /debug routes + per-worker heartbeats when the recorder is armed
    // (observer declared before the gateway, so it outlives the server).
    // The observer also runs recorder-free when only the profiler is on:
    // it registers HTTP workers as sampling targets either way.
    std::optional<obs::FlightServerObserver> http_observer;
    if (flight.has_value()) {
      gateway_cfg.flight = &*flight;
    }
    if (profiler.has_value()) {
      gateway_cfg.profiler = &*profiler;
    }
    if (flight.has_value() || profiler.has_value()) {
      http_observer.emplace(flight.has_value() ? &*flight : nullptr,
                            "gateway");
      gateway_cfg.http.observer = &*http_observer;
    }
    net::PlatformGateway gateway(link, &registry, &trace, gateway_cfg);
    // Resolution near the 50 ms submit-latency target instead of the
    // generic decade grid (safe here: nothing has observed into the
    // histogram yet).
    obs::tighten_latency_buckets(registry, "mfcp_gateway_submit_seconds",
                                 slo.config().submit_latency_target_seconds);
    std::printf("gateway listening on http://127.0.0.1:%u\n",
                static_cast<unsigned>(gateway.port()));
    std::fflush(stdout);

    // Optional wall-clock stop for unattended runs (CI): behaves exactly
    // like a signal, just on a timer.
    std::thread timer;
    if (serve_seconds > 0.0) {
      timer = std::thread([serve_seconds] {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration<double>(serve_seconds);
        while (std::chrono::steady_clock::now() < deadline &&
               !g_stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        g_stop.store(true, std::memory_order_relaxed);
      });
    }

    engine::ServeConfig serve_cfg;
    serve_cfg.hours_per_second = hours_per_second;
    result = eng.serve(link, serve_cfg);

    if (timer.joinable()) {
      g_stop.store(true, std::memory_order_relaxed);
      timer.join();
    }
    const engine::ServiceStats stats = link.stats();
    std::printf("\ngateway: %llu accepted, %llu rejected busy, %llu "
                "throttled; task states %llu matched / %llu dispatched / "
                "%llu expired / %llu rejected\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.rejected_busy),
                static_cast<unsigned long long>(stats.rejected_throttled),
                static_cast<unsigned long long>(stats.tasks.matched),
                static_cast<unsigned long long>(stats.tasks.dispatched),
                static_cast<unsigned long long>(stats.tasks.expired),
                static_cast<unsigned long long>(stats.tasks.rejected));
    if (linger_seconds > 0) {
      std::printf("gateway lingering for %ds (%llu requests served so "
                  "far)...\n",
                  linger_seconds,
                  static_cast<unsigned long long>(
                      gateway.requests_served()));
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::seconds(linger_seconds));
    }
    gateway.stop();
  } else {
    // Live scrape endpoint: the exporter snapshots the registry on every
    // GET /metrics, so a scraper watches the run converge in real time.
    obs::DebugSources sources;
    sources.snapshot = [&registry] { return registry.snapshot(); };
    net::HttpServerConfig http_cfg;
    http_cfg.port = static_cast<std::uint16_t>(serve_port);
    // Scrapes are rare and cheap; two workers cover an overlapping scrape.
    http_cfg.worker_threads = 2;
    std::optional<obs::FlightServerObserver> http_observer;
    if (flight.has_value()) {
      sources.flight = &*flight;
    }
    if (profiler.has_value()) {
      sources.profiler = &*profiler;
    }
    if (flight.has_value() || profiler.has_value()) {
      http_observer.emplace(flight.has_value() ? &*flight : nullptr,
                            "exporter");
      http_cfg.observer = &*http_observer;
    }
    net::HttpServer exporter(
        [&sources](const net::HttpRequest& request) {
          return obs::route_debug_request(request, sources);
        },
        http_cfg);
    std::printf("exporter listening on http://127.0.0.1:%u\n",
                static_cast<unsigned>(exporter.port()));
    std::fflush(stdout);

    if (storage.has_value()) {
      print_recovery(eng.recover());
    }
    result = eng.run();

    std::printf("\nround  t(h)   trig     n  wait(h)  regret  roll    "
                "drift   pred    round'g retrain\n");
    for (const auto& r : result.rounds) {
      std::printf("%5zu  %5.2f  %-7s %2zu  %6.3f  %6.3f  %6.3f  %6.3f  "
                  "%6.3f  %6.3f  %s\n",
                  r.round, r.close_hours, to_string(r.trigger).c_str(),
                  r.batch, r.max_wait_hours, r.regret, r.rolling_regret,
                  r.drift_stat, r.attribution.pred_gap,
                  r.attribution.rounding_gap,
                  r.retrained ? "<== retrained" : "");
    }

    if (linger_seconds > 0) {
      std::printf("exporter lingering for %ds (%llu requests served so "
                  "far)...\n",
                  linger_seconds,
                  static_cast<unsigned long long>(
                      exporter.requests_served()));
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::seconds(linger_seconds));
    }
    exporter.stop();
  }
  obs::set_default_registry(nullptr);
  if (g_stop.load(std::memory_order_relaxed)) {
    std::printf("\nstop requested: arrivals halted, queue drained via "
                "flush rounds\n");
  }

  std::printf("\n%zu arrivals -> %zu rounds, %zu dispatched, %zu dropped "
              "(%zu capacity + %zu expired), %zu retrains\n",
              result.counters.arrivals, result.counters.rounds,
              result.queue.dispatched, result.queue.dropped_total(),
              result.queue.dropped_capacity, result.queue.expired,
              result.counters.retrains);
  std::printf("totals: %s\n", result.total.summary().c_str());

  // Fold the experiment-level summary into the same registry, then render
  // everything — engine stages, queue, drift, solver, pool — as one
  // Prometheus text exposition.
  result.total.to_registry(registry);
  journal.flush();
  // Drain the retained stage spans alongside the journal so a cut-short
  // run still leaves its last traces on disk.
  obs::JsonlWriter spans("online_platform.spans");
  const std::size_t drained = trace.drain_to(spans);
  spans.flush();
  std::printf("\njournal: online_platform.jsonl (%zu records); "
              "online_platform.spans holds the last %zu spans\n",
              journal.records_written(), drained);

  // SLO state at shutdown — the same rows GET /alerts serves live — plus
  // the sampled task traces to their own JSONL file.
  const double end_hours =
      result.rounds.empty() ? 0.0 : result.rounds.back().close_hours;
  std::printf("\nSLO state at t=%.2fh:\n%s", end_hours,
              obs::slo_summary_table(slo.evaluate(end_hours)).c_str());
  if (alert_log.has_value()) {
    alert_log->flush();
    std::printf("alert log: %s (%zu transitions)\n", alert_log_path.c_str(),
                alert_log->records_written());
  }
  if (webhook.has_value()) {
    // Detach the sink before draining so the sender can quiesce without
    // racing new transitions, then give in-flight deliveries a moment.
    slo.set_alert_sink(nullptr);
    webhook->flush(2.0);
    std::printf("alert webhook: %llu delivered, %llu failed, %llu "
                "dropped\n",
                static_cast<unsigned long long>(webhook->delivered_total()),
                static_cast<unsigned long long>(webhook->failed_total()),
                static_cast<unsigned long long>(webhook->dropped_total()));
  }
  if (flight.has_value()) {
    // Orderly flight-recorder teardown: watchdog first, then the crash
    // handlers and the process-wide default (ratekeeper / pool lookups),
    // then a final black-box dump so every run leaves its last events on
    // disk even without a crash.
    flight->stop_watchdog();
    obs::install_crash_handlers(nullptr, nullptr);
    obs::set_default_flight(nullptr);
    flight->dump_jsonl("online_platform.flight", "shutdown");
    std::printf("flight recorder: %llu events (%llu dropped), %llu "
                "watchdog stalls; dump at online_platform.flight\n",
                static_cast<unsigned long long>(flight->events_total()),
                static_cast<unsigned long long>(flight->dropped_total()),
                static_cast<unsigned long long>(flight->watchdog_stalls()));
  }
  if (profiler.has_value()) {
    // Detach the process default before the profiler dies so late worker
    // lookups resolve to null instead of a dying instance.
    obs::set_default_profiler(nullptr);
    std::printf("sampling profiler: %llu sessions, %llu samples across "
                "%zu registered threads\n",
                static_cast<unsigned long long>(profiler->sessions_total()),
                static_cast<unsigned long long>(profiler->samples_total()),
                profiler->threads_registered());
  }
  if (storage.has_value()) {
    const storage::StorageStatus st = storage->status();
    std::printf("\nstorage: %llu WAL records (%llu bytes, %llu fsyncs, "
                "%llu segments), %llu checkpoints (generation %llu), "
                "%llu journal chunks (%llu records, %llu evicted)\n",
                static_cast<unsigned long long>(st.wal_records),
                static_cast<unsigned long long>(st.wal_bytes),
                static_cast<unsigned long long>(st.wal_fsyncs),
                static_cast<unsigned long long>(st.wal_segments),
                static_cast<unsigned long long>(st.checkpoints),
                static_cast<unsigned long long>(st.checkpoint_generation),
                static_cast<unsigned long long>(st.chunks),
                static_cast<unsigned long long>(st.chunk_records),
                static_cast<unsigned long long>(st.chunks_evicted));
  }
  if (ratekeeper.has_value()) {
    const control::RatekeeperStatus rk = ratekeeper->status();
    std::printf("\nratekeeper: rate %.1f tasks/h, limiting=%s, "
                "pressure %.2f; %llu ticks (%llu decreases, %llu "
                "recoveries); buckets admitted %llu / throttled %llu "
                "across %zu clients\n",
                rk.rate_per_hour, control::to_string(rk.limiting).c_str(),
                rk.pressure, static_cast<unsigned long long>(rk.ticks),
                static_cast<unsigned long long>(rk.decreases),
                static_cast<unsigned long long>(rk.recoveries),
                static_cast<unsigned long long>(buckets->admitted_total()),
                static_cast<unsigned long long>(buckets->throttled_total()),
                buckets->size());
  }
  if (trace_sample > 0.0) {
    obs::JsonlWriter tasktraces("online_platform.tasktraces");
    std::printf("task traces: %llu begun, %llu evicted; drained %zu to "
                "online_platform.tasktraces\n",
                static_cast<unsigned long long>(task_traces.begun()),
                static_cast<unsigned long long>(task_traces.evicted()),
                task_traces.size());
    task_traces.drain_to(tasktraces, gateway_mode ? "gateway" : "batch");
    tasktraces.flush();
  }
  // Quantiles the scrape-side would derive from the histogram buckets —
  // printed here from the same estimator the exposition's _quantile
  // gauges use.
  std::printf("\nstage latency quantiles:\n");
  for (const auto& h : registry.snapshot().histograms) {
    if (h.name.rfind("mfcp_engine_stage_seconds", 0) != 0 || h.count == 0) {
      continue;
    }
    std::printf("  %-44s p50 %7.3fms  p90 %7.3fms  p99 %7.3fms\n",
                h.name.c_str(), 1e3 * obs::histogram_quantile(h, 0.5),
                1e3 * obs::histogram_quantile(h, 0.9),
                1e3 * obs::histogram_quantile(h, 0.99));
  }

  std::printf("\n-- metrics exposition --\n%s",
              obs::to_prometheus(registry.snapshot()).c_str());
  return 0;
}
