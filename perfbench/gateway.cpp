// `steady` and `overload`: the gateway-fronted platform as
// `online_platform --gateway-port 0 --data-dir DIR` ships it (3 clusters,
// batch 5, 60 simulated hours per wall second, WAL with its default
// fsync cadence, checkpoints and the chunked journal), driven over
// loopback HTTP by the open-loop generator at a fixed offered rate.
//
// The platform runs in a process of its own, forked before the
// benchmark starts any thread, so its set-up time and peak memory are
// the platform's alone; the generator and every join run in the parent.
//
// Submit latency runs from a request's due time to its response;
// dispatch latency from the due time to the close of the round that
// dispatched the task, joined through the task's `round` status field
// to the wall time at which the engine wrote that round's journal line.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "engine/checkpoint.hpp"
#include "net/gateway.hpp"
#include "net/http.hpp"
#include "obs/sinks.hpp"
#include "obs/slo.hpp"
#include "obs/trace_store.hpp"
#include "openloop.hpp"
#include "platform.hpp"
#include "storage/storage.hpp"

namespace perfbench {

namespace obs = mfcp::obs;
namespace net = mfcp::net;
namespace storage = mfcp::storage;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kClusters = 3;
constexpr double kHoursPerSecond = 60.0;
// Set-ups timed before the load (the last one serves it) and after it.
constexpr int kSetupsBefore = 4;
constexpr int kSetups = 7;

engine::EngineConfig gateway_config() {
  engine::EngineConfig cfg;
  cfg.profile_probability = 0.15;
  cfg.batcher.max_batch = 5;
  cfg.batcher.max_wait_hours = 0.25;
  cfg.gamma = 0.7;
  cfg.metrics_window = 8;
  cfg.trainer.retrain_epochs = 50;
  cfg.trainer.drift.ratio_threshold = 1.25;
  cfg.trainer.replay_recency_half_life = 128.0;
  cfg.attribution = true;
  engine::DriftEventSpec drift;
  drift.at_hours = 2.5;
  drift.cluster = 0;
  drift.drift.time_scale = 5.0;
  drift.drift.reliability_logit_shift = -1.5;
  cfg.drift_events.push_back(drift);
  return cfg;
}

fs::path data_dir(const fs::path& root, int k) {
  return root / std::to_string(k);
}
fs::path rounds_file(const fs::path& root, int k) {
  return root / ("rounds-" + std::to_string(k) + ".tsv");
}

/// One running platform: engine serving behind the gateway, with storage.
/// Members are declared in dependency order so they are destroyed in the
/// reverse one; stop() joins the serving thread first.
struct Served {
  std::optional<Scenario> scenario;
  obs::MetricsRegistry registry;
  obs::TraceRing trace{128};
  std::ofstream rounds;  // the round journal, each line stamped
  StampedLines sink{rounds};
  std::ostream journal_os{&sink};
  obs::JsonlWriter journal{journal_os};
  obs::TraceStore task_traces{4096};
  obs::SloMonitor slo;
  std::optional<storage::StorageManager> storage;
  std::unique_ptr<mfcp::ThreadPool> pool;
  std::unique_ptr<core::PlatformPredictor> predictor;
  engine::EngineConfig config;
  std::unique_ptr<engine::OnlineEngine> engine;
  std::unique_ptr<engine::GatewayLink> link;
  std::unique_ptr<net::PlatformGateway> gateway;
  std::thread server;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    stop();
    obs::set_default_registry(nullptr);
  }

  /// Drains the engine (serve returns once the queue is flushed), then
  /// closes the HTTP front end. Idempotent.
  void stop() {
    if (link) {
      link->request_stop();
    }
    if (server.joinable()) {
      server.join();
    }
    if (gateway) {
      gateway->stop();
    }
  }
};

std::unique_ptr<Served> start_platform(const fs::path& root, int k) {
  auto s = std::make_unique<Served>();
  s->rounds.open(rounds_file(root, k), std::ios::trunc);
  s->scenario.emplace(make_scenario(kClusters));
  s->config = gateway_config();
  engine::EngineConfig& cfg = s->config;
  cfg.registry = &s->registry;
  cfg.trace = &s->trace;
  cfg.journal = &s->journal;
  cfg.task_traces = &s->task_traces;
  cfg.slo = &s->slo;
  obs::set_default_registry(&s->registry);
  storage::StorageConfig st_cfg;
  st_cfg.dir = data_dir(root, k).string();
  s->storage.emplace(st_cfg);
  s->storage->bind_metrics(&s->registry);
  cfg.storage = &*s->storage;
  s->pool = std::make_unique<mfcp::ThreadPool>();
  s->predictor = clone_predictor(*s->scenario);
  s->engine = std::make_unique<engine::OnlineEngine>(
      cfg, s->scenario->platform, s->scenario->embedder, *s->predictor,
      s->pool.get());
  engine::GatewayLinkConfig link_cfg;
  link_cfg.traces = &s->task_traces;
  link_cfg.wal = &s->storage->wal();
  s->link = std::make_unique<engine::GatewayLink>(link_cfg);
  (void)s->engine->recover(s->link.get());
  net::GatewayConfig gateway_cfg;
  gateway_cfg.slo = &s->slo;
  gateway_cfg.traces = &s->task_traces;
  gateway_cfg.storage = &*s->storage;
  s->gateway = std::make_unique<net::PlatformGateway>(
      *s->link, &s->registry, &s->trace, gateway_cfg);
  obs::tighten_latency_buckets(s->registry, "mfcp_gateway_submit_seconds",
                               s->slo.config().submit_latency_target_seconds);
  Served* raw = s.get();
  s->server = std::thread([raw] {
    engine::ServeConfig serve_cfg;
    serve_cfg.hours_per_second = kHoursPerSecond;
    (void)raw->engine->serve(*raw->link, serve_cfg);
  });
  return s;
}

/// Sum of the engine's own stage clocks (embed, predict, match,
/// attribute, dispatch, retrain), in ns.
double engine_stage_ns(const obs::MetricsRegistry& registry) {
  double seconds = 0.0;
  for (const auto& h : registry.snapshot().histograms) {
    if (h.name.rfind("mfcp_engine_stage_seconds{", 0) == 0) {
      seconds += h.sum;
    }
  }
  return seconds * 1e9;
}

/// What the platform process reports once the load is over and it has
/// drained. Written as text to `report.txt` in the run's data root.
struct PlatformReport {
  std::vector<double> setup_s;
  std::uint64_t accepted = 0;  // the link's accepted submissions
  std::uint64_t rejected_busy = 0;
  engine::TaskStatusTable::Counts tasks;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t connections_shed = 0;
  double stage_ns = 0.0;
  struct Task {
    int state = -1;  // engine::TaskState, -1 when the table lost the id
    std::uint64_t round = 0;
  };
  std::vector<Task> statuses;  // ids kExternalIdBase + k, issue order
};

void write_report(const fs::path& path, const PlatformReport& r) {
  std::ofstream os(path, std::ios::trunc);
  os.precision(17);
  for (const double s : r.setup_s) {
    os << "setup " << s << '\n';
  }
  const engine::TaskStatusTable::Counts& c = r.tasks;
  os << "counts " << r.accepted << ' ' << r.rejected_busy << ' '
     << c.submitted << ' ' << c.queued << ' ' << c.matched << ' '
     << c.dispatched << ' ' << c.expired << ' ' << c.rejected << '\n';
  os << "storage " << r.wal_fsyncs << ' ' << r.wal_bytes << ' '
     << r.connections_shed << ' ' << r.stage_ns << '\n';
  for (const PlatformReport::Task& t : r.statuses) {
    os << "task " << t.state << ' ' << t.round << '\n';
  }
  if (!os) {
    throw std::runtime_error("cannot write " + path.string());
  }
}

PlatformReport read_report(const fs::path& path) {
  PlatformReport r;
  std::ifstream is(path);
  std::string key;
  while (is >> key) {
    if (key == "setup") {
      r.setup_s.emplace_back();
      is >> r.setup_s.back();
    } else if (key == "counts") {
      engine::TaskStatusTable::Counts& c = r.tasks;
      is >> r.accepted >> r.rejected_busy >> c.submitted >> c.queued >>
          c.matched >> c.dispatched >> c.expired >> c.rejected;
    } else if (key == "storage") {
      is >> r.wal_fsyncs >> r.wal_bytes >> r.connections_shed >> r.stage_ns;
    } else if (key == "task") {
      r.statuses.emplace_back();
      is >> r.statuses.back().state >> r.statuses.back().round;
    }
  }
  return r;
}

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (w <= 0) {
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r <= 0) {
      return false;
    }
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// The platform process: sets the platform up kSetupsBefore times (the
/// last instance serves), sends its port on `ready_fd`, serves until
/// `stop_fd` reaches end of file, drains, times the remaining set-ups,
/// writes its report and exits.
[[noreturn]] void platform_process(const fs::path& root, int ready_fd,
                                   int stop_fd) {
  int code = 0;
  try {
    PlatformReport report;
    std::unique_ptr<Served> s;
    const auto set_up = [&](int k) {
      const std::int64_t t0 = now_ns();
      s = start_platform(root, k);
      report.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    };
    for (int k = 0; k < kSetupsBefore; ++k) {
      s.reset();
      set_up(k);
    }
    const std::uint16_t port = s->gateway->port();
    if (!write_all(ready_fd, &port, sizeof port)) {
      throw std::runtime_error("benchmark process went away");
    }
    char byte = 0;
    ssize_t got = 0;
    do {
      got = ::read(stop_fd, &byte, 1);
    } while (got < 0 && errno == EINTR);
    s->stop();

    const engine::ServiceStats stats = s->link->stats();
    report.accepted = stats.submitted;
    report.rejected_busy = stats.rejected_busy;
    report.tasks = stats.tasks;
    const storage::StorageStatus st = s->storage->status();
    report.wal_fsyncs = st.wal_fsyncs;
    report.wal_bytes = st.wal_bytes;
    report.connections_shed = s->gateway->connections_shed();
    report.stage_ns = engine_stage_ns(s->registry);
    for (std::uint64_t k = 0; k < stats.submitted; ++k) {
      const std::optional<engine::TaskStatus> t =
          s->link->status(engine::kExternalIdBase + k);
      report.statuses.push_back(
          t.has_value()
              ? PlatformReport::Task{static_cast<int>(t->state), t->round}
              : PlatformReport::Task{});
    }
    s.reset();
    for (int k = kSetupsBefore; k < kSetups; ++k) {
      set_up(k);
      s.reset();
    }
    write_report(root / "report.txt", report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: platform process: %s\n", e.what());
    code = 1;
  }
  std::fflush(nullptr);
  ::_exit(code);
}

std::string request_head(const std::string& body) {
  return "POST /submit HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n";
}

struct Accepted {
  std::uint64_t id = 0;
  std::size_t request = 0;  // index into the schedule
  PlatformReport::Task status;
};

constexpr int kDispatched = static_cast<int>(engine::TaskState::kDispatched);

}  // namespace

Result run_gateway(const Options& options, double offered_per_s) {
  Result result;
  const fs::path root =
      fs::path(options.work_dir) / ("data-" + options.workload);
  fs::remove_all(root);
  fs::create_directories(root);

  int ready[2];
  int stop[2];
  if (::pipe(ready) != 0 || ::pipe(stop) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(ready[0]);
    ::close(stop[1]);
    platform_process(root, ready[1], stop[0]);
  }
  ::close(ready[1]);
  ::close(stop[0]);
  std::uint16_t port = 0;
  const bool up = read_all(ready[0], &port, sizeof port);
  ::close(ready[0]);

  std::vector<ScheduledRequest> schedule;
  std::vector<RequestOutcome> outcomes;
  std::int64_t start = 0;
  if (up) {
    // Half as many workers as CPUs: at well under a millisecond per
    // submit they keep up with either rate, and they take less CPU from
    // the platform than one per CPU, which made `overload`'s capacity
    // spread twice as wide from run to run.
    schedule = poisson_schedule(options.seed, offered_per_s, options.seconds);
    const unsigned threads =
        std::max(1u, std::thread::hardware_concurrency() / 2);
    start = now_ns() + 20'000'000;
    outcomes = run_open_loop(schedule, port, start, threads);
  }
  ::close(stop[1]);  // end of file: the platform drains and reports
  int wstatus = 0;
  rusage usage{};
  while (::wait4(pid, &wstatus, 0, &usage) < 0 && errno == EINTR) {
  }
  const bool exited = up && WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  result.check("gateway.platform_process_ok", exited);
  if (!exited) {
    return result;
  }
  const PlatformReport report = read_report(root / "report.txt");
  const int serving = kSetupsBefore - 1;
  std::ifstream rounds_in(rounds_file(root, serving));
  const std::vector<JournalRound> journal = parse_journal(rounds_in);

  // ----- outcomes, joined to task status and the round journal ----------
  std::vector<const JournalRound*> by_round;
  for (const JournalRound& r : journal) {
    if (r.round >= by_round.size()) {
      by_round.resize(r.round + 1, nullptr);
    }
    by_round[r.round] = &r;
  }
  std::uint64_t ok = 0;
  std::uint64_t transport = 0;
  std::uint64_t other = 0;
  bool statuses_known = true;
  UntracedFacts facts;
  std::vector<Accepted> accepted;
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const RequestOutcome& o = outcomes[k];
    facts.late_ms.push_back(static_cast<double>(o.sent_ns - o.due_ns) / 1e6);
    if (o.status == 0) {
      ++transport;
      continue;
    }
    facts.submit_ms.push_back(static_cast<double>(o.done_ns - o.due_ns) / 1e6);
    if (o.status != 200) {
      other += o.status == 429 ? 0 : 1;
      continue;
    }
    ++ok;
    const std::uint64_t index = o.id - engine::kExternalIdBase;
    if (o.id < engine::kExternalIdBase || index >= report.statuses.size() ||
        report.statuses[index].state < 0) {
      statuses_known = false;
      continue;
    }
    accepted.push_back(Accepted{o.id, k, report.statuses[index]});
  }
  std::uint64_t dispatched = 0;
  std::uint64_t unjoined = 0;
  for (const Accepted& a : accepted) {
    if (a.status.state != kDispatched) {
      continue;
    }
    ++dispatched;
    const JournalRound* r = a.status.round < by_round.size()
                                ? by_round[a.status.round]
                                : nullptr;
    if (r == nullptr) {
      ++unjoined;
      continue;
    }
    facts.dispatch_ms.push_back(
        static_cast<double>(r->ns - outcomes[a.request].due_ns) / 1e6);
    facts.queue_wait_ms.push_back(
        static_cast<double>(r->ns - outcomes[a.request].done_ns) / 1e6);
  }

  // ----- correctness gates ------------------------------------------------
  const engine::TaskStatusTable::Counts& c = report.tasks;
  result.check("gateway.conservation",
               c.submitted == c.dispatched + c.expired + c.rejected &&
                   c.queued == 0 && c.matched == 0);
  result.check("gateway.acks_match_admissions",
               ok == report.accepted && statuses_known);
  result.check("gateway.dispatched_tasks_join_rounds", unjoined == 0);
  const storage::WalScanResult wal_scan =
      storage::scan_wal((data_dir(root, serving) / "wal").string(), false);
  std::uint64_t wal_accepted = 0;
  for (const storage::WalRecord& rec : wal_scan.records) {
    wal_accepted += rec.type == storage::WalRecordType::kAccepted ? 1 : 0;
  }
  result.check("gateway.wal_holds_every_ack", wal_accepted >= ok);
  result.attempted = outcomes.size();
  result.failed = transport + other;

  const auto attempted = static_cast<double>(outcomes.size());
  double regret = 0.0;
  double batched = 0.0;
  std::size_t size_rounds = 0;
  std::vector<std::pair<std::int64_t, double>> closes;
  for (const JournalRound& r : journal) {
    regret += r.regret * static_cast<double>(r.batch);
    batched += static_cast<double>(r.batch);
    size_rounds += r.size_trigger ? 1 : 0;
    closes.emplace_back(r.ns, static_cast<double>(r.batch));
  }
  // Dispatch rate over the offered window only (the drain after it is
  // excluded), from half-second windows.
  std::vector<double> rates;
  window_rates(closes, start,
               start + static_cast<std::int64_t>(options.seconds * 1e9),
               kRateWindowNs, rates);
  const double dispatched_share = static_cast<double>(dispatched) / attempted;

  if (!options.trace) {
    result.add("setup_s",
               *std::min_element(report.setup_s.begin(), report.setup_s.end()),
               "s");
    // ru_maxrss is KiB: the platform process's peak, set-ups included.
    result.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
               "MB");
    result.add("tasks_per_s", interquartile_mean(rates), "1/s");
    fs::remove_all(root);
    return result;
  }

  const auto n_rounds =
      static_cast<double>(std::max<std::size_t>(1, journal.size()));
  facts.batch_mean = batched / n_rounds;
  facts.size_trigger_share = static_cast<double>(size_rounds) / n_rounds;
  facts.expired = static_cast<double>(c.expired);
  const double acks = static_cast<double>(std::max<std::uint64_t>(1, ok));
  facts.fsyncs_per_task = static_cast<double>(report.wal_fsyncs) / acks;
  facts.wal_bytes_per_task = static_cast<double>(report.wal_bytes) / acks;
  facts.busy_429_share = static_cast<double>(report.rejected_busy) / attempted;
  facts.connections_shed = static_cast<double>(report.connections_shed);
  facts.transport_errors = static_cast<double>(transport);
  facts.offered_per_s = attempted / options.seconds;
  facts.fail_share = 1.0 - dispatched_share;
  facts.regret_per_task = batched > 0.0 ? regret / batched : 0.0;
  facts.baseline = UntracedFacts::Baseline::kStages;
  facts.baseline_ns = report.stage_ns;

  // ----- traced run: the same requests and rounds, layer by layer --------
  // A platform built as the served one was, with the same process-wide
  // registry set-up (solver and pool metrics on).
  obs::MetricsRegistry registry;
  obs::set_default_registry(&registry);
  const Scenario scenario = make_scenario(kClusters);
  mfcp::ThreadPool pool;
  Tracer tracer;
  TracedRounds rounds(scenario, gateway_config(), pool, tracer);
  const fs::path tdir = root / "traced";
  storage::WalConfig wal_cfg;
  wal_cfg.dir = (tdir / "wal").string();
  wal_cfg.fsync_every = 0;  // syncs are issued (and timed) below
  storage::TaskWal wal(wal_cfg);
  const std::size_t sync_every = storage::StorageConfig{}.wal_fsync_every;
  const std::size_t ckpt_every =
      storage::StorageConfig{}.checkpoint_every_rounds;
  storage::CheckpointManager checkpoints(
      storage::CheckpointConfig{(tdir / "checkpoints").string(), 3});
  storage::ChunkStoreConfig chunk_cfg;
  chunk_cfg.dir = (tdir / "journal").string();
  storage::ChunkStore chunks(chunk_cfg);
  engine::GatewayLinkConfig link_cfg;
  link_cfg.max_pending = outcomes.size() + 1;
  link_cfg.high_water = outcomes.size() + 1;
  engine::GatewayLink link(link_cfg);
  std::size_t appended = 0;
  const auto wal_append = [&](const storage::WalRecord& rec,
                              std::int32_t parent) {
    {
      Scope span(tracer, Layer::kStorage, "wal_append", parent);
      wal.append(rec);
    }
    if (++appended % sync_every == 0) {
      Scope span(tracer, Layer::kStorage, "wal_sync", parent);
      wal.sync();
    }
  };

  std::vector<sim::TaskDescriptor> tasks_of(outcomes.size());
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const std::int32_t r = tracer.begin(Layer::kRoot, "request", -1);
    net::SubmitParse parsed;
    {
      Scope span(tracer, Layer::kNet, "parse", r);
      net::HttpRequest req =
          net::parse_request_head(request_head(schedule[k].body));
      req.body = schedule[k].body;
      parsed = net::parse_submit_body(req.body);
    }
    tasks_of[k] = parsed.task;
    if (outcomes[k].status == 200) {
      engine::SubmitTicket ticket;
      {
        Scope span(tracer, Layer::kService, "submit", r);
        ticket = link.submit(parsed.task, parsed.deadline_hours);
      }
      storage::WalRecord rec;
      rec.type = storage::WalRecordType::kAccepted;
      rec.task_id = ticket.id;
      rec.task = parsed.task;
      wal_append(rec, r);
    }
    tracer.end(r);
  }
  (void)link.drain();

  // Rounds in journal order, each with the tasks the untraced run put in
  // it (status `round` field), in submission order.
  std::vector<std::vector<const Accepted*>> members(by_round.size());
  for (const Accepted& a : accepted) {
    if (a.status.state == kDispatched && a.status.round < members.size()) {
      members[a.status.round].push_back(&a);
    }
  }
  engine::EngineCounters counters;
  for (const JournalRound& jr : journal) {
    std::vector<const Accepted*>& batch = members[jr.round];
    std::sort(batch.begin(), batch.end(),
              [](const Accepted* a, const Accepted* b) {
                return a->id < b->id;
              });
    if (batch.empty()) {
      continue;
    }
    std::vector<sim::TaskDescriptor> tasks;
    for (const Accepted* a : batch) {
      tasks.push_back(tasks_of[a->request]);
    }
    rounds.advance(jr.close_hours);
    const std::int32_t r = tracer.begin(Layer::kRoot, "round", -1);
    (void)rounds.round(tasks, {}, r);
    for (const Accepted* a : batch) {
      storage::WalRecord rec;
      rec.type = storage::WalRecordType::kDispatched;
      rec.task_id = a->id;
      rec.hours = jr.close_hours;
      wal_append(rec, r);
      Scope span(tracer, Layer::kStorage, "journal_append", r);
      chunks.append(jr.close_hours,
                    "{\"record\":\"task\",\"task\":" + std::to_string(a->id) +
                        ",\"state\":\"dispatched\",\"close_hours\":" +
                        obs::json_number(jr.close_hours) + "}");
    }
    {
      Scope span(tracer, Layer::kStorage, "journal_append", r);
      chunks.append(jr.close_hours, jr.text);
    }
    ++counters.rounds;
    if (counters.rounds % ckpt_every == 0) {
      Scope span(tracer, Layer::kStorage, "checkpoint", r);
      checkpoints.publish(wal.stats().last_seq, [&](std::ostream& os) {
        engine::save_checkpoint(os, rounds.predictor(), counters);
      });
    }
    tracer.end(r);
  }
  obs::set_default_registry(nullptr);
  tracer.write_jsonl(options.work_dir + "/" + options.workload +
                     ".spans.jsonl");
  add_layer_metrics(result, tracer, rounds, facts);
  fs::remove_all(root);
  return result;
}

}  // namespace perfbench
