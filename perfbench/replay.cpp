// `replay`: OnlineEngine::run() in process over a seeded, bursty arrival
// stream, configured as examples/online_platform ships the engine (pool,
// registry, attribution) but with larger rounds: 4 clusters, batches of
// 10, and a drift event early in the stream so retrain bursts recur. No
// gateway and no storage: matching, prediction and retraining do the
// work. A run plays a new stream (derived from the seed) after another
// for the measured time, so its rate averages over several streams, then
// plays the first stream again, which must reproduce its per-round
// regret exactly.
#include <optional>
#include <ostream>
#include <sstream>

#include "obs/sinks.hpp"
#include "obs/slo.hpp"
#include "obs/trace_store.hpp"
#include "platform.hpp"

namespace perfbench {

namespace obs = mfcp::obs;

namespace {

constexpr std::size_t kClusters = 4;
constexpr std::size_t kArrivals = 1200;
constexpr std::size_t kSetups = 7;

engine::EngineConfig replay_config(std::uint64_t seed, std::uint64_t stream) {
  engine::EngineConfig cfg;
  cfg.arrivals.rate_per_hour = 60.0;
  cfg.arrivals.burst_factor = 3.0;
  cfg.arrivals.burst_period_hours = 1.5;
  cfg.arrivals.burst_duty = 0.25;
  cfg.arrivals.deadline_hours = 2.0;
  cfg.arrivals.max_arrivals = kArrivals;
  cfg.arrivals.seed = derive_seed(seed, 10 + stream);
  cfg.batcher.max_batch = 10;
  cfg.batcher.max_wait_hours = 0.25;
  cfg.profile_probability = 0.15;
  cfg.gamma = 0.7;
  cfg.metrics_window = 8;
  cfg.trainer.retrain_epochs = 50;
  cfg.trainer.drift.ratio_threshold = 1.25;
  cfg.trainer.replay_recency_half_life = 128.0;
  cfg.trainer.retrain_every = 10;
  cfg.attribution = true;
  engine::DriftEventSpec drift;
  drift.at_hours = 1.0;
  drift.cluster = 0;
  drift.drift.time_scale = 5.0;
  drift.drift.reliability_logit_shift = -1.5;
  cfg.drift_events.push_back(drift);
  return cfg;
}

struct Repeat {
  double wall_ns = 0.0;
  engine::EngineResult result;
  std::vector<double> task_wait_ms;  // per dispatched task: its round's wall
  std::vector<double> window_rates;  // dispatched tasks per second
};

/// One untraced engine run over the whole stream.
Repeat run_untraced(const Scenario& sc, const engine::EngineConfig& base,
                    mfcp::ThreadPool& pool) {
  auto predictor = clone_predictor(sc);
  obs::MetricsRegistry registry;
  obs::TraceRing trace(128);
  obs::TraceStore task_traces(4096);
  obs::SloMonitor slo;
  std::stringstream stamped;
  StampedLines sink(stamped);
  std::ostream journal_os(&sink);
  obs::JsonlWriter journal(journal_os);
  engine::EngineConfig cfg = base;
  cfg.registry = &registry;
  cfg.trace = &trace;
  cfg.journal = &journal;
  cfg.task_traces = &task_traces;
  cfg.slo = &slo;
  obs::set_default_registry(&registry);
  Repeat rep;
  {
    engine::OnlineEngine eng(cfg, sc.platform, sc.embedder, *predictor, &pool);
    const std::int64_t start = now_ns();
    rep.result = eng.run();
    rep.wall_ns = static_cast<double>(now_ns() - start);
    // A round's wall time runs from the previous round's close (rounds
    // run back to back; arrival handling between them is negligible).
    std::int64_t prev = start;
    std::vector<std::pair<std::int64_t, double>> closes;
    for (const JournalRound& r : parse_journal(stamped)) {
      const double ms = static_cast<double>(r.ns - prev) / 1e6;
      rep.task_wait_ms.insert(rep.task_wait_ms.end(), r.batch, ms);
      closes.emplace_back(r.ns, static_cast<double>(r.batch));
      prev = r.ns;
    }
    window_rates(closes, start, prev, kRateWindowNs, rep.window_rates);
  }
  obs::set_default_registry(nullptr);
  return rep;
}

struct TracedReplay {
  std::vector<double> regrets;  // per round
  std::vector<double> queue_wait_ms;
};

/// Drives the engine's own queue, batcher and round body through their
/// public functions, mirroring OnlineEngine::run(), with spans.
TracedReplay run_traced(const engine::EngineConfig& cfg, Tracer& tracer,
                        TracedRounds& rounds) {
  TracedReplay out;
  engine::ArrivalProcess arrivals(cfg.arrivals);
  engine::AdmissionQueue queue(cfg.queue);
  queue.set_loss_tracking(cfg.attribution);
  const engine::MicroBatcher batcher(cfg.batcher);
  std::vector<std::int64_t> pushed_ns(cfg.arrivals.max_arrivals, 0);
  double clock = 0.0;

  const auto finish_round = [&] {
    {
      Scope s(tracer, Layer::kEngine, "expire", -1);
      queue.expire(clock);
    }
    if (queue.empty()) {
      return;
    }
    const std::int32_t r = tracer.begin(Layer::kRoot, "round", -1);
    std::vector<engine::Arrival> batch;
    {
      Scope s(tracer, Layer::kEngine, "pop_batch", r);
      batch = queue.pop_batch(batcher.config().max_batch);
    }
    std::vector<sim::TaskDescriptor> tasks;
    tasks.reserve(batch.size());
    for (const engine::Arrival& a : batch) {
      tasks.push_back(a.task);
    }
    std::vector<sim::TaskDescriptor> lost;
    for (const engine::Arrival& a : queue.take_recent_losses()) {
      lost.push_back(a.task);
    }
    out.regrets.push_back(rounds.round(tasks, lost, r).regret);
    tracer.end(r);
    const std::int64_t closed = now_ns();
    for (const engine::Arrival& a : batch) {
      out.queue_wait_ms.push_back(
          static_cast<double>(closed - pushed_ns[a.id]) / 1e6);
    }
  };

  for (;;) {
    const std::optional<double> next_arrival = arrivals.peek_time();
    std::optional<double> next_timeout;
    if (!queue.empty()) {
      next_timeout = batcher.timeout_at(queue.oldest_arrival_time());
    }
    if (next_arrival.has_value() &&
        (!next_timeout.has_value() || *next_arrival <= *next_timeout)) {
      clock = *next_arrival;
      rounds.advance(clock);
      bool full = false;
      {
        Scope s(tracer, Layer::kEngine, "admit", -1);
        engine::Arrival a = *arrivals.next();
        queue.expire(clock);
        pushed_ns[a.id] = now_ns();
        queue.push(std::move(a));
        full = queue.depth() >= batcher.config().max_batch;
      }
      if (full) {
        finish_round();
      }
    } else if (next_timeout.has_value()) {
      clock = *next_timeout;
      rounds.advance(clock);
      finish_round();
    } else if (!queue.empty()) {
      finish_round();
    } else {
      break;
    }
  }
  return out;
}

double regret_per_task(const engine::EngineResult& result) {
  double regret = 0.0;
  double tasks = 0.0;
  for (const engine::RoundRecord& r : result.rounds) {
    regret += r.regret * static_cast<double>(r.batch);
    tasks += static_cast<double>(r.batch);
  }
  return tasks > 0.0 ? regret / tasks : 0.0;
}

bool same_regrets(const engine::EngineResult& a,
                  const std::vector<double>& regrets) {
  if (a.rounds.size() != regrets.size()) {
    return false;
  }
  for (std::size_t i = 0; i < regrets.size(); ++i) {
    if (a.rounds[i].regret != regrets[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result run_replay(const Options& options) {
  Result result;
  const engine::EngineConfig cfg = replay_config(options.seed, 0);

  // Set-up: scenario (profiling data + predictor pretraining) and pool.
  // It is timed kSetups times, between streams so the samples spread
  // over the run, and the fastest is reported; each stream runs on the
  // latest instance (built identically every time).
  std::vector<double> setup_s;
  std::optional<Scenario> scenario;
  std::unique_ptr<mfcp::ThreadPool> pool;
  const auto set_up = [&] {
    pool.reset();
    scenario.reset();
    const std::int64_t t0 = now_ns();
    scenario.emplace(make_scenario(kClusters));
    pool = std::make_unique<mfcp::ThreadPool>();
    const std::int64_t took = now_ns() - t0;
    setup_s.push_back(static_cast<double>(took) / 1e9);
    return took;
  };
  (void)set_up();

  // Untraced: one stream after another until the time (set-ups excluded)
  // is used up, then the first stream once more for the determinism gate.
  std::vector<Repeat> repeats;
  std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  do {
    repeats.push_back(run_untraced(
        *scenario, replay_config(options.seed, repeats.size()), *pool));
    if (setup_s.size() < kSetups) {
      deadline += set_up();
    }
  } while (now_ns() < deadline);
  while (setup_s.size() < kSetups) {
    (void)set_up();
  }
  repeats.push_back(run_untraced(*scenario, cfg, *pool));
  const Scenario& sc = *scenario;

  std::vector<double> rates;  // per window, across streams
  std::vector<double> task_wait_ms;
  bool conserved = true;
  const Repeat& first = repeats.front();
  std::vector<double> first_regrets;
  for (const engine::RoundRecord& r : first.result.rounds) {
    first_regrets.push_back(r.regret);
  }
  for (const Repeat& rep : repeats) {
    const engine::QueueStats& q = rep.result.queue;
    rates.insert(rates.end(), rep.window_rates.begin(), rep.window_rates.end());
    task_wait_ms.insert(task_wait_ms.end(), rep.task_wait_ms.begin(),
                        rep.task_wait_ms.end());
    conserved = conserved &&
                q.offered == q.dispatched + q.expired + q.dropped_capacity;
    result.attempted += q.offered;
  }
  result.check("replay.regret_identical_across_repeats",
               same_regrets(repeats.back().result, first_regrets));
  result.check("replay.conservation", conserved);
  const engine::QueueStats& q = first.result.queue;
  const double dispatched_share =
      static_cast<double>(q.dispatched) / static_cast<double>(q.offered);

  if (!options.trace) {
    result.add("setup_s", *std::min_element(setup_s.begin(), setup_s.end()),
               "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("tasks_per_s", interquartile_mean(rates), "1/s");
    return result;
  }

  // The traced run shares the untraced one's process-wide registry set-up
  // (solver and pool metrics on), so the two differ only by the spans.
  obs::MetricsRegistry registry;
  obs::set_default_registry(&registry);
  Tracer tracer;
  TracedRounds rounds(sc, cfg, *pool, tracer);
  const TracedReplay traced = run_traced(cfg, tracer, rounds);
  obs::set_default_registry(nullptr);
  result.check("replay.traced_regret_matches_untraced",
               same_regrets(first.result, traced.regrets));
  tracer.write_jsonl(options.work_dir + "/replay.spans.jsonl");

  UntracedFacts facts;
  std::size_t size_rounds = 0;
  for (const engine::RoundRecord& r : first.result.rounds) {
    facts.batch_mean += static_cast<double>(r.batch);
    size_rounds += r.trigger == engine::RoundTrigger::kSize ? 1 : 0;
  }
  const auto n_rounds = static_cast<double>(first.result.rounds.size());
  facts.batch_mean /= n_rounds;
  facts.size_trigger_share = static_cast<double>(size_rounds) / n_rounds;
  facts.queue_wait_ms = traced.queue_wait_ms;
  facts.expired = static_cast<double>(q.expired);
  // The traced run repeats the first stream, played twice untraced.
  const double first_wall_ns = 0.5 * (first.wall_ns + repeats.back().wall_ns);
  facts.offered_per_s = static_cast<double>(q.offered) / (first_wall_ns / 1e9);
  facts.dispatch_ms = task_wait_ms;
  facts.fail_share = 1.0 - dispatched_share;
  facts.regret_per_task = regret_per_task(first.result);
  facts.baseline_ns = first_wall_ns;
  add_layer_metrics(result, tracer, rounds, facts);
  return result;
}

}  // namespace perfbench
