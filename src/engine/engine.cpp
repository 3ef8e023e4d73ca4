#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "obs/profiler.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"

namespace mfcp::engine {

namespace {
// kQueueTransition state ordinals (a1) and kAdmission shed reasons (a2);
// part of the recorded event vocabulary, decoded by readers of the
// /debug/flight route and `.flight` dumps.
constexpr std::uint64_t kQueueQueued = 1;
constexpr std::uint64_t kQueueExpired = 2;
constexpr std::uint64_t kQueueRejected = 3;
constexpr std::uint64_t kShedThrottled = 1;  // token bucket refused
constexpr std::uint64_t kShedCapacity = 2;   // queue rejected the push

/// Upper bound on one serve() wait: submissions wake the loop early, so
/// this only bounds how stale the stop-flag check can get.
constexpr int kServePollMs = 20;

/// One JSONL record written by `fill`, as a chunk-journal line (without
/// the trailing newline).
template <typename Fill>
std::string jsonl_line(Fill&& fill) {
  std::ostringstream os;
  {
    obs::JsonlWriter writer(os);
    fill(writer);
  }
  std::string line = os.str();
  while (!line.empty() && line.back() == '\n') {
    line.pop_back();
  }
  return line;
}
}  // namespace

OnlineEngine::OnlineEngine(EngineConfig config, sim::Platform platform,
                           const sim::PseudoGnnEmbedder& embedder,
                           core::PlatformPredictor& predictor,
                           ThreadPool* pool)
    : config_(std::move(config)),
      platform_(std::move(platform)),
      embedder_(embedder),
      predictor_(predictor),
      pool_(pool),
      arrivals_(config_.arrivals),
      queue_(config_.queue),
      batcher_(config_.batcher),
      trainer_(config_.trainer),
      dispatch_rng_(config_.seed ^ 0xd15a7c4ULL) {
  MFCP_CHECK(platform_.num_clusters() == predictor_.num_clusters(),
             "platform and predictor disagree on cluster count");
  MFCP_CHECK(config_.gamma > 0.0 && config_.gamma < 1.0,
             "gamma must lie in (0, 1)");
  MFCP_CHECK(config_.profile_probability >= 0.0 &&
                 config_.profile_probability <= 1.0,
             "profile probability must lie in [0, 1]");
  MFCP_CHECK(config_.metrics_window > 0, "metrics window must be positive");
  std::sort(config_.drift_events.begin(), config_.drift_events.end(),
            [](const DriftEventSpec& a, const DriftEventSpec& b) {
              return a.at_hours < b.at_hours;
            });
  queue_.set_loss_tracking(config_.attribution);
  // Lifecycle bookkeeping for every lost arrival, in run() and serve()
  // alike: traced tasks get their terminal span, externally submitted
  // tasks their status-table transition. Both paths are no-ops when their
  // sink is absent.
  queue_.set_loss_callback(
      [this](const Arrival& a, AdmissionQueue::Loss loss) {
        const bool expired = loss == AdmissionQueue::Loss::kExpired;
        if (config_.task_traces != nullptr) {
          const char* state = expired ? "expired" : "rejected";
          obs::TaskSpan span;
          span.name = state;
          span.start_hours = a.time_hours;
          span.end_hours = clock_hours_;
          if (config_.task_traces->append(a.id, std::move(span))) {
            config_.task_traces->finish(a.id, state);
          }
        }
        if (link_ != nullptr && a.id >= kExternalIdBase) {
          link_->table().mark_lost(a.id, expired ? TaskState::kExpired
                                                 : TaskState::kRejected);
        }
        wal_terminal(a.id, expired ? storage::WalRecordType::kExpired
                                   : storage::WalRecordType::kRejected);
        journal_task(a.id, expired ? "expired" : "rejected");
        flight(obs::FlightKind::kQueueTransition, a.id,
               expired ? kQueueExpired : kQueueRejected, queue_.depth());
      });
  if (config_.slo != nullptr && config_.registry != nullptr) {
    config_.slo->bind_metrics(config_.registry);
  }
  MFCP_CHECK((config_.ratekeeper == nullptr) ==
                 (config_.admission_buckets == nullptr),
             "ratekeeper and admission buckets enable together");
  if (config_.ratekeeper != nullptr) {
    // Publish the controller's initial rate so the very first admissions
    // are already governed (tick() refines it every round).
    config_.admission_buckets->set_global_rate(
        config_.ratekeeper->status().rate_per_hour, clock_hours_);
  }
  bind_metrics();
}

bool OnlineEngine::task_traced(std::uint64_t task_id) const noexcept {
  return config_.task_traces != nullptr &&
         config_.task_traces->sampled(obs::mint_trace_id(task_id));
}

void OnlineEngine::maybe_begin_trace(const Arrival& arrival) {
  if (config_.task_traces == nullptr || arrival.id >= kExternalIdBase) {
    return;  // external tasks were opened at POST /submit
  }
  const std::uint64_t trace_id = obs::mint_trace_id(arrival.id);
  if (!config_.task_traces->sampled(trace_id)) {
    return;
  }
  if (config_.task_traces->begin(arrival.id, trace_id, arrival.time_hours)) {
    obs::TaskSpan span;
    span.name = "submit";
    span.start_hours = arrival.time_hours;
    span.end_hours = arrival.time_hours;
    config_.task_traces->append(arrival.id, std::move(span));
  }
}

void OnlineEngine::note_slo(const RoundRecord* rec) {
  if (config_.slo == nullptr) {
    return;
  }
  const std::uint64_t expired_total = queue_.stats().expired;
  const std::uint64_t expired_delta = expired_total - slo_expired_seen_;
  slo_expired_seen_ = expired_total;
  if (rec != nullptr) {
    // Regret-gap SLI: the attribution total when available (it equals the
    // realized regret plus the admission counterfactual), the raw round
    // regret otherwise.
    const double gap =
        rec->attribution.valid ? rec->attribution.total : rec->regret;
    config_.slo->observe_round(clock_hours_, rec->batch, rec->dispatch_ok,
                               expired_delta, gap, true);
  } else if (expired_delta > 0) {
    config_.slo->observe_round(clock_hours_, 0, 0, expired_delta, 0.0,
                               false);
  } else {
    return;  // nothing new; keep the previous evaluation
  }
  // Capture the burn the Ratekeeper normalizes against: max over rules of
  // min(fast, slow) — the same both-windows conjunction the firing rule
  // applies, so the controller reacts exactly when alerts are near.
  double burn = 0.0;
  for (const obs::SloState& state : config_.slo->evaluate(clock_hours_)) {
    burn = std::max(burn, std::min(state.fast_burn, state.slow_burn));
  }
  last_slo_burn_ = burn;
}

void OnlineEngine::flight(obs::FlightKind kind, std::uint64_t a0,
                          std::uint64_t a1, std::uint64_t a2,
                          std::uint64_t trace_id) noexcept {
  if (config_.flight != nullptr) {
    config_.flight->record(kind, clock_hours_, a0, a1, a2, trace_id);
  }
}

bool OnlineEngine::admission_throttled(const Arrival& arrival) {
  if (config_.admission_buckets == nullptr ||
      arrival.id >= kExternalIdBase) {
    return false;  // external tasks were charged at the gateway door
  }
  return !config_.admission_buckets
              ->try_admit(control::kAnonymousClient, clock_hours_)
              .admitted;
}

void OnlineEngine::tick_ratekeeper(RoundRecord& rec) {
  if (config_.ratekeeper == nullptr) {
    return;
  }
  const std::uint64_t expired_total = queue_.stats().expired;
  control::RatekeeperSignals signals;
  signals.now_hours = clock_hours_;
  signals.queue_depth = queue_.depth();
  signals.queue_capacity = config_.queue.capacity;
  signals.batch_wait_hours = rec.max_wait_hours;
  signals.batch = rec.batch;
  signals.expired = expired_total - rk_expired_seen_;
  signals.slo_burn = last_slo_burn_;
  rk_expired_seen_ = expired_total;

  const double rate = config_.ratekeeper->tick(signals);
  config_.admission_buckets->set_global_rate(rate, clock_hours_);

  rec.ratekeeper_valid = true;
  rec.admission_rate_per_hour = rate;
  rec.throttled_total = config_.admission_buckets->throttled_total();
  rec.limiting_signal = config_.ratekeeper->status().limiting;

  if (telemetry_.rk_rate != nullptr) {
    telemetry_.rk_rate->set(rate);
    telemetry_.rk_tokens->set(config_.admission_buckets->tokens_total());
    telemetry_.rk_limiting->set(
        static_cast<double>(static_cast<int>(rec.limiting_signal)));
    telemetry_.rk_throttled->add(rec.throttled_total - rk_throttled_seen_);
    rk_throttled_seen_ = rec.throttled_total;
  }
}

void OnlineEngine::wal_accepted(const Arrival& arrival) {
  if (config_.storage == nullptr || arrival.id >= kExternalIdBase) {
    return;  // external acceptances were logged at the gateway door
  }
  storage::WalRecord rec;
  rec.type = storage::WalRecordType::kAccepted;
  rec.task_id = arrival.id;
  rec.hours = arrival.time_hours;
  rec.deadline_hours = arrival.deadline_hours;
  rec.task = arrival.task;
  config_.storage->wal().append(rec);
}

void OnlineEngine::wal_terminal(std::uint64_t id,
                                storage::WalRecordType type) {
  if (config_.storage == nullptr) {
    return;
  }
  storage::WalRecord rec;
  rec.type = type;
  rec.task_id = id;
  rec.hours = clock_hours_;
  config_.storage->wal().append(rec);
}

void OnlineEngine::journal_task(std::uint64_t id, const char* state) {
  if (config_.storage == nullptr || id < kExternalIdBase) {
    return;  // task traces are journaled for external submissions only
  }
  const std::string line = jsonl_line([&](obs::JsonlWriter& record) {
    record.field("record", std::string_view("task"))
        .field("task", id)
        .field("state", std::string_view(state))
        .field("close_hours", clock_hours_);
    record.end_record();
  });
  config_.storage->journal().append(clock_hours_, line);
}

void OnlineEngine::publish_checkpoint() {
  if (config_.storage == nullptr) {
    return;
  }
  refresh_counters();
  config_.storage->checkpoints().publish(
      config_.storage->wal().stats().last_seq, [this](std::ostream& os) {
        save_checkpoint(os, predictor_, counters_);
      });
}

void OnlineEngine::maybe_publish_checkpoint() {
  const std::size_t every = storage::StorageConfig::checkpoint_every_rounds;
  if (counters_.rounds == 0 || counters_.rounds % every != 0) {
    return;
  }
  publish_checkpoint();
}

void OnlineEngine::refresh_counters() {
  // The queue restarted at zero after recover(); add its stats onto the
  // restored base so these totals stay monotone across incarnations.
  counters_.dropped_capacity =
      restored_base_.dropped_capacity + queue_.stats().dropped_capacity;
  counters_.expired = restored_base_.expired + queue_.stats().expired;
  counters_.dispatched =
      restored_base_.dispatched + queue_.stats().dispatched;
  counters_.sim_time_hours = clock_hours_;
}

void OnlineEngine::bind_metrics() {
  queue_.bind_metrics(config_.registry);
  batcher_.bind_metrics(config_.registry);
  trainer_.bind_metrics(config_.registry);
  if (config_.registry == nullptr) {
    return;
  }
  obs::MetricsRegistry& reg = *config_.registry;
  const auto stage = [&reg](const char* name) {
    return &reg.histogram(
        std::string("mfcp_engine_stage_seconds{stage=\"") + name + "\"}",
        obs::default_time_bounds());
  };
  telemetry_.embed = stage("embed");
  telemetry_.predict = stage("predict");
  telemetry_.match = stage("match");
  if (config_.attribution) {
    telemetry_.attribute = stage("attribute");
    attribution_recorder_.bind(&reg);
  }
  telemetry_.dispatch = stage("dispatch");
  // Queue waits live on the simulated clock (hours), not the wall clock;
  // bounds follow typical max_wait_hours/deadline configurations.
  static constexpr double kWaitBounds[] = {0.01, 0.025, 0.05,  0.1, 0.25,
                                           0.5,  1.0,   2.0,   4.0};
  telemetry_.queue_wait_hours =
      &reg.histogram("mfcp_engine_queue_wait_hours", kWaitBounds);
  telemetry_.tasks_matched = &reg.counter("mfcp_engine_tasks_matched_total");
  telemetry_.retrains = &reg.counter("mfcp_engine_retrains_total");
  telemetry_.sim_time = &reg.gauge("mfcp_engine_sim_time_hours");
  if (config_.ratekeeper != nullptr) {
    telemetry_.rk_rate = &reg.gauge("mfcp_ratekeeper_rate");
    telemetry_.rk_tokens = &reg.gauge("mfcp_ratekeeper_tokens");
    telemetry_.rk_limiting = &reg.gauge("mfcp_ratekeeper_limiting_signal");
    telemetry_.rk_throttled =
        &reg.counter("mfcp_ratekeeper_throttled_total");
  }
}

void append_round_journal(obs::JsonlWriter& journal, const RoundRecord& rec,
                          std::string_view label) {
  if (!label.empty()) {
    journal.field("mode", label);
  }
  journal.field("round", static_cast<std::uint64_t>(rec.round))
      .field("close_hours", rec.close_hours)
      .field("trigger", to_string(rec.trigger))
      .field("batch", static_cast<std::uint64_t>(rec.batch))
      .field("queue_depth", static_cast<std::uint64_t>(rec.queue_depth))
      .field("dropped_total", static_cast<std::uint64_t>(rec.dropped_total))
      .field("max_wait_hours", rec.max_wait_hours)
      .field("regret", rec.regret)
      .field("rolling_regret", rec.rolling_regret)
      .field("reliability", rec.reliability)
      .field("utilization", rec.utilization)
      .field("makespan", rec.makespan)
      .field("drift_stat", rec.drift_stat)
      .field("retrained", rec.retrained)
      .field("retrain_total", static_cast<std::uint64_t>(rec.retrain_total));
  if (rec.ratekeeper_valid) {
    journal.field("admission_rate", rec.admission_rate_per_hour)
        .field("throttled_total", rec.throttled_total)
        .field("limiting_signal",
               control::to_string(rec.limiting_signal));
  }
  if (rec.attribution.valid) {
    journal.field("pred_gap", rec.attribution.pred_gap)
        .field("solver_gap", rec.attribution.solver_gap)
        .field("rounding_gap", rec.attribution.rounding_gap)
        .field("admission_gap", rec.attribution.admission_gap)
        .field("attr_total", rec.attribution.total)
        .field("solver_residual", rec.attribution.solver_residual);
  }
  journal.end_record();
}

void OnlineEngine::advance_clock(double to_hours) {
  MFCP_DCHECK(to_hours >= clock_hours_, "simulated clock moved backwards");
  while (next_drift_ < config_.drift_events.size() &&
         config_.drift_events[next_drift_].at_hours <= to_hours) {
    const DriftEventSpec& event = config_.drift_events[next_drift_];
    MFCP_CHECK(event.cluster < platform_.num_clusters(),
               "drift event references unknown cluster");
    sim::apply_drift(platform_, event.cluster, event.drift);
    MFCP_LOG(kInfo) << "t=" << event.at_hours << "h: cluster "
                    << platform_.cluster(event.cluster).name()
                    << " drifted (time x" << event.drift.time_scale
                    << ", logit " << event.drift.reliability_logit_shift
                    << ")";
    ++next_drift_;
  }
  clock_hours_ = to_hours;
}

bool OnlineEngine::finish_round(RoundTrigger trigger, RunLog& log) {
  queue_.expire(clock_hours_);
  if (queue_.empty()) {
    note_slo(nullptr);
    if (link_ != nullptr) {
      link_->note_queue_depth(0);
    }
    return false;
  }
  RoundRecord rec = run_round(trigger);
  note_slo(&rec);
  tick_ratekeeper(rec);

  // Trailing rolling window for the CSV...
  log.recent_regret.push_back(rec.regret);
  if (log.recent_regret.size() > config_.metrics_window) {
    log.recent_regret.pop_front();
  }
  rec.rolling_regret = std::accumulate(log.recent_regret.begin(),
                                       log.recent_regret.end(), 0.0) /
                       static_cast<double>(log.recent_regret.size());

  // ...and tumbling windows folded into the running total via the
  // streaming reset()/merge() pair.
  core::MatchOutcome outcome;
  outcome.regret = rec.regret;
  outcome.reliability = rec.reliability;
  outcome.utilization = rec.utilization;
  outcome.makespan = rec.makespan;
  outcome.feasible = rec.reliability >= config_.gamma;
  log.window.add(outcome);
  if (log.window.rounds() >= config_.metrics_window) {
    log.result.total.merge(log.window);
    log.window.reset();
  }
  if (config_.journal != nullptr) {
    append_round_journal(*config_.journal, rec);
  }
  if (config_.storage != nullptr) {
    // The chunked on-disk journal gets a byte-identical copy of the same
    // record (same writer, same field order), routed by its close time.
    const std::string line = jsonl_line(
        [&](obs::JsonlWriter& chunk) { append_round_journal(chunk, rec); });
    config_.storage->journal().append(rec.close_hours, line);
    maybe_publish_checkpoint();
  }
  if (link_ != nullptr) {
    link_->note_round(rec.round, rec.close_hours, rec.regret, rec.batch);
    link_->note_queue_depth(queue_.depth());
  }
  if (log.last_round_only) {
    log.result.rounds.clear();
  }
  log.result.rounds.push_back(std::move(rec));
  return true;
}

void OnlineEngine::finalize(RunLog& log, double wall_seconds) {
  // Carry the partial final window into the totals.
  if (log.window.rounds() > 0) {
    log.result.total.merge(log.window);
  }
  refresh_counters();
  log.result.counters = counters_;
  log.result.queue = queue_.stats();
  log.result.wall_seconds = wall_seconds;
  if (config_.admission_buckets != nullptr) {
    log.result.throttled = config_.admission_buckets->throttled_total();
  }
  if (config_.storage != nullptr) {
    // Shutdown durability: a final snapshot generation plus a flushed
    // journal chunk and a synced WAL tail, so a clean stop restarts
    // without replaying anything.
    publish_checkpoint();
    config_.storage->journal().flush();
    config_.storage->wal().sync();
  }
}

void OnlineEngine::admit(Arrival arrival, RunLog& log) {
  ++counters_.arrivals;
  queue_.expire(clock_hours_);
  if (admission_throttled(arrival)) {
    // Refused at the door: no queue entry, no trace, no round trigger —
    // the bucket table carries the count.
    flight(obs::FlightKind::kAdmission, arrival.id, 0, kShedThrottled);
    return;
  }
  maybe_begin_trace(arrival);
  // WAL acceptance precedes the push: a capacity refusal then lands as a
  // rejected record after it, never an orphan terminal.
  wal_accepted(arrival);
  const std::uint64_t id = arrival.id;
  const bool pushed = queue_.push(std::move(arrival));
  if (pushed) {
    ++counters_.admitted;
  }
  flight(obs::FlightKind::kAdmission, id, pushed ? 1 : 0,
         pushed ? 0 : kShedCapacity);
  if (pushed) {
    flight(obs::FlightKind::kQueueTransition, id, kQueueQueued,
           queue_.depth());
  }
  if (queue_.depth() >= batcher_.config().max_batch) {
    finish_round(RoundTrigger::kSize, log);
  }
}

EngineResult OnlineEngine::run() { return event_loop(0.0); }

EngineResult OnlineEngine::serve(GatewayLink& link,
                                 const ServeConfig& serve_config) {
  MFCP_CHECK(serve_config.hours_per_second > 0.0,
             "serve needs a positive simulated-clock rate");
  std::vector<std::string> names;
  for (std::size_t i = 0; i < platform_.num_clusters(); ++i) {
    names.push_back(platform_.cluster(i).name());
  }
  link.set_cluster_names(std::move(names));
  // Externally submitted tasks lost by the queue become terminal in the
  // status table through the loss callback installed at construction
  // (capacity → rejected, deadline → expired).
  // Retry-After prior until a real round cadence is observed: one
  // batching window of wall time per round.
  link.configure_drain(
      batcher_.config().max_batch,
      batcher_.config().max_wait_hours / serve_config.hours_per_second);
  // Retry-After conversions (simulated bucket deficits -> wall seconds)
  // need the serve clock rate.
  link.note_sim_rate(serve_config.hours_per_second);

  link_ = &link;
  EngineResult result = event_loop(serve_config.hours_per_second);
  link.note_sim_time(clock_hours_);  // the flush already noted depth 0
  link_ = nullptr;
  return result;
}

EngineResult OnlineEngine::event_loop(double hours_per_second) {
  MFCP_CHECK(!ran_, "OnlineEngine::run/serve is single-shot per instance");
  ran_ = true;
  GatewayLink* const link = link_;  // null: replay the seeded stream

  Stopwatch wall;
  RunLog log;
  log.last_round_only = link != nullptr;
  obs::HeartbeatHandle pulse;
  if (config_.flight != nullptr) {
    pulse = config_.flight->register_heartbeat(
        link != nullptr ? "engine_serve" : "engine_run");
  }
  // The round loop runs every stage on this thread (minus pool-offloaded
  // solves, which the workers tag themselves), so it is the profiler's
  // primary sampling target.
  obs::SamplingProfiler* profiler = obs::default_profiler();
  if (profiler != nullptr) {
    profiler->register_current_thread("engine");
  }
  // Both clocks start at the entry clock. A recovered clock resumes ahead
  // of the seeded stream's origin, so "t hours into the stream" means t
  // hours after the resume point (a fresh process has a zero base, so
  // undisturbed journals stay byte-identical). A replay's rate is zero:
  // sim_now() never moves its clock.
  const double base_hours = clock_hours_;
  const auto sim_now = [&] {
    return base_hours + wall.seconds() * hours_per_second;
  };

  for (;;) {
    pulse.beat();
    bool stopping = config_.stop_flag != nullptr &&
                    config_.stop_flag->load(std::memory_order_relaxed);
    if (link != nullptr) {
      stopping = stopping || link->stop_requested();
      if (stopping) {
        link->request_stop();  // idempotent; submit() starts rejecting
      }
      // External submissions, stamped at the current simulated time. Even
      // while stopping, anything accepted before the stop is still served.
      for (ExternalSubmission& sub : link->drain()) {
        advance_clock(std::max(sim_now(), clock_hours_));
        admit(Arrival{.id = sub.id,
                      .time_hours = clock_hours_,
                      .deadline_hours = clock_hours_ + sub.deadline_hours,
                      .task = sub.task},
              log);
      }
    }
    if (stopping) {
      // Cooperative stop: no further arrivals, drain what is waiting.
      advance_clock(std::max(sim_now(), clock_hours_));
      while (finish_round(RoundTrigger::kFlush, log)) {
      }
      break;
    }

    std::optional<double> next_arrival;
    if (link == nullptr) {
      next_arrival = arrivals_.peek_time();
      if (next_arrival.has_value()) {
        *next_arrival += base_hours;
      }
    }
    std::optional<double> next_timeout;
    if (!queue_.empty()) {
      next_timeout = batcher_.timeout_at(queue_.oldest_arrival_time());
    }
    if (next_arrival.has_value() &&
        (!next_timeout.has_value() || *next_arrival <= *next_timeout)) {
      advance_clock(*next_arrival);
      auto arrival = arrivals_.next();
      arrival->time_hours += base_hours;
      arrival->deadline_hours += base_hours;
      admit(std::move(*arrival), log);
      continue;
    }
    if (next_timeout.has_value() &&
        (link == nullptr || *next_timeout <= sim_now())) {
      // An overdue timeout (tasks recovered from before the resume point,
      // a late wake-up) closes now, never in the simulated past.
      advance_clock(std::max(*next_timeout, clock_hours_));
      finish_round(RoundTrigger::kTimeout, log);
      if (link == nullptr) {
        continue;
      }
    } else if (link == nullptr) {
      break;  // stream and queue both exhausted
    }

    link->note_queue_depth(queue_.depth());
    link->note_sim_time(clock_hours_);
    // Sleep until the next batch timeout on the simulated clock;
    // submissions wake the loop early.
    int wait_ms = kServePollMs;
    if (!queue_.empty()) {
      const double ms = (batcher_.timeout_at(queue_.oldest_arrival_time()) -
                         sim_now()) /
                        hours_per_second * 1000.0;
      wait_ms = static_cast<int>(std::clamp(
          std::ceil(ms), 0.0, static_cast<double>(kServePollMs)));
    }
    if (wait_ms > 0) {
      // A parked wait is not a stall: the watchdog only times busy beats.
      pulse.idle();
      link->wait_for_event(std::chrono::milliseconds(wait_ms));
      pulse.beat();
    }
  }

  pulse.idle();
  if (profiler != nullptr) {
    profiler->unregister_current_thread();
  }
  finalize(log, wall.seconds());
  return std::move(log.result);
}

RoundRecord OnlineEngine::run_round(RoundTrigger trigger) {
  const std::size_t m = platform_.num_clusters();
  flight(obs::FlightKind::kRoundBegin, counters_.rounds, queue_.depth(),
         static_cast<std::uint64_t>(trigger));
  auto batch = queue_.pop_batch(batcher_.config().max_batch);
  MFCP_DCHECK(!batch.empty(), "round closed with no tasks");

  std::vector<sim::TaskDescriptor> tasks;
  tasks.reserve(batch.size());
  double max_wait = 0.0;
  for (const Arrival& a : batch) {
    tasks.push_back(a.task);
    const double wait = clock_hours_ - a.time_hours;
    max_wait = std::max(max_wait, wait);
    if (telemetry_.queue_wait_hours != nullptr) {
      telemetry_.queue_wait_hours->observe(wait);
    }
  }
  batcher_.record_round(trigger, tasks.size());
  flight(obs::FlightKind::kBatchFormed, counters_.rounds, tasks.size(),
         queue_.depth());

  // Task-lifecycle spans for sampled batch members. Sim-time endpoints
  // are deterministic; the per-stage wall durations below are diagnostic
  // and never exported to the deterministic journal.
  std::vector<char> traced;
  bool any_traced = false;
  double batch_open_hours = clock_hours_;
  if (config_.task_traces != nullptr) {
    traced.assign(batch.size(), 0);
    for (const Arrival& a : batch) {
      batch_open_hours = std::min(batch_open_hours, a.time_hours);
    }
    for (std::size_t j = 0; j < batch.size(); ++j) {
      if (!task_traced(batch[j].id)) {
        continue;
      }
      traced[j] = 1;
      any_traced = true;
      obs::TaskSpan wait_span;
      wait_span.name = "queue_wait";
      wait_span.start_hours = batch[j].time_hours;
      wait_span.end_hours = clock_hours_;
      config_.task_traces->append(batch[j].id, std::move(wait_span));
      obs::TaskSpan batch_span;
      batch_span.name = "batch";
      batch_span.start_hours = batch_open_hours;
      batch_span.end_hours = clock_hours_;
      config_.task_traces->append(batch[j].id, std::move(batch_span));
    }
  }

  obs::ScopedSpan embed_span(telemetry_.embed, "embed", config_.trace,
                             obs::EngineStage::kEmbed);
  const Matrix features = embedder_.embed_batch(tasks);
  embed_span.stop();

  matching::MatchingProblem truth;
  truth.times = platform_.true_times(tasks);
  truth.reliability = platform_.true_reliability(tasks);
  truth.gamma = config_.gamma;
  truth.speedup = config_.speedup;

  obs::ScopedSpan predict_span(telemetry_.predict, "predict", config_.trace,
                               obs::EngineStage::kPredict);
  const Matrix t_hat = predictor_.predict_time_matrix(features);
  const Matrix a_hat = predictor_.predict_reliability_matrix(features);
  const double predict_seconds = predict_span.stop();
  const matching::MatchingProblem predicted =
      truth.with_metrics(t_hat, a_hat);

  // Deployment solve and the same-operator reference solve (paper Eq. 6)
  // are independent; with a pool they run concurrently. Both keep their
  // full traces (problem + relaxed solution + assignment), so attribution
  // can price each pipeline stage afterwards.
  obs::ScopedSpan match_span(telemetry_.match, "match", config_.trace,
                             obs::EngineStage::kMatch);
  const auto solve = [this](const matching::MatchingProblem& problem) {
    // Pool workers carry their own TLS stage marker, so a solve run there
    // tags its samples itself.
    obs::StageScope stage(obs::EngineStage::kMatch);
    return core::deploy_matching_traced(problem, config_.eval);
  };
  core::DeployTrace deployed_trace;
  core::DeployTrace reference_trace;
  if (pool_ != nullptr) {
    auto deployed_fut = pool_->submit([&] { return solve(predicted); });
    auto reference_fut = pool_->submit([&] { return solve(truth); });
    deployed_trace = deployed_fut.get();
    reference_trace = reference_fut.get();
  } else {
    deployed_trace = solve(predicted);
    reference_trace = solve(truth);
  }
  const double solve_seconds = match_span.stop();
  const matching::Assignment& deployed = deployed_trace.assignment;
  flight(obs::FlightKind::kSolverIters, counters_.rounds,
         deployed_trace.relaxed.iterations, tasks.size());

  const core::MatchOutcome outcome =
      core::evaluate_assignment(truth, deployed, reference_trace.assignment);

  // Per-task predict + match spans, now that assignments are known.
  if (any_traced) {
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      if (traced[j] == 0) {
        continue;
      }
      const auto ci = static_cast<std::size_t>(deployed[j]);
      obs::TaskSpan p;
      p.name = "predict";
      p.start_hours = clock_hours_;
      p.end_hours = clock_hours_;
      p.duration_ns = static_cast<std::uint64_t>(predict_seconds * 1e9);
      config_.task_traces->append(batch[j].id, std::move(p));
      obs::TaskSpan m_span;
      m_span.name = "match";
      m_span.start_hours = clock_hours_;
      m_span.end_hours = clock_hours_;
      m_span.duration_ns = static_cast<std::uint64_t>(solve_seconds * 1e9);
      m_span.value = t_hat(ci, j);  // predicted hours on the assignment
      m_span.detail = platform_.cluster(ci).name();
      config_.task_traces->append(batch[j].id, std::move(m_span));
    }
  }

  // Externally submitted tasks (serve mode) learn their assignment here.
  if (link_ != nullptr) {
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      if (batch[j].id >= kExternalIdBase) {
        const auto ci = static_cast<std::size_t>(deployed[j]);
        link_->table().mark_matched(batch[j].id, ci, t_hat(ci, j),
                                    counters_.rounds);
      }
    }
  }

  // Dispatch for real: sample success/failure on the assigned clusters.
  obs::ScopedSpan dispatch_span(telemetry_.dispatch, "dispatch",
                                config_.trace, obs::EngineStage::kDispatch);
  const sim::ExecutionOutcome run = sim::execute_assignment(
      platform_, tasks, deployed, dispatch_rng_, /*max_attempts=*/2);
  const double dispatch_seconds = dispatch_span.stop();
  std::size_t dispatch_ok = 0;
  for (const bool ok : run.succeeded) {
    dispatch_ok += ok ? 1 : 0;
  }

  // Feedback: observed runtimes on assigned clusters (bandit feedback),
  // plus occasional shadow profiles of the full cluster column.
  double error_sum = 0.0;
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    const auto ci = static_cast<std::size_t>(deployed[j]);
    const double observed =
        platform_.cluster(ci).measure_time(tasks[j], dispatch_rng_);
    // Robust log-ratio error (see drift_error): symmetric in over- vs
    // under-prediction and bounded for tiny predicted times, where the
    // earlier |t̂−obs|/max(t̂, ε) form was heavy-tailed.
    error_sum += drift_error(t_hat(ci, j), observed);

    Experience e;
    e.features.assign(features.row_span(j).begin(),
                      features.row_span(j).end());
    e.cluster = ci;
    e.observed_time = observed;
    e.observed_success = run.succeeded[j] ? 1.0 : 0.0;
    trainer_.record(std::move(e));

    if (link_ != nullptr && batch[j].id >= kExternalIdBase) {
      link_->table().mark_dispatched(batch[j].id, observed,
                                     run.succeeded[j]);
    }
    wal_terminal(batch[j].id, storage::WalRecordType::kDispatched);
    journal_task(batch[j].id, "dispatched");

    if (any_traced && traced[j] != 0) {
      obs::TaskSpan d;
      d.name = "dispatch";
      d.start_hours = clock_hours_;
      d.end_hours = clock_hours_;
      d.duration_ns = static_cast<std::uint64_t>(dispatch_seconds * 1e9);
      d.detail = run.succeeded[j] ? "ok" : "failed";
      config_.task_traces->append(batch[j].id, std::move(d));
      obs::TaskSpan f;
      f.name = "feedback";
      f.start_hours = clock_hours_;
      f.end_hours = clock_hours_;
      f.value = observed;  // the runtime the bandit loop learned from
      config_.task_traces->append(batch[j].id, std::move(f));
      // Terminal span: realized minus predicted makespan, the per-task
      // prediction error the chain's reader cares about post-dispatch.
      obs::TaskSpan done;
      done.name = "complete";
      done.start_hours = clock_hours_;
      done.end_hours = clock_hours_;
      done.value = observed - t_hat(ci, j);
      done.detail = run.succeeded[j] ? "ok" : "failed";
      config_.task_traces->append(batch[j].id, std::move(done));
      config_.task_traces->finish(batch[j].id, "dispatched");
    }

    if (config_.profile_probability > 0.0 &&
        dispatch_rng_.bernoulli(config_.profile_probability)) {
      for (std::size_t i = 0; i < m; ++i) {
        if (i == ci) {
          continue;
        }
        Experience probe;
        probe.features.assign(features.row_span(j).begin(),
                              features.row_span(j).end());
        probe.cluster = i;
        probe.observed_time =
            platform_.cluster(i).measure_time(tasks[j], dispatch_rng_);
        probe.observed_success =
            platform_.cluster(i).run_once(tasks[j], dispatch_rng_) ? 1.0
                                                                   : 0.0;
        trainer_.record(std::move(probe));
      }
    }
  }
  const double drift_stat =
      error_sum / static_cast<double>(tasks.size());

  bool retrained = false;
  if (config_.online_retraining) {
    retrained = trainer_.observe_round(drift_stat, predictor_);
    if (retrained) {
      flight(obs::FlightKind::kRetrain, counters_.rounds,
             trainer_.retrain_count(), 1);
    }
  }

  RoundRecord rec;
  rec.round = counters_.rounds;
  rec.close_hours = clock_hours_;
  rec.trigger = trigger;
  rec.batch = tasks.size();
  rec.queue_depth = queue_.depth();
  rec.dropped_total = queue_.stats().dropped_total();
  rec.max_wait_hours = max_wait;
  rec.regret = outcome.regret;
  rec.reliability = outcome.reliability;
  rec.utilization = outcome.utilization;
  rec.makespan = outcome.makespan;
  rec.drift_stat = drift_stat;
  rec.retrained = retrained;
  rec.retrain_total = trainer_.retrain_count();
  rec.solve_seconds = solve_seconds;
  rec.dispatch_ok = dispatch_ok;

  if (config_.attribution) {
    obs::ScopedSpan attr_span(telemetry_.attribute, "attribute",
                              config_.trace, obs::EngineStage::kAttribute);
    core::AttributionConfig acfg;
    // Admission counterfactual: every arrival lost since the previous
    // round (capacity drops + deadline expiries), priced at its best-case
    // true runtime and normalized by this round's batch size so the term
    // is commensurable with the per-task regret gaps.
    const std::vector<Arrival> lost = queue_.take_recent_losses();
    if (!lost.empty()) {
      std::vector<sim::TaskDescriptor> lost_tasks;
      lost_tasks.reserve(lost.size());
      for (const Arrival& a : lost) {
        lost_tasks.push_back(a.task);
      }
      const Matrix lost_times = platform_.true_times(lost_tasks);
      double loss = 0.0;
      for (std::size_t j = 0; j < lost_tasks.size(); ++j) {
        double best = lost_times(0, j);
        for (std::size_t i = 1; i < m; ++i) {
          best = std::min(best, lost_times(i, j));
        }
        loss += best;
      }
      acfg.admission_loss = loss / static_cast<double>(tasks.size());
    }
    rec.attribution = core::attribute_regret(
        truth, deployed_trace, reference_trace, config_.eval, acfg);
    attr_span.stop();
    attribution_recorder_.record(rec.attribution);
  }

  ++counters_.rounds;
  counters_.retrains = trainer_.retrain_count();
  if (telemetry_.tasks_matched != nullptr) {
    telemetry_.tasks_matched->add(tasks.size());
    if (retrained) {
      telemetry_.retrains->add(1);
    }
    telemetry_.sim_time->set(clock_hours_);
  }
  flight(obs::FlightKind::kRoundEnd, rec.round, rec.batch,
         rec.batch - dispatch_ok);
  return rec;
}

RecoveryReport OnlineEngine::recover(GatewayLink* link) {
  MFCP_CHECK(config_.storage != nullptr,
             "recover() needs EngineConfig::storage");
  MFCP_CHECK(!ran_, "recover() must run before run()/serve()");
  storage::StorageManager& storage = *config_.storage;

  RecoveryReport report;
  report.truncated_bytes = storage.recovery_scan().truncated_bytes;

  // 1. Newest recoverable snapshot generation: predictor weights,
  //    counters, clock, and retrain schedule. A corrupt newest snapshot
  //    falls back through older generations inside load_latest; nothing
  //    loadable means a cold start with an intact WAL replay.
  const auto loaded =
      storage.checkpoints().load_latest([this](std::istream& is) {
        counters_ = load_checkpoint(is, predictor_);
        return true;
      });
  if (loaded.has_value()) {
    report.checkpoint_loaded = true;
    report.checkpoint_generation = loaded->generation;
    clock_hours_ = counters_.sim_time_hours;
    restored_base_ = counters_;
    trainer_.restore_schedule(counters_.rounds, counters_.retrains);
  }

  // 2. WAL suffix replay. Outstanding = acked but unterminal; external
  //    ids are re-queued (their submitters hold tickets), synthetic ids
  //    are skipped — the seeded arrival stream regenerates them exactly,
  //    so replaying would double-admit.
  const std::vector<storage::WalRecord> outstanding = storage.outstanding();
  std::uint64_t accepted_distinct = 0;
  {
    std::unordered_set<std::uint64_t> seen;
    for (const storage::WalRecord& rec : storage.recovery_scan().records) {
      if (rec.type == storage::WalRecordType::kAccepted &&
          seen.insert(rec.task_id).second) {
        ++accepted_distinct;
      }
    }
  }
  report.terminal = accepted_distinct - outstanding.size();

  // Resume the clock past every replayed accept stamp (it cannot move
  // backwards), applying any drift events scheduled up to that point —
  // the platform copy is rebuilt per process, so scheduled environment
  // changes replay deterministically alongside the tasks.
  double resume = clock_hours_;
  for (const storage::WalRecord& rec : outstanding) {
    if (rec.task_id >= kExternalIdBase) {
      resume = std::max(resume, rec.hours);
    }
  }
  advance_clock(resume);

  GatewayLink* const prev_link = link_;
  link_ = link;  // capacity refusals during replay mark the table
  const std::size_t drops_before = queue_.stats().dropped_capacity;
  for (const storage::WalRecord& rec : outstanding) {
    if (rec.task_id < kExternalIdBase) {
      continue;
    }
    if (link != nullptr) {
      link->table().restore_entry(rec.task_id, rec.hours);
    }
    // Re-append the acceptance to the fresh log (new sequence number,
    // original stamp and deadline) before the push, so the compacted WAL
    // still witnesses the task and a refusal below pairs with it.
    storage.wal().append(rec);
    Arrival arrival;
    arrival.id = rec.task_id;
    arrival.time_hours = rec.hours;
    arrival.deadline_hours = rec.deadline_hours;
    arrival.task = rec.task;
    ++counters_.arrivals;
    ++report.replayed;
    if (queue_.push(std::move(arrival))) {
      ++counters_.admitted;
    }
  }
  report.dropped = queue_.stats().dropped_capacity - drops_before;
  link_ = prev_link;

  storage.wal().sync();
  storage.compact_after_recovery();
  storage.note_recovered(report.replayed, report.terminal);
  if (link != nullptr) {
    link->note_recovery(report.replayed, report.terminal);
  }
  report.resume_hours = clock_hours_;
  MFCP_LOG(kInfo) << "storage recovery: "
                  << (report.checkpoint_loaded ? "snapshot generation " +
                          std::to_string(report.checkpoint_generation)
                                               : std::string("cold start"))
                  << ", replayed " << report.replayed
                  << " outstanding task(s) (" << report.dropped
                  << " dropped), " << report.terminal
                  << " already terminal, resume t=" << clock_hours_ << "h";
  return report;
}

}  // namespace mfcp::engine
