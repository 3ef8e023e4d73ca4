// The online platform engine: an event-driven runtime that turns the
// offline MFCP pipeline into a continuously operating exchange platform.
//
//   arrivals ──> admission queue ──> micro-batcher ──> matching round
//                                                         │
//        replay buffer + drift detector  <── dispatch <───┘
//                │
//                └─ retrain burst (fine-tunes the predictors in place)
//
// Each matching round embeds the batched tasks, predicts (T̂, Â) with the
// shared PlatformPredictor, solves the deployment matching (offloaded to a
// ThreadPool when one is provided — the reference solve for regret runs
// concurrently), dispatches through the failure-injection simulator, and
// feeds observed outcomes back into the drift-aware online trainer.
//
// The whole run is simulated-time deterministic: identical EngineConfig,
// platform, and predictor state produce identical round assignments and
// per-round records (the wall-clock solve_seconds field is the single
// nondeterministic diagnostic and is excluded from metric CSVs).
#pragma once

#include <atomic>
#include <deque>
#include <vector>

#include "control/ratekeeper.hpp"
#include "control/token_bucket.hpp"
#include "engine/arrivals.hpp"
#include "engine/batcher.hpp"
#include "engine/checkpoint.hpp"
#include "engine/online_trainer.hpp"
#include "engine/queue.hpp"
#include "engine/service.hpp"
#include "mfcp/metrics.hpp"
#include "mfcp/regret.hpp"
#include "obs/attribution.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/trace_store.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/embedding.hpp"
#include "sim/failure.hpp"
#include "storage/storage.hpp"

namespace mfcp::engine {

/// A scheduled environment change: at simulated time `at_hours`, cluster
/// `cluster` drifts (see sim::ClusterDrift).
struct DriftEventSpec {
  double at_hours = 0.0;
  std::size_t cluster = 0;
  sim::ClusterDrift drift;
};

struct EngineConfig {
  ArrivalConfig arrivals;
  QueueConfig queue;
  BatcherConfig batcher;
  OnlineTrainerConfig trainer;
  core::EvaluationConfig eval;
  double gamma = 0.8;
  sim::SpeedupCurve speedup = sim::SpeedupCurve::exclusive();

  /// false freezes the predictor: outcomes are still observed and the
  /// drift statistic still reported, but no retraining happens (the
  /// baseline mode of bench/exp_online_engine).
  bool online_retraining = true;

  /// Per dispatched task, probability that the platform also shadow-
  /// profiles it on every other cluster (full-row labels). Deployment
  /// feedback alone is bandit feedback — a cluster the matcher avoids is
  /// never observed, so a cluster that drifts *faster* could never be
  /// rediscovered without this exploration budget.
  double profile_probability = 0.1;

  /// Rolling metrics window, in rounds, for the per-round CSV and the
  /// windowed summaries (uses MetricsAccumulator reset()/merge()).
  std::size_t metrics_window = 16;

  /// Per-round regret attribution: decompose each round's realized regret
  /// into prediction / solver / rounding / admission terms
  /// (core::attribute_regret), record them through `registry` and the
  /// journal, and keep the queue's lost arrivals for the admission
  /// counterfactual. Costs two warm-started polish solves per round (the
  /// chains' relaxed solutions continued to a tighter stationary point);
  /// decisions are unaffected — attribution only observes.
  bool attribution = false;

  /// Scheduled environment drift, sorted or not (the engine sorts).
  std::vector<DriftEventSpec> drift_events;

  /// Optional cooperative-stop flag, polled between events: when it flips
  /// true, run() stops consuming arrivals, drains the queue with flush
  /// rounds, and returns. Unset (the default) preserves run-to-exhaustion
  /// semantics exactly. This is how SIGINT/SIGTERM shut the example down
  /// gracefully — a signal handler's atomic store is all it takes.
  const std::atomic<bool>* stop_flag = nullptr;

  /// Seeds dispatch/profiling randomness (arrival randomness is seeded by
  /// arrivals.seed; retraining by trainer.seed).
  std::uint64_t seed = 0xe61e0ULL;

  /// Optional telemetry (all null by default = off, near-zero overhead):
  /// `registry` receives per-stage latency histograms
  /// (mfcp_engine_stage_seconds{stage=...}), queue/batcher/drift metrics,
  /// and round counters; `trace` additionally retains the most recent
  /// stage spans; `journal` receives one JSONL record per closed round
  /// (deterministic fields only, in a stable order — two identical seeded
  /// runs produce bit-identical journals). All are borrowed and must
  /// outlive the engine.
  obs::MetricsRegistry* registry = nullptr;
  obs::TraceRing* trace = nullptr;
  obs::JsonlWriter* journal = nullptr;

  /// Task-lifecycle tracing: sampled tasks accumulate per-stage spans
  /// (submit → queue_wait → batch → predict → match → dispatch →
  /// feedback, or a terminal expired/rejected) in `task_traces`. The
  /// store's sample rate decides which tasks, as a pure function of the
  /// task id — no RNG draw, no effect on decisions — so the round journal
  /// stays byte-identical with tracing on or off, and the gateway link
  /// asks the same store for external submissions. Null disables
  /// tracing; span sim-time endpoints are deterministic, wall durations
  /// are diagnostic only.
  obs::TraceStore* task_traces = nullptr;

  /// Black-box flight recorder: the round loop records
  /// round/batch/admission/queue events onto the calling thread's ring
  /// and heartbeats into the watchdog (run() as "engine_run", serve() as
  /// "engine_serve"). Write-only telemetry — the engine never reads it
  /// back, so decisions and the byte-compared round journal are
  /// untouched. Borrowed; null disables recording entirely.
  obs::FlightRecorder* flight = nullptr;

  /// SLO monitor: fed one observation per closed round (dispatch
  /// successes, expiries, regret gap) and evaluated after each, on the
  /// simulated clock. Borrowed; bound to `registry` when both are set.
  obs::SloMonitor* slo = nullptr;

  /// Closed-loop admission control: both must be set to enable. The
  /// Ratekeeper is ticked after every closed round (run() and serve()
  /// alike) and its rate published into the bucket table; synthetic
  /// arrivals then spend an anonymous-bucket token at the door (throttled
  /// arrivals never reach the queue, a trace, or the status table), while
  /// external submissions are charged by the GatewayLink at POST /submit
  /// against the *same* table — never twice. Both borrowed; engine-side
  /// ticks and admissions stay on the simulated clock, so seeded runs
  /// make identical admission decisions.
  control::Ratekeeper* ratekeeper = nullptr;
  control::TokenBucketTable* admission_buckets = nullptr;

  /// Durability layer (--data-dir): when set, every accepted task is
  /// WAL-logged before it can be lost (external ids at the gateway door,
  /// synthetic ids at the queue push), terminal transitions append
  /// dispatched/expired/rejected records, the round journal is copied
  /// into the time-chunked store, and the predictor+counters are
  /// checkpointed every checkpoint_every_rounds rounds plus once at
  /// shutdown. Write-only during a run: decisions, metrics, and the
  /// byte-compared round journal are identical with storage attached.
  /// Borrowed; null (the default) disables durability entirely.
  storage::StorageManager* storage = nullptr;
};

/// One closed matching round, as written to the metrics CSV.
struct RoundRecord {
  std::size_t round = 0;
  double close_hours = 0.0;      // simulated time the round closed
  RoundTrigger trigger = RoundTrigger::kSize;
  std::size_t batch = 0;         // tasks matched this round
  std::size_t queue_depth = 0;   // remaining after the pop
  std::size_t dropped_total = 0; // cumulative capacity + expiry drops
  double max_wait_hours = 0.0;   // batching delay of the oldest task
  double regret = 0.0;
  double reliability = 0.0;
  double utilization = 0.0;
  double makespan = 0.0;
  double drift_stat = 0.0;       // per-round relative time-prediction error
  bool retrained = false;
  std::size_t retrain_total = 0;
  double rolling_regret = 0.0;   // mean over the trailing metrics window
  double solve_seconds = 0.0;    // wall clock (diagnostic, nondeterministic)
  std::size_t dispatch_ok = 0;   // first-attempt successes (not journaled)
  /// Regret decomposition (valid only when EngineConfig::attribution).
  obs::RegretBreakdown attribution;
  /// Admission-control state at round close (valid only when the engine
  /// runs with a Ratekeeper; journaled only then, so runs without one
  /// stay byte-identical to pre-Ratekeeper journals).
  bool ratekeeper_valid = false;
  double admission_rate_per_hour = 0.0;
  std::uint64_t throttled_total = 0;  // cumulative bucket throttles
  control::LimitingSignal limiting_signal = control::LimitingSignal::kNone;
};

/// Appends `rec` to the JSONL round journal with a stable field order.
/// Only deterministic fields are written — wall-clock solve_seconds stays
/// out, so seeded runs journal bit-identically. `label` tags the run
/// (e.g. "online" vs "frozen" in paired benchmarks); empty omits the tag.
void append_round_journal(obs::JsonlWriter& journal, const RoundRecord& rec,
                          std::string_view label = {});

/// Summary of one completed metrics window (every metrics_window rounds).
struct WindowSummary {
  std::size_t last_round = 0;
  core::MetricsAccumulator metrics;
};

/// What OnlineEngine::recover() found and did (see its contract).
struct RecoveryReport {
  bool checkpoint_loaded = false;        // a snapshot generation restored
  std::uint64_t checkpoint_generation = 0;
  std::uint64_t replayed = 0;   // external acked-unterminal tasks re-queued
  std::uint64_t dropped = 0;    // replays the bounded queue refused
  std::uint64_t terminal = 0;   // WAL-witnessed terminal acceptances
  std::uint64_t truncated_bytes = 0;  // torn WAL tail removed at startup
  double resume_hours = 0.0;    // simulated clock after recovery
};

struct EngineResult {
  std::vector<RoundRecord> rounds;
  std::vector<WindowSummary> windows;
  core::MetricsAccumulator total;
  EngineCounters counters;
  QueueStats queue;
  double wall_seconds = 0.0;
  /// Submissions the token buckets refused (engine door + gateway door;
  /// zero without a Ratekeeper).
  std::uint64_t throttled = 0;
};

/// How serve() maps wall time onto the simulated clock and paces its
/// event loop (see OnlineEngine::serve).
struct ServeConfig {
  /// Simulated hours that elapse per wall-clock second. Batcher timeouts
  /// and task deadlines are simulated-time quantities, so this sets the
  /// real-time round cadence: at 120 h/s a 0.25 h batching window closes
  /// in ~2 ms of wall time.
  double hours_per_second = 120.0;
  /// Upper bound on one condition-variable wait, bounding how stale the
  /// stop flag / signal check can get. Submissions wake the loop early.
  int poll_ms = 20;
};

class OnlineEngine {
 public:
  /// The engine owns its platform copy (drift events mutate it locally)
  /// and borrows the predictor, so harnesses can pretrain, checkpoint,
  /// and compare predictors across engine runs.
  OnlineEngine(EngineConfig config, sim::Platform platform,
               const sim::PseudoGnnEmbedder& embedder,
               core::PlatformPredictor& predictor,
               ThreadPool* pool = nullptr);

  /// Consumes the arrival stream to exhaustion and returns the full
  /// per-round trace. Callable once per engine instance.
  EngineResult run();

  /// Real-time service mode: the engine becomes the backend of a platform
  /// gateway. Wall time drives the simulated clock (ServeConfig), external
  /// submissions drain from `link` into the admission queue (stamped at
  /// the current simulated time), and their lifecycle is written to the
  /// link's status table (queued → matched → dispatched / expired /
  /// rejected). Runs until link.request_stop() or the config's stop_flag,
  /// then flushes the queue and returns. Mutually exclusive with run()
  /// (one shot per engine instance either way). Unlike run(), wall-clock
  /// scheduling makes serve() runs nondeterministic by construction.
  EngineResult serve(GatewayLink& link, const ServeConfig& serve_config);

  /// Crash recovery from EngineConfig::storage, before run()/serve():
  /// restores the newest valid snapshot generation (predictor weights,
  /// counters, simulated clock, retrain schedule), then replays every
  /// acked-but-unterminal external task from the WAL scan back into the
  /// admission queue — stamped at its original accept time, original
  /// absolute deadline — re-appends those acceptances to the fresh log,
  /// and compacts the superseded segments. Synthetic outstanding records
  /// are skipped: the seeded arrival stream regenerates them exactly.
  /// When `link` is set, replayed tasks reappear in its status table as
  /// queued (capacity refusals transition straight to rejected) and the
  /// recovered counts land in /stats. Never throws on torn or empty WAL
  /// state — an unrecoverable store degrades to a cold start.
  RecoveryReport recover(GatewayLink* link = nullptr);

  [[nodiscard]] const EngineCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const sim::Platform& platform() const noexcept {
    return platform_;
  }

 private:
  /// Shared per-round bookkeeping for run() and serve(): the rolling
  /// regret window, tumbling metric windows, and the JSONL journal.
  struct RunLog {
    EngineResult result;
    core::MetricsAccumulator window;
    std::deque<double> recent_regret;
  };

  void advance_clock(double to_hours);
  /// Admits one arrival stamped at the current clock (run() and serve()
  /// alike): expiry sweep, token-bucket check, WAL acceptance, queue push,
  /// and a size-triggered round when the batch is full.
  void admit(Arrival arrival, RunLog& log);
  RoundRecord run_round(RoundTrigger trigger);
  /// Deterministic per-task sampling decision (see task_traces).
  [[nodiscard]] bool task_traced(std::uint64_t task_id) const noexcept;
  /// Opens the trace (+ submit span) for a sampled synthetic arrival;
  /// external ids are opened by the gateway link at POST /submit.
  void maybe_begin_trace(const Arrival& arrival);
  /// Feeds the SLO monitor after a round (rec) or a between-round expiry
  /// sweep (nullptr), then re-evaluates the burn rates (captured for the
  /// Ratekeeper's burn signal).
  void note_slo(const RoundRecord* rec);
  /// True when the Ratekeeper is enabled and the anonymous bucket refuses
  /// `arrival` (synthetic arrivals only; external ids were charged at the
  /// gateway door and pass through untouched).
  [[nodiscard]] bool admission_throttled(const Arrival& arrival);
  /// One controller step after a closed round: feeds the signals, ticks
  /// the Ratekeeper, publishes the rate into the bucket table, exports
  /// the mfcp_ratekeeper_* metrics, and stamps `rec`'s admission fields.
  void tick_ratekeeper(RoundRecord& rec);
  /// Records one flight event at the current simulated time (no-op
  /// without a recorder; never affects decisions or the journal).
  void flight(obs::FlightKind kind, std::uint64_t a0 = 0,
              std::uint64_t a1 = 0, std::uint64_t a2 = 0,
              std::uint64_t trace_id = 0) noexcept;
  /// Expires the queue, runs one round if anything is left, and folds the
  /// record into `log` (returns false when the queue emptied first).
  bool finish_round(RoundTrigger trigger, RunLog& log);
  /// Flushes the partial metrics window and fills result counters.
  void finalize(RunLog& log, double wall_seconds);
  void bind_metrics();
  /// Folds the restarted queue's stats onto the recovered base so the
  /// drop/expiry/dispatch counters stay monotone across recover().
  void refresh_counters();
  /// WAL acceptance record for a synthetic arrival about to be pushed
  /// (external ids were logged at the gateway door; no-op without
  /// storage).
  void wal_accepted(const Arrival& arrival);
  /// WAL terminal record (dispatched/expired/rejected) for any task id.
  void wal_terminal(std::uint64_t id, storage::WalRecordType type);
  /// Chunk-journal task-trace record for an external task's terminal
  /// transition (no-op without storage or for synthetic ids).
  void journal_task(std::uint64_t id, const char* state);
  /// Publishes a snapshot generation through the storage checkpoints
  /// (maybe_: only on the checkpoint_every_rounds cadence).
  void publish_checkpoint();
  void maybe_publish_checkpoint();

  /// Cached registry handles for the round loop's own stages (the queue,
  /// batcher, and trainer cache theirs in bind_metrics). Null when off.
  struct Telemetry {
    obs::Histogram* embed = nullptr;
    obs::Histogram* predict = nullptr;
    obs::Histogram* match = nullptr;
    obs::Histogram* attribute = nullptr;
    obs::Histogram* dispatch = nullptr;
    obs::Histogram* queue_wait_hours = nullptr;  // simulated-time waits
    obs::Counter* tasks_matched = nullptr;
    obs::Counter* retrains = nullptr;
    obs::Gauge* sim_time = nullptr;
    // Ratekeeper export (bound only when both the registry and the
    // controller are configured).
    obs::Gauge* rk_rate = nullptr;
    obs::Gauge* rk_tokens = nullptr;
    obs::Gauge* rk_limiting = nullptr;
    obs::Counter* rk_throttled = nullptr;
  };

  EngineConfig config_;
  sim::Platform platform_;
  const sim::PseudoGnnEmbedder& embedder_;
  core::PlatformPredictor& predictor_;
  ThreadPool* pool_;

  ArrivalProcess arrivals_;
  AdmissionQueue queue_;
  MicroBatcher batcher_;
  OnlineTrainer trainer_;
  Rng dispatch_rng_;

  double clock_hours_ = 0.0;
  std::size_t next_drift_ = 0;
  std::uint64_t slo_expired_seen_ = 0;  // queue expiry counter watermark
  double last_slo_burn_ = 0.0;  // max min(fast, slow) burn, latest evaluate
  std::uint64_t rk_expired_seen_ = 0;    // ratekeeper's own expiry watermark
  std::uint64_t rk_throttled_seen_ = 0;  // exported-counter watermark
  EngineCounters counters_;
  /// Counter totals restored by recover(): the queue restarts
  /// at zero, so refresh_counters() adds its stats onto this base.
  EngineCounters restored_base_;
  Telemetry telemetry_;
  obs::AttributionRecorder attribution_recorder_;
  /// Non-null only while serve() runs: receives status transitions for
  /// externally submitted tasks and round/queue hints for /stats.
  GatewayLink* link_ = nullptr;
  bool ran_ = false;
};

}  // namespace mfcp::engine
