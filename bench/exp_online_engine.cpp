// Online platform engine experiment: frozen vs drift-aware retraining.
//
// A single pretrained TSM predictor is cloned into two identical copies,
// then each serves the SAME ≥500-arrival stream through the online engine
// (identical arrival, queue, batching, dispatch, and drift randomness — a
// paired comparison). Halfway through the stream the environment drifts:
// one cluster's hardware degrades hard (slower and flakier). The frozen
// engine keeps trusting its stale predictor; the online engine's drift
// detector trips and fine-tunes on the replay buffer.
//
// Expected shape: near-identical regret before the drift; after it, the
// online engine's rolling regret drops back toward the pre-drift level
// while the frozen engine's stays elevated.
//
// Run:  ./build/bench/exp_online_engine             (writes online_engine.csv)
//       ./build/bench/exp_online_engine --quick     (short stream, no CSV)
//       ./build/bench/exp_online_engine --journal [path]
//           additionally writes one JSONL record per round, both modes,
//           tagged {"mode":...} — deterministic, so two seeded runs diff
//           clean (the CI determinism guard relies on this).
//       ./build/bench/exp_online_engine --trace-sample <rate>
//           samples task-lifecycle traces at <rate> in [0,1]; with
//           --journal they drain to <path>.tasktraces (sim-time fields
//           only, so they are as deterministic as the journal itself).
//           The round journal is byte-identical whether sampling is on or
//           off — CI compares the two directly.
//       ./build/bench/exp_online_engine --ratekeeper
//           runs both modes behind the closed-loop admission controller:
//           arrivals spend tokens from the anonymous bucket and the
//           journal gains admission_rate / throttled_total /
//           limiting_signal per round. Admission decisions ride on the
//           simulated clock only, so two seeded --ratekeeper runs still
//           produce byte-identical journals (the CI guard compares them).
//       ./build/bench/exp_online_engine --flight
//           attaches a black-box flight recorder to both mode runs
//           (engine events + process default for pool/ratekeeper events).
//           The recorder is write-only telemetry, so the round journal
//           stays byte-identical with it on — the CI determinism guard
//           compares a --flight journal against the plain baseline.
//       ./build/bench/exp_online_engine --profile <path>
//           samples the online-mode run at 97 Hz with the in-process CPU
//           profiler and writes the folded flamegraph (stack lines +
//           [stage_totals] anchors) to <path>. Sampling is telemetry-only,
//           so the round journal stays byte-identical with it on — the CI
//           determinism guard compares a --profile journal against the
//           plain baseline.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "control/ratekeeper.hpp"
#include "control/token_bucket.hpp"
#include "engine/engine.hpp"
#include "mfcp/trainer_tsm.hpp"
#include "net/http.hpp"
#include "obs/flight.hpp"
#include "obs/profiler.hpp"
#include "obs/sinks.hpp"
#include "obs/slo.hpp"
#include "obs/trace_store.hpp"
#include "nn/serialize.hpp"
#include "sim/dataset.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

using namespace mfcp;

namespace {

struct Scenario {
  sim::Platform platform;
  sim::PseudoGnnEmbedder embedder;
  sim::Dataset profile_data;
};

Scenario make_scenario(std::size_t num_clusters, std::size_t profile_tasks,
                       std::uint64_t seed) {
  sim::Platform platform =
      sim::Platform::make_setting(sim::Setting::kA, num_clusters);
  sim::EmbedderConfig embed_cfg;
  embed_cfg.seed = 0xe1bedULL ^ seed;
  sim::PseudoGnnEmbedder embedder(embed_cfg);
  sim::DatasetConfig data_cfg;
  data_cfg.num_tasks = profile_tasks;
  data_cfg.task_seed = 0x7a5cULL ^ seed;
  data_cfg.noise_seed = 0x401feULL ^ seed;
  sim::Dataset data = build_dataset(platform, embedder, data_cfg);
  return Scenario{std::move(platform), std::move(embedder), std::move(data)};
}

/// Copies predictor weights through the text checkpoint (bit-exact).
void clone_weights(core::PlatformPredictor& from,
                   core::PlatformPredictor& to) {
  for (std::size_t i = 0; i < from.num_clusters(); ++i) {
    std::stringstream t_buf;
    nn::save_mlp(t_buf, from.cluster(i).time_model());
    nn::load_mlp(t_buf, to.cluster(i).time_model());
    std::stringstream a_buf;
    nn::save_mlp(a_buf, from.cluster(i).reliability_model());
    nn::load_mlp(a_buf, to.cluster(i).reliability_model());
  }
}

engine::EngineConfig engine_config(bool online, double drift_at_hours,
                                   std::size_t max_arrivals,
                                   std::size_t drift_cluster) {
  engine::EngineConfig cfg;
  cfg.arrivals.rate_per_hour = 40.0;
  cfg.arrivals.burst_factor = 3.0;
  cfg.arrivals.burst_period_hours = 2.0;
  cfg.arrivals.burst_duty = 0.25;
  cfg.arrivals.deadline_hours = 2.0;
  cfg.arrivals.max_arrivals = max_arrivals;
  cfg.arrivals.seed = 0x57a6e5ULL;
  cfg.queue.capacity = 48;
  cfg.batcher.max_batch = 6;
  cfg.batcher.max_wait_hours = 0.3;
  cfg.gamma = 0.7;
  cfg.online_retraining = online;
  cfg.profile_probability = 0.15;
  cfg.metrics_window = 12;
  cfg.trainer.retrain_epochs = 60;
  cfg.trainer.learning_rate = 8e-3;
  cfg.seed = 0xe61e0ULL;

  engine::DriftEventSpec drift;
  drift.at_hours = drift_at_hours;
  drift.cluster = drift_cluster;
  drift.drift.time_scale = 4.0;
  drift.drift.reliability_logit_shift = -1.5;
  cfg.drift_events.push_back(drift);
  return cfg;
}

/// Mean regret over rounds closing strictly after `t`.
double mean_regret_after(const std::vector<engine::RoundRecord>& rounds,
                         double t) {
  RunningStats s;
  for (const auto& r : rounds) {
    if (r.close_hours > t) {
      s.add(r.regret);
    }
  }
  return s.mean();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool journal_enabled = false;
  bool ratekeeper_enabled = false;
  bool flight_enabled = false;
  std::string journal_path = "online_engine.jsonl";
  std::string profile_path;
  double trace_sample = 0.0;
  const auto usage = [argv] {
    std::fprintf(stderr,
                 "usage: %s [--quick] [--journal [path]] "
                 "[--trace-sample <rate in [0,1]>] [--ratekeeper] [--flight] "
                 "[--profile <path>]\n",
                 argv[0]);
    return 2;
  };
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[k], "--ratekeeper") == 0) {
      ratekeeper_enabled = true;
    } else if (std::strcmp(argv[k], "--flight") == 0) {
      flight_enabled = true;
    } else if (std::strcmp(argv[k], "--journal") == 0) {
      journal_enabled = true;
      if (k + 1 < argc && argv[k + 1][0] != '-') {
        journal_path = argv[++k];
      }
    } else if (std::strcmp(argv[k], "--profile") == 0 && k + 1 < argc) {
      profile_path = argv[++k];
    } else if (std::strcmp(argv[k], "--trace-sample") == 0 && k + 1 < argc) {
      const auto rate = net::parse_finite_double(argv[++k]);
      if (!rate || *rate < 0.0 || *rate > 1.0) {
        return usage();
      }
      trace_sample = *rate;
    } else {
      return usage();
    }
  }
  const std::size_t num_clusters = 3;
  const std::size_t max_arrivals = quick ? 120 : 600;
  const std::uint64_t seed = 42;

  std::printf("== Online engine: frozen vs drift-aware retraining "
              "(%zu arrivals) ==\n", max_arrivals);
  Stopwatch total;
  Scenario scenario = make_scenario(num_clusters, 120, seed);

  // Pretrain one TSM predictor on the profiled dataset, then clone it so
  // both modes start from identical weights.
  Rng init(0xbeefULL ^ seed);
  core::PredictorConfig pred_cfg;
  core::PlatformPredictor pretrained(num_clusters, pred_cfg, init);
  core::TsmConfig tsm_cfg;
  tsm_cfg.epochs = 300;
  core::train_tsm(pretrained, scenario.profile_data, tsm_cfg);
  std::printf("pretrained TSM predictor on %zu profiled tasks (%.1fs)\n",
              scenario.profile_data.num_tasks(), total.seconds());

  // Drift the cluster the pretrained predictor likes most for an average
  // task — the one whose degradation hurts a stale predictor hardest.
  std::size_t drift_cluster = 0;
  {
    const Matrix t_hat = pretrained.predict_time_matrix(
        scenario.profile_data.features);
    double best = 0.0;
    for (std::size_t i = 0; i < num_clusters; ++i) {
      double mean = 0.0;
      for (std::size_t j = 0; j < t_hat.cols(); ++j) {
        mean += t_hat(i, j);
      }
      mean /= static_cast<double>(t_hat.cols());
      if (i == 0 || mean < best) {
        best = mean;
        drift_cluster = i;
      }
    }
  }

  // Drift when roughly half the stream has arrived (expected time of the
  // burst-modulated process ~ arrivals / effective rate).
  const double effective_rate = 40.0 * (0.25 * 3.0 + 0.75);
  const double drift_at =
      static_cast<double>(max_arrivals) / 2.0 / effective_rate;
  std::printf("drift: cluster %zu (%s) degrades 4x at t=%.2fh\n",
              drift_cluster,
              scenario.platform.cluster(drift_cluster).name().c_str(),
              drift_at);

  // Black-box recorder for the --flight runs, attached both explicitly
  // (engine events) and as the process default (pool heartbeats,
  // ratekeeper events). Declared before the pool so workers quiesce
  // before the rings go away.
  std::unique_ptr<obs::FlightRecorder> flight_rec;
  if (flight_enabled) {
    flight_rec = std::make_unique<obs::FlightRecorder>();
    obs::set_default_flight(flight_rec.get());
  }
  // In-process sampling profiler for the --profile capture, made the
  // process default so the engine and pool workers register with it.
  // Declared before the pool (same ordering discipline as the flight
  // recorder) so workers quiesce before the per-thread entries go away.
  std::unique_ptr<obs::SamplingProfiler> profiler;
  if (!profile_path.empty()) {
    profiler = std::make_unique<obs::SamplingProfiler>();
    obs::set_default_profiler(profiler.get());
  }
  ThreadPool pool;
  std::unique_ptr<obs::JsonlWriter> journal;
  // Spans are wall-clock and would break the byte-stable journal diff, so
  // they drain to a sibling file the determinism guard never compares.
  std::unique_ptr<obs::TraceRing> trace_ring;
  std::unique_ptr<obs::JsonlWriter> spans_out;
  if (journal_enabled) {
    journal = std::make_unique<obs::JsonlWriter>(journal_path);
    trace_ring = std::make_unique<obs::TraceRing>(512);
    spans_out = std::make_unique<obs::JsonlWriter>(journal_path + ".spans");
  }
  // Task-lifecycle traces carry sim-time endpoints only, so they share the
  // journal's determinism and drain to their own sibling file.
  std::unique_ptr<obs::TraceStore> task_traces;
  std::unique_ptr<obs::JsonlWriter> tasktraces_out;
  if (trace_sample > 0.0) {
    task_traces = std::make_unique<obs::TraceStore>(4096, trace_sample);
    if (journal_enabled) {
      tasktraces_out =
          std::make_unique<obs::JsonlWriter>(journal_path + ".tasktraces");
    }
  }
  std::vector<std::pair<std::string, bool>> modes = {{"frozen", false},
                                                     {"online", true}};
  Table csv({"mode", "round", "close_hours", "trigger", "batch",
             "queue_depth", "dropped_total", "max_wait_hours", "regret",
             "rolling_regret", "reliability", "utilization", "makespan",
             "drift_stat", "retrained", "retrain_total", "pred_gap",
             "solver_gap", "rounding_gap", "admission_gap"});
  double post_drift_regret[2] = {0.0, 0.0};
  std::size_t mode_index = 0;

  for (const auto& [label, online] : modes) {
    Rng clone_init(0x5eedULL);
    core::PlatformPredictor predictor(num_clusters, pred_cfg, clone_init);
    clone_weights(pretrained, predictor);

    engine::EngineConfig run_cfg =
        engine_config(online, drift_at, max_arrivals, drift_cluster);
    run_cfg.attribution = true;
    run_cfg.trace = trace_ring.get();
    run_cfg.task_traces = task_traces.get();
    run_cfg.flight = flight_rec.get();
    obs::SloMonitor slo;
    run_cfg.slo = &slo;
    // Fresh controller + bucket per mode so the two arms stay a paired
    // comparison: both start at the same admission rate.
    std::unique_ptr<control::Ratekeeper> ratekeeper;
    std::unique_ptr<control::TokenBucketTable> buckets;
    if (ratekeeper_enabled) {
      control::RatekeeperConfig rk_cfg;
      rk_cfg.initial_rate_per_hour =
          4.0 * static_cast<double>(run_cfg.batcher.max_batch) /
          run_cfg.batcher.max_wait_hours;
      rk_cfg.wait_target_hours = 2.0 * run_cfg.batcher.max_wait_hours;
      ratekeeper = std::make_unique<control::Ratekeeper>(rk_cfg,
                                                         slo.config());
      buckets = std::make_unique<control::TokenBucketTable>();
      run_cfg.ratekeeper = ratekeeper.get();
      run_cfg.admission_buckets = buckets.get();
    }
    engine::OnlineEngine eng(run_cfg, scenario.platform, scenario.embedder,
                             predictor, &pool);
    // --profile samples the online arm: the frozen arm has already walked
    // every thread through registration (pool workers stay registered),
    // and the main thread is re-registered here up front because threads
    // that register mid-session only join the *next* session.
    const bool profiled = profiler != nullptr && online;
    if (profiled) {
      profiler->register_current_thread("engine");
      profiler->start(97.0);
    }
    Stopwatch watch;
    const engine::EngineResult result = eng.run();
    if (profiled) {
      profiler->stop();
    }

    RunningStats pred_gap;
    RunningStats solver_gap;
    RunningStats rounding_gap;
    for (const auto& r : result.rounds) {
      if (journal != nullptr) {
        engine::append_round_journal(*journal, r, label);
      }
      pred_gap.add(r.attribution.pred_gap);
      solver_gap.add(r.attribution.solver_gap);
      rounding_gap.add(r.attribution.rounding_gap);
      csv.add_row({label, std::to_string(r.round),
                   Table::cell(r.close_hours, 4), to_string(r.trigger),
                   std::to_string(r.batch), std::to_string(r.queue_depth),
                   std::to_string(r.dropped_total),
                   Table::cell(r.max_wait_hours, 4), Table::cell(r.regret, 6),
                   Table::cell(r.rolling_regret, 6),
                   Table::cell(r.reliability, 6),
                   Table::cell(r.utilization, 6), Table::cell(r.makespan, 6),
                   Table::cell(r.drift_stat, 6),
                   r.retrained ? "1" : "0",
                   std::to_string(r.retrain_total),
                   Table::cell(r.attribution.pred_gap, 6),
                   Table::cell(r.attribution.solver_gap, 6),
                   Table::cell(r.attribution.rounding_gap, 6),
                   Table::cell(r.attribution.admission_gap, 6)});
    }
    if (spans_out != nullptr && trace_ring != nullptr) {
      trace_ring->drain_to(*spans_out);
    }
    if (task_traces != nullptr) {
      std::printf("   task traces: %llu begun, %zu resident, %llu evicted\n",
                  static_cast<unsigned long long>(task_traces->begun()),
                  task_traces->size(),
                  static_cast<unsigned long long>(task_traces->evicted()));
      if (tasktraces_out != nullptr) {
        task_traces->drain_to(*tasktraces_out, label);
      }
    }

    // End-of-run SLO state: burn rates over the final windows, one row per
    // rule (the same numbers GET /alerts would serve in gateway mode).
    const double end_hours =
        result.rounds.empty() ? 0.0 : result.rounds.back().close_hours;
    std::printf("   SLO state [%s] at t=%.2fh:\n%s", label.c_str(),
                end_hours,
                obs::slo_summary_table(slo.evaluate(end_hours)).c_str());

    if (ratekeeper != nullptr) {
      const control::RatekeeperStatus rk = ratekeeper->status();
      std::printf("   ratekeeper [%s]: rate %.1f tasks/h, limiting=%s, "
                  "%llu decreases / %llu recoveries, %llu throttled\n",
                  label.c_str(), rk.rate_per_hour,
                  control::to_string(rk.limiting).c_str(),
                  static_cast<unsigned long long>(rk.decreases),
                  static_cast<unsigned long long>(rk.recoveries),
                  static_cast<unsigned long long>(result.throttled));
    }

    post_drift_regret[mode_index++] =
        mean_regret_after(result.rounds, drift_at);
    std::printf(
        "[%s] %zu rounds, %zu arrivals (%zu dispatched, %zu dropped, "
        "%zu expired), %zu retrains, drop rate %.1f%% (%.1fs)\n",
        label.c_str(), result.counters.rounds, result.counters.arrivals,
        result.queue.dispatched, result.queue.dropped_capacity,
        result.queue.expired,
        result.counters.retrains,
        100.0 * static_cast<double>(result.queue.dropped_total()) /
            static_cast<double>(std::max<std::size_t>(
                result.queue.offered, 1)),
        watch.seconds());
    std::printf("   total: %s\n", result.total.summary().c_str());
    std::printf("   attribution: pred %.4f | solver %.4f | rounding %.4f "
                "(mean/round)\n",
                pred_gap.mean(), solver_gap.mean(), rounding_gap.mean());
    std::printf("   post-drift regret: %.4f | pre-drift regret: %.4f\n",
                post_drift_regret[mode_index - 1],
                [&] {
                  RunningStats s;
                  for (const auto& r : result.rounds) {
                    if (r.close_hours <= drift_at) s.add(r.regret);
                  }
                  return s.mean();
                }());
  }

  if (journal != nullptr) {
    journal->flush();
    std::printf("journal written to %s (%zu records)\n",
                journal_path.c_str(), journal->records_written());
  }
  if (spans_out != nullptr) {
    spans_out->flush();
    std::printf("spans written to %s.spans (%zu records)\n",
                journal_path.c_str(), spans_out->records_written());
  }
  if (tasktraces_out != nullptr) {
    tasktraces_out->flush();
    std::printf("task traces written to %s.tasktraces (%zu records)\n",
                journal_path.c_str(), tasktraces_out->records_written());
  }
  if (profiler != nullptr) {
    const std::string folded = profiler->folded();
    FILE* out = std::fopen(profile_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write profile to %s\n",
                   profile_path.c_str());
      return 2;
    }
    std::fwrite(folded.data(), 1, folded.size(), out);
    std::fclose(out);
    std::printf("profile written to %s (%llu samples across %zu threads, "
                "%llu truncated)\n",
                profile_path.c_str(),
                static_cast<unsigned long long>(profiler->samples_total()),
                profiler->threads_registered(),
                static_cast<unsigned long long>(profiler->truncated_total()));
    obs::set_default_profiler(nullptr);
  }
  if (flight_rec != nullptr) {
    obs::set_default_flight(nullptr);
    std::printf("flight recorder: %llu events (%llu dropped) across %zu "
                "threads\n",
                static_cast<unsigned long long>(flight_rec->events_total()),
                static_cast<unsigned long long>(flight_rec->dropped_total()),
                flight_rec->threads_registered());
  }

  std::printf("\npost-drift rolling regret: frozen %.4f vs online %.4f\n",
              post_drift_regret[0], post_drift_regret[1]);
  if (post_drift_regret[1] < post_drift_regret[0]) {
    std::printf("PASS: online retraining beats the frozen predictor after "
                "the drift\n");
  } else {
    std::printf("WARN: online retraining did not beat the frozen predictor\n");
  }

  if (!quick) {
    csv.write_csv("online_engine.csv");
    std::printf("CSV written to online_engine.csv (%.1fs total)\n",
                total.seconds());
  }
  // The frozen-vs-online regret gate judges the un-throttled benchmark.
  // Under --ratekeeper both arms run the same admission-clipped stream and
  // can tie; that run exists to lock admission determinism, not to prove a
  // retraining win, so it succeeds on completing.
  if (ratekeeper_enabled) {
    return 0;
  }
  return post_drift_regret[1] < post_drift_regret[0] ? 0 : 1;
}
