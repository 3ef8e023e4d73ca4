#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "mfcp/regret.hpp"
#include "mfcp/trainer_tsm.hpp"
#include "net/json.hpp"
#include "nn/serialize.hpp"
#include "obs/sinks.hpp"
#include "platform.hpp"
#include "sim/dataset.hpp"
#include "sim/failure.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t lo = values.size() / 4;
  const std::size_t hi = values.size() - lo;
  return std::accumulate(values.begin() + static_cast<std::ptrdiff_t>(lo),
                         values.begin() + static_cast<std::ptrdiff_t>(hi),
                         0.0) /
         static_cast<double>(hi - lo);
}

void window_rates(const std::vector<std::pair<std::int64_t, double>>& events,
                  std::int64_t t0, std::int64_t t1, std::int64_t window_ns,
                  std::vector<double>& rates) {
  const std::int64_t windows = (t1 - t0) / window_ns;
  std::vector<double> counts(
      static_cast<std::size_t>(std::max<std::int64_t>(0, windows)), 0.0);
  for (const auto& [t, n] : events) {
    const std::int64_t w = (t - t0) / window_ns;
    if (t >= t0 && w < windows) {
      counts[static_cast<std::size_t>(w)] += n;
    }
  }
  for (const double c : counts) {
    rates.push_back(c / (static_cast<double>(window_ns) / 1e9));
  }
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* layer_name(Layer layer) {
  static const char* kNames[kLayerCount] = {
      "root", "net",  "service",  "storage", "engine",
      "sim",  "mfcp", "matching", "trainer", "parallel"};
  return kNames[static_cast<int>(layer)];
}

// ----- Tracer --------------------------------------------------------------

std::int32_t Tracer::begin(Layer layer, std::string name,
                           std::int32_t parent) {
  const std::int64_t t = now_ns();
  return record(layer, std::move(name), t, t, parent);
}

std::int32_t Tracer::record(Layer layer, std::string name,
                            std::int64_t start_ns, std::int64_t end_ns,
                            std::int32_t parent) {
  spans_.push_back(Span{layer, std::move(name), start_ns, end_ns, parent});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"layer\":\""
       << layer_name(s.layer) << "\",\"name\":\"" << s.name
       << "\",\"start_ns\":" << (s.start_ns - origin)
       << ",\"end_ns\":" << (s.end_ns - origin) << "}\n";
  }
}

std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_a = 0;
  std::int64_t cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > cur_b) {
      if (open) {
        total += cur_b - cur_a;
      }
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) {
    total += cur_b - cur_a;
  }
  return total;
}

// ----- scenario -------------------------------------------------------------

Scenario make_scenario(std::size_t num_clusters) {
  Scenario sc{sim::Platform::make_setting(sim::Setting::kA, num_clusters),
              sim::PseudoGnnEmbedder(), nullptr};
  sim::DatasetConfig data_cfg;
  data_cfg.num_tasks = 100;
  const sim::Dataset profile =
      build_dataset(sc.platform, sc.embedder, data_cfg);
  mfcp::Rng init(0x0417e5ULL);
  sc.pretrained = std::make_unique<core::PlatformPredictor>(
      num_clusters, core::PredictorConfig{}, init);
  core::TsmConfig tsm;
  tsm.epochs = 250;
  core::train_tsm(*sc.pretrained, profile, tsm);
  return sc;
}

std::unique_ptr<core::PlatformPredictor> clone_predictor(
    const Scenario& scenario) {
  core::PlatformPredictor& from = *scenario.pretrained;
  mfcp::Rng init(0x5eedULL);
  auto to = std::make_unique<core::PlatformPredictor>(
      from.num_clusters(), core::PredictorConfig{}, init);
  for (std::size_t i = 0; i < from.num_clusters(); ++i) {
    std::stringstream t_buf;
    mfcp::nn::save_mlp(t_buf, from.cluster(i).time_model());
    mfcp::nn::load_mlp(t_buf, to->cluster(i).time_model());
    std::stringstream a_buf;
    mfcp::nn::save_mlp(a_buf, from.cluster(i).reliability_model());
    mfcp::nn::load_mlp(a_buf, to->cluster(i).reliability_model());
  }
  return to;
}

// ----- journal sink ---------------------------------------------------------

StampedLines::int_type StampedLines::overflow(int_type ch) {
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    put(traits_type::to_char_type(ch));
  }
  return traits_type::not_eof(ch);
}

std::streamsize StampedLines::xsputn(const char* s, std::streamsize n) {
  for (std::streamsize i = 0; i < n; ++i) {
    put(s[i]);
  }
  return n;
}

void StampedLines::put(char c) {
  if (c == '\n') {
    out_ << now_ns() << '\t' << current_ << '\n';
    current_.clear();
  } else {
    current_.push_back(c);
  }
}

std::vector<JournalRound> parse_journal(std::istream& in) {
  std::vector<JournalRound> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      continue;
    }
    const std::string text = line.substr(tab + 1);
    const auto fields = mfcp::net::parse_json_object(text);
    if (!fields.has_value() || fields->count("round") == 0) {
      continue;
    }
    const auto num = [&](const char* key) {
      const auto it = fields->find(key);
      return it == fields->end() ? 0.0 : it->second.num;
    };
    JournalRound r;
    r.ns = std::stoll(line.substr(0, tab));
    r.round = static_cast<std::uint64_t>(num("round"));
    r.close_hours = num("close_hours");
    r.batch = static_cast<std::size_t>(num("batch"));
    const auto trig = fields->find("trigger");
    r.size_trigger = trig != fields->end() && trig->second.str == "size";
    r.regret = num("regret");
    r.text = text;
    out.push_back(std::move(r));
  }
  return out;
}

// ----- traced rounds --------------------------------------------------------

TracedRounds::TracedRounds(const Scenario& scenario,
                           const engine::EngineConfig& config,
                           mfcp::ThreadPool& pool, Tracer& tracer)
    : scenario_(scenario),
      config_(config),
      pool_(pool),
      tracer_(tracer),
      platform_(scenario.platform),
      predictor_(clone_predictor(scenario)),
      trainer_(config.trainer),
      dispatch_rng_(config.seed ^ 0xd15a7c4ULL) {
  std::sort(config_.drift_events.begin(), config_.drift_events.end(),
            [](const engine::DriftEventSpec& a,
               const engine::DriftEventSpec& b) {
              return a.at_hours < b.at_hours;
            });
}

void TracedRounds::advance(double hours) {
  while (next_drift_ < config_.drift_events.size() &&
         config_.drift_events[next_drift_].at_hours <= hours) {
    const engine::DriftEventSpec& e = config_.drift_events[next_drift_];
    sim::apply_drift(platform_, e.cluster, e.drift);
    ++next_drift_;
  }
}

TracedRounds::Outcome TracedRounds::round(
    const std::vector<sim::TaskDescriptor>& tasks,
    const std::vector<sim::TaskDescriptor>& lost, std::int32_t parent) {
  const std::size_t m = platform_.num_clusters();
  mfcp::Matrix features;
  {
    Scope s(tracer_, Layer::kSim, "embed", parent);
    features = scenario_.embedder.embed_batch(tasks);
  }
  mfcp::matching::MatchingProblem truth;
  {
    Scope s(tracer_, Layer::kSim, "truth", parent);
    truth.times = platform_.true_times(tasks);
    truth.reliability = platform_.true_reliability(tasks);
  }
  truth.gamma = config_.gamma;
  truth.speedup = config_.speedup;
  mfcp::Matrix t_hat;
  mfcp::Matrix a_hat;
  {
    Scope s(tracer_, Layer::kMfcp, "predict", parent);
    t_hat = predictor_->predict_time_matrix(features);
    a_hat = predictor_->predict_reliability_matrix(features);
  }
  const mfcp::matching::MatchingProblem predicted =
      truth.with_metrics(t_hat, a_hat);

  // Deploy and reference solves run concurrently on the pool, as in the
  // engine; each is timed on its worker and recorded once joined.
  std::int64_t begun[2] = {0, 0};
  std::int64_t ended[2] = {0, 0};
  const std::int64_t submitted = now_ns();
  auto deploy_fut = pool_.submit([&] {
    begun[0] = now_ns();
    core::DeployTrace t = core::deploy_matching_traced(predicted, config_.eval);
    ended[0] = now_ns();
    return t;
  });
  auto reference_fut = pool_.submit([&] {
    begun[1] = now_ns();
    core::DeployTrace t = core::deploy_matching_traced(truth, config_.eval);
    ended[1] = now_ns();
    return t;
  });
  const core::DeployTrace deployed = deploy_fut.get();
  const core::DeployTrace reference = reference_fut.get();
  static const char* kSolve[2] = {"deploy", "reference"};
  for (int k = 0; k < 2; ++k) {
    tracer_.record(Layer::kParallel, "pool_wait", submitted, begun[k], parent);
    tracer_.record(Layer::kMatching, kSolve[k], begun[k], ended[k], parent);
  }
  iterations_.push_back(static_cast<double>(deployed.relaxed.iterations));
  converged_.push_back(deployed.relaxed.converged ? 1.0 : 0.0);
  converged_.push_back(reference.relaxed.converged ? 1.0 : 0.0);

  core::MatchOutcome outcome;
  {
    Scope s(tracer_, Layer::kMfcp, "evaluate", parent);
    outcome = core::evaluate_assignment(truth, deployed.assignment,
                                        reference.assignment);
  }
  sim::ExecutionOutcome run;
  {
    Scope s(tracer_, Layer::kSim, "dispatch", parent);
    run = sim::execute_assignment(platform_, tasks, deployed.assignment,
                                  dispatch_rng_, /*max_attempts=*/2);
  }
  // Observed runtimes on the assigned clusters plus occasional shadow
  // profiles, drawn in the engine's order from the same stream.
  double error_sum = 0.0;
  {
    Scope s(tracer_, Layer::kSim, "feedback", parent);
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      const auto ci = static_cast<std::size_t>(deployed.assignment[j]);
      const double observed =
          platform_.cluster(ci).measure_time(tasks[j], dispatch_rng_);
      error_sum += engine::drift_error(t_hat(ci, j), observed);
      engine::Experience e;
      e.features.assign(features.row_span(j).begin(),
                        features.row_span(j).end());
      e.cluster = ci;
      e.observed_time = observed;
      e.observed_success = run.succeeded[j] ? 1.0 : 0.0;
      trainer_.record(std::move(e));
      if (config_.profile_probability > 0.0 &&
          dispatch_rng_.bernoulli(config_.profile_probability)) {
        for (std::size_t i = 0; i < m; ++i) {
          if (i == ci) {
            continue;
          }
          engine::Experience probe;
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
  }
  const double drift_stat = error_sum / static_cast<double>(tasks.size());

  Outcome out;
  out.regret = outcome.regret;
  if (config_.online_retraining) {
    Scope s(tracer_, Layer::kTrainer, "observe_round", parent);
    out.retrained = trainer_.observe_round(drift_stat, *predictor_);
    if (out.retrained) {
      tracer_.rename(s.id(), "retrain");
    }
  }
  if (config_.attribution) {
    Scope s(tracer_, Layer::kMfcp, "attribute", parent);
    core::AttributionConfig acfg;
    if (!lost.empty()) {
      const mfcp::Matrix lost_times = platform_.true_times(lost);
      double loss = 0.0;
      for (std::size_t j = 0; j < lost.size(); ++j) {
        double best = lost_times(0, j);
        for (std::size_t i = 1; i < m; ++i) {
          best = std::min(best, lost_times(i, j));
        }
        loss += best;
      }
      acfg.admission_loss = loss / static_cast<double>(tasks.size());
    }
    (void)core::attribute_regret(truth, deployed, reference, config_.eval,
                                 acfg);
  }
  return out;
}

// ----- per-layer metrics ----------------------------------------------------

void add_layer_metrics(Result& result, const Tracer& tracer,
                       const TracedRounds& rounds,
                       const UntracedFacts& facts) {
  const auto p = [&](const char* span, double q, double scale) {
    return quantile(tracer.durations_ms(span), q) * scale;
  };
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<std::int64_t> matching_cover = tracer.child_cover_ns(
      [](Layer l) { return l == Layer::kMatching; });
  const std::vector<std::int64_t> storage_cover = tracer.child_cover_ns(
      [](Layer l) { return l == Layer::kStorage; });
  const std::vector<std::int64_t> layer_cover = tracer.child_cover_ns(
      [](Layer l) { return l != Layer::kStorage && l != Layer::kRoot; });
  // The engine's match stage runs from handing both solves to the pool
  // until both are joined: the union of pool waits and solves.
  const std::vector<std::int64_t> match_cover = tracer.child_cover_ns(
      [](Layer l) { return l == Layer::kMatching || l == Layer::kParallel; });
  double round_ns = 0.0;      // traced round wall
  double matching_ns = 0.0;   // of which a solve was running
  double trainer_ns = 0.0;
  double covered_ns = 0.0;    // layer spans, storage excluded
  double loop_ns = 0.0;       // traced loop wall, storage excluded
  double stages_ns = 0.0;     // the spans of the engine's clocked stages
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto d = static_cast<double>(s.end_ns - s.start_ns);
    if (s.layer == Layer::kRoot && s.name == "round") {
      round_ns += d;
      matching_ns += static_cast<double>(matching_cover[i]);
      covered_ns += static_cast<double>(layer_cover[i]);
      loop_ns += d - static_cast<double>(storage_cover[i]);
      stages_ns += static_cast<double>(match_cover[i]);
    } else if (s.layer == Layer::kEngine && s.parent < 0) {
      covered_ns += d;  // arrival handling between rounds (replay)
      loop_ns += d;
    }
    if (s.layer == Layer::kTrainer) {
      trainer_ns += d;
    }
    if (s.name == "embed" || s.name == "predict" || s.name == "dispatch" ||
        s.name == "attribute" || s.name == "retrain") {
      stages_ns += d;
    }
  }
  const auto share = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const double traced_ns =
      facts.baseline == UntracedFacts::Baseline::kLoop ? loop_ns : stages_ns;

  result.add("matching.deploy_ms_p50", p("deploy", 0.5, 1.0), "ms");
  result.add("matching.deploy_ms_p99", p("deploy", 0.99, 1.0), "ms");
  result.add("matching.reference_ms_p50", p("reference", 0.5, 1.0), "ms");
  result.add("matching.iterations_mean", mean(rounds.iterations()), "count");
  result.add("matching.converged_share", mean(rounds.converged()), "share");
  result.add("matching.round_share", share(matching_ns, round_ns), "share");
  result.add("trainer.retrains", static_cast<double>(rounds.retrains()),
             "count");
  result.add("trainer.retrain_ms_p50", p("retrain", 0.5, 1.0), "ms");
  result.add("trainer.wall_share", share(trainer_ns, round_ns), "share");
  result.add("mfcp.predict_us_p50", p("predict", 0.5, 1e3), "us");
  result.add("mfcp.attribute_ms_p50", p("attribute", 0.5, 1.0), "ms");
  result.add("mfcp.regret_per_task", facts.regret_per_task, "h");
  result.add("sim.embed_us_p50", p("embed", 0.5, 1e3), "us");
  result.add("sim.dispatch_us_p50", p("dispatch", 0.5, 1e3), "us");
  result.add("engine.round_ms_p50", p("round", 0.5, 1.0), "ms");
  result.add("engine.round_ms_p99", p("round", 0.99, 1.0), "ms");
  result.add("engine.batch_mean", facts.batch_mean, "count");
  result.add("engine.size_trigger_share", facts.size_trigger_share, "share");
  result.add("engine.queue_wait_ms_p50", quantile(facts.queue_wait_ms, 0.5),
             "ms");
  result.add("engine.expired", facts.expired, "count");
  result.add("storage.wal_append_us_p50", p("wal_append", 0.5, 1e3), "us");
  result.add("storage.wal_append_us_p99", p("wal_append", 0.99, 1e3), "us");
  result.add("storage.wal_sync_ms_p50", p("wal_sync", 0.5, 1.0), "ms");
  result.add("storage.fsyncs_per_task", facts.fsyncs_per_task, "count");
  result.add("storage.wal_bytes_per_task", facts.wal_bytes_per_task, "B");
  result.add("storage.checkpoint_ms_p50", p("checkpoint", 0.5, 1.0), "ms");
  result.add("storage.journal_append_us_p50", p("journal_append", 0.5, 1e3),
             "us");
  result.add("service.submit_us_p50", p("submit", 0.5, 1e3), "us");
  result.add("service.submit_us_p99", p("submit", 0.99, 1e3), "us");
  result.add("service.busy_429_share", facts.busy_429_share, "share");
  result.add("net.parse_us_p50", p("parse", 0.5, 1e3), "us");
  result.add("net.connections_shed", facts.connections_shed, "count");
  result.add("net.transport_errors", facts.transport_errors, "count");
  result.add("parallel.queue_wait_us_p50", p("pool_wait", 0.5, 1e3), "us");
  result.add("client.offered_per_s", facts.offered_per_s, "1/s");
  result.add("client.late_p99_ms", quantile(facts.late_ms, 0.99), "ms");
  result.add("client.submit_p50_ms", quantile(facts.submit_ms, 0.5), "ms");
  result.add("client.submit_p99_ms", quantile(facts.submit_ms, 0.99), "ms");
  result.add("client.dispatch_p50_ms", quantile(facts.dispatch_ms, 0.5),
             "ms");
  result.add("client.dispatch_p99_ms", quantile(facts.dispatch_ms, 0.99),
             "ms");
  result.add("client.fail_share", facts.fail_share, "share");
  result.add("trace.coverage", share(covered_ns, loop_ns), "share");
  result.add("trace.overhead_pct",
             100.0 * (share(traced_ns, facts.baseline_ns) - 1.0), "%");
}

}  // namespace perfbench
