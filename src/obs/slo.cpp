#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/sinks.hpp"
#include "support/check.hpp"

namespace mfcp::obs {

namespace {

std::string slo_gauge_name(const char* family, const char* sli,
                           const char* window = nullptr) {
  std::string name = family;
  name += "{sli=\"";
  name += sli;
  name += '"';
  if (window != nullptr) {
    name += ",window=\"";
    name += window;
    name += '"';
  }
  name += '}';
  return name;
}

void bind_series(MetricsRegistry* registry, const char* sli, Gauge** value,
                 Gauge** budget, Gauge** fast, Gauge** slow, Gauge** firing) {
  if (registry == nullptr) {
    *value = *budget = *fast = *slow = *firing = nullptr;
    return;
  }
  *value = &registry->gauge(slo_gauge_name("mfcp_slo_value", sli));
  *budget = &registry->gauge(slo_gauge_name("mfcp_slo_budget", sli));
  *fast = &registry->gauge(slo_gauge_name("mfcp_slo_burn_rate", sli, "fast"));
  *slow = &registry->gauge(slo_gauge_name("mfcp_slo_burn_rate", sli, "slow"));
  *firing = &registry->gauge(slo_gauge_name("mfcp_slo_firing", sli));
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::optional<SloConfig> parse_slo_config(std::string_view text,
                                          std::string* error) {
  const auto fail = [error](std::string message) -> std::optional<SloConfig> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  SloConfig config;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) {
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return fail("line " + std::to_string(line_no) +
                  ": expected key=value");
    }
    const std::string key(trim(line.substr(0, eq)));
    const std::string raw(trim(line.substr(eq + 1)));
    char* end = nullptr;
    const double value = std::strtod(raw.c_str(), &end);
    if (raw.empty() || end != raw.c_str() + raw.size() ||
        !std::isfinite(value)) {
      return fail("line " + std::to_string(line_no) + ": " + key +
                  " needs a finite number, got \"" + raw + "\"");
    }
    if (key == "fast_window_hours") {
      config.fast_window_hours = value;
    } else if (key == "slow_window_hours") {
      config.slow_window_hours = value;
    } else if (key == "burn_threshold") {
      config.burn_threshold = value;
    } else if (key == "submit_latency_target_seconds") {
      config.submit_latency_target_seconds = value;
    } else if (key == "submit_latency_objective") {
      config.submit_latency_objective = value;
    } else if (key == "dispatch_success_objective") {
      config.dispatch_success_objective = value;
    } else if (key == "expiry_objective") {
      config.expiry_objective = value;
    } else if (key == "regret_gap_budget") {
      config.regret_gap_budget = value;
    } else {
      return fail("line " + std::to_string(line_no) + ": unknown key \"" +
                  key + "\"");
    }
  }
  // The same invariants SloMonitor's constructor enforces, reported as a
  // parse error instead of a contract failure.
  if (!(config.fast_window_hours > 0.0 &&
        config.slow_window_hours >= config.fast_window_hours)) {
    return fail("SLO windows must be positive with slow >= fast");
  }
  if (!(config.burn_threshold > 0.0)) {
    return fail("burn_threshold must be positive");
  }
  if (!(config.submit_latency_target_seconds > 0.0)) {
    return fail("submit_latency_target_seconds must be positive");
  }
  if (!(config.regret_gap_budget > 0.0)) {
    return fail("regret_gap_budget must be positive");
  }
  for (const double objective :
       {config.submit_latency_objective, config.dispatch_success_objective,
        config.expiry_objective}) {
    if (!(objective >= 0.0 && objective < 1.0)) {
      return fail("objectives must lie in [0, 1)");
    }
  }
  return config;
}

std::optional<SloConfig> load_slo_config(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open SLO config: " + path;
    }
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_slo_config(text.str(), error);
}

SloMonitor::SloMonitor(SloConfig config) : config_(config) {
  MFCP_CHECK(config_.fast_window_hours > 0.0 &&
                 config_.slow_window_hours >= config_.fast_window_hours,
             "SLO windows must be positive with slow >= fast");
  MFCP_CHECK(config_.burn_threshold > 0.0, "burn threshold must be positive");
  MFCP_CHECK(config_.submit_latency_target_seconds > 0.0,
             "submit latency target must be positive");
  MFCP_CHECK(config_.regret_gap_budget > 0.0,
             "regret gap budget must be positive");
}

void SloMonitor::bind_metrics(MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  bind_series(registry, "submit_latency", &submit_.value_gauge,
              &submit_.budget_gauge, &submit_.fast_gauge, &submit_.slow_gauge,
              &submit_.firing_gauge);
  bind_series(registry, "dispatch_success", &dispatch_.value_gauge,
              &dispatch_.budget_gauge, &dispatch_.fast_gauge,
              &dispatch_.slow_gauge, &dispatch_.firing_gauge);
  bind_series(registry, "expiry", &expiry_.value_gauge,
              &expiry_.budget_gauge, &expiry_.fast_gauge, &expiry_.slow_gauge,
              &expiry_.firing_gauge);
  bind_series(registry, "regret_gap", &regret_.value_gauge,
              &regret_.budget_gauge, &regret_.fast_gauge, &regret_.slow_gauge,
              &regret_.firing_gauge);
}

void SloMonitor::observe_submit(double now_hours, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  Sample s;
  s.t = now_hours;
  s.total = 1;
  s.bad = seconds > config_.submit_latency_target_seconds ? 1 : 0;
  submit_.samples.push_back(s);
}

void SloMonitor::observe_round(double now_hours, std::uint64_t batch_size,
                               std::uint64_t dispatch_ok, std::uint64_t expired,
                               double regret_gap, bool gap_valid) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (batch_size > 0) {
    Sample d;
    d.t = now_hours;
    d.total = batch_size;
    d.bad = batch_size - std::min(dispatch_ok, batch_size);
    dispatch_.samples.push_back(d);
  }
  if (batch_size > 0 || expired > 0) {
    // Admission outcome: every admitted task either reaches a batch or
    // expires in queue; the window sees both sides of the ratio.
    Sample e;
    e.t = now_hours;
    e.total = batch_size + expired;
    e.bad = expired;
    expiry_.samples.push_back(e);
  }
  if (gap_valid) {
    Sample r;
    r.t = now_hours;
    r.total = 1;
    r.value = regret_gap;
    regret_.samples.push_back(r);
  }
}

void SloMonitor::prune_locked(Series& series, double now_hours) {
  const double cutoff = now_hours - config_.slow_window_hours;
  while (!series.samples.empty() && series.samples.front().t <= cutoff) {
    series.samples.pop_front();
  }
}

SloState SloMonitor::evaluate_ratio_locked(Series& series, const char* name,
                                           double budget, double now_hours) {
  prune_locked(series, now_hours);
  const double fast_cutoff = now_hours - config_.fast_window_hours;
  std::uint64_t slow_total = 0, slow_bad = 0, fast_total = 0, fast_bad = 0;
  for (const Sample& s : series.samples) {
    slow_total += s.total;
    slow_bad += s.bad;
    if (s.t > fast_cutoff) {
      fast_total += s.total;
      fast_bad += s.bad;
    }
  }
  const auto frac = [](std::uint64_t bad, std::uint64_t total) {
    return total == 0 ? 0.0
                      : static_cast<double>(bad) / static_cast<double>(total);
  };
  SloState state;
  state.sli = name;
  state.budget = budget;
  state.samples = slow_total;
  state.value = frac(slow_bad, slow_total);
  state.fast_burn = budget > 0.0 ? frac(fast_bad, fast_total) / budget : 0.0;
  state.slow_burn = budget > 0.0 ? state.value / budget : 0.0;
  state.firing = state.fast_burn > config_.burn_threshold &&
                 state.slow_burn > config_.burn_threshold;
  return state;
}

SloState SloMonitor::evaluate_mean_locked(Series& series, const char* name,
                                          double budget, double now_hours) {
  prune_locked(series, now_hours);
  const double fast_cutoff = now_hours - config_.fast_window_hours;
  double slow_sum = 0.0, fast_sum = 0.0;
  std::uint64_t slow_n = 0, fast_n = 0;
  for (const Sample& s : series.samples) {
    slow_sum += s.value;
    ++slow_n;
    if (s.t > fast_cutoff) {
      fast_sum += s.value;
      ++fast_n;
    }
  }
  const auto mean = [](double sum, std::uint64_t n) {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  SloState state;
  state.sli = name;
  state.budget = budget;
  state.samples = slow_n;
  state.value = mean(slow_sum, slow_n);
  // Negative gaps (deployed chain beating the reference) do not burn.
  state.fast_burn = std::max(0.0, mean(fast_sum, fast_n)) / budget;
  state.slow_burn = std::max(0.0, state.value) / budget;
  state.firing = state.fast_burn > config_.burn_threshold &&
                 state.slow_burn > config_.burn_threshold;
  return state;
}

std::vector<SloState> SloMonitor::evaluate(double now_hours) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::vector<SloState> states;
  states.push_back(evaluate_ratio_locked(
      submit_, "submit_latency", 1.0 - config_.submit_latency_objective,
      now_hours));
  states.push_back(evaluate_ratio_locked(
      dispatch_, "dispatch_success", 1.0 - config_.dispatch_success_objective,
      now_hours));
  states.push_back(evaluate_ratio_locked(
      expiry_, "expiry", 1.0 - config_.expiry_objective, now_hours));
  states.push_back(evaluate_mean_locked(regret_, "regret_gap",
                                        config_.regret_gap_budget, now_hours));
  Series* series[] = {&submit_, &dispatch_, &expiry_, &regret_};
  for (std::size_t i = 0; i < states.size(); ++i) {
    Series& s = *series[i];
    if (s.value_gauge != nullptr) {
      s.value_gauge->set(states[i].value);
      s.budget_gauge->set(states[i].budget);
      s.fast_gauge->set(states[i].fast_burn);
      s.slow_gauge->set(states[i].slow_burn);
      s.firing_gauge->set(states[i].firing ? 1.0 : 0.0);
    }
  }
  std::vector<AlertTransition> transitions;
  for (const SloState& state : states) {
    bool& previous = firing_state_[state.sli];  // default-inserts false
    if (state.firing == previous) {
      continue;
    }
    previous = state.firing;
    AlertTransition t;
    t.t_hours = now_hours;
    t.sli = state.sli;
    t.firing = state.firing;
    t.value = state.value;
    t.budget = state.budget;
    t.fast_burn = state.fast_burn;
    t.slow_burn = state.slow_burn;
    t.samples = state.samples;
    log_transition_locked(t);
    transitions.push_back(std::move(t));
  }
  AlertSink* sink = alert_sink_;
  lock.unlock();
  // Sink delivery happens outside the mutex: a sink only enqueues (see
  // AlertSink's contract), but even a misbehaving one must not hold the
  // monitor's observation paths hostage.
  if (sink != nullptr) {
    for (const AlertTransition& t : transitions) {
      sink->notify(t);
    }
  }
  return states;
}

void SloMonitor::log_transition_locked(const AlertTransition& t) {
  if (alert_log_ == nullptr) {
    return;
  }
  alert_log_->field("t_hours", t.t_hours)
      .field("sli", t.sli)
      .field("event", t.firing ? std::string_view("fire")
                               : std::string_view("resolve"))
      .field("value", t.value)
      .field("budget", t.budget)
      .field("fast_burn", t.fast_burn)
      .field("slow_burn", t.slow_burn)
      .field("samples", t.samples);
  alert_log_->end_record();
  alert_log_->flush();
}

void SloMonitor::report_transition(const AlertTransition& transition) {
  AlertSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    log_transition_locked(transition);
    firing_state_[transition.sli] = transition.firing;
    sink = alert_sink_;
  }
  if (sink != nullptr) {
    sink->notify(transition);
  }
}

void SloMonitor::set_alert_log(JsonlWriter* log) {
  std::lock_guard<std::mutex> lock(mutex_);
  alert_log_ = log;
}

void SloMonitor::set_alert_sink(AlertSink* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  alert_sink_ = sink;
}

std::string slo_summary_table(const std::vector<SloState>& states) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "  %-18s %10s %10s %10s %10s %7s %8s\n",
                "sli", "value", "budget", "fast_burn", "slow_burn", "firing",
                "samples");
  out += line;
  for (const SloState& s : states) {
    std::snprintf(line, sizeof(line),
                  "  %-18s %10.4f %10.4f %10.3f %10.3f %7s %8llu\n",
                  s.sli.c_str(), s.value, s.budget, s.fast_burn, s.slow_burn,
                  s.firing ? "FIRING" : "ok",
                  static_cast<unsigned long long>(s.samples));
    out += line;
  }
  return out;
}

bool tighten_latency_buckets(MetricsRegistry& registry, std::string_view name,
                             double target_seconds) {
  MFCP_CHECK(target_seconds > 0.0, "latency target must be positive");
  Histogram* hist = registry.find_histogram(name);
  if (hist == nullptr) {
    return false;
  }
  // Fine grid around the target: sub-target buckets resolve the good-side
  // quantiles, the >1x tail keeps the histogram useful during incidents.
  static constexpr double kScale[] = {0.125, 0.25, 0.5, 0.75, 1.0, 1.5,
                                      2.0,   3.0,  5.0, 8.0,  16.0, 32.0};
  std::vector<double> edges;
  edges.reserve(std::size(kScale));
  for (const double s : kScale) {
    edges.push_back(target_seconds * s);
  }
  hist->rebucket(edges);
  return true;
}

}  // namespace mfcp::obs
