// Tests for the admission-control subsystem: smoothed sensors on the
// simulated clock, the shared Retry-After replenish formula, per-client
// token buckets (shares, bursts, LRU eviction), the Ratekeeper's AIMD
// law with hysteresis, the key=value SLO config parser, and the JSONL
// alert-log transitions.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "control/ratekeeper.hpp"
#include "control/smoothed.hpp"
#include "control/token_bucket.hpp"
#include "obs/sinks.hpp"
#include "obs/slo.hpp"

namespace mfcp::control {
namespace {

// ------------------------------------------------------------ smoothed --

TEST(SmoothedSignal, FirstSamplePinsTheFilter) {
  SmoothedSignal s(0.1);
  EXPECT_FALSE(s.seen());
  EXPECT_EQ(s.value(), 0.0);
  s.observe(1.0, 5.0);
  EXPECT_TRUE(s.seen());
  EXPECT_EQ(s.value(), 5.0);  // no warm-up lag from an implicit zero
  EXPECT_EQ(s.raw(), 5.0);
}

TEST(SmoothedSignal, ConvergesTowardSamplesWithTimeConstantAlpha) {
  SmoothedSignal s(0.1);
  s.observe(0.0, 0.0);
  // One sample a full time constant later moves 1 - 1/e of the gap.
  s.observe(0.1, 1.0);
  EXPECT_NEAR(s.value(), 1.0 - std::exp(-1.0), 1e-12);
  // Many samples settle onto the level.
  for (int k = 2; k < 100; ++k) {
    s.observe(0.1 * k, 1.0);
  }
  EXPECT_NEAR(s.value(), 1.0, 1e-6);
}

TEST(SmoothedSignal, OutOfOrderTimestampUpdatesRawOnly) {
  SmoothedSignal s(0.1);
  s.observe(1.0, 2.0);
  const double before = s.value();
  s.observe(0.5, 100.0);  // clock went backwards: dt clamps to zero
  EXPECT_EQ(s.value(), before);
  EXPECT_EQ(s.raw(), 100.0);
}

TEST(SmoothedRate, DecaysTowardZeroWithoutEvents) {
  SmoothedRate r(0.1);
  r.reset(0.0);
  for (int k = 1; k <= 50; ++k) {
    r.add(0.01 * k, 1.0);  // 100 events/hour for half an hour
  }
  const double active = r.rate_per_hour(0.5);
  EXPECT_GT(active, 50.0);
  // A long quiet stretch decays the estimate instead of freezing it.
  EXPECT_LT(r.rate_per_hour(1.5), 1e-3 * active);
}

TEST(SmoothedRate, SameInstantEventsFoldIntoTheNextAdvance) {
  // Three separate events stamped at the same instant must rate the same
  // as one lumped event once time advances (no infinite spot rates).
  SmoothedRate split(0.1);
  split.reset(0.0);
  split.add(0.1, 1.0);
  split.add(0.1, 1.0);  // dt == 0: accumulates
  split.add(0.1, 1.0);  // dt == 0: accumulates
  split.add(0.2, 1.0);  // rated as 3 events over [0.1, 0.2]
  SmoothedRate lumped(0.1);
  lumped.reset(0.0);
  lumped.add(0.1, 1.0);
  lumped.add(0.2, 3.0);
  EXPECT_DOUBLE_EQ(split.rate_per_hour(0.2), lumped.rate_per_hour(0.2));
}

// --------------------------------------------------- replenish_seconds --

TEST(ReplenishSeconds, MonotoneInDeficitWithFloorAndCap) {
  const double floor = 1.0;
  double prev = 0.0;
  for (double deficit = 0.5; deficit <= 64.0; deficit *= 2.0) {
    const double s = replenish_seconds(deficit, 2.0, floor);
    EXPECT_GE(s, floor);
    EXPECT_LE(s, 3600.0);
    EXPECT_GE(s, prev);  // more deficit never shortens the wait
    prev = s;
  }
  EXPECT_DOUBLE_EQ(replenish_seconds(10.0, 2.0, floor), 5.0);
  // Tiny deficits floor instead of advising sub-second hammering.
  EXPECT_DOUBLE_EQ(replenish_seconds(0.1, 2.0, floor), floor);
  // Huge deficits cap at an hour instead of advising "come back never".
  EXPECT_DOUBLE_EQ(replenish_seconds(1e9, 2.0, floor), 3600.0);
}

TEST(ReplenishSeconds, ZeroRateMeansCapNotInfinity) {
  EXPECT_DOUBLE_EQ(replenish_seconds(1.0, 0.0, 1.0), 3600.0);
  EXPECT_DOUBLE_EQ(replenish_seconds(1.0, -2.0, 1.0), 3600.0);
}

// ------------------------------------------------------- token buckets --

TEST(TokenBucketTable, EmptyTableHasNoState) {
  TokenBucketTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.admitted_total(), 0u);
  EXPECT_EQ(table.throttled_total(), 0u);
  EXPECT_EQ(table.tokens_total(), 0.0);
  EXPECT_TRUE(table.snapshot().empty());
}

TEST(TokenBucketTable, SingleClientGetsTheFullGlobalRate) {
  TokenBucketTable table;
  table.set_global_rate(100.0, 0.0);
  const AdmitDecision d = table.try_admit("alice", 0.0);
  EXPECT_TRUE(d.admitted);
  EXPECT_DOUBLE_EQ(d.rate_per_hour, 100.0);  // sole active client
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.admitted_total(), 1u);
}

TEST(TokenBucketTable, EmptyClientMapsToTheAnonymousBucket) {
  TokenBucketTable table;
  table.set_global_rate(100.0, 0.0);
  EXPECT_TRUE(table.try_admit("", 0.0).admitted);
  const auto snap = table.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].client, std::string(kAnonymousClient));
}

TEST(TokenBucketTable, ActiveClientsShareTheGlobalRateEqually) {
  TokenBucketTable table;
  table.set_global_rate(100.0, 0.0);
  // Touch both so both are active, then read the share on a second touch.
  table.try_admit("light", 0.0);
  table.try_admit("heavy", 0.0);
  const AdmitDecision light = table.try_admit("light", 0.001);
  const AdmitDecision heavy = table.try_admit("heavy", 0.001);
  EXPECT_DOUBLE_EQ(light.rate_per_hour, 50.0);
  EXPECT_DOUBLE_EQ(heavy.rate_per_hour, 50.0);
  // A client idle past the activity window stops taking a share.
  EXPECT_DOUBLE_EQ(table.try_admit("light", 1.0).rate_per_hour, 100.0);
}

TEST(TokenBucketTable, ThrottlesOnceTheBurstIsSpentAndRefillsOverTime) {
  TokenBucketConfig cfg;
  cfg.min_burst_tokens = 2.0;
  cfg.burst_hours = 0.0001;  // burst floor dominates: capacity == 2
  TokenBucketTable table(cfg);
  table.set_global_rate(10.0, 0.0);  // 10 tokens/hour
  EXPECT_TRUE(table.try_admit("c", 0.0).admitted);
  EXPECT_TRUE(table.try_admit("c", 0.0).admitted);
  const AdmitDecision dry = table.try_admit("c", 0.0);
  EXPECT_FALSE(dry.admitted);
  EXPECT_GT(dry.retry_after_hours, 0.0);
  EXPECT_EQ(table.throttled_total(), 1u);
  // The advised retry time is exactly when one token is back.
  EXPECT_TRUE(table.try_admit("c", dry.retry_after_hours + 1e-9).admitted);
}

TEST(TokenBucketTable, RetryAfterGrowsWithTheDeficit) {
  TokenBucketConfig cfg;
  cfg.min_burst_tokens = 2.0;
  cfg.burst_hours = 0.0001;
  TokenBucketTable table(cfg);
  table.set_global_rate(10.0, 0.0);
  table.try_admit("c", 0.0);
  table.try_admit("c", 0.0);
  const AdmitDecision first = table.try_admit("c", 0.0);
  ASSERT_FALSE(first.admitted);
  // A moment later some tokens are back: the deficit shrank, so the
  // advised wait must shrink with it (monotone in the deficit).
  const AdmitDecision later =
      table.try_admit("c", first.retry_after_hours * 0.5);
  ASSERT_FALSE(later.admitted);
  EXPECT_LT(later.retry_after_hours, first.retry_after_hours);
}

TEST(TokenBucketTable, LruEvictionUnderClientChurn) {
  TokenBucketConfig cfg;
  cfg.max_clients = 4;
  TokenBucketTable table(cfg);
  table.set_global_rate(1000.0, 0.0);
  for (int k = 0; k < 10; ++k) {
    table.try_admit("client-" + std::to_string(k), 0.01 * k);
  }
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.evicted_total(), 6u);
  const auto snap = table.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // The four most recently seen clients survive, name-sorted.
  EXPECT_EQ(snap[0].client, "client-6");
  EXPECT_EQ(snap[3].client, "client-9");
  // A returning evicted client is re-admitted with a fresh bucket —
  // eviction forgets debt, it never manufactures throttling.
  EXPECT_TRUE(table.try_admit("client-0", 0.2).admitted);
}

// ---------------------------------------------------------- ratekeeper --

RatekeeperSignals calm_at(double now) {
  RatekeeperSignals s;
  s.now_hours = now;
  s.queue_depth = 0;
  s.queue_capacity = 100;
  s.batch = 4;
  return s;
}

TEST(Ratekeeper, InitialRateIsClampedIntoRange) {
  RatekeeperConfig cfg;
  cfg.initial_rate_per_hour = 1e9;
  cfg.max_rate_per_hour = 500.0;
  Ratekeeper rk(cfg);
  EXPECT_DOUBLE_EQ(rk.status().rate_per_hour, 500.0);
}

TEST(Ratekeeper, MultiplicativeDecreaseUnderQueuePressure) {
  RatekeeperConfig cfg;
  cfg.initial_rate_per_hour = 100.0;
  Ratekeeper rk(cfg);
  RatekeeperSignals s = calm_at(0.0);
  s.queue_depth = 100;  // full queue: pressure 1/0.75 > 1 from tick one
  const double r1 = rk.tick(s);
  EXPECT_DOUBLE_EQ(r1, 100.0 * 0.8);  // the fixed decrease factor
  s.now_hours = 0.1;
  const double r2 = rk.tick(s);
  EXPECT_LT(r2, r1);
  const RatekeeperStatus st = rk.status();
  EXPECT_EQ(st.limiting, LimitingSignal::kQueueDepth);
  EXPECT_EQ(st.decreases, 2u);
  // Sustained pressure bottoms out at the clamp, never at zero.
  for (int k = 0; k < 200; ++k) {
    s.now_hours += 0.1;
    rk.tick(s);
  }
  EXPECT_DOUBLE_EQ(rk.status().rate_per_hour, cfg.min_rate_per_hour);
}

TEST(Ratekeeper, DeadBandHoldsTheRateWithoutFlapping) {
  RatekeeperConfig cfg;
  cfg.initial_rate_per_hour = 100.0;
  Ratekeeper rk(cfg);
  RatekeeperSignals s = calm_at(0.0);
  // Queue fraction 0.675 of capacity -> pressure 0.9: above release
  // (0.7), below trip (1.0). The controller must hold, not oscillate.
  s.queue_depth = 68;
  for (int k = 0; k < 50; ++k) {
    s.now_hours = 0.1 * k;
    EXPECT_DOUBLE_EQ(rk.tick(s), 100.0);
  }
  const RatekeeperStatus st = rk.status();
  EXPECT_EQ(st.decreases, 0u);
  EXPECT_EQ(st.recoveries, 0u);
  EXPECT_EQ(st.ticks, 50u);
}

TEST(Ratekeeper, AdditiveRecoveryNeedsSustainedCalm) {
  RatekeeperConfig cfg;
  cfg.initial_rate_per_hour = 100.0;
  cfg.recovery_ticks = 3;
  Ratekeeper rk(cfg);
  RatekeeperSignals s = calm_at(0.0);
  EXPECT_DOUBLE_EQ(rk.tick(s), 100.0);  // calm tick 1: no recovery yet
  s.now_hours = 0.1;
  EXPECT_DOUBLE_EQ(rk.tick(s), 100.0);  // calm tick 2
  s.now_hours = 0.2;
  EXPECT_DOUBLE_EQ(rk.tick(s), 100.0 + cfg.recovery_step_per_hour);
  s.now_hours = 0.3;  // calm persists: keep probing every tick
  EXPECT_DOUBLE_EQ(rk.tick(s), 100.0 + 2.0 * cfg.recovery_step_per_hour);
  EXPECT_EQ(rk.status().limiting, LimitingSignal::kNone);
  EXPECT_EQ(rk.status().recoveries, 2u);
}

TEST(Ratekeeper, RecoveryClampsAtMaxRate) {
  RatekeeperConfig cfg;
  cfg.initial_rate_per_hour = 100.0;
  cfg.max_rate_per_hour = 110.0;
  cfg.recovery_step_per_hour = 8.0;
  cfg.recovery_ticks = 1;
  Ratekeeper rk(cfg);
  RatekeeperSignals s = calm_at(0.0);
  for (int k = 0; k < 10; ++k) {
    s.now_hours = 0.1 * k;
    rk.tick(s);
  }
  EXPECT_DOUBLE_EQ(rk.status().rate_per_hour, 110.0);
}

TEST(Ratekeeper, LimitingSignalIsTheArgmaxPressure) {
  obs::SloConfig slo;  // expiry budget 0.05, burn threshold 2.0
  RatekeeperConfig cfg;
  Ratekeeper rk(cfg, slo);
  RatekeeperSignals s = calm_at(0.0);
  s.expired = 2;
  s.batch = 8;  // expiry fraction 0.2 / budget 0.05 = pressure 4
  rk.tick(s);
  EXPECT_EQ(rk.status().limiting, LimitingSignal::kExpiry);

  Ratekeeper rk2(cfg, slo);
  RatekeeperSignals b = calm_at(0.0);
  b.slo_burn = 10.0;  // 10 / threshold 2 = pressure 5
  rk2.tick(b);
  EXPECT_EQ(rk2.status().limiting, LimitingSignal::kSloBurn);

  Ratekeeper rk3(cfg, slo);
  RatekeeperSignals w = calm_at(0.0);
  w.batch_wait_hours = 2.0;  // 2.0 / target 0.5 = pressure 4
  rk3.tick(w);
  EXPECT_EQ(rk3.status().limiting, LimitingSignal::kBatchLatency);
}

TEST(Ratekeeper, DeterministicForIdenticalSignalStreams) {
  RatekeeperConfig cfg;
  Ratekeeper a(cfg);
  Ratekeeper b(cfg);
  for (int k = 0; k < 100; ++k) {
    RatekeeperSignals s = calm_at(0.05 * k);
    s.queue_depth = static_cast<std::size_t>((k * 37) % 101);
    s.batch_wait_hours = 0.01 * (k % 7);
    s.expired = static_cast<std::uint64_t>(k % 3);
    s.batch = 4 + static_cast<std::uint64_t>(k % 5);
    s.slo_burn = 0.2 * (k % 11);
    EXPECT_EQ(a.tick(s), b.tick(s));  // bit-identical, not approx
  }
}

}  // namespace
}  // namespace mfcp::control

// ---------------------------------------------------------- slo config --

namespace mfcp::obs {
namespace {

TEST(SloConfigParse, ParsesKeysCommentsAndBlankLines) {
  const char* text =
      "# platform SLO targets\n"
      "fast_window_hours = 0.05\n"
      "slow_window_hours = 0.5\n"
      "\n"
      "burn_threshold = 3.0\n"
      "submit_latency_target_seconds = 0.1  # loose for CI\n"
      "submit_latency_objective = 0.95\n"
      "dispatch_success_objective = 0.8\n"
      "expiry_objective = 0.9\n"
      "regret_gap_budget = 1.5\n";
  std::string error;
  const auto cfg = parse_slo_config(text, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_DOUBLE_EQ(cfg->fast_window_hours, 0.05);
  EXPECT_DOUBLE_EQ(cfg->slow_window_hours, 0.5);
  EXPECT_DOUBLE_EQ(cfg->burn_threshold, 3.0);
  EXPECT_DOUBLE_EQ(cfg->submit_latency_target_seconds, 0.1);
  EXPECT_DOUBLE_EQ(cfg->submit_latency_objective, 0.95);
  EXPECT_DOUBLE_EQ(cfg->dispatch_success_objective, 0.8);
  EXPECT_DOUBLE_EQ(cfg->expiry_objective, 0.9);
  EXPECT_DOUBLE_EQ(cfg->regret_gap_budget, 1.5);
}

TEST(SloConfigParse, OmittedKeysKeepDefaults) {
  std::string error;
  const auto cfg = parse_slo_config("burn_threshold = 4.0\n", &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_DOUBLE_EQ(cfg->burn_threshold, 4.0);
  EXPECT_DOUBLE_EQ(cfg->expiry_objective, SloConfig{}.expiry_objective);
}

TEST(SloConfigParse, UnknownKeyFailsWithLineNumber) {
  std::string error;
  EXPECT_FALSE(
      parse_slo_config("burn_threshold = 2.0\ntypo_key = 1\n", &error)
          .has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("typo_key"), std::string::npos) << error;
}

TEST(SloConfigParse, MalformedValueFails) {
  std::string error;
  EXPECT_FALSE(
      parse_slo_config("burn_threshold = fast\n", &error).has_value());
  EXPECT_FALSE(parse_slo_config("burn_threshold\n", &error).has_value());
}

TEST(SloConfigParse, ConstraintViolationsFail) {
  std::string error;
  // Slow window must not be shorter than the fast window.
  EXPECT_FALSE(parse_slo_config(
                   "fast_window_hours = 1.0\nslow_window_hours = 0.5\n",
                   &error)
                   .has_value());
  EXPECT_FALSE(
      parse_slo_config("expiry_objective = 1.5\n", &error).has_value());
  EXPECT_FALSE(
      parse_slo_config("burn_threshold = -1\n", &error).has_value());
  // A non-positive latency target is a parse error, not a start-up abort.
  EXPECT_FALSE(parse_slo_config("submit_latency_target_seconds = 0\n",
                                &error)
                   .has_value());
}

TEST(SloAlertLog, WritesFireAndResolveTransitionsOnly) {
  SloConfig cfg;
  cfg.fast_window_hours = 0.05;
  cfg.slow_window_hours = 0.1;
  SloMonitor slo(cfg);
  std::ostringstream out;
  JsonlWriter log(out);
  slo.set_alert_log(&log);

  // Every admitted task expires: the expiry SLI burns far over budget.
  slo.observe_round(0.01, 0, 0, 8, 0.0, false);
  slo.evaluate(0.02);
  const std::string after_fire = out.str();
  EXPECT_NE(after_fire.find("\"event\":\"fire\""), std::string::npos);
  EXPECT_NE(after_fire.find("\"sli\":\"expiry\""), std::string::npos);

  // Steady state: repeated evaluation writes nothing new (transitions
  // only — a melting platform must not flood the log).
  slo.evaluate(0.03);
  slo.evaluate(0.04);
  EXPECT_EQ(out.str(), after_fire);

  // The bad samples age out of both windows: the rule resolves once.
  slo.evaluate(1.0);
  const std::string after_resolve = out.str();
  EXPECT_NE(after_resolve.find("\"event\":\"resolve\""), std::string::npos);
  slo.evaluate(1.1);
  EXPECT_EQ(out.str(), after_resolve);
}

}  // namespace
}  // namespace mfcp::obs
