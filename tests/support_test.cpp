// Unit tests for the support module: contracts, RNG, statistics, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "support/check.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/signal_safe.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace mfcp {
namespace {

// ---------------------------------------------------------------- check --

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(MFCP_CHECK(1 + 1 == 2, "arithmetic"));
}

TEST(Check, FailingCheckThrowsContractError) {
  EXPECT_THROW(MFCP_CHECK(false, "always fails"), ContractError);
}

TEST(Check, ContractErrorCarriesExpression) {
  try {
    MFCP_CHECK(2 < 1, "impossible");
    FAIL() << "expected throw";
  } catch (const ContractError& e) {
    EXPECT_EQ(e.expression(), "2 < 1");
    EXPECT_NE(std::string(e.what()).find("impossible"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng --

TEST(Rng, DeterministicUnderSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.uniform_index(10)];
  }
  for (int c : counts) {
    // Expected 10000 per bucket; 5 sigma ~ 475.
    EXPECT_NEAR(c, trials / 10, 600);
  }
}

TEST(Rng, NormalMomentsMatchStandardGaussian) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.add(rng.normal());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.01);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(rng.normal(5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(23);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependentOfParent) {
  Rng parent(42);
  Rng child = parent.split();
  // Child continues differently from a copy of the parent.
  Rng parent_copy(42);
  (void)parent_copy.next_u64();  // split consumed one draw
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += child.next_u64() == parent_copy.next_u64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(42);
  Rng b(42);
  Rng ca = a.split();
  Rng cb = b.split();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(ca.next_u64(), cb.next_u64());
  }
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(31);
  const auto p = rng.permutation(50);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, PermutationOfZeroAndOne) {
  Rng rng(1);
  EXPECT_TRUE(rng.permutation(0).empty());
  const auto p = rng.permutation(1);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 0u);
}

TEST(Rng, PermutationIntoBufferDrawsTheSame) {
  Rng fresh(7);
  Rng reused(7);
  std::vector<std::size_t> buffer(37, 99);
  for (int round = 0; round < 5; ++round) {
    reused.permutation(std::span<std::size_t>(buffer));
    EXPECT_EQ(fresh.permutation(buffer.size()), buffer) << "round " << round;
  }
  EXPECT_EQ(fresh.next_u64(), reused.next_u64());
}

// ---------------------------------------------------------------- stats --

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, FormatMeanStd) {
  EXPECT_EQ(format_mean_std(0.894, 0.035), "0.894 ± 0.035");
  EXPECT_EQ(format_mean_std(1.5, 0.25, 2), "1.50 ± 0.25");
}

// ---------------------------------------------------------------- table --

TEST(Table, RendersAlignedColumns) {
  Table t({"Method", "Regret"});
  t.add_row({"TSM", "2.014"});
  t.add_row({"MFCP-FG", "1.496"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Method"), std::string::npos);
  EXPECT_NE(s.find("MFCP-FG"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(Table, CsvEscapesSpecialCells) {
  Table t({"name", "note"});
  t.add_row({"x,y", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CellFormatsFixedPrecision) {
  EXPECT_EQ(Table::cell(1.23456, 3), "1.235");
  EXPECT_EQ(Table::cell(2.0, 1), "2.0");
}

TEST(Table, CountsRowsAndCols) {
  Table t({"a", "b", "c"});
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1", "2", "3"});
  EXPECT_EQ(t.rows(), 1u);
}

// ------------------------------------------------------------- logging --

TEST(Log, LevelFilterRoundTrip) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages are dropped silently.
  log_message(LogLevel::kDebug, "should not appear");
  MFCP_LOG(kDebug) << "also dropped " << 42;
  set_log_level(saved);
}

TEST(Log, ParseLevelAcceptsNamesAndNumerics) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("0"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("3"), LogLevel::kError);
}

TEST(Log, ParseLevelTrimsSurroundingWhitespace) {
  EXPECT_EQ(parse_log_level("  info  "), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("\twarn\n"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level(" 2 "), LogLevel::kWarn);
}

TEST(Log, ParseLevelFallsBackOnJunk) {
  EXPECT_EQ(parse_log_level(""), LogLevel::kWarn);  // default fallback
  EXPECT_EQ(parse_log_level("", LogLevel::kError), LogLevel::kError);
  EXPECT_EQ(parse_log_level("   "), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("verbose"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("7"), LogLevel::kWarn);       // out of range
  EXPECT_EQ(parse_log_level("-1"), LogLevel::kWarn);      // out of range
  EXPECT_EQ(parse_log_level("1.5"), LogLevel::kWarn);     // not an integer
  EXPECT_EQ(parse_log_level("warns"), LogLevel::kWarn);   // near miss
  EXPECT_EQ(parse_log_level("in fo"), LogLevel::kWarn);   // inner space
}

TEST(Log, EmitsAtOrAboveLevel) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kDebug);
  EXPECT_NO_THROW(log_message(LogLevel::kInfo, "info line"));
  EXPECT_NO_THROW(MFCP_LOG(kWarn) << "warn " << 3.14);
  set_log_level(saved);
}

// ------------------------------------------------------------ stopwatch --

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = w.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  EXPECT_NEAR(w.millis(), w.seconds() * 1000.0, 5.0);
}

TEST(Stopwatch, ResetRestartsClock) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  w.reset();
  EXPECT_LT(w.seconds(), 0.015);
}

// ---------------------------------------------------------- signal_safe --

TEST(SignalSafe, FormatU64Decimal) {
  char buf[32];
  EXPECT_EQ(support::format_u64_decimal(buf, sizeof(buf), 0), 1u);
  EXPECT_EQ(std::string(buf, 1), "0");
  EXPECT_EQ(support::format_u64_decimal(buf, sizeof(buf), 90210), 5u);
  EXPECT_EQ(std::string(buf, 5), "90210");
  EXPECT_EQ(support::format_u64_decimal(buf, sizeof(buf), UINT64_MAX), 20u);
  EXPECT_EQ(std::string(buf, 20), "18446744073709551615");
}

TEST(SignalSafe, FormatU64DecimalNeverPartialAtBufferBoundary) {
  char buf[32];
  // 90210 needs 5 bytes: exactly enough succeeds, one short writes
  // nothing at all (a partial number in a crash dump is worse than none).
  EXPECT_EQ(support::format_u64_decimal(buf, 5, 90210), 5u);
  buf[0] = 'x';
  EXPECT_EQ(support::format_u64_decimal(buf, 4, 90210), 0u);
  EXPECT_EQ(buf[0], 'x');
  EXPECT_EQ(support::format_u64_decimal(buf, 0, 7), 0u);
}

TEST(SignalSafe, AppendLiteralStopsAtCapacity) {
  char buf[8];
  std::size_t pos = support::append_literal(buf, sizeof(buf), 0, "abc");
  EXPECT_EQ(pos, 3u);
  pos = support::append_literal(buf, sizeof(buf), pos, "defgh");
  EXPECT_EQ(pos, 8u);
  EXPECT_EQ(std::string(buf, 8), "abcdefgh");
  // Full buffer: nothing fits, position unchanged (never partial).
  EXPECT_EQ(support::append_literal(buf, sizeof(buf), pos, "i"), 8u);
}

}  // namespace
}  // namespace mfcp
