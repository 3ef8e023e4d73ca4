// Tests for the observability subsystem: metrics registry (including the
// sharded counters/histograms under real thread contention), snapshot
// merging, quantile estimation, Prometheus exposition, the JSONL writer's
// byte-stability, span tracing, and the /metrics HTTP exporter.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "net/http_server.hpp"
#include "obs/build_info.hpp"
#include "obs/debug_routes.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/sinks.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/trace_store.hpp"

namespace mfcp::obs {
namespace {

// ----------------------------------------------------------- counters --

TEST(Counter, ConcurrentAddsEqualSerialTotal) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hammered");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Counter, AddWithArgument) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("steps");
  counter.add(5);
  counter.add();  // default increment
  EXPECT_EQ(counter.value(), 6u);
}

// ------------------------------------------------------------- gauges --

TEST(Gauge, LastWriteWins) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("drift");
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(1.25);
  gauge.set(-3.5);
  EXPECT_EQ(gauge.value(), -3.5);
}

// --------------------------------------------------------- histograms --

TEST(Histogram, BucketBoundariesAreInclusiveUpperEdges) {
  MetricsRegistry registry;
  constexpr double kBounds[] = {1.0, 2.0, 4.0};
  Histogram& hist = registry.histogram("edges", kBounds);

  hist.observe(1.0);  // == first bound: first bucket (le semantics)
  hist.observe(std::nextafter(1.0, 2.0));  // just above: second bucket
  hist.observe(4.0);                       // == last bound: last finite
  hist.observe(std::nextafter(4.0, 5.0));  // just above: overflow
  hist.observe(-1.0);                      // below everything: first

  const auto buckets = hist.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(hist.count(), 5u);
}

TEST(Histogram, ConcurrentObservationsMatchSerialTotals) {
  MetricsRegistry registry;
  constexpr double kBounds[] = {10.0, 100.0, 1000.0};
  Histogram& hist = registry.histogram("latency", kBounds);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Deterministic spread across all four buckets.
        hist.observe(static_cast<double>(((t + i) % 4) * 300));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  EXPECT_EQ(hist.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Values cycle 0, 300, 600, 900 uniformly: 0 lands in the first bucket,
  // the rest in the third (<= 1000), none overflow.
  const auto buckets = hist.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], static_cast<std::uint64_t>(kThreads) * kPerThread / 4);
  EXPECT_EQ(buckets[1], 0u);
  EXPECT_EQ(buckets[2],
            3u * static_cast<std::uint64_t>(kThreads) * kPerThread / 4);
  EXPECT_EQ(buckets[3], 0u);
  // Sum of the arithmetic series, exact in doubles (small integers).
  const double expected_sum =
      static_cast<double>(kThreads) * kPerThread / 4.0 * (0 + 300 + 600 + 900);
  EXPECT_DOUBLE_EQ(hist.sum(), expected_sum);
}

TEST(Histogram, SnapshotMergeEqualsCombinedSerialRun) {
  MetricsRegistry a;
  MetricsRegistry b;
  constexpr double kBounds[] = {1.0, 2.0};
  Histogram& ha = a.histogram("h", kBounds);
  Histogram& hb = b.histogram("h", kBounds);
  a.counter("c").add(3);
  b.counter("c").add(4);
  a.gauge("g").set(1.0);
  b.gauge("g").set(2.0);
  b.counter("only_b").add(7);
  ha.observe(0.5);
  ha.observe(1.5);
  hb.observe(1.5);
  hb.observe(9.0);

  RegistrySnapshot merged = a.snapshot();
  merged.merge(b.snapshot());

  ASSERT_EQ(merged.counters.size(), 2u);  // name-sorted: c, only_b
  EXPECT_EQ(merged.counters[0].first, "c");
  EXPECT_EQ(merged.counters[0].second, 7u);
  EXPECT_EQ(merged.counters[1].first, "only_b");
  EXPECT_EQ(merged.counters[1].second, 7u);
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_EQ(merged.gauges[0].second, 2.0);  // last writer (other) wins
  ASSERT_EQ(merged.histograms.size(), 1u);
  const HistogramSnapshot& h = merged.histograms[0];
  ASSERT_EQ(h.buckets.size(), 3u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 2u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.5 + 1.5 + 9.0);
}

// ----------------------------------------------------------- registry --

TEST(MetricsRegistry, FindOrCreateReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& first = registry.counter("same");
  Counter& second = registry.counter("same");
  EXPECT_EQ(&first, &second);
}

TEST(MetricsRegistry, DefaultRegistryStartsNullAndIsSettable) {
  EXPECT_EQ(default_registry(), nullptr);
  MetricsRegistry registry;
  set_default_registry(&registry);
  EXPECT_EQ(default_registry(), &registry);
  set_default_registry(nullptr);
  EXPECT_EQ(default_registry(), nullptr);
}

// --------------------------------------------------------- exposition --

TEST(Prometheus, RendersCountersGaugesAndCumulativeBuckets) {
  MetricsRegistry registry;
  constexpr double kBounds[] = {0.5, 2.0};
  registry.counter("mfcp_rounds_total").add(3);
  registry.gauge("mfcp_drift").set(1.5);
  Histogram& hist = registry.histogram("mfcp_lat", kBounds);
  hist.observe(0.25);
  hist.observe(1.0);
  hist.observe(10.0);

  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE mfcp_rounds_total counter"), std::string::npos);
  EXPECT_NE(text.find("mfcp_rounds_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mfcp_drift gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mfcp_lat histogram"), std::string::npos);
  // Buckets are cumulative with an explicit +Inf.
  EXPECT_NE(text.find("mfcp_lat_bucket{le=\"0.5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("mfcp_lat_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("mfcp_lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("mfcp_lat_count 3"), std::string::npos);
}

TEST(Prometheus, SplicesLeIntoExistingLabelSet) {
  MetricsRegistry registry;
  constexpr double kBounds[] = {1.0};
  registry.histogram("stage_seconds{stage=\"embed\"}", kBounds).observe(0.5);

  const std::string text = to_prometheus(registry.snapshot());
  // The TYPE header uses the base name; buckets merge le into the braces.
  EXPECT_NE(text.find("# TYPE stage_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("stage_seconds_bucket{stage=\"embed\",le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("stage_seconds_bucket{stage=\"embed\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("stage_seconds_sum{stage=\"embed\"}"),
            std::string::npos);
  EXPECT_NE(text.find("stage_seconds_count{stage=\"embed\"} 1"),
            std::string::npos);
}

// -------------------------------------------------------------- jsonl --

TEST(JsonlWriter, PreservesFieldOrderAndIsByteStable) {
  const auto render = [] {
    std::ostringstream out;
    JsonlWriter journal(out);
    journal.field("round", std::uint64_t{7})
        .field("regret", 0.1)
        .field("trigger", std::string_view{"size"})
        .field("retrained", false);
    journal.end_record();
    journal.field("round", std::uint64_t{8}).field("regret", 1.0 / 3.0);
    journal.end_record();
    return out.str();
  };
  const std::string first = render();
  const std::string second = render();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.substr(0, first.find('\n')),
            "{\"round\":7,\"regret\":" + json_number(0.1) +
                ",\"trigger\":\"size\",\"retrained\":false}");
  EXPECT_EQ(std::count(first.begin(), first.end(), '\n'), 2);
}

TEST(JsonlWriter, EscapesStringsAndCountsRecords) {
  std::ostringstream out;
  JsonlWriter journal(out);
  journal.field("msg", std::string_view{"a\"b\\c\n"});
  journal.end_record();
  EXPECT_EQ(journal.records_written(), 1u);
  EXPECT_EQ(out.str(), "{\"msg\":\"a\\\"b\\\\c\\n\"}\n");
}

TEST(JsonlWriter, EscapesControlCharacters) {
  std::ostringstream out;
  JsonlWriter journal(out);
  // Short-form escapes for the named controls, \u00XX for the rest — a
  // raw control byte in the output would make the line invalid JSON.
  journal.field("msg", std::string_view{"\r\b\f\x01\x1f ok"});
  journal.end_record();
  EXPECT_EQ(out.str(), "{\"msg\":\"\\r\\b\\f\\u0001\\u001f ok\"}\n");
}

TEST(JsonlWriter, NonFiniteDoublesSerializeAsNull) {
  std::ostringstream out;
  JsonlWriter journal(out);
  journal.field("nan", std::numeric_limits<double>::quiet_NaN())
      .field("inf", std::numeric_limits<double>::infinity())
      .field("ninf", -std::numeric_limits<double>::infinity());
  journal.end_record();
  EXPECT_EQ(out.str(), "{\"nan\":null,\"inf\":null,\"ninf\":null}\n");
}

TEST(JsonNumber, RoundTripsAndHandlesNonFinite) {
  EXPECT_EQ(std::stod(json_number(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

// -------------------------------------------------------------- spans --

TEST(ScopedSpan, RecordsIntoHistogramAndRing) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("span_seconds",
                                       default_time_bounds());
  TraceRing ring(8);
  {
    ScopedSpan span(&hist, "stage", &ring);
    const double seconds = span.stop();
    // Idempotent: the destructor must not double-record.
    EXPECT_EQ(span.stop(), seconds);
  }
  EXPECT_EQ(hist.count(), 1u);
  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "stage");
}

TEST(ScopedSpan, NullSinksRecordNothing) {
  ScopedSpan span(nullptr, "noop", nullptr);
  const double seconds = span.stop();  // must not crash or touch any state
  EXPECT_GE(seconds, 0.0);
  EXPECT_EQ(span.stop(), seconds);  // idempotent: the same duration
}

TEST(ScopedSpan, EntersAndRestoresItsStageTag) {
  ASSERT_EQ(current_stage(), EngineStage::kNone);
  {
    ScopedSpan outer(nullptr, "outer", nullptr, EngineStage::kMatch);
    EXPECT_EQ(current_stage(), EngineStage::kMatch);
    {
      ScopedSpan inner(nullptr, "inner", nullptr, EngineStage::kDispatch);
      EXPECT_EQ(current_stage(), EngineStage::kDispatch);
    }
    EXPECT_EQ(current_stage(), EngineStage::kMatch);
    outer.stop();
    EXPECT_EQ(current_stage(), EngineStage::kNone);
  }
  EXPECT_EQ(current_stage(), EngineStage::kNone);
}

TEST(TraceRing, KeepsNewestSpansOldestFirst) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    SpanRecord rec;
    rec.name = "s";
    rec.start_ns = i;
    ring.record(rec);
  }
  EXPECT_EQ(ring.recorded(), 10u);
  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t k = 0; k < spans.size(); ++k) {
    EXPECT_EQ(spans[k].start_ns, 6 + k);  // 6, 7, 8, 9: oldest first
  }
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, DrainToWritesJsonlAndClears) {
  TraceRing ring(8);
  for (std::uint64_t i = 0; i < 3; ++i) {
    SpanRecord rec;
    rec.name = "stage";
    rec.start_ns = 100 + i;
    rec.duration_ns = 10 * (i + 1);
    rec.thread = 7;
    ring.record(rec);
  }
  std::ostringstream out;
  JsonlWriter writer(out);
  EXPECT_EQ(ring.drain_to(writer), 3u);
  EXPECT_EQ(writer.records_written(), 3u);
  EXPECT_TRUE(ring.snapshot().empty());  // drained
  EXPECT_EQ(ring.recorded(), 3u);       // lifetime counter survives
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"span\":\"stage\",\"start_ns\":100,"
                      "\"duration_ns\":10,\"thread\":7}"),
            std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  // Draining again is a no-op.
  EXPECT_EQ(ring.drain_to(writer), 0u);
}

// ---------------------------------------------------------- quantiles --

HistogramSnapshot histogram_snapshot_of(MetricsRegistry& registry,
                                        std::string_view name) {
  for (auto& h : registry.snapshot().histograms) {
    if (h.name == name) {
      return h;
    }
  }
  ADD_FAILURE() << "histogram " << name << " not found";
  return {};
}

TEST(HistogramQuantile, EmptyHistogramHasNoEstimate) {
  MetricsRegistry registry;
  constexpr double kBounds[] = {1.0, 2.0};
  registry.histogram("empty", kBounds);
  const auto snap = histogram_snapshot_of(registry, "empty");
  EXPECT_TRUE(std::isnan(histogram_quantile(snap, 0.5)));
}

TEST(HistogramQuantile, InterpolatesWithinASingleBucket) {
  MetricsRegistry registry;
  constexpr double kBounds[] = {10.0};
  Histogram& h = registry.histogram("one_bucket", kBounds);
  for (int i = 0; i < 4; ++i) {
    h.observe(5.0);
  }
  const auto snap = histogram_snapshot_of(registry, "one_bucket");
  // All mass in [0, 10): linear interpolation puts the median at rank
  // 2 of 4 -> halfway through the bucket.
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 1.0), 10.0);
  // Out-of-range q clamps instead of extrapolating.
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, -3.0),
                   histogram_quantile(snap, 0.0));
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 42.0),
                   histogram_quantile(snap, 1.0));
}

TEST(HistogramQuantile, OverflowMassClampsToLargestFiniteBound) {
  MetricsRegistry registry;
  constexpr double kBounds[] = {1.0, 2.0};
  Histogram& h = registry.histogram("overflow", kBounds);
  h.observe(0.5);
  h.observe(100.0);  // +Inf bucket
  h.observe(200.0);
  const auto snap = histogram_snapshot_of(registry, "overflow");
  // p99 lands in the open-ended bucket; the honest answer is the largest
  // finite boundary, not an invented extrapolation.
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 0.99), 2.0);
}

TEST(HistogramQuantile, MatchesExactRanksAcrossBuckets) {
  MetricsRegistry registry;
  constexpr double kBounds[] = {1.0, 2.0, 4.0};
  Histogram& h = registry.histogram("spread", kBounds);
  h.observe(0.5);  // bucket [.., 1)
  h.observe(1.5);  // bucket [1, 2)
  h.observe(3.0);  // bucket [2, 4)
  h.observe(3.5);
  const auto snap = histogram_snapshot_of(registry, "spread");
  // rank(0.5) = 2 of 4: exactly exhausts the second bucket.
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 0.5), 2.0);
  // rank(0.75) = 3 of 4: halfway through the third bucket's two samples.
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 0.75), 3.0);
}

TEST(Prometheus, QuantileGaugesFollowHistogramsWithoutInterleaving) {
  MetricsRegistry registry;
  constexpr double kBounds[] = {1.0, 2.0};
  registry.histogram("lat{stage=\"a\"}", kBounds).observe(0.5);
  registry.histogram("lat{stage=\"b\"}", kBounds).observe(1.5);
  registry.histogram("silent", kBounds);  // empty: no quantile series

  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE lat_quantile gauge"), std::string::npos);
  EXPECT_NE(text.find("lat_quantile{stage=\"a\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lat_quantile{stage=\"b\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_EQ(text.find("silent_quantile"), std::string::npos);
  // One header for the whole _quantile family, after every histogram
  // sample (families must stay contiguous for strict parsers).
  const auto header = text.find("# TYPE lat_quantile gauge");
  EXPECT_EQ(text.find("# TYPE lat_quantile gauge", header + 1),
            std::string::npos);
  EXPECT_GT(header, text.rfind("_bucket"));
}

// -------------------------------------------------------- trace ids --

TEST(TraceId, MintIsDeterministicAndNeverZero) {
  EXPECT_EQ(mint_trace_id(7), mint_trace_id(7));
  EXPECT_NE(mint_trace_id(7), mint_trace_id(8));
  // Pinned: `.tasktraces` exports and X-Trace-Id headers carry these
  // ids, so the hash must not drift between builds.
  EXPECT_EQ(mint_trace_id(7), 0x64bf61b512ffabe7ULL);
  // The zero input must still mint a usable (nonzero) id.
  EXPECT_NE(mint_trace_id(0), 0u);
}

TEST(TraceId, FormatParsesBackAndRejectsMalformed) {
  const std::uint64_t id = mint_trace_id(42);
  const std::string hex = format_trace_id(id);
  EXPECT_EQ(hex.size(), 16u);
  ASSERT_TRUE(parse_trace_id(hex).has_value());
  EXPECT_EQ(*parse_trace_id(hex), id);
  EXPECT_FALSE(parse_trace_id("").has_value());
  EXPECT_FALSE(parse_trace_id("12345").has_value());            // short
  EXPECT_FALSE(parse_trace_id("zz345678zz345678").has_value()); // non-hex
  EXPECT_FALSE(parse_trace_id("0000000000000000").has_value()); // sentinel
}

TEST(TraceId, SamplingEdgesAndDeterminism) {
  for (std::uint64_t task = 0; task < 64; ++task) {
    const std::uint64_t id = mint_trace_id(task);
    EXPECT_TRUE(trace_sampled(id, 1.0));
    EXPECT_TRUE(trace_sampled(id, 2.0));   // clamps above 1
    EXPECT_FALSE(trace_sampled(id, 0.0));
    EXPECT_FALSE(trace_sampled(id, -0.5)); // clamps below 0
    EXPECT_FALSE(trace_sampled(id, std::nan("")));  // NaN never samples
    // The decision is a pure function: recomputing never flips it.
    EXPECT_EQ(trace_sampled(id, 0.5), trace_sampled(id, 0.5));
  }
  // At rate 0.5 some tasks sample and some do not (the hash spreads).
  std::size_t sampled = 0;
  for (std::uint64_t task = 0; task < 256; ++task) {
    sampled += trace_sampled(mint_trace_id(task), 0.5) ? 1 : 0;
  }
  EXPECT_GT(sampled, 0u);
  EXPECT_LT(sampled, 256u);
}

// -------------------------------------------------------- trace store --

TaskSpan span_named(const char* name, double t) {
  TaskSpan s;
  s.name = name;
  s.start_hours = t;
  s.end_hours = t;
  return s;
}

TEST(TraceStore, BeginAppendFinishAndLookups) {
  TraceStore store(8);
  const std::uint64_t trace_id = mint_trace_id(11);
  EXPECT_TRUE(store.begin(11, trace_id, 0.5));
  EXPECT_FALSE(store.begin(11, trace_id, 0.6));  // idempotent for live ids
  EXPECT_TRUE(store.append(11, span_named("submit", 0.5)));
  EXPECT_TRUE(store.append(11, span_named("queue_wait", 0.7)));
  // Untraced task: every call is a quiet no-op.
  EXPECT_FALSE(store.append(99, span_named("submit", 0.0)));
  EXPECT_FALSE(store.finish(99, "dispatched"));

  const auto by_trace = store.find_by_trace(trace_id);
  ASSERT_TRUE(by_trace.has_value());
  EXPECT_EQ(by_trace->task_id, 11u);
  EXPECT_FALSE(by_trace->finished());
  EXPECT_EQ(by_trace->chain(), "submit>queue_wait");

  EXPECT_TRUE(store.finish(11, "dispatched"));
  const auto finished = store.find_by_trace(trace_id);
  ASSERT_TRUE(finished.has_value());
  EXPECT_EQ(finished->final_state, "dispatched");
  EXPECT_TRUE(finished->finished());
}

TEST(TraceStore, SamplesAtItsConstructorRate) {
  const TraceStore off(8);  // default rate: nothing is sampled
  const TraceStore all(8, 1.0);
  const TraceStore half(8, 0.5);
  for (std::uint64_t task = 0; task < 64; ++task) {
    const std::uint64_t id = mint_trace_id(task);
    EXPECT_FALSE(off.sampled(id));
    EXPECT_TRUE(all.sampled(id));
    EXPECT_EQ(half.sampled(id), trace_sampled(id, 0.5));
  }
}

TEST(TraceStore, EvictionPrefersOldestFinishedTrace) {
  TraceStore store(2);
  store.begin(1, mint_trace_id(1), 0.0);  // stays in flight
  store.begin(2, mint_trace_id(2), 1.0);
  store.finish(2, "dispatched");
  // Full. The next begin must evict task 2 (oldest *finished*), keeping
  // the older but still-live task 1.
  store.begin(3, mint_trace_id(3), 2.0);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.find_by_trace(mint_trace_id(1)).has_value());
  EXPECT_FALSE(store.find_by_trace(mint_trace_id(2)).has_value());
  EXPECT_TRUE(store.find_by_trace(mint_trace_id(3)).has_value());
  // Nothing finished: eviction falls back to the oldest outright.
  store.begin(4, mint_trace_id(4), 3.0);
  EXPECT_FALSE(store.find_by_trace(mint_trace_id(1)).has_value());
  EXPECT_TRUE(store.find_by_trace(mint_trace_id(3)).has_value());
  EXPECT_TRUE(store.find_by_trace(mint_trace_id(4)).has_value());
  EXPECT_EQ(store.evicted(), 2u);
  EXPECT_EQ(store.begun(), 4u);
}

TEST(TraceStore, SurvivesChurnFarPastCapacity) {
  TraceStore store(16);
  for (std::uint64_t id = 0; id < 500; ++id) {
    store.begin(id, mint_trace_id(id), static_cast<double>(id));
    store.append(id, span_named("submit", static_cast<double>(id)));
    if (id % 2 == 0) {
      store.finish(id, "dispatched");
    }
  }
  EXPECT_EQ(store.size(), 16u);
  EXPECT_EQ(store.begun(), 500u);
  EXPECT_EQ(store.evicted(), 500u - 16u);
  // The newest trace is always queryable after churn.
  EXPECT_TRUE(store.find_by_trace(mint_trace_id(499)).has_value());
}

TEST(TraceStore, DrainWritesDeterministicFieldsAndClears) {
  TraceStore store(8);
  store.begin(5, mint_trace_id(5), 0.25);
  TaskSpan s = span_named("submit", 0.25);
  s.duration_ns = 12345;  // wall clock: must NOT reach the JSONL
  s.value = 1.5;
  s.detail = "gpu-a";
  store.append(5, s);
  store.finish(5, "dispatched");
  store.begin(6, mint_trace_id(6), 0.5);  // drained while in flight

  std::ostringstream out;
  JsonlWriter writer(out);
  EXPECT_EQ(store.drain_to(writer, "online"), 2u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.begun(), 2u);  // lifetime counters survive the drain
  // Drained traces are gone from lookups too.
  EXPECT_FALSE(store.find_by_trace(mint_trace_id(5)).has_value());
  EXPECT_FALSE(store.find_by_trace(mint_trace_id(6)).has_value());

  const std::string text = out.str();
  EXPECT_NE(text.find("\"mode\":\"online\""), std::string::npos);
  EXPECT_NE(text.find("\"trace_id\":\"" + format_trace_id(
                          mint_trace_id(5)) + "\""),
            std::string::npos);
  EXPECT_NE(text.find("\"state\":\"dispatched\""), std::string::npos);
  EXPECT_NE(text.find("\"state\":\"in_flight\""), std::string::npos);
  EXPECT_NE(text.find("\"s0_value\":"), std::string::npos);
  EXPECT_NE(text.find("\"s0_detail\":\"gpu-a\""), std::string::npos);
  EXPECT_EQ(text.find("duration"), std::string::npos);
  // A second drain has nothing left.
  EXPECT_EQ(store.drain_to(writer), 0u);
}

// ----------------------------------------------------------- rebucket --

TEST(Histogram, RebucketFoldsCountsConservatively) {
  MetricsRegistry registry;
  constexpr double kOld[] = {1.0, 2.0, 4.0};
  Histogram& hist = registry.histogram("fold", kOld);
  hist.observe(0.5);   // le 1
  hist.observe(1.5);   // le 2
  hist.observe(3.0);   // le 4
  hist.observe(10.0);  // overflow

  constexpr double kNew[] = {2.0, 8.0};
  hist.rebucket(kNew);

  // Old bound 1 and 2 fold into le=2; bound 4 folds up into le=8 (the
  // first new bound that still upper-bounds it); overflow stays overflow.
  const auto buckets = hist.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.5 + 3.0 + 10.0);
  // New observations land on the new grid.
  hist.observe(5.0);
  EXPECT_EQ(hist.bucket_counts()[1], 2u);
}

TEST(Histogram, RebucketWithNoCoveringBoundGoesToOverflow) {
  MetricsRegistry registry;
  constexpr double kOld[] = {1.0, 2.0};
  Histogram& hist = registry.histogram("fold_overflow", kOld);
  hist.observe(0.5);
  hist.observe(1.5);

  // No new bound covers the old ones: the conservative target is the
  // overflow bucket (the fold may never under-report a bound).
  constexpr double kNew[] = {0.25};
  hist.rebucket(kNew);
  const auto buckets = hist.bucket_counts();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0], 0u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(hist.count(), 2u);
}

TEST(MetricsRegistry, FindHistogramReturnsNullForUnknownNames) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.find_histogram("nope"), nullptr);
  constexpr double kBounds[] = {1.0};
  Histogram& hist = registry.histogram("known", kBounds);
  EXPECT_EQ(registry.find_histogram("known"), &hist);
}

TEST(TightenLatencyBuckets, RescalesAroundTheTarget) {
  MetricsRegistry registry;
  EXPECT_FALSE(tighten_latency_buckets(registry, "absent", 0.05));
  constexpr double kBounds[] = {1.0, 10.0};
  Histogram& hist = registry.histogram("mfcp_gw_submit", kBounds);
  EXPECT_TRUE(tighten_latency_buckets(registry, "mfcp_gw_submit", 0.05));
  // The new grid brackets the target with sub-target resolution.
  hist.observe(0.049);
  hist.observe(0.051);
  const auto buckets = hist.bucket_counts();
  ASSERT_GT(buckets.size(), 4u);
  // The two observations straddle the target boundary: they must not land
  // in the same bucket.
  std::size_t nonzero = 0;
  for (const auto b : buckets) {
    nonzero += b > 0 ? 1 : 0;
  }
  EXPECT_EQ(nonzero, 2u);
}

// -------------------------------------------------------- slo monitor --

TEST(SloMonitor, EmptyWindowsBurnNothing) {
  SloMonitor monitor;
  const auto states = monitor.evaluate(0.0);
  ASSERT_EQ(states.size(), 4u);
  EXPECT_EQ(states[0].sli, "submit_latency");
  EXPECT_EQ(states[1].sli, "dispatch_success");
  EXPECT_EQ(states[2].sli, "expiry");
  EXPECT_EQ(states[3].sli, "regret_gap");
  for (const auto& s : states) {
    EXPECT_EQ(s.fast_burn, 0.0) << s.sli;
    EXPECT_EQ(s.slow_burn, 0.0) << s.sli;
    EXPECT_FALSE(s.firing) << s.sli;
    EXPECT_EQ(s.samples, 0u) << s.sli;
  }
}

TEST(SloMonitor, ExactlyAtBudgetBurnsAtExactlyOne) {
  SloConfig cfg;
  // A dyadic budget so "bad fraction == budget" is exact in doubles.
  cfg.submit_latency_objective = 0.875;  // error budget = 0.125
  SloMonitor monitor(cfg);
  for (int i = 0; i < 8; ++i) {
    // 1 of 8 submits over the 50 ms target: bad fraction == budget.
    monitor.observe_submit(0.0, i == 0 ? 1.0 : 0.001);
  }
  const auto states = monitor.evaluate(0.0);
  EXPECT_EQ(states[0].fast_burn, 1.0);
  EXPECT_EQ(states[0].slow_burn, 1.0);
  EXPECT_FALSE(states[0].firing);  // threshold is 2.0
  EXPECT_EQ(states[0].samples, 8u);
}

TEST(SloMonitor, FiresOnlyWhenBothWindowsBurn) {
  SloMonitor monitor;  // dispatch error budget = 0.10, threshold 2.0
  // Lots of healthy traffic early in the slow window...
  monitor.observe_round(1.2, 100, 100, 0, 0.0, false);
  // ...then a total outage inside the fast window (last 5 sim-minutes).
  monitor.observe_round(1.95, 10, 0, 0, 0.0, false);
  auto states = monitor.evaluate(2.0);
  EXPECT_GT(states[1].fast_burn, 2.0);
  EXPECT_LT(states[1].slow_burn, 2.0);  // 10/110 bad = burn 0.91
  EXPECT_FALSE(states[1].firing) << "a brief spike must not page";

  // More failures mid-window push the slow burn over too: now it fires.
  monitor.observe_round(1.5, 20, 0, 0, 0.0, false);
  states = monitor.evaluate(2.0);
  EXPECT_GT(states[1].fast_burn, 2.0);
  EXPECT_GT(states[1].slow_burn, 2.0);
  EXPECT_TRUE(states[1].firing);

  // Once the outage ages out of both windows the rule clears.
  states = monitor.evaluate(4.0);
  EXPECT_FALSE(states[1].firing);
  EXPECT_EQ(states[1].samples, 0u);
}

TEST(SloMonitor, ExpiryAndRegretSlisObserveRounds) {
  SloMonitor monitor;
  // 5 expiries against 15 admitted (10 batched + 5 expired) = 1/3 bad,
  // budget 0.05 -> burn ~6.7 in both windows.
  monitor.observe_round(0.01, 10, 10, 5, 0.0, false);
  // Regret gap: mean 1.0 against budget 0.5 -> burn 2.0 exactly (not >).
  monitor.observe_round(0.02, 10, 10, 0, 1.0, true);
  const auto states = monitor.evaluate(0.05);
  EXPECT_GT(states[2].fast_burn, 2.0);
  EXPECT_TRUE(states[2].firing);
  EXPECT_DOUBLE_EQ(states[3].fast_burn, 2.0);
  EXPECT_FALSE(states[3].firing);  // strict threshold: 2.0 is not > 2.0
  // A negative gap (matcher beat the hindsight bound) must not burn.
  SloMonitor negative;
  negative.observe_round(0.01, 10, 10, 0, -1.0, true);
  EXPECT_EQ(negative.evaluate(0.05)[3].fast_burn, 0.0);
}

TEST(SloMonitor, ExportsGaugeFamiliesWithSliLabels) {
  MetricsRegistry registry;
  SloMonitor monitor;
  monitor.bind_metrics(&registry);
  monitor.observe_submit(0.0, 1.0);  // one bad submit
  monitor.evaluate(0.0);
  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("mfcp_slo_value{sli=\"submit_latency\"}"),
            std::string::npos);
  EXPECT_NE(text.find("mfcp_slo_budget{sli=\"dispatch_success\"}"),
            std::string::npos);
  EXPECT_NE(text.find(
                "mfcp_slo_burn_rate{sli=\"expiry\",window=\"fast\"}"),
            std::string::npos);
  EXPECT_NE(text.find(
                "mfcp_slo_burn_rate{sli=\"regret_gap\",window=\"slow\"}"),
            std::string::npos);
  EXPECT_NE(text.find("mfcp_slo_firing{sli=\"submit_latency\"}"),
            std::string::npos);
}

TEST(SloSummaryTable, RendersOneRowPerSli) {
  SloMonitor monitor;
  monitor.observe_round(0.0, 10, 10, 0, 0.0, false);
  const std::string table = slo_summary_table(monitor.evaluate(0.0));
  EXPECT_NE(table.find("submit_latency"), std::string::npos);
  EXPECT_NE(table.find("dispatch_success"), std::string::npos);
  EXPECT_NE(table.find("expiry"), std::string::npos);
  EXPECT_NE(table.find("regret_gap"), std::string::npos);
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 5);  // header + 4
}

// ------------------------------------------------------- http exporter --

net::HttpRequest get(const std::string& path,
                     const std::string& method = "GET") {
  net::HttpRequest request;
  request.method = method;
  request.path = path;
  request.valid = true;
  return request;
}

TEST(DebugRoutes, MetricsHealthzAndUnknownPaths) {
  MetricsRegistry registry;
  registry.counter("pings_total").add(2);
  DebugSources sources;
  sources.snapshot = [&registry] { return registry.snapshot(); };

  const net::HttpResponse metrics =
      route_debug_request(get("/metrics"), sources);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("pings_total 2"), std::string::npos);

  const net::HttpResponse health =
      route_debug_request(get("/healthz"), sources);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  EXPECT_EQ(route_debug_request(get("/nope"), sources).status, 404);
  // Without a snapshot source /metrics is absent, not empty.
  EXPECT_EQ(route_debug_request(get("/metrics"), DebugSources{}).status, 404);
}

TEST(DebugRoutes, NonGetIs405WithAllowHeader) {
  DebugSources sources;
  const net::HttpResponse post =
      route_debug_request(get("/metrics", "POST"), sources);
  EXPECT_EQ(post.status, 405);
  ASSERT_EQ(post.headers.size(), 1u);
  EXPECT_EQ(post.headers[0].first, "Allow");
  EXPECT_EQ(post.headers[0].second, "GET");
  const std::string wire = net::serialize_response(post);
  EXPECT_NE(wire.find("405 Method Not Allowed"), std::string::npos);
  EXPECT_NE(wire.find("Allow: GET"), std::string::npos);
}

/// One real scrape through the socket path: connect to the ephemeral
/// port, send a request, read the full response.
std::string scrape(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  EXPECT_GT(::send(fd, request.data(), request.size(), 0), 0);
  std::string response;
  char buf[1024];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// A scrape-only server: net::HttpServer mounting the debug route table,
/// the way the example's batch mode and the engine bench serve it.
net::HttpServer debug_server(const MetricsRegistry& registry,
                             DebugSources sources = {}) {
  sources.snapshot = [&registry] { return registry.snapshot(); };
  return net::HttpServer(
      [sources = std::move(sources)](const net::HttpRequest& request) {
        return route_debug_request(request, sources);
      });
}

TEST(DebugRoutes, ServesLiveSnapshotsOverRealSockets) {
  MetricsRegistry registry;
  registry.counter("live_total").add(1);
  net::HttpServer exporter = debug_server(registry);
  ASSERT_GT(exporter.port(), 0);  // ephemeral port was bound

  const std::string first =
      scrape(exporter.port(), "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(first.find("200 OK"), std::string::npos);
  EXPECT_NE(first.find("live_total 1"), std::string::npos);

  // The exporter snapshots per scrape: a later request sees newer values.
  registry.counter("live_total").add(4);
  const std::string second =
      scrape(exporter.port(), "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(second.find("live_total 5"), std::string::npos);

  const std::string health =
      scrape(exporter.port(), "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);

  exporter.stop();
  EXPECT_EQ(exporter.requests_served(), 3u);
  exporter.stop();  // idempotent
}

// -------------------------------------------------------------- flight --

TEST(SeqlockRing, WrapKeepsTheNewestWindowInSeqOrder) {
  EXPECT_EQ(SampleRing(1).capacity(), 8u);  // minimum 8
  EXPECT_EQ(SampleRing(9).capacity(), 16u);  // next power of two
  FlightRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_TRUE(ring.snapshot().empty());
  for (std::uint64_t i = 1; i <= 20; ++i) {
    const std::uint64_t payload[2] = {i, i * 3};
    ring.record(payload, 2);
  }
  EXPECT_EQ(ring.head(), 20u);
  const std::vector<FlightRing::Slot> slots = ring.snapshot();
  // The ring overwrote 1..12; exactly the newest capacity() survive.
  ASSERT_EQ(slots.size(), 8u);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i][0], 13 + i);  // word 0 is the sequence number
    EXPECT_EQ(slots[i][1], 13 + i);  // payload still pairs with its seq
    EXPECT_EQ(slots[i][2], (13 + i) * 3);
  }
  // A payload longer than the slot is clamped, never written past it.
  std::uint64_t too_long[FlightRing::Slot{}.size() + 4] = {};
  too_long[6] = 42;
  ring.record(too_long, sizeof(too_long) / sizeof(too_long[0]));
  EXPECT_EQ(ring.snapshot().back()[7], 42u);
  ring.reset();
  EXPECT_EQ(ring.head(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(SeqlockRing, ConcurrentReaderNeverSeesATornSlot) {
  // One writer hammers a tiny ring of the widest slot in use (the
  // profiler's) under maximal overwrite pressure while a reader drains
  // snapshots. The seqlock must hand the reader only slots whose every
  // payload word matches the sequence they were published under.
  SampleRing ring(8);
  constexpr std::size_t kPayload = SampleRing::Slot{}.size() - 1;
  constexpr std::uint64_t kSlots = 100000;
  const auto check = [](const SampleRing::Slot& slot) {
    for (std::size_t i = 1; i <= kPayload; ++i) {
      ASSERT_EQ(slot[i], slot[0] * 64 + i);
    }
  };
  std::atomic<bool> done{false};
  std::thread writer([&ring, &done] {
    std::uint64_t payload[kPayload];
    for (std::uint64_t seq = 1; seq <= kSlots; ++seq) {
      for (std::size_t i = 0; i < kPayload; ++i) {
        payload[i] = seq * 64 + i + 1;
      }
      ring.record(payload, kPayload);
    }
    done.store(true, std::memory_order_release);
  });
  std::size_t drained = 0;
  while (!done.load(std::memory_order_acquire)) {
    // Under this much overwrite pressure a mid-flight snapshot may
    // reject every slot — what matters is that whatever it does hand
    // back is consistent.
    for (const SampleRing::Slot& slot : ring.snapshot()) {
      check(slot);
      ++drained;
    }
  }
  writer.join();
  EXPECT_EQ(ring.head(), kSlots);
  // Quiescent ring: the full newest window is visible and consistent.
  const std::vector<SampleRing::Slot> final_window = ring.snapshot();
  ASSERT_EQ(final_window.size(), ring.capacity());
  for (const SampleRing::Slot& slot : final_window) {
    check(slot);
    ++drained;
  }
  EXPECT_GT(drained, 0u);
}

TEST(FlightRecorder, SnapshotMergesAndFiltersAcrossThreads) {
  FlightRecorder recorder;
  recorder.record(FlightKind::kRoundBegin, 1.0, 10);
  recorder.record(FlightKind::kRoundEnd, 1.5, 11);
  std::thread other([&recorder] {
    recorder.record(FlightKind::kAdmission, 2.0, 99, 1, 7, 0xabcd);
  });
  other.join();
  EXPECT_EQ(recorder.events_total(), 3u);
  EXPECT_EQ(recorder.threads_registered(), 2u);
  EXPECT_DOUBLE_EQ(recorder.last_sim_hours(), 2.0);

  EXPECT_EQ(recorder.snapshot().size(), 3u);
  const auto admissions = recorder.snapshot(-1, FlightKind::kAdmission);
  ASSERT_EQ(admissions.size(), 1u);
  // Every field survives the encode into slot words and the decode.
  const FlightEvent& e = admissions[0];
  EXPECT_EQ(e.seq, 1u);
  EXPECT_GT(e.wall_ns, 0u);
  EXPECT_DOUBLE_EQ(e.sim_hours, 2.0);
  EXPECT_EQ(e.a0, 99u);
  EXPECT_EQ(e.a1, 1u);
  EXPECT_EQ(e.a2, 7u);
  EXPECT_EQ(e.trace_id, 0xabcdu);
  EXPECT_EQ(e.kind, static_cast<std::uint16_t>(FlightKind::kAdmission));
  EXPECT_EQ(e.thread, 1u);  // second thread to record
  EXPECT_EQ(recorder.snapshot(0).size(), 2u);   // main thread's ring
  EXPECT_EQ(recorder.snapshot(1).size(), 1u);   // helper thread's ring
  EXPECT_EQ(recorder.snapshot(-1, FlightKind::kNone, 2).size(), 2u);
}

TEST(FlightQuery, ParsesFiltersAndRejectsMalformedOnes) {
  const FlightQuery all = parse_flight_query("/debug/flight");
  EXPECT_TRUE(all.valid);
  EXPECT_EQ(all.thread, -1);
  EXPECT_EQ(all.kind, FlightKind::kNone);

  const FlightQuery q =
      parse_flight_query("/debug/flight?thread=2&kind=round_begin&limit=64");
  EXPECT_TRUE(q.valid);
  EXPECT_EQ(q.thread, 2);
  EXPECT_EQ(q.kind, FlightKind::kRoundBegin);
  EXPECT_EQ(q.limit, 64u);

  EXPECT_FALSE(parse_flight_query("/debug/flight?kind=nope").valid);
  EXPECT_FALSE(parse_flight_query("/debug/flight?thread=abc").valid);
  EXPECT_FALSE(parse_flight_query("/debug/flight?limit=").valid);
  EXPECT_FALSE(parse_flight_query("/debug/flight?bogus=1").valid);
  // Values past UINT64_MAX are rejected, not wrapped (2^64 would read as
  // thread 0, 2^64 + 1 as limit 1).
  EXPECT_FALSE(
      parse_flight_query("/debug/flight?thread=18446744073709551616").valid);
  EXPECT_FALSE(
      parse_flight_query("/debug/flight?limit=18446744073709551617").valid);
}

/// Test sink capturing every alert transition it is handed.
struct CaptureSink : AlertSink {
  void notify(const AlertTransition& transition) override {
    std::lock_guard<std::mutex> lock(mutex);
    transitions.push_back(transition);
  }
  std::vector<AlertTransition> copy() {
    std::lock_guard<std::mutex> lock(mutex);
    return transitions;
  }
  std::mutex mutex;
  std::vector<AlertTransition> transitions;
};

TEST(FlightWatchdog, FiresOnAStalledHeartbeatAndDumpsTheRings) {
  const std::string dump_path = "flight_watchdog_test.flight";
  std::remove(dump_path.c_str());
  FlightConfig cfg;
  cfg.stall_budget_seconds = 0.05;
  FlightRecorder recorder(cfg);
  recorder.record(FlightKind::kRoundBegin, 3.25, 7);
  SloMonitor slo;
  CaptureSink sink;
  slo.set_alert_sink(&sink);
  HeartbeatHandle pulse = recorder.register_heartbeat("stalling_loop");
  pulse.beat();  // busy, and never beats again
  recorder.start_watchdog(dump_path, &slo);

  // The watchdog scans every 0.25 s, so it flags the stall within about
  // one scan; the deadline leaves ample slack.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (recorder.watchdog_stalls() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(5.0 * cfg.stall_budget_seconds));
  EXPECT_GE(recorder.watchdog_stalls(), 1u);

  // Recovery resolves the alert through the same sink.
  pulse.idle();
  while (std::chrono::steady_clock::now() < deadline) {
    const auto seen = sink.copy();
    if (!seen.empty() && !seen.back().firing) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  recorder.stop_watchdog();

  const auto transitions = sink.copy();
  ASSERT_GE(transitions.size(), 2u);
  EXPECT_EQ(transitions.front().sli, "watchdog_stall");
  EXPECT_TRUE(transitions.front().firing);
  EXPECT_GE(transitions.front().value, cfg.stall_budget_seconds);
  EXPECT_FALSE(transitions.back().firing);

  // The stall dump is a parsable JSONL black box: meta, the stalled
  // heartbeat, and the recorded event all present.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.is_open());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"record\":\"flight_meta\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"watchdog_stall\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"stalling_loop\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"round_begin\""), std::string::npos);
  std::remove(dump_path.c_str());
}

TEST(FlightWatchdog, StaysSilentWhileHeartbeatsAreHealthy) {
  const std::string dump_path = "flight_watchdog_silent.flight";
  std::remove(dump_path.c_str());
  FlightConfig cfg;
  cfg.stall_budget_seconds = 0.1;
  FlightRecorder recorder(cfg);
  SloMonitor slo;
  CaptureSink sink;
  slo.set_alert_sink(&sink);
  recorder.start_watchdog(dump_path, &slo);

  // One loop beats well inside the budget; another is parked idle for
  // longer than the budget — neither is a stall.
  HeartbeatHandle parked = recorder.register_heartbeat("parked_loop");
  parked.idle();
  std::atomic<bool> stop{false};
  std::thread busy([&recorder, &stop] {
    HeartbeatHandle pulse = recorder.register_heartbeat("busy_loop");
    while (!stop.load(std::memory_order_acquire)) {
      pulse.beat();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pulse.idle();
  });
  // Long enough for two of the watchdog's 0.25 s scans.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  stop.store(true, std::memory_order_release);
  busy.join();
  recorder.stop_watchdog();

  EXPECT_EQ(recorder.watchdog_stalls(), 0u);
  EXPECT_TRUE(sink.copy().empty());
  // No stall, no dump file.
  EXPECT_FALSE(std::ifstream(dump_path).is_open());
}

namespace {
std::uint64_t dump_u64(const std::vector<unsigned char>& bytes,
                       std::size_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}
}  // namespace

TEST(FlightCrash, ForkedChildSegfaultLeavesAParsableRawDump) {
  const std::string dump_path = "flight_crash_test.flight";
  std::remove(dump_path.c_str());
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: arm the crash path on a fresh recorder, record a known
    // event, then die by SIGSEGV. Nothing after raise() may run.
    static FlightRecorder recorder;
    recorder.record(FlightKind::kRoundBegin, 1.5, 11, 22, 33, 0x77);
    recorder.record(FlightKind::kRoundEnd, 2.5, 44);
    install_crash_handlers(&recorder, dump_path.c_str());
    ::raise(SIGSEGV);
    ::_exit(9);  // unreachable: the re-raise kills the child
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  std::ifstream in(dump_path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::vector<unsigned char> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Header: magic, signal, one ring of kFlightRingCapacity events,
  // 64-byte slots.
  ASSERT_GE(bytes.size(), 64u);
  EXPECT_EQ(std::memcmp(bytes.data(), "MFCPFLT1", 8), 0);
  EXPECT_EQ(dump_u64(bytes, 8), static_cast<std::uint64_t>(SIGSEGV));
  EXPECT_EQ(dump_u64(bytes, 16), 1u);   // ring_count
  EXPECT_EQ(dump_u64(bytes, 24), kFlightRingCapacity);
  EXPECT_EQ(dump_u64(bytes, 32), 64u);  // event bytes
  EXPECT_EQ(dump_u64(bytes, 40), 2u);   // events_total
  ASSERT_EQ(bytes.size(), 64u + 16u + kFlightRingCapacity * 64u);
  // Ring header, then the first slot holds the first recorded event raw.
  EXPECT_EQ(dump_u64(bytes, 64), 0u);  // ring index
  EXPECT_EQ(dump_u64(bytes, 72), 2u);  // head
  const std::size_t slot0 = 80;
  EXPECT_EQ(dump_u64(bytes, slot0), 1u);  // seq
  double sim_hours = 0.0;
  const std::uint64_t sim_bits = dump_u64(bytes, slot0 + 16);
  std::memcpy(&sim_hours, &sim_bits, sizeof(sim_hours));
  EXPECT_DOUBLE_EQ(sim_hours, 1.5);
  EXPECT_EQ(dump_u64(bytes, slot0 + 24), 11u);    // a0
  EXPECT_EQ(dump_u64(bytes, slot0 + 32), 22u);    // a1
  EXPECT_EQ(dump_u64(bytes, slot0 + 40), 33u);    // a2
  EXPECT_EQ(dump_u64(bytes, slot0 + 48), 0x77u);  // trace_id
  const std::uint64_t packed = dump_u64(bytes, slot0 + 56);
  EXPECT_EQ(packed & 0xFFFF,
            static_cast<std::uint64_t>(FlightKind::kRoundBegin));
  std::remove(dump_path.c_str());
}

TEST(DebugRoutes, ServesFlightDebugRoutesWhenConfigured) {
  FlightRecorder recorder;
  recorder.record(FlightKind::kRoundBegin, 1.0, 5);
  HeartbeatHandle pulse = recorder.register_heartbeat("exporter_test");
  pulse.beat();

  MetricsRegistry registry;
  DebugSources sources;
  sources.flight = &recorder;
  net::HttpServer exporter = debug_server(registry, sources);

  const std::string events =
      scrape(exporter.port(), "GET /debug/flight HTTP/1.1\r\n\r\n");
  EXPECT_NE(events.find("200 OK"), std::string::npos);
  EXPECT_NE(events.find("\"kind\":\"round_begin\""), std::string::npos);
  const std::string filtered = scrape(
      exporter.port(),
      "GET /debug/flight?kind=round_end HTTP/1.1\r\n\r\n");
  EXPECT_NE(filtered.find("\"count\":0"), std::string::npos);
  const std::string bad = scrape(
      exporter.port(), "GET /debug/flight?kind=nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(bad.find("400"), std::string::npos);
  const std::string threads =
      scrape(exporter.port(), "GET /debug/threads HTTP/1.1\r\n\r\n");
  EXPECT_NE(threads.find("\"name\":\"exporter_test\""), std::string::npos);
  EXPECT_NE(threads.find("\"busy\":true"), std::string::npos);
  exporter.stop();
}

TEST(DebugRoutes, FlightRoutesAre404WithoutARecorder) {
  MetricsRegistry registry;
  net::HttpServer exporter = debug_server(registry);
  const std::string events =
      scrape(exporter.port(), "GET /debug/flight HTTP/1.1\r\n\r\n");
  EXPECT_NE(events.find("404"), std::string::npos);
  const std::string threads =
      scrape(exporter.port(), "GET /debug/threads HTTP/1.1\r\n\r\n");
  EXPECT_NE(threads.find("404"), std::string::npos);
  exporter.stop();
}

// ------------------------------------------------------------ profiler --

TEST(Profiler, StageScopeNestsAndRestores) {
  EXPECT_EQ(current_stage(), EngineStage::kNone);
  {
    StageScope outer(EngineStage::kMatch);
    EXPECT_EQ(current_stage(), EngineStage::kMatch);
    {
      StageScope inner(EngineStage::kPredict);
      EXPECT_EQ(current_stage(), EngineStage::kPredict);
    }
    EXPECT_EQ(current_stage(), EngineStage::kMatch);
  }
  EXPECT_EQ(current_stage(), EngineStage::kNone);
}

TEST(Profiler, StageScopeCloseIsIdempotent) {
  StageScope scope(EngineStage::kEmbed);
  EXPECT_EQ(current_stage(), EngineStage::kEmbed);
  scope.close();
  EXPECT_EQ(current_stage(), EngineStage::kNone);
  scope.close();  // second close must not pop anything else
  EXPECT_EQ(current_stage(), EngineStage::kNone);
}

TEST(Profiler, StageNamesRoundTrip) {
  EXPECT_EQ(to_string(EngineStage::kNone), "none");
  EXPECT_EQ(to_string(EngineStage::kEmbed), "embed");
  EXPECT_EQ(to_string(EngineStage::kPredict), "predict");
  EXPECT_EQ(to_string(EngineStage::kMatch), "match");
  EXPECT_EQ(to_string(EngineStage::kAttribute), "attribute");
  EXPECT_EQ(to_string(EngineStage::kDispatch), "dispatch");
}

TEST(ProfileQuery, DefaultsAndValidParses) {
  const ProfileQuery bare = parse_profile_query("/debug/profile");
  EXPECT_TRUE(bare.valid);
  EXPECT_DOUBLE_EQ(bare.seconds, 2.0);
  EXPECT_DOUBLE_EQ(bare.hz, 97.0);

  const ProfileQuery full =
      parse_profile_query("/debug/profile?seconds=0.5&hz=250");
  EXPECT_TRUE(full.valid);
  EXPECT_DOUBLE_EQ(full.seconds, 0.5);
  EXPECT_DOUBLE_EQ(full.hz, 250.0);
}

TEST(ProfileQuery, RejectsMalformedAndOutOfRange) {
  EXPECT_FALSE(parse_profile_query("/debug/profile?seconds=0").valid);
  EXPECT_FALSE(parse_profile_query("/debug/profile?seconds=31").valid);
  EXPECT_FALSE(parse_profile_query("/debug/profile?seconds=-1").valid);
  EXPECT_FALSE(parse_profile_query("/debug/profile?seconds=abc").valid);
  EXPECT_FALSE(parse_profile_query("/debug/profile?seconds=").valid);
  EXPECT_FALSE(parse_profile_query("/debug/profile?hz=0.5").valid);
  EXPECT_FALSE(parse_profile_query("/debug/profile?hz=1001").valid);
  EXPECT_FALSE(parse_profile_query("/debug/profile?hz=nan").valid);
  EXPECT_FALSE(parse_profile_query("/debug/profile?bogus=1").valid);
  EXPECT_FALSE(parse_profile_query("/debug/profile?seconds").valid);
  EXPECT_FALSE(
      parse_profile_query("/debug/profile?seconds=1&&hz=97").valid);
}

TEST(Profiler, RejectsBadSessionRates) {
  SamplingProfiler profiler;
  EXPECT_FALSE(profiler.start(0.0));
  EXPECT_FALSE(profiler.start(-5.0));
  EXPECT_FALSE(profiler.start(1001.0));
}

TEST(Profiler, OneSessionAtATime) {
  SamplingProfiler profiler;
  ASSERT_TRUE(profiler.start(10.0));
  EXPECT_TRUE(profiler.session_active());
  EXPECT_FALSE(profiler.start(10.0));
  profiler.stop();
  EXPECT_FALSE(profiler.session_active());
  EXPECT_TRUE(profiler.start(10.0));
  profiler.stop();
  EXPECT_EQ(profiler.sessions_total(), 2u);
}

TEST(Profiler, SamplesABusyRegisteredThread) {
  SamplingProfiler profiler;
  ASSERT_TRUE(profiler.register_current_thread("busy_thread"));
  EXPECT_EQ(profiler.threads_registered(), 1u);
  ASSERT_TRUE(profiler.start(500.0));
  // Burn CPU inside a tagged stage so the per-thread CPU-clock timer
  // fires: ~150ms of arithmetic at 500 Hz is ~75 expected samples.
  volatile double sink = 0.0;
  {
    StageScope stage(EngineStage::kMatch);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
    while (std::chrono::steady_clock::now() < until) {
      for (int i = 0; i < 1000; ++i) {
        sink = sink + std::sqrt(static_cast<double>(i));
      }
    }
  }
  profiler.stop();
  EXPECT_GT(profiler.samples_total(), 0u);

  const std::string folded = profiler.folded();
  EXPECT_NE(folded.find("busy_thread;stage:match;"), std::string::npos);
  // Exact-accounting anchors cover every engine stage even though only
  // kMatch ran.
  EXPECT_NE(folded.find("[stage_totals];embed "), std::string::npos);
  EXPECT_NE(folded.find("[stage_totals];predict "), std::string::npos);
  EXPECT_NE(folded.find("[stage_totals];match "), std::string::npos);
  EXPECT_NE(folded.find("[stage_totals];attribute "), std::string::npos);
  EXPECT_NE(folded.find("[stage_totals];dispatch "), std::string::npos);
  // Every folded line is "stack count" with a positive trailing integer.
  std::istringstream lines(folded);
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const long count = std::strtol(line.c_str() + space + 1, nullptr, 10);
    EXPECT_GT(count, 0) << line;
    ++parsed;
  }
  EXPECT_GT(parsed, 5u);
  profiler.unregister_current_thread();
  EXPECT_EQ(profiler.threads_registered(), 1u);  // entry stays, inactive
}

TEST(Profiler, CollectFoldedRunsAWholeSession) {
  SamplingProfiler profiler;
  profiler.register_current_thread("collector");
  const auto folded = profiler.collect_folded(0.05, 200.0);
  ASSERT_TRUE(folded.has_value());
  EXPECT_FALSE(profiler.session_active());
  EXPECT_NE(folded->find("[stage_totals];match "), std::string::npos);
  profiler.unregister_current_thread();
}

TEST(Profiler, ProfileRouteStatusCodes) {
  EXPECT_EQ(profile_route(nullptr, "/debug/profile").status, 404);

  SamplingProfiler profiler;
  profiler.register_current_thread("route_thread");
  EXPECT_EQ(profile_route(&profiler, "/debug/profile?seconds=0").status,
            400);
  EXPECT_EQ(profile_route(&profiler, "/debug/profile?x=1").status, 400);

  const ProfileRouteResult ok =
      profile_route(&profiler, "/debug/profile?seconds=0.05&hz=100");
  EXPECT_EQ(ok.status, 200);
  EXPECT_NE(ok.body.find("[stage_totals];"), std::string::npos);

  // A session already in flight answers 409 without disturbing it.
  ASSERT_TRUE(profiler.start(50.0));
  const ProfileRouteResult busy =
      profile_route(&profiler, "/debug/profile?seconds=0.05&hz=100");
  EXPECT_EQ(busy.status, 409);
  EXPECT_TRUE(profiler.session_active());
  profiler.stop();
  profiler.unregister_current_thread();
}

TEST(Profiler, DefaultProfilerBumpsGeneration) {
  EXPECT_EQ(default_profiler(), nullptr);
  const std::uint64_t before = default_profiler_generation();
  SamplingProfiler profiler;
  set_default_profiler(&profiler);
  EXPECT_EQ(default_profiler(), &profiler);
  EXPECT_GT(default_profiler_generation(), before);
  set_default_profiler(nullptr);
  EXPECT_EQ(default_profiler(), nullptr);
  EXPECT_GT(default_profiler_generation(), before + 1);
}

TEST(Profiler, RegistrationBeyondMaxThreadsIsDropped) {
  SamplingProfiler profiler;
  const auto register_new_thread = [&profiler] {
    bool registered = false;
    std::thread t([&] { registered = profiler.register_current_thread("t"); });
    t.join();
    return registered;
  };
  for (std::size_t i = 0; i < kMaxProfiledThreads; ++i) {
    ASSERT_TRUE(register_new_thread());
  }
  EXPECT_EQ(profiler.threads_registered(), kMaxProfiledThreads);
  EXPECT_FALSE(register_new_thread());
  EXPECT_EQ(profiler.threads_registered(), kMaxProfiledThreads);
}

TEST(BuildInfo, CarriesProvenanceFields) {
  const std::string json = build_info_json();
  EXPECT_NE(json.find("\"git_sha\":\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\":\""), std::string::npos);
  EXPECT_NE(json.find("\"build_type\":\""), std::string::npos);
  EXPECT_NE(json.find("\"sanitizers\":\""), std::string::npos);
  EXPECT_FALSE(build_git_sha().empty());
  EXPECT_FALSE(build_compiler().empty());
}

TEST(DebugRoutes, ServesProfileAndBuildRoutes) {
  MetricsRegistry registry;
  SamplingProfiler profiler;
  profiler.register_current_thread("exporter_test");
  DebugSources sources;
  sources.profiler = &profiler;
  net::HttpServer exporter = debug_server(registry, sources);
  ASSERT_GT(exporter.port(), 0);

  const std::string build =
      scrape(exporter.port(), "GET /debug/build HTTP/1.1\r\n\r\n");
  EXPECT_NE(build.find("200 OK"), std::string::npos);
  EXPECT_NE(build.find("\"git_sha\""), std::string::npos);

  const std::string bad = scrape(
      exporter.port(), "GET /debug/profile?seconds=99 HTTP/1.1\r\n\r\n");
  EXPECT_NE(bad.find("400"), std::string::npos);

  const std::string ok = scrape(
      exporter.port(),
      "GET /debug/profile?seconds=0.05&hz=50 HTTP/1.1\r\n\r\n");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("[stage_totals];"), std::string::npos);
  exporter.stop();
  profiler.unregister_current_thread();
}

TEST(DebugRoutes, ProfileRouteAnswers404WithoutAProfiler) {
  MetricsRegistry registry;
  net::HttpServer exporter = debug_server(registry);
  const std::string none =
      scrape(exporter.port(), "GET /debug/profile HTTP/1.1\r\n\r\n");
  EXPECT_NE(none.find("404"), std::string::npos);
  // /debug/build is unconditional: provenance never depends on wiring.
  const std::string build =
      scrape(exporter.port(), "GET /debug/build HTTP/1.1\r\n\r\n");
  EXPECT_NE(build.find("200 OK"), std::string::npos);
  exporter.stop();
}

}  // namespace
}  // namespace mfcp::obs
