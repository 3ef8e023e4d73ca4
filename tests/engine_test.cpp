// Tests for the online platform engine: deterministic arrival replay,
// queue backpressure and expiry accounting, size-vs-timeout round
// triggering, drift detection, checkpoint round-trips, and whole-engine
// determinism under a fixed seed.
#include <gtest/gtest.h>

#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "nn/serialize.hpp"
#include "obs/flight.hpp"
#include "obs/profiler.hpp"
#include "obs/sinks.hpp"
#include "support/check.hpp"

namespace mfcp::engine {
namespace {

Arrival make_arrival(std::size_t id, double time, double deadline) {
  Arrival a;
  a.id = id;
  a.time_hours = time;
  a.deadline_hours = deadline;
  return a;
}

// ------------------------------------------------------------- arrivals --

TEST(Arrivals, DeterministicReplayUnderFixedSeed) {
  ArrivalConfig cfg;
  cfg.rate_per_hour = 50.0;
  cfg.burst_factor = 3.0;
  cfg.burst_period_hours = 1.0;
  cfg.max_arrivals = 64;
  cfg.seed = 1234;

  ArrivalProcess a(cfg);
  ArrivalProcess b(cfg);
  for (std::size_t k = 0; k < cfg.max_arrivals; ++k) {
    const auto x = a.next();
    const auto y = b.next();
    ASSERT_TRUE(x.has_value());
    ASSERT_TRUE(y.has_value());
    EXPECT_EQ(x->id, y->id);
    EXPECT_EQ(x->time_hours, y->time_hours);  // bit-identical, not approx
    EXPECT_EQ(x->deadline_hours, y->deadline_hours);
    EXPECT_EQ(x->task.workload(), y->task.workload());
    EXPECT_EQ(x->task.family, y->task.family);
  }
  EXPECT_FALSE(a.next().has_value());
  EXPECT_TRUE(a.exhausted());
}

TEST(Arrivals, DifferentSeedsProduceDifferentStreams) {
  ArrivalConfig cfg;
  cfg.max_arrivals = 8;
  cfg.seed = 1;
  ArrivalProcess a(cfg);
  cfg.seed = 2;
  ArrivalProcess b(cfg);
  bool any_different = false;
  for (std::size_t k = 0; k < cfg.max_arrivals; ++k) {
    if (a.next()->time_hours != b.next()->time_hours) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Arrivals, TimesIncreaseAndMeanRateRoughlyMatches) {
  ArrivalConfig cfg;
  cfg.rate_per_hour = 100.0;
  cfg.max_arrivals = 400;
  cfg.seed = 7;
  ArrivalProcess p(cfg);
  double prev = 0.0;
  double last = 0.0;
  while (auto a = p.next()) {
    EXPECT_GT(a->time_hours, prev);
    EXPECT_EQ(a->deadline_hours, a->time_hours + cfg.deadline_hours);
    prev = a->time_hours;
    last = a->time_hours;
  }
  // 400 arrivals at 100/h should take ~4 simulated hours.
  EXPECT_NEAR(last, 4.0, 1.0);
}

TEST(Arrivals, BurstsRaiseTheInstantaneousRate) {
  ArrivalConfig cfg;
  cfg.rate_per_hour = 10.0;
  cfg.burst_factor = 4.0;
  cfg.burst_period_hours = 2.0;
  cfg.burst_duty = 0.5;
  EXPECT_EQ(cfg.rate_at(0.1), 40.0);   // inside the burst window
  EXPECT_EQ(cfg.rate_at(1.5), 10.0);   // outside
  EXPECT_EQ(cfg.rate_at(2.3), 40.0);   // next cycle's burst
}

// ---------------------------------------------------------------- queue --

TEST(Queue, RejectNewestBackpressureAccounting) {
  QueueConfig cfg;
  cfg.capacity = 4;
  AdmissionQueue q(cfg);
  for (std::size_t k = 0; k < 6; ++k) {
    q.push(make_arrival(k, 0.1 * static_cast<double>(k), 10.0));
  }
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.stats().offered, 6u);
  EXPECT_EQ(q.stats().admitted, 4u);
  EXPECT_EQ(q.stats().dropped_capacity, 2u);
  // FIFO: the oldest admitted job is still at the head.
  EXPECT_EQ(q.oldest_arrival_time(), 0.0);
  const auto batch = q.pop_batch(10);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[3].id, 3u);
  EXPECT_EQ(q.stats().dispatched, 4u);
}

TEST(Queue, ExpiryIsCountedSeparatelyFromCapacityDrops) {
  AdmissionQueue q(QueueConfig{});
  q.push(make_arrival(0, 0.0, /*deadline=*/0.5));
  q.push(make_arrival(1, 0.0, /*deadline=*/2.0));
  q.expire(1.0);
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.stats().expired, 1u);
  EXPECT_EQ(q.stats().dropped_capacity, 0u);
  EXPECT_EQ(q.pop_batch(4)[0].id, 1u);
}

// -------------------------------------------------------------- batcher --

TEST(Batcher, SizeTriggerFiresAtMaxBatch) {
  BatcherConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_hours = 1.0;
  MicroBatcher b(cfg);
  EXPECT_FALSE(b.should_fire(3, 0.0, 0.5));
  EXPECT_TRUE(b.should_fire(4, 0.0, 0.5));
  EXPECT_EQ(b.classify(4, 0.0, 0.5), RoundTrigger::kSize);
}

TEST(Batcher, TimeoutTriggerFiresWhenTheHeadWaitedLongEnough) {
  BatcherConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_hours = 0.25;
  MicroBatcher b(cfg);
  EXPECT_FALSE(b.should_fire(2, 1.0, 1.2));
  EXPECT_TRUE(b.should_fire(2, 1.0, 1.25));
  EXPECT_EQ(b.classify(2, 1.0, 1.3), RoundTrigger::kTimeout);
  EXPECT_EQ(b.timeout_at(1.0), 1.25);
}

TEST(Batcher, EmptyQueueNeverFires) {
  MicroBatcher b(BatcherConfig{});
  EXPECT_FALSE(b.should_fire(0, 0.0, 100.0));
}

// --------------------------------------------------------- status table --

/// Walks `id` to dispatched (queued -> matched -> dispatched).
void dispatch(TaskStatusTable& table, std::uint64_t id) {
  table.mark_matched(id, 1, 2.0, 3);
  table.mark_dispatched(id, 2.5, true);
}

TEST(StatusTable, EvictsTerminalTasksInTerminalOrderPastAnOlderLiveTask) {
  TaskStatusTable table(3);
  std::vector<std::uint64_t> ids;
  for (int k = 0; k < 5; ++k) {
    ids.push_back(table.insert(0.1 * k));
  }
  EXPECT_EQ(ids.front(), kExternalIdBase);
  EXPECT_EQ(ids.back(), kExternalIdBase + 4);
  // ids[0] stays live throughout; the others turn terminal out of id
  // order: 3, 1, 4, 2.
  table.mark_matched(ids[0], 0, 1.0, 0);
  dispatch(table, ids[3]);  // 5 resident > 3: evicts 3 itself
  EXPECT_FALSE(table.get(ids[3]).has_value());
  EXPECT_EQ(table.resident(), 4u);
  table.mark_lost(ids[1], TaskState::kExpired);  // evicts 1
  EXPECT_EQ(table.resident(), 3u);
  dispatch(table, ids[4]);
  table.mark_lost(ids[2], TaskState::kRejected);
  EXPECT_EQ(table.resident(), 3u);  // at the cap: nothing more goes
  EXPECT_EQ(table.evicted_total(), 2u);

  // Inserting never evicts; the next terminal transition evicts the
  // oldest terminal entry (4), not the oldest id (0, live, or 2).
  const std::uint64_t late = table.insert(1.0);
  EXPECT_EQ(table.resident(), 4u);
  table.mark_lost(late, TaskState::kExpired);
  EXPECT_EQ(table.resident(), 3u);
  EXPECT_EQ(table.evicted_total(), 3u);
  for (const std::size_t k : {1, 3, 4}) {
    EXPECT_FALSE(table.get(ids[k]).has_value()) << k;
    EXPECT_TRUE(table.was_evicted(ids[k])) << k;
  }
  ASSERT_TRUE(table.get(ids[0]).has_value());
  EXPECT_EQ(table.get(ids[0])->state, TaskState::kMatched);
  ASSERT_TRUE(table.get(ids[2]).has_value());
  EXPECT_EQ(table.get(ids[2])->state, TaskState::kRejected);
  ASSERT_TRUE(table.get(late).has_value());
  EXPECT_EQ(table.get(late)->state, TaskState::kExpired);

  // Once the live task finishes, it joins the eviction order behind the
  // terminal entries already there.
  table.mark_dispatched(ids[0], 1.5, false);
  EXPECT_EQ(table.resident(), 3u);
  const std::uint64_t last = table.insert(2.0);
  table.mark_lost(last, TaskState::kExpired);  // evicts 2
  EXPECT_FALSE(table.get(ids[2]).has_value());
  dispatch(table, table.insert(2.1));  // evicts late
  EXPECT_FALSE(table.get(late).has_value());
  dispatch(table, table.insert(2.2));  // evicts 0
  EXPECT_FALSE(table.get(ids[0]).has_value());
  EXPECT_TRUE(table.was_evicted(ids[0]));
  EXPECT_EQ(table.evicted_total(), 6u);
  EXPECT_EQ(table.resident(), 3u);
}

TEST(StatusTable, EvictedIdsAreGoneAndNeverIssuedIdsAreUnknown) {
  TaskStatusTable table(1);
  const std::uint64_t a = table.insert(0.0);
  const std::uint64_t b = table.insert(0.0);
  dispatch(table, a);  // 2 resident > 1: a goes
  ASSERT_EQ(table.evicted_total(), 1u);
  EXPECT_FALSE(table.get(a).has_value());
  EXPECT_TRUE(table.was_evicted(a));
  // Live and resident ids are not evicted ones.
  ASSERT_TRUE(table.get(b).has_value());
  EXPECT_FALSE(table.was_evicted(b));
  // Never issued: the next id, ids far above, and the synthetic stream's
  // ids below the external base.
  for (const std::uint64_t id :
       {b + 1, b + 1000, kExternalIdBase - 1, std::uint64_t{0},
        std::uint64_t{7}, ~std::uint64_t{0}}) {
    EXPECT_FALSE(table.get(id).has_value()) << id;
    EXPECT_FALSE(table.was_evicted(id)) << id;
  }
  // Issuing the next id turns it from unknown into resident.
  const std::uint64_t c = table.insert(0.0);
  EXPECT_EQ(c, b + 1);
  EXPECT_TRUE(table.get(c).has_value());
}

TEST(StatusTable, RestoreEntryHandlesDuplicateOutOfOrderAndGappedIds) {
  TaskStatusTable table(0);
  const std::uint64_t base = kExternalIdBase;
  table.restore_entry(base + 5, 0.5);
  table.restore_entry(base + 2, 0.2);  // out of order
  table.restore_entry(base + 5, 9.0);  // duplicate: the resident one wins
  table.restore_entry(base + 9, 0.9);  // gap: 6..8 were never restored
  TaskStatusTable::Counts counts = table.counts();
  EXPECT_EQ(counts.submitted, 3u);
  EXPECT_EQ(counts.queued, 3u);
  EXPECT_EQ(table.resident(), 3u);
  for (const auto& [id, hours] :
       {std::pair{base + 2, 0.2}, std::pair{base + 5, 0.5},
        std::pair{base + 9, 0.9}}) {
    const std::optional<TaskStatus> s = table.get(id);
    ASSERT_TRUE(s.has_value()) << id - base;
    EXPECT_EQ(s->state, TaskState::kQueued);
    EXPECT_EQ(s->submit_hours, hours);
  }

  // A duplicate of an entry that has moved on leaves it where it is.
  table.mark_matched(base + 2, 1, 3.0, 4);
  table.restore_entry(base + 2, 7.0);
  ASSERT_TRUE(table.get(base + 2).has_value());
  EXPECT_EQ(table.get(base + 2)->state, TaskState::kMatched);
  EXPECT_EQ(table.get(base + 2)->submit_hours, 0.2);
  counts = table.counts();
  EXPECT_EQ(counts.submitted, 3u);
  EXPECT_EQ(counts.queued, 2u);
  EXPECT_EQ(counts.matched, 1u);

  // Ids below the highest restored one that recovery skipped were issued
  // by the previous incarnation, so they read as gone, not unknown.
  for (const std::uint64_t id :
       {base, base + 1, base + 3, base + 4, base + 6, base + 8}) {
    EXPECT_FALSE(table.get(id).has_value()) << id - base;
    EXPECT_TRUE(table.was_evicted(id)) << id - base;
  }
  EXPECT_FALSE(table.was_evicted(base + 10));

  // The allocator resumes past the highest restored id, and an earlier
  // restore never moves it back.
  table.restore_entry(base + 1, 0.1);
  EXPECT_TRUE(table.get(base + 1).has_value());
  EXPECT_FALSE(table.was_evicted(base + 1));
  const std::uint64_t fresh = table.insert(1.0);
  EXPECT_EQ(fresh, base + 10);
  EXPECT_EQ(table.counts().submitted, 5u);
  EXPECT_EQ(table.resident(), 5u);
}

TEST(StatusTable, RestoreAfterInsertsKeepsIdsUniqueAndBounded) {
  TaskStatusTable table(2);
  const std::uint64_t a = table.insert(0.0);
  const std::uint64_t b = table.insert(0.0);
  table.restore_entry(b, 5.0);  // duplicate of a live insert
  EXPECT_EQ(table.counts().submitted, 2u);
  EXPECT_EQ(table.get(b)->submit_hours, 0.0);
  table.restore_entry(b + 3, 1.0);  // skips b + 1 and b + 2
  EXPECT_EQ(table.insert(2.0), b + 4);
  EXPECT_TRUE(table.was_evicted(b + 1));
  EXPECT_FALSE(table.was_evicted(b + 5));
  // Eviction still runs in terminal order across the restored entry.
  dispatch(table, b + 3);
  dispatch(table, a);
  EXPECT_EQ(table.resident(), 2u);
  EXPECT_EQ(table.evicted_total(), 2u);
  EXPECT_FALSE(table.get(b + 3).has_value());
  EXPECT_FALSE(table.get(a).has_value());
  EXPECT_TRUE(table.get(b).has_value());
  EXPECT_TRUE(table.get(b + 4).has_value());
}

TEST(StatusTable, CountsFollowEveryTransition) {
  TaskStatusTable table(0);
  const auto expect_counts = [&table](std::uint64_t submitted,
                                      std::uint64_t queued,
                                      std::uint64_t matched,
                                      std::uint64_t dispatched,
                                      std::uint64_t expired,
                                      std::uint64_t rejected) {
    const TaskStatusTable::Counts c = table.counts();
    EXPECT_EQ(c.submitted, submitted);
    EXPECT_EQ(c.queued, queued);
    EXPECT_EQ(c.matched, matched);
    EXPECT_EQ(c.dispatched, dispatched);
    EXPECT_EQ(c.expired, expired);
    EXPECT_EQ(c.rejected, rejected);
  };
  expect_counts(0, 0, 0, 0, 0, 0);
  std::vector<std::uint64_t> ids;
  for (int k = 0; k < 4; ++k) {
    ids.push_back(table.insert(0.0));
  }
  expect_counts(4, 4, 0, 0, 0, 0);
  table.mark_matched(ids[0], 2, 1.0, 1);
  expect_counts(4, 3, 1, 0, 0, 0);
  table.mark_dispatched(ids[0], 1.1, true);
  expect_counts(4, 3, 0, 1, 0, 0);
  table.mark_lost(ids[1], TaskState::kExpired);
  expect_counts(4, 2, 0, 1, 1, 0);
  table.mark_lost(ids[2], TaskState::kRejected);
  expect_counts(4, 1, 0, 1, 1, 1);

  // Backward or skipping transitions change nothing.
  table.mark_dispatched(ids[3], 1.0, true);     // queued -> dispatched
  table.mark_matched(ids[0], 0, 9.0, 9);        // dispatched -> matched
  table.mark_lost(ids[0], TaskState::kExpired); // dispatched -> expired
  table.mark_matched(ids[1], 0, 9.0, 9);        // expired -> matched
  table.mark_lost(ids[2], TaskState::kExpired); // rejected -> expired
  expect_counts(4, 1, 0, 1, 1, 1);
  table.mark_matched(ids[3], 0, 1.0, 2);
  table.mark_matched(ids[3], 1, 5.0, 3);        // matched twice
  table.mark_lost(ids[3], TaskState::kRejected); // matched -> rejected
  expect_counts(4, 0, 1, 1, 1, 1);
  ASSERT_TRUE(table.get(ids[3]).has_value());
  EXPECT_EQ(table.get(ids[3])->cluster, 0u);
  EXPECT_EQ(table.get(ids[3])->predicted_hours, 1.0);
  EXPECT_EQ(table.get(ids[3])->round, 2u);
  table.mark_dispatched(ids[3], 1.2, false);
  table.mark_dispatched(ids[3], 9.0, true);  // dispatched twice
  expect_counts(4, 0, 0, 2, 1, 1);
  const TaskStatus s = *table.get(ids[3]);
  EXPECT_EQ(s.state, TaskState::kDispatched);
  EXPECT_EQ(s.realized_hours, 1.2);
  EXPECT_FALSE(s.succeeded);
  EXPECT_EQ(table.get(ids[0])->state, TaskState::kDispatched);
  EXPECT_EQ(table.get(ids[1])->state, TaskState::kExpired);
  EXPECT_EQ(table.get(ids[2])->state, TaskState::kRejected);
}

TEST(StatusTable, NoTransitionActsOnAnEvictedOrUnknownId) {
  TaskStatusTable table(1);
  const std::uint64_t a = table.insert(0.0);
  const std::uint64_t b = table.insert(0.0);
  dispatch(table, a);
  ASSERT_TRUE(table.was_evicted(a));
  const TaskStatusTable::Counts before = table.counts();
  for (const std::uint64_t id : {a, b + 1, b + 50, std::uint64_t{3}}) {
    table.mark_matched(id, 0, 1.0, 0);
    table.mark_dispatched(id, 1.0, true);
    table.mark_lost(id, TaskState::kExpired);
    table.mark_lost(id, TaskState::kRejected);
    EXPECT_FALSE(table.get(id).has_value()) << id;
  }
  const TaskStatusTable::Counts after = table.counts();
  EXPECT_EQ(after.submitted, before.submitted);
  EXPECT_EQ(after.queued, before.queued);
  EXPECT_EQ(after.matched, before.matched);
  EXPECT_EQ(after.dispatched, before.dispatched);
  EXPECT_EQ(after.expired, before.expired);
  EXPECT_EQ(after.rejected, before.rejected);
  EXPECT_EQ(table.resident(), 1u);
  EXPECT_EQ(table.evicted_total(), 1u);
  EXPECT_TRUE(table.was_evicted(a));
  EXPECT_FALSE(table.was_evicted(b + 1));
  // The never-issued ids stay never issued: the allocator did not move.
  EXPECT_EQ(table.insert(0.0), b + 1);
}

TEST(StatusTable, ConcurrentInsertsTransitionsAndReadsStayConsistent) {
  // Several HTTP-worker-like inserters, one engine-like walker moving
  // tasks forward, and readers polling: a small cap keeps eviction
  // running the whole time. Readers check that a status never moves
  // backward and that an evicted id never comes back.
  constexpr std::size_t kCapacity = 16;
  constexpr int kInserters = 3;
  constexpr int kPerInserter = 20000;
  constexpr int kReaders = 2;
  constexpr std::uint64_t kTotal = kInserters * kPerInserter;
  TaskStatusTable table(kCapacity);

  std::mutex handoff_mutex;
  std::deque<std::uint64_t> handoff;
  std::atomic<int> inserters_left{kInserters};
  std::atomic<bool> walker_done{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kInserters; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kPerInserter; ++k) {
        const std::uint64_t id = table.insert(0.001 * k + t);
        std::lock_guard<std::mutex> lock(handoff_mutex);
        handoff.push_back(id);
      }
      inserters_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    std::uint64_t walked = 0;
    while (walked < kTotal) {
      std::uint64_t id = 0;
      {
        std::lock_guard<std::mutex> lock(handoff_mutex);
        if (!handoff.empty()) {
          id = handoff.front();
          handoff.pop_front();
        }
      }
      if (id == 0) {
        std::this_thread::yield();
        continue;
      }
      switch (id % 4) {
        case 0:
          table.mark_lost(id, TaskState::kExpired);
          break;
        case 1:
          table.mark_matched(id, 1, 1.0, walked);
          table.mark_lost(id, TaskState::kRejected);  // no-op: matched
          table.mark_dispatched(id, 1.5, true);
          break;
        case 2:
          table.mark_lost(id, TaskState::kRejected);
          break;
        default:
          table.mark_matched(id, 0, 1.0, walked);
          table.mark_dispatched(id, 0.5, false);
          break;
      }
      ++walked;
    }
    walker_done.store(true);
  });
  std::atomic<std::uint64_t> reader_failures{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::vector<int> last(kTotal, -1);  // -1 unseen, 5 evicted
      std::uint64_t probe = static_cast<std::uint64_t>(r) * 7919;
      while (!walker_done.load()) {
        probe = (probe * 6364136223846793005ULL + 1442695040888963407ULL);
        const std::uint64_t k = (probe >> 33) % kTotal;
        const std::uint64_t id = kExternalIdBase + k;
        const std::optional<TaskStatus> s = table.get(id);
        const bool gone = table.was_evicted(id);
        int now = last[k];
        if (s.has_value()) {
          now = static_cast<int>(s->state);
          if (last[k] == 5 || (last[k] >= 0 && now < last[k])) {
            reader_failures.fetch_add(1);
          }
        } else if (gone) {
          now = 5;
        } else if (last[k] >= 0) {
          reader_failures.fetch_add(1);  // once seen, never unknown
        }
        last[k] = now;
        const TaskStatusTable::Counts c = table.counts();
        if (c.submitted !=
            c.queued + c.matched + c.dispatched + c.expired + c.rejected) {
          reader_failures.fetch_add(1);
        }
        (void)table.resident();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(reader_failures.load(), 0u);
  EXPECT_EQ(inserters_left.load(), 0);
  const TaskStatusTable::Counts c = table.counts();
  EXPECT_EQ(c.submitted, kTotal);
  EXPECT_EQ(c.queued + c.matched, 0u);
  EXPECT_EQ(c.dispatched, kTotal / 2);
  EXPECT_EQ(c.expired, kTotal / 4);
  EXPECT_EQ(c.rejected, kTotal / 4);
  // Every task finished, so exactly the cap stays resident.
  EXPECT_EQ(table.resident(), kCapacity);
  EXPECT_EQ(table.evicted_total(), kTotal - kCapacity);
  for (std::uint64_t k = 0; k < kTotal; ++k) {
    const std::uint64_t id = kExternalIdBase + k;
    EXPECT_NE(table.get(id).has_value(), table.was_evicted(id)) << k;
  }
  EXPECT_FALSE(table.was_evicted(kExternalIdBase + kTotal));
}

#if defined(__GLIBC__)
TEST(StatusTable, ResidentDispatchedTasksTakeAtMost56BytesEach) {
  // The gateway's only per-task structure: at the default cap, a full
  // table of finished tasks must stay within 56 heap bytes per task
  // (the 40-byte record, its eviction-order slot and the container's
  // overhead). Allocator-replacing sanitizers report no heap here.
  constexpr std::size_t kTasks = 65536;
  const double before = static_cast<double>(mallinfo2().uordblks);
  TaskStatusTable table(kTasks);
  for (std::size_t k = 0; k < kTasks; ++k) {
    dispatch(table, table.insert(0.0));
  }
  ASSERT_EQ(table.resident(), kTasks);
  const double per_task =
      (static_cast<double>(mallinfo2().uordblks) - before) / kTasks;
  EXPECT_LE(per_task, 56.0);
}
#endif

// ---------------------------------------------------------- replay/drift --

TEST(Replay, RingOverwritesOldestBeyondCapacity) {
  ReplayBuffer buf(3);
  for (std::size_t k = 0; k < 5; ++k) {
    Experience e;
    e.cluster = k % 2;
    e.observed_time = static_cast<double>(k);
    buf.add(std::move(e));
  }
  EXPECT_EQ(buf.size(), 3u);
  double newest = 0.0;
  for (std::size_t k = 0; k < buf.size(); ++k) {
    newest = std::max(newest, buf.at(k).observed_time);
    EXPECT_GE(buf.at(k).observed_time, 2.0);  // 0 and 1 were evicted
  }
  EXPECT_EQ(newest, 4.0);
  EXPECT_EQ(buf.indices_for_cluster(0).size() +
                buf.indices_for_cluster(1).size(),
            3u);
}

TEST(Replay, SequenceNumbersSurviveRingWrap) {
  ReplayBuffer buf(3);
  for (std::size_t k = 0; k < 5; ++k) {
    Experience e;
    e.observed_time = static_cast<double>(k);
    buf.add(std::move(e));
  }
  // Slots hold insertions 3, 4, 2 (the ring reordered them); the sequence
  // numbers still identify each experience's true age.
  EXPECT_EQ(buf.latest_sequence(), 4u);
  for (std::size_t k = 0; k < buf.size(); ++k) {
    EXPECT_EQ(static_cast<double>(buf.sequence(k)), buf.at(k).observed_time);
  }
}

TEST(Replay, RecencyWeightsHalveEveryHalfLife) {
  ReplayBuffer buf(8);
  for (std::size_t k = 0; k < 5; ++k) {
    buf.add(Experience{});
  }
  const std::vector<std::size_t> idx = {4, 2, 0};  // ages 0, 2, 4
  const std::vector<double> w = recency_weights(buf, idx, 2.0);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 0.5);   // age == half_life
  EXPECT_DOUBLE_EQ(w[2], 0.25);  // two half-lives
  // half_life <= 0 means uniform: all ones, no bias.
  const std::vector<double> uniform = recency_weights(buf, idx, 0.0);
  EXPECT_EQ(uniform, std::vector<double>(3, 1.0));
}

TEST(Trainer, RecencyWeightedRetrainStillLearns) {
  // Two trainers over identical replay contents: half_life > 0 must not
  // break the burst (weights shift the sampling, training still happens),
  // and half_life == 0 must remain the default config value.
  OnlineTrainerConfig cfg;
  EXPECT_EQ(cfg.replay_recency_half_life, 0.0);
  cfg.retrain_epochs = 4;
  cfg.replay_recency_half_life = 16.0;
  OnlineTrainer trainer(cfg);
  Rng feature_rng(31);
  for (std::size_t k = 0; k < 32; ++k) {
    Experience e;
    e.features = {feature_rng.uniform(), feature_rng.uniform()};
    e.cluster = k % 2;
    e.observed_time = 1.0 + 0.1 * static_cast<double>(k % 5);
    trainer.record(std::move(e));
  }
  core::PredictorConfig pcfg;
  pcfg.feature_dim = 2;
  pcfg.hidden = {4};
  Rng init(7);
  core::PlatformPredictor predictor(2, pcfg, init);
  trainer.retrain(predictor);
  EXPECT_EQ(trainer.retrain_count(), 1u);
}

// 64-bit FNV-1a over every head's weight bytes: cluster by cluster, the
// time head before the reliability head, parameters in Mlp order.
std::uint64_t weight_digest(core::PlatformPredictor& predictor) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < predictor.num_clusters(); ++i) {
    for (auto* mlp : {&predictor.cluster(i).time_model(),
                      &predictor.cluster(i).reliability_model()}) {
      for (const auto& p : mlp->parameters()) {
        const auto* bytes =
            reinterpret_cast<const unsigned char*>(p.value->data());
        for (std::size_t b = 0; b < p.value->size() * sizeof(double); ++b) {
          h = (h ^ bytes[b]) * 0x100000001b3ULL;
        }
      }
    }
  }
  return h;
}

TEST(Trainer, RetrainBurstsMatchCommittedDigests) {
  // Two fine-tune bursts over the production predictor shape, held to
  // the bits of every head's weights, with uniform sampling (half-life
  // 0, as exp_online_engine runs) and recency-weighted sampling
  // (half-life 128, as online_platform and perfbench run). Cluster 3
  // has too few samples for the first burst and joins the second. Like
  // the TSM digests these depend on libm (softplus, sigmoid, exp, log).
  // Never update a digest to make this pass on unchanged code.
  struct Case {
    double half_life;
    std::size_t epochs;
    double learning_rate;
    std::uint64_t digest;
  };
  const Case cases[] = {{0.0, 60, 8e-3, 0x890244dceb631188ULL},
                        {128.0, 50, 5e-3, 0x61a3adefa7c8efc6ULL}};
  for (const Case& c : cases) {
    OnlineTrainerConfig cfg;
    cfg.replay_recency_half_life = c.half_life;
    cfg.retrain_epochs = c.epochs;
    cfg.learning_rate = c.learning_rate;
    OnlineTrainer trainer(cfg);
    core::PredictorConfig pcfg;
    Rng init(0x5eed);
    core::PlatformPredictor predictor(4, pcfg, init);
    Rng data(0xda7a);
    const auto record = [&](std::size_t count, std::size_t clusters) {
      for (std::size_t k = 0; k < count; ++k) {
        Experience e;
        for (std::size_t f = 0; f < pcfg.feature_dim; ++f) {
          e.features.push_back(data.normal(0.0, 1.0));
        }
        e.cluster = k % clusters;
        e.observed_time = 0.5 + 3.0 * data.uniform();
        e.observed_success = data.uniform() < 0.8 ? 1.0 : 0.0;
        trainer.record(std::move(e));
      }
    };
    record(120, 3);
    record(5, 4);  // cluster 3's first sample lands here
    trainer.retrain(predictor);
    record(160, 4);
    trainer.retrain(predictor);
    EXPECT_EQ(trainer.retrain_count(), 2u);
    EXPECT_EQ(weight_digest(predictor), c.digest)
        << "half-life " << c.half_life << ": 0x" << std::hex
        << weight_digest(predictor);
  }
}

TEST(Drift, LogRatioErrorIsSymmetricAndBounded) {
  // Perfect prediction: zero error.
  EXPECT_DOUBLE_EQ(drift_error(2.0, 2.0), 0.0);
  // Symmetric in over- vs under-prediction on the log scale.
  EXPECT_DOUBLE_EQ(drift_error(1.0, 4.0), drift_error(4.0, 1.0));
  // A k-fold slowdown of a long task contributes ~log k (epsilon fades
  // as times grow).
  EXPECT_NEAR(drift_error(10.0, 40.0), std::log(4.0), 0.02);
  // Tiny predictions stay bounded: the old relative form
  // |t_hat - obs| / max(t_hat, 0.05) gave 19.0 here, the log-ratio ~3.
  EXPECT_NEAR(drift_error(0.0, 1.0), std::log(1.05 / 0.05), 1e-12);
  EXPECT_LT(drift_error(1e-9, 1.0), 3.1);
}

// The detector's fixed windows: the last 6 rounds against the 24 before
// them, a 0.05 baseline floor and an 8-round cooldown.

TEST(Drift, EvaluateReportsWarmupQuietTripAndCooldown) {
  DriftConfig cfg;
  cfg.ratio_threshold = 2.0;
  DriftDetector det(cfg);
  // Needs the short window plus half the baseline: 6 + 24 / 2 = 18
  // samples of history.
  for (int k = 0; k < 17; ++k) {
    EXPECT_EQ(det.evaluate(0.1), DriftDecision::kWarmup);
  }
  EXPECT_EQ(det.evaluate(0.1), DriftDecision::kQuiet);
  // A mild bump keeps the short mean (0.125) under ratio * baseline...
  EXPECT_EQ(det.evaluate(0.25), DriftDecision::kQuiet);
  // ...a hard jump pushes it (0.275) well past.
  EXPECT_EQ(det.evaluate(1.0), DriftDecision::kTrip);
  det.acknowledge_retrain();
  EXPECT_EQ(det.cooldown_remaining(), 8u);
  EXPECT_EQ(det.evaluate(1.0), DriftDecision::kCooldown);
  EXPECT_EQ(det.cooldown_remaining(), 7u);
}

TEST(Drift, TripsOnSustainedErrorJumpAndRespectsCooldown) {
  DriftConfig cfg;
  cfg.ratio_threshold = 2.0;
  DriftDetector det(cfg);
  for (int k = 0; k < 18; ++k) {
    EXPECT_FALSE(det.observe(0.1));  // quiet baseline
  }
  // A mild bump dilutes into the short-window mean without tripping...
  EXPECT_FALSE(det.observe(0.3));
  // ...a real jump pushes the window mean past ratio * baseline.
  EXPECT_TRUE(det.observe(1.0));
  det.acknowledge_retrain();
  for (int k = 0; k < 8; ++k) {
    EXPECT_FALSE(det.observe(1.0));  // cooldown swallows these
  }
  EXPECT_EQ(det.cooldown_remaining(), 0u);
}

// ------------------------------------------------------ engine fixtures --

struct EngineFixture {
  sim::Platform platform;
  sim::PseudoGnnEmbedder embedder;
  core::PlatformPredictor predictor;

  explicit EngineFixture(std::uint64_t seed = 99)
      : platform(sim::Platform::make_setting(sim::Setting::kA, 3)),
        embedder(),
        predictor(3, small_predictor(), rng_for(seed)) {}

  static core::PredictorConfig small_predictor() {
    core::PredictorConfig cfg;
    cfg.hidden = {8};
    return cfg;
  }
  static Rng& rng_for(std::uint64_t seed) {
    static Rng rng(0);
    rng = Rng(seed);
    return rng;
  }
};

EngineConfig small_engine_config() {
  EngineConfig cfg;
  cfg.arrivals.rate_per_hour = 60.0;
  cfg.arrivals.max_arrivals = 60;
  cfg.arrivals.seed = 555;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait_hours = 0.2;
  cfg.gamma = 0.6;
  cfg.metrics_window = 5;
  cfg.online_retraining = false;
  // Keep rounds cheap: fewer solver iterations than the deployment default.
  cfg.eval.solver.max_iterations = 150;
  return cfg;
}

TEST(Engine, DeterministicRunUnderFixedSeed) {
  EngineFixture fa;
  EngineFixture fb;
  OnlineEngine ea(small_engine_config(), fa.platform, fa.embedder,
                  fa.predictor);
  OnlineEngine eb(small_engine_config(), fb.platform, fb.embedder,
                  fb.predictor);
  const EngineResult ra = ea.run();
  const EngineResult rb = eb.run();

  ASSERT_EQ(ra.rounds.size(), rb.rounds.size());
  ASSERT_GT(ra.rounds.size(), 0u);
  for (std::size_t k = 0; k < ra.rounds.size(); ++k) {
    EXPECT_EQ(ra.rounds[k].close_hours, rb.rounds[k].close_hours);
    EXPECT_EQ(ra.rounds[k].batch, rb.rounds[k].batch);
    EXPECT_EQ(ra.rounds[k].trigger, rb.rounds[k].trigger);
    EXPECT_EQ(ra.rounds[k].regret, rb.rounds[k].regret);
    EXPECT_EQ(ra.rounds[k].reliability, rb.rounds[k].reliability);
    EXPECT_EQ(ra.rounds[k].drift_stat, rb.rounds[k].drift_stat);
  }
  EXPECT_EQ(ra.counters, rb.counters);
}

TEST(Engine, SizeAndTimeoutTriggersBothOccur) {
  // Bursty arrivals against a small batch: bursts close size rounds, the
  // quiet phase leaves partial batches that time out.
  EngineFixture f;
  EngineConfig cfg = small_engine_config();
  // Off-burst interarrival (1/6 h) exceeds max_wait (0.2 h), so quiet
  // phases time out; 10x bursts fill whole batches.
  cfg.arrivals.rate_per_hour = 6.0;
  cfg.arrivals.burst_factor = 10.0;
  cfg.arrivals.burst_period_hours = 1.0;
  cfg.arrivals.burst_duty = 0.3;
  cfg.arrivals.max_arrivals = 80;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const EngineResult result = eng.run();

  std::size_t size_rounds = 0;
  std::size_t timeout_rounds = 0;
  for (const auto& r : result.rounds) {
    if (r.trigger == RoundTrigger::kSize) {
      ++size_rounds;
      EXPECT_EQ(r.batch, cfg.batcher.max_batch);
    }
    if (r.trigger == RoundTrigger::kTimeout) {
      ++timeout_rounds;
      EXPECT_LT(r.batch, cfg.batcher.max_batch);
    }
  }
  EXPECT_GT(size_rounds, 0u);
  EXPECT_GT(timeout_rounds, 0u);
}

TEST(Engine, EveryArrivalIsAccountedFor) {
  EngineFixture f;
  EngineConfig cfg = small_engine_config();
  cfg.queue.capacity = 6;  // tight: force capacity drops under bursts
  cfg.arrivals.burst_factor = 6.0;
  cfg.arrivals.burst_period_hours = 0.5;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const EngineResult result = eng.run();

  EXPECT_EQ(result.counters.arrivals, cfg.arrivals.max_arrivals);
  EXPECT_EQ(result.queue.offered, cfg.arrivals.max_arrivals);
  // Conservation: everything offered was dispatched, dropped, or expired.
  EXPECT_EQ(result.queue.dispatched + result.queue.dropped_capacity +
                result.queue.expired,
            result.queue.offered);
  std::size_t matched = 0;
  for (const auto& r : result.rounds) {
    matched += r.batch;
  }
  EXPECT_EQ(matched, result.queue.dispatched);
}

TEST(Engine, DriftEventChangesThePlatformMidRun) {
  EngineFixture f;
  EngineConfig cfg = small_engine_config();
  DriftEventSpec drift;
  drift.at_hours = 0.3;
  drift.cluster = 1;
  drift.drift.time_scale = 5.0;
  cfg.drift_events.push_back(drift);

  const double before =
      f.platform.cluster(1).profile().base_seconds_per_unit;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  (void)eng.run();
  EXPECT_NEAR(eng.platform().cluster(1).profile().base_seconds_per_unit,
              5.0 * before, 1e-12);
  // The engine's copy drifted; the caller's platform is untouched.
  EXPECT_EQ(f.platform.cluster(1).profile().base_seconds_per_unit, before);
}

TEST(Engine, CheckpointRejectsMismatchedArchitecture) {
  EngineFixture f;
  OnlineEngine eng(small_engine_config(), f.platform, f.embedder,
                   f.predictor);
  std::stringstream buf;
  save_checkpoint(buf, f.predictor, eng.counters());

  Rng rng(7);
  core::PredictorConfig other;
  other.hidden = {16, 16};
  core::PlatformPredictor wrong(3, other, rng);
  EXPECT_THROW(load_checkpoint(buf, wrong), ContractError);
}

// -------------------------------------------------------- observability --

TEST(Engine, JournalIsBitIdenticalAcrossSeededRuns) {
  const auto journal_run = [] {
    EngineFixture f;
    std::ostringstream out;
    obs::JsonlWriter journal(out);
    EngineConfig cfg = small_engine_config();
    cfg.journal = &journal;
    OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
    const EngineResult result = eng.run();
    EXPECT_EQ(journal.records_written(), result.rounds.size());
    return out.str();
  };
  const std::string first = journal_run();
  const std::string second = journal_run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Spot-check the stable field order of the first record.
  EXPECT_EQ(first.rfind("{\"round\":0,\"close_hours\":", 0), 0u);
}

TEST(Engine, RatekeeperThrottlesOverloadAndConservesAccounting) {
  // Arrivals far above the admission rate: the anonymous bucket must
  // throttle most of the stream at the door, and everything that does
  // get in must still be fully accounted for.
  EngineFixture f;
  EngineConfig cfg = small_engine_config();
  cfg.arrivals.rate_per_hour = 240.0;
  cfg.arrivals.max_arrivals = 80;
  control::RatekeeperConfig rk_cfg;
  rk_cfg.initial_rate_per_hour = 30.0;
  control::Ratekeeper ratekeeper(rk_cfg);
  control::TokenBucketTable buckets;
  cfg.ratekeeper = &ratekeeper;
  cfg.admission_buckets = &buckets;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const EngineResult result = eng.run();

  EXPECT_GT(result.throttled, 0u);
  EXPECT_EQ(result.throttled, buckets.throttled_total());
  EXPECT_EQ(result.counters.arrivals, cfg.arrivals.max_arrivals);
  // Throttled arrivals never reach the queue; admitted ones all
  // terminate in dispatched / dropped / expired.
  EXPECT_EQ(result.queue.offered + result.throttled,
            static_cast<std::size_t>(cfg.arrivals.max_arrivals));
  EXPECT_EQ(result.queue.dispatched + result.queue.dropped_capacity +
                result.queue.expired,
            result.queue.offered);
  // Every round carries the controller's published state.
  for (const auto& r : result.rounds) {
    EXPECT_TRUE(r.ratekeeper_valid);
    EXPECT_GT(r.admission_rate_per_hour, 0.0);
  }
}

TEST(Engine, RatekeeperJournalIsByteIdenticalAcrossSeededRuns) {
  const auto journal_run = [] {
    EngineFixture f;
    std::ostringstream out;
    obs::JsonlWriter journal(out);
    EngineConfig cfg = small_engine_config();
    cfg.journal = &journal;
    cfg.arrivals.rate_per_hour = 240.0;
    cfg.arrivals.max_arrivals = 80;
    control::RatekeeperConfig rk_cfg;
    rk_cfg.initial_rate_per_hour = 30.0;
    control::Ratekeeper ratekeeper(rk_cfg);
    control::TokenBucketTable buckets;
    cfg.ratekeeper = &ratekeeper;
    cfg.admission_buckets = &buckets;
    OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
    eng.run();
    return out.str();
  };
  // Admission decisions ride on the simulated clock only, so the full
  // journal — ratekeeper fields included — must replay byte for byte.
  const std::string first = journal_run();
  const std::string second = journal_run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"admission_rate\":"), std::string::npos);
  EXPECT_NE(first.find("\"limiting_signal\":"), std::string::npos);
  EXPECT_NE(first.find("\"throttled_total\":"), std::string::npos);
}

TEST(Engine, JournalWithoutRatekeeperCarriesNoRatekeeperFields) {
  // The ratekeeper fields are gated, so pre-existing journal consumers
  // (and the CI baseline diffs) see byte-identical records without it.
  std::ostringstream out;
  obs::JsonlWriter journal(out);
  EngineFixture f;
  EngineConfig cfg = small_engine_config();
  cfg.journal = &journal;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  eng.run();
  EXPECT_EQ(out.str().find("admission_rate"), std::string::npos);
}

TEST(Engine, JournalLabelTagsTheRun) {
  std::ostringstream out;
  obs::JsonlWriter journal(out);
  RoundRecord rec;
  rec.round = 3;
  append_round_journal(journal, rec, "frozen");
  EXPECT_EQ(out.str().rfind("{\"mode\":\"frozen\",\"round\":3,", 0), 0u);
}

// ---------------------------------------------------------- task traces --

TEST(Engine, TaskTracesAreByteIdenticalAcrossSeededRuns) {
  const auto traced_run = [] {
    EngineFixture f;
    obs::TraceStore traces(4096, 0.5);
    EngineConfig cfg = small_engine_config();
    cfg.task_traces = &traces;
    OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
    eng.run();
    std::ostringstream out;
    obs::JsonlWriter writer(out);
    traces.drain_to(writer);
    return out.str();
  };
  const std::string first = traced_run();
  const std::string second = traced_run();
  ASSERT_FALSE(first.empty());  // rate 0.5 must catch some of 60 tasks
  EXPECT_EQ(first, second);
}

TEST(Engine, JournalIsByteIdenticalWithTracingOnOrOff) {
  const auto journal_run = [](double rate) {
    EngineFixture f;
    std::ostringstream out;
    obs::JsonlWriter journal(out);
    obs::TraceStore traces(4096, rate);
    EngineConfig cfg = small_engine_config();
    cfg.journal = &journal;
    if (rate > 0.0) {
      cfg.task_traces = &traces;
    }
    OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
    eng.run();
    return out.str();
  };
  // The sampling decision is a pure hash, never an RNG draw: turning
  // tracing fully on must not move a single journal byte.
  EXPECT_EQ(journal_run(0.0), journal_run(1.0));
}

TEST(Engine, JournalIsByteIdenticalWithFlightRecorderAttached) {
  obs::FlightRecorder recorder;
  const auto journal_run = [&recorder](bool flight) {
    EngineFixture f;
    std::ostringstream out;
    obs::JsonlWriter journal(out);
    EngineConfig cfg = small_engine_config();
    cfg.journal = &journal;
    if (flight) {
      cfg.flight = &recorder;
    }
    OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
    eng.run();
    return out.str();
  };
  // The recorder is write-only telemetry; wall-clock values stay in its
  // rings and never leak into the byte-compared journal.
  const std::string plain = journal_run(false);
  const std::string recorded = journal_run(true);
  EXPECT_GT(recorder.events_total(), 0u);
  EXPECT_EQ(plain, recorded);
}

TEST(Engine, SolverIterationsAreRecordedEveryRoundWithoutAttribution) {
  obs::FlightRecorder recorder;
  EngineFixture f;
  EngineConfig cfg = small_engine_config();
  cfg.attribution = false;
  cfg.flight = &recorder;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const EngineResult result = eng.run();
  ASSERT_GT(result.rounds.size(), 0u);
  // The whole run fits one ring, so nothing was overwritten.
  ASSERT_LE(recorder.events_total(), obs::kFlightRingCapacity);
  const std::vector<obs::FlightEvent> iters =
      recorder.snapshot(-1, obs::FlightKind::kSolverIters);
  ASSERT_EQ(iters.size(), result.rounds.size());
  for (std::size_t k = 0; k < iters.size(); ++k) {
    EXPECT_EQ(iters[k].a0, result.rounds[k].round);
    EXPECT_GT(iters[k].a1, 0u);  // the deploy solve's iteration count
    EXPECT_EQ(iters[k].a2, result.rounds[k].batch);
  }
}

TEST(Engine, JournalIsByteIdenticalWithProfilerSampling) {
  const auto journal_run = [](bool profile) {
    EngineFixture f;
    std::ostringstream out;
    obs::JsonlWriter journal(out);
    EngineConfig cfg = small_engine_config();
    cfg.journal = &journal;
    obs::SamplingProfiler profiler;
    if (profile) {
      obs::set_default_profiler(&profiler);
      profiler.register_current_thread("engine_test");
      EXPECT_TRUE(profiler.start(500.0));
    }
    OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
    eng.run();
    std::uint64_t samples = 0;
    if (profile) {
      profiler.stop();
      // run() unregistered the engine thread on exit (engine.cpp owns
      // its default-profiler registration), and the small fixture can
      // finish inside one 2 ms sampling period anyway — so prove the
      // sampler fires with a second short session on a re-registered
      // thread, spinning CPU until a sample provably landed.
      profiler.register_current_thread("engine_test");
      EXPECT_TRUE(profiler.start(500.0));
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      volatile double sink = 0.0;
      while (profiler.samples_total() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        for (int i = 0; i < 10000; ++i) {
          sink = sink + static_cast<double>(i) * 1e-9;
        }
      }
      profiler.stop();
      samples = profiler.samples_total();
      profiler.unregister_current_thread();
      obs::set_default_profiler(nullptr);
    }
    return std::make_pair(out.str(), samples);
  };
  // SIGPROF interrupts steal CPU slices, never engine state: an armed,
  // actively sampling profiler must not move a single journal byte.
  const auto [plain, zero_samples] = journal_run(false);
  const auto [profiled, samples] = journal_run(true);
  EXPECT_EQ(zero_samples, 0u);
  EXPECT_GT(samples, 0u);
  EXPECT_EQ(plain, profiled);
}

TEST(Engine, DispatchedTraceHasTheCompleteSpanChain) {
  EngineFixture f;
  obs::TraceStore traces(4096, 1.0);
  EngineConfig cfg = small_engine_config();
  cfg.task_traces = &traces;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const EngineResult result = eng.run();
  ASSERT_GT(result.queue.dispatched, 0u);

  std::size_t dispatched_traces = 0;
  for (const auto& trace : traces.snapshot()) {
    ASSERT_TRUE(trace.finished());  // run() drains the queue before exit
    if (trace.final_state == "dispatched") {
      ++dispatched_traces;
      EXPECT_EQ(
          trace.chain(),
          "submit>queue_wait>batch>predict>match>dispatch>feedback>complete");
      // The terminal span carries the realized-vs-predicted makespan
      // error: feedback recorded the realized runtime, match the
      // prediction on the chosen cluster.
      const auto& spans = trace.spans;
      const auto span_named = [&](const char* name) {
        for (const auto& s : spans) {
          if (s.name == name) {
            return &s;
          }
        }
        return static_cast<const obs::TaskSpan*>(nullptr);
      };
      const obs::TaskSpan* match_span = span_named("match");
      const obs::TaskSpan* feedback_span = span_named("feedback");
      const obs::TaskSpan* complete_span = span_named("complete");
      ASSERT_NE(match_span, nullptr);
      ASSERT_NE(feedback_span, nullptr);
      ASSERT_NE(complete_span, nullptr);
      EXPECT_NEAR(complete_span->value,
                  feedback_span->value - match_span->value, 1e-12);
      EXPECT_TRUE(complete_span->detail == "ok" ||
                  complete_span->detail == "failed");
      // Sim-time endpoints are ordered within every span.
      for (const auto& span : trace.spans) {
        EXPECT_LE(span.start_hours, span.end_hours) << span.name;
      }
    } else {
      // Lost tasks end on a terminal span naming the loss.
      ASSERT_FALSE(trace.spans.empty());
      EXPECT_EQ(trace.spans.back().name, trace.final_state);
    }
  }
  // Rate 1.0: every dispatched task must carry a full chain.
  EXPECT_EQ(dispatched_traces, result.queue.dispatched);
}

TEST(Engine, SloMonitorSeesRoundsAndExports) {
  EngineFixture f;
  obs::MetricsRegistry registry;
  obs::SloMonitor slo;
  EngineConfig cfg = small_engine_config();
  cfg.registry = &registry;
  cfg.slo = &slo;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const EngineResult result = eng.run();
  ASSERT_GT(result.rounds.size(), 0u);

  const auto states = slo.evaluate(result.rounds.back().close_hours);
  ASSERT_EQ(states.size(), 4u);
  // Dispatch events from the final rounds are inside the slow window.
  EXPECT_GT(states[1].samples, 0u);
  // The engine bound the monitor to its registry: gauges exist.
  const std::string text = obs::to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("mfcp_slo_firing{sli=\"dispatch_success\"}"),
            std::string::npos);
}

TEST(Engine, AttributionIsExactAndTiesOutToRoundRegret) {
  EngineFixture f;
  obs::MetricsRegistry registry;
  EngineConfig cfg = small_engine_config();
  cfg.attribution = true;
  cfg.registry = &registry;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const EngineResult result = eng.run();
  ASSERT_GT(result.rounds.size(), 0u);

  for (const RoundRecord& rec : result.rounds) {
    ASSERT_TRUE(rec.attribution.valid) << "round " << rec.round;
    EXPECT_TRUE(rec.attribution.exact(1e-6))
        << "round " << rec.round << ": terms " << rec.attribution.term_sum()
        << " vs total " << rec.attribution.total;
    // Stripping the admission counterfactual from the total recovers the
    // realized regret the engine scored independently for this round.
    EXPECT_NEAR(rec.attribution.total - rec.attribution.admission_gap,
                rec.regret, 1e-9)
        << "round " << rec.round;
    EXPECT_GE(rec.attribution.admission_gap, 0.0);
    EXPECT_GE(rec.attribution.solver_residual, 0.0);
  }

  // The recorder saw every round and flagged none of them inexact.
  const auto rounds = static_cast<std::uint64_t>(result.rounds.size());
  EXPECT_EQ(registry.counter("mfcp_regret_attributed_rounds_total").value(),
            rounds);
  EXPECT_EQ(registry.counter("mfcp_regret_attribution_inexact_total").value(),
            0u);
  // And the attribute stage is timed like the other pipeline stages.
  bool saw_stage = false;
  for (const auto& h : registry.snapshot().histograms) {
    if (h.name == "mfcp_engine_stage_seconds{stage=\"attribute\"}") {
      saw_stage = true;
      EXPECT_EQ(h.count, rounds);
    }
  }
  EXPECT_TRUE(saw_stage);
}

TEST(Engine, AttributionIsDeterministicAndJournaled) {
  const auto attributed_run = [](std::string* journal_text) {
    EngineFixture f;
    std::ostringstream out;
    obs::JsonlWriter journal(out);
    EngineConfig cfg = small_engine_config();
    cfg.attribution = true;
    cfg.journal = &journal;
    OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
    EngineResult result = eng.run();
    *journal_text = out.str();
    return result;
  };
  std::string ja;
  std::string jb;
  const EngineResult ra = attributed_run(&ja);
  const EngineResult rb = attributed_run(&jb);

  ASSERT_EQ(ra.rounds.size(), rb.rounds.size());
  for (std::size_t k = 0; k < ra.rounds.size(); ++k) {
    // Bit-identical, not approximate: attribution must not perturb the
    // engine's determinism guarantee.
    EXPECT_EQ(ra.rounds[k].regret, rb.rounds[k].regret);
    EXPECT_EQ(ra.rounds[k].attribution.pred_gap,
              rb.rounds[k].attribution.pred_gap);
    EXPECT_EQ(ra.rounds[k].attribution.solver_gap,
              rb.rounds[k].attribution.solver_gap);
    EXPECT_EQ(ra.rounds[k].attribution.rounding_gap,
              rb.rounds[k].attribution.rounding_gap);
    EXPECT_EQ(ra.rounds[k].attribution.admission_gap,
              rb.rounds[k].attribution.admission_gap);
    EXPECT_EQ(ra.rounds[k].attribution.total, rb.rounds[k].attribution.total);
  }
  // The journal carries the decomposition and stays byte-stable.
  EXPECT_EQ(ja, jb);
  EXPECT_NE(ja.find("\"pred_gap\":"), std::string::npos);
  EXPECT_NE(ja.find("\"attr_total\":"), std::string::npos);
}

TEST(Engine, TelemetryCountsMatchTheRunRecords) {
  EngineFixture f;
  obs::MetricsRegistry registry;
  obs::TraceRing trace(64);
  EngineConfig cfg = small_engine_config();
  cfg.registry = &registry;
  cfg.trace = &trace;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const EngineResult result = eng.run();
  ASSERT_GT(result.rounds.size(), 0u);

  const auto rounds = static_cast<std::uint64_t>(result.rounds.size());
  // Every stage histogram saw exactly one observation per round.
  const obs::RegistrySnapshot snap = registry.snapshot();
  for (const char* stage : {"embed", "predict", "match", "dispatch"}) {
    const std::string name =
        std::string("mfcp_engine_stage_seconds{stage=\"") + stage + "\"}";
    bool found = false;
    for (const auto& h : snap.histograms) {
      if (h.name == name) {
        EXPECT_EQ(h.count, rounds) << name;
        found = true;
      }
    }
    EXPECT_TRUE(found) << name;
  }

  // Counters agree with the engine's own accounting.
  EXPECT_EQ(registry.counter("mfcp_engine_tasks_matched_total").value(),
            result.queue.dispatched);
  EXPECT_EQ(registry.counter("mfcp_queue_offered_total").value(),
            result.queue.offered);
  EXPECT_EQ(registry.counter("mfcp_queue_dispatched_total").value(),
            result.queue.dispatched);
  // One drift decision per round (retraining off -> no observe_round, so
  // decisions only come from the trainer when enabled; here check gauges
  // instead: sim time advanced).
  EXPECT_GT(registry.gauge("mfcp_engine_sim_time_hours").value(), 0.0);
  // The ring retained the most recent spans (4 stages per round).
  EXPECT_EQ(trace.recorded(), 4u * rounds);
  EXPECT_EQ(trace.snapshot().size(), std::min<std::size_t>(64, 4 * rounds));
}

TEST(Engine, DriftDecisionCountersSumToRoundsWhenRetrainingIsOn) {
  EngineFixture f;
  obs::MetricsRegistry registry;
  EngineConfig cfg = small_engine_config();
  cfg.online_retraining = true;
  cfg.trainer.retrain_epochs = 2;
  cfg.registry = &registry;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const EngineResult result = eng.run();

  std::uint64_t decisions = 0;
  for (const char* d : {"quiet", "warmup", "cooldown", "trip"}) {
    decisions += registry
                     .counter("mfcp_engine_drift_decisions_total{decision=\"" +
                              std::string(d) + "\"}")
                     .value();
  }
  EXPECT_EQ(decisions, result.rounds.size());
  EXPECT_EQ(registry.counter(
                "mfcp_engine_drift_decisions_total{decision=\"trip\"}")
                .value(),
            result.counters.retrains);
}

TEST(Metrics, ToRegistryExportsSummaryGauges) {
  core::MetricsAccumulator acc;
  core::MatchOutcome o;
  o.regret = 2.0;
  o.reliability = 0.9;
  o.utilization = 0.5;
  o.feasible = true;
  acc.add(o);
  o.regret = 4.0;
  o.feasible = false;
  acc.add(o);

  obs::MetricsRegistry registry;
  acc.to_registry(registry, "eval");
  EXPECT_DOUBLE_EQ(registry.gauge("eval_regret_mean").value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.gauge("eval_regret_min").value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.gauge("eval_regret_max").value(), 4.0);
  EXPECT_DOUBLE_EQ(registry.gauge("eval_reliability_mean").value(), 0.9);
  EXPECT_DOUBLE_EQ(registry.gauge("eval_rounds").value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.gauge("eval_feasible_fraction").value(), 0.5);
}

// -------------------------------------------------------------- metrics --

// ------------------------------------------------------------ durability --

/// Fresh per-test scratch directory, wiped on construction and teardown.
struct StorageTempDir {
  std::filesystem::path path;

  explicit StorageTempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("mfcp_engine_test_" + std::to_string(::getpid()) + "_" +
              name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~StorageTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
};

TEST(Engine, JournalIsByteIdenticalWithStorageAttached) {
  // Attaching the durability layer must not perturb the round loop: the
  // storage-on run's journal is byte-for-byte the storage-off run's.
  const auto journal_run = [](storage::StorageManager* storage) {
    EngineFixture f;
    std::ostringstream out;
    obs::JsonlWriter journal(out);
    EngineConfig cfg = small_engine_config();
    cfg.journal = &journal;
    cfg.storage = storage;
    OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
    eng.run();
    return out.str();
  };
  StorageTempDir dir("journal_identity");
  storage::StorageManager storage(storage::StorageConfig{dir.str()});
  const std::string with = journal_run(&storage);
  const std::string without = journal_run(nullptr);
  ASSERT_FALSE(with.empty());
  EXPECT_EQ(with, without);

  // And the chunk store mirrors exactly those lines (batch mode has no
  // external tasks, so no task records interleave).
  std::string chunked;
  for (const std::string& line : storage.journal().query(0.0, 1e9)) {
    chunked += line;
    chunked += '\n';
  }
  EXPECT_EQ(chunked, with);
}

TEST(Engine, CheckpointRestoreRoundTripsWeightsBitExactly) {
  // The one persistence path: finalize() publishes a snapshot generation
  // through the StorageManager, and recover() on a fresh engine restores
  // it into a predictor with different (freshly initialized) weights.
  StorageTempDir dir("checkpoint_roundtrip");
  EngineFixture fa(123);
  EngineCounters saved;
  {
    storage::StorageManager storage(storage::StorageConfig{dir.str()});
    EngineConfig cfg = small_engine_config();
    cfg.online_retraining = true;
    cfg.trainer.retrain_epochs = 5;
    cfg.trainer.drift.ratio_threshold = 1.1;  // make retrains likely
    cfg.storage = &storage;
    OnlineEngine eng(cfg, fa.platform, fa.embedder, fa.predictor);
    (void)eng.run();
    saved = eng.counters();
  }

  storage::StorageManager storage(storage::StorageConfig{dir.str()});
  EngineFixture fb(456);
  EngineConfig cfg = small_engine_config();
  cfg.storage = &storage;
  OnlineEngine eng2(cfg, fb.platform, fb.embedder, fb.predictor);
  ASSERT_TRUE(eng2.recover().checkpoint_loaded);

  EXPECT_EQ(eng2.counters(), saved);
  for (std::size_t i = 0; i < 3; ++i) {
    auto pa = fa.predictor.cluster(i).time_model().parameters();
    auto pb = fb.predictor.cluster(i).time_model().parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t p = 0; p < pa.size(); ++p) {
      const auto& va = *pa[p].value;
      const auto& vb = *pb[p].value;
      ASSERT_EQ(va.size(), vb.size());
      for (std::size_t x = 0; x < va.size(); ++x) {
        EXPECT_EQ(va[x], vb[x]);  // bit-identical
      }
    }
    auto ra = fa.predictor.cluster(i).reliability_model().parameters();
    auto rb = fb.predictor.cluster(i).reliability_model().parameters();
    for (std::size_t p = 0; p < ra.size(); ++p) {
      for (std::size_t x = 0; x < ra[p].value->size(); ++x) {
        EXPECT_EQ((*ra[p].value)[x], (*rb[p].value)[x]);
      }
    }
  }
}

TEST(Engine, RejectedSnapshotLeavesTheColdStartPredictorUntouched) {
  // The only snapshot parses through cluster 0 and breaks in cluster 1.
  // With no older generation, recover() cold-starts, and the predictor
  // must be exactly the cold one: no cluster restored part-way.
  StorageTempDir dir("corrupt_second_cluster");
  EngineFixture trained(123);
  std::stringstream payload;
  save_checkpoint(payload, trained.predictor, EngineCounters{});
  std::string text = payload.str();
  // Four mlp blocks in (cluster 0 time, reliability; cluster 1 time,
  // reliability), past its magic, layer-count and first header lines.
  std::size_t pos = 0;
  for (int block = 0; block < 4; ++block) {
    pos = text.find("mfcp-mlp 1\n", pos + 1);
    ASSERT_NE(pos, std::string::npos);
  }
  for (int line = 0; line < 3; ++line) {
    pos = text.find('\n', pos) + 1;
  }
  text.insert(pos, "x");
  {
    storage::StorageManager storage(storage::StorageConfig{dir.str()});
    (void)storage.checkpoints().publish(
        0, [&](std::ostream& os) { os << text; });
  }

  storage::StorageManager storage(storage::StorageConfig{dir.str()});
  EngineFixture cold(456);
  EngineFixture reference(456);
  EngineConfig cfg = small_engine_config();
  cfg.storage = &storage;
  OnlineEngine eng(cfg, cold.platform, cold.embedder, cold.predictor);
  EXPECT_FALSE(eng.recover().checkpoint_loaded);
  EXPECT_EQ(eng.counters(), EngineCounters{});
  for (std::size_t i = 0; i < 3; ++i) {
    for (const bool time : {true, false}) {
      auto& got = cold.predictor.cluster(i);
      auto& want = reference.predictor.cluster(i);
      const auto pg = (time ? got.time_model() : got.reliability_model())
                          .parameters();
      const auto pw = (time ? want.time_model() : want.reliability_model())
                          .parameters();
      ASSERT_EQ(pg.size(), pw.size());
      for (std::size_t p = 0; p < pg.size(); ++p) {
        const Matrix& vg = *pg[p].value;
        const Matrix& vw = *pw[p].value;
        ASSERT_TRUE(vg.same_shape(vw));
        EXPECT_EQ(std::memcmp(vg.data(), vw.data(),
                              vg.size() * sizeof(double)),
                  0)
            << "cluster " << i << (time ? " time" : " reliability")
            << " parameter " << p;
      }
    }
  }
}

TEST(Engine, RecoverRestartRoundTripRestoresStateAndContinues) {
  StorageTempDir dir("restart_roundtrip");
  EngineCounters first;
  {
    storage::StorageManager storage(storage::StorageConfig{dir.str()});
    EngineFixture f;
    EngineConfig cfg = small_engine_config();
    cfg.storage = &storage;
    OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
    first = eng.run().counters;  // finalize() publishes a final snapshot
  }
  ASSERT_GT(first.rounds, 0u);
  ASSERT_GT(first.sim_time_hours, 0.0);

  storage::StorageManager storage(storage::StorageConfig{dir.str()});
  EngineFixture f;
  EngineConfig cfg = small_engine_config();
  cfg.storage = &storage;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const RecoveryReport report = eng.recover();
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_GE(report.checkpoint_generation, 1u);
  EXPECT_EQ(report.replayed, 0u);  // batch runs have no external tasks
  EXPECT_GE(report.resume_hours, first.sim_time_hours);

  // The resumed run continues on the restored clock and counters: every
  // total is monotone across the restart, never reset.
  const EngineCounters second = eng.run().counters;
  EXPECT_GT(second.rounds, first.rounds);
  EXPECT_EQ(second.arrivals, 2 * first.arrivals);
  EXPECT_GT(second.sim_time_hours, first.sim_time_hours);
  EXPECT_GE(second.dispatched, first.dispatched);
}

TEST(Engine, RecoveryIsDeterministicAcrossIdenticalRestarts) {
  const auto recovered_run = [](const std::string& dir) {
    {
      storage::StorageManager storage(storage::StorageConfig{dir});
      EngineFixture f;
      EngineConfig cfg = small_engine_config();
      cfg.storage = &storage;
      OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
      eng.run();
    }
    storage::StorageManager storage(storage::StorageConfig{dir});
    EngineFixture f;
    EngineConfig cfg = small_engine_config();
    cfg.storage = &storage;
    OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
    (void)eng.recover();
    return eng.run().counters;
  };
  StorageTempDir da("recovery_det_a");
  StorageTempDir db("recovery_det_b");
  EXPECT_EQ(recovered_run(da.str()), recovered_run(db.str()));
}

TEST(Engine, GatewayLinkWalRecoveryConservesAcceptedTasks) {
  StorageTempDir dir("link_recovery");
  sim::TaskDescriptor task;
  task.family = sim::TaskFamily::kCnn;
  std::vector<std::uint64_t> ids;
  {
    // Incarnation 1: accept three external tasks through the link (each
    // WAL-logged before its ticket) and then "crash" — no engine ever
    // runs, so nothing reaches a terminal state.
    storage::StorageManager storage(storage::StorageConfig{dir.str()});
    GatewayLinkConfig link_cfg;
    link_cfg.wal = &storage.wal();
    GatewayLink link(link_cfg);
    for (int k = 0; k < 3; ++k) {
      const SubmitTicket ticket = link.submit(task, 2.0);
      ASSERT_TRUE(ticket.accepted);
      ids.push_back(ticket.id);
    }
  }

  // Incarnation 2: recovery replays exactly the acked set.
  storage::StorageManager storage(storage::StorageConfig{dir.str()});
  GatewayLinkConfig link_cfg;
  link_cfg.wal = &storage.wal();
  GatewayLink link(link_cfg);
  EngineFixture f;
  EngineConfig cfg = small_engine_config();
  cfg.storage = &storage;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const RecoveryReport report = eng.recover(&link);
  EXPECT_EQ(report.replayed, 3u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.terminal, 0u);

  // The conservation the loadgen asserts across restarts: recovered
  // acceptances are re-registered, queued, and queryable under their
  // original ids.
  const ServiceStats stats = link.stats();
  EXPECT_EQ(stats.recovered_tasks, 3u);
  EXPECT_EQ(stats.recovered_terminal, 0u);
  EXPECT_EQ(stats.tasks.submitted, 3u);
  EXPECT_EQ(stats.tasks.queued, 3u);
  for (const std::uint64_t id : ids) {
    const auto status = link.status(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, TaskState::kQueued);
  }
  // New submissions never collide with replayed ids.
  const SubmitTicket fresh = link.submit(task, 2.0);
  ASSERT_TRUE(fresh.accepted);
  EXPECT_GT(fresh.id, ids.back());
}

TEST(Engine, RunAfterRecoveryNeverClosesARoundBeforeTheResumePoint) {
  // Tasks accepted at 0 h and at 1 h survive a crash, so the recovered
  // clock resumes at 1 h while the early tasks' 0.2 h batch timeouts are
  // long overdue. Those rounds close at the resume point, never in the
  // simulated past.
  StorageTempDir dir("recovery_clock");
  sim::TaskDescriptor task;
  task.family = sim::TaskFamily::kCnn;
  {
    storage::StorageManager storage(storage::StorageConfig{dir.str()});
    GatewayLinkConfig link_cfg;
    link_cfg.wal = &storage.wal();
    GatewayLink link(link_cfg);
    for (const double hours : {0.0, 1.0}) {
      link.note_sim_time(hours);
      for (int k = 0; k < 3; ++k) {
        ASSERT_TRUE(link.submit(task, 2.0).accepted);
      }
    }
  }

  storage::StorageManager storage(storage::StorageConfig{dir.str()});
  EngineFixture f;
  EngineConfig cfg = small_engine_config();
  cfg.storage = &storage;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const RecoveryReport report = eng.recover();
  ASSERT_EQ(report.replayed, 6u);
  ASSERT_EQ(report.resume_hours, 1.0);
  const EngineResult result = eng.run();
  ASSERT_FALSE(result.rounds.empty());
  EXPECT_EQ(result.rounds.front().trigger, RoundTrigger::kTimeout);
  for (const RoundRecord& r : result.rounds) {
    EXPECT_GE(r.close_hours, report.resume_hours) << "round " << r.round;
  }
}

// ------------------------------------------------------ cooperative stop --

TEST(Engine, RunWithTheStopFlagAlreadySetConsumesNoArrival) {
  EngineFixture f;
  const std::atomic<bool> stop{true};
  EngineConfig cfg = small_engine_config();
  cfg.stop_flag = &stop;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const EngineResult result = eng.run();
  EXPECT_EQ(result.counters.arrivals, 0u);
  EXPECT_EQ(result.queue.offered, 0u);
  EXPECT_TRUE(result.rounds.empty());
}

TEST(Engine, ServeStoppedByTheFlagDrainsTheLinkAndServesItsInbox) {
  // Only the flag stops the loop (the link is never asked), yet the link
  // turns draining, and the submission already in its inbox is served.
  EngineFixture f;
  const std::atomic<bool> stop{true};
  EngineConfig cfg = small_engine_config();
  cfg.stop_flag = &stop;
  GatewayLink link;
  sim::TaskDescriptor task;
  task.family = sim::TaskFamily::kCnn;
  ASSERT_TRUE(link.submit(task, 2.0).accepted);
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  const EngineResult result = eng.serve(link, ServeConfig{});

  EXPECT_TRUE(link.stats().draining);
  EXPECT_FALSE(link.submit(task, 2.0).accepted);
  const ServiceStats stats = link.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.tasks.dispatched, 1u);
  EXPECT_EQ(stats.submitted, stats.tasks.dispatched + stats.tasks.expired +
                                 stats.tasks.rejected);
  EXPECT_EQ(result.counters.arrivals, 1u);
  ASSERT_EQ(result.rounds.size(), 1u);
  EXPECT_EQ(result.rounds[0].trigger, RoundTrigger::kFlush);
}

TEST(Engine, RetrainScheduleSurvivesRestart) {
  StorageTempDir dir("retrain_schedule");
  const auto configure = [] {
    EngineConfig cfg = small_engine_config();
    cfg.online_retraining = true;
    cfg.trainer.retrain_epochs = 2;
    cfg.trainer.drift.ratio_threshold = 1e9;  // drift never fires
    cfg.trainer.retrain_every = 4;            // cadence does
    return cfg;
  };
  EngineCounters first;
  {
    storage::StorageManager storage(storage::StorageConfig{dir.str()});
    EngineFixture f;
    EngineConfig cfg = configure();
    cfg.storage = &storage;
    OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
    first = eng.run().counters;
  }
  ASSERT_GT(first.retrains, 0u);
  EXPECT_EQ(first.retrains, first.rounds / 4);

  // The restored schedule keeps counting rounds where it left off: the
  // combined run retrains exactly every 4th round overall, with no reset
  // or double-fire at the seam.
  storage::StorageManager storage(storage::StorageConfig{dir.str()});
  EngineFixture f;
  EngineConfig cfg = configure();
  cfg.storage = &storage;
  OnlineEngine eng(cfg, f.platform, f.embedder, f.predictor);
  (void)eng.recover();
  const EngineCounters second = eng.run().counters;
  EXPECT_GT(second.retrains, first.retrains);
  EXPECT_EQ(second.retrains, second.rounds / 4);
}

}  // namespace
}  // namespace mfcp::engine
