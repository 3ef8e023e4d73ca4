// Unit tests for the thread pool and deterministic parallel loops.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace mfcp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroThreadsSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DefaultRegistryRecordsTaskTelemetry) {
  obs::MetricsRegistry registry;
  obs::set_default_registry(&registry);
  {
    ThreadPool pool(2);
    std::vector<std::future<int>> futures;
    for (int k = 0; k < 16; ++k) {
      futures.push_back(pool.submit([k] { return k; }));
    }
    for (auto& f : futures) {
      (void)f.get();
    }
  }
  obs::set_default_registry(nullptr);

  EXPECT_EQ(registry.counter("mfcp_pool_tasks_total").value(), 16u);
  const obs::RegistrySnapshot snap = registry.snapshot();
  std::uint64_t task_count = 0;
  std::uint64_t wait_count = 0;
  for (const auto& h : snap.histograms) {
    if (h.name == "mfcp_pool_task_seconds") task_count = h.count;
    if (h.name == "mfcp_pool_queue_wait_seconds") wait_count = h.count;
  }
  EXPECT_EQ(task_count, 16u);
  EXPECT_EQ(wait_count, 16u);
}

TEST(ThreadPool, NoRegistryMeansNoTelemetry) {
  ASSERT_EQ(obs::default_registry(), nullptr);
  ThreadPool pool(1);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(PartitionRange, CoversRangeExactly) {
  for (std::size_t n : {1u, 2u, 7u, 100u, 101u}) {
    for (std::size_t parts : {1u, 2u, 3u, 8u}) {
      const auto blocks = partition_range(n, parts);
      std::size_t covered = 0;
      std::size_t expect_begin = 0;
      for (const auto& [begin, end] : blocks) {
        EXPECT_EQ(begin, expect_begin);
        EXPECT_LT(begin, end);
        covered += end - begin;
        expect_begin = end;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(PartitionRange, EmptyRangeYieldsNoBlocks) {
  EXPECT_TRUE(partition_range(0, 4).empty());
}

TEST(PartitionRange, NeverMoreBlocksThanElements) {
  const auto blocks = partition_range(3, 10);
  EXPECT_EQ(blocks.size(), 3u);
}

TEST(PartitionRange, BalancedSizes) {
  const auto blocks = partition_range(10, 3);
  ASSERT_EQ(blocks.size(), 3u);
  // 4, 3, 3
  EXPECT_EQ(blocks[0].second - blocks[0].first, 4u);
  EXPECT_EQ(blocks[1].second - blocks[1].first, 3u);
  EXPECT_EQ(blocks[2].second - blocks[2].first, 3u);
}

TEST(ParallelFor, TouchesEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(500);
  parallel_for(pool, counts.size(), [&](std::size_t i) { ++counts[i]; });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, ExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 10,
                            [](std::size_t i) {
                              if (i == 5) {
                                throw std::runtime_error("bad index");
                              }
                            }),
               std::runtime_error);
}

TEST(ParallelFor, ExceptionWaitsForEveryBlock) {
  // Block 0 throws at once while the others are still asleep; the loop
  // may only return once they have all counted.
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(parallel_for(pool, 4,
                            [&](std::size_t i) {
                              if (i == 0) {
                                throw std::runtime_error("first block");
                              }
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(50));
                              ++finished;
                            }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

TEST(ParallelFor, NestedCallOnTheSamePoolRunsInline) {
  // Both workers run an outer block that loops on the same pool again.
  // Queued inner blocks would wait forever on the busy workers, so the
  // inner loops must run on the worker that called them.
  ThreadPool pool(2);
  EXPECT_FALSE(pool.owns_current_thread());
  std::vector<std::thread::id> outer_ids(2);
  std::vector<std::thread::id> inner(2 * 8);
  parallel_for(pool, outer_ids.size(), [&](std::size_t i) {
    EXPECT_TRUE(pool.owns_current_thread());
    outer_ids[i] = std::this_thread::get_id();
    parallel_for(pool, 8, [&](std::size_t j) {
      inner[i * 8 + j] = std::this_thread::get_id();
    });
  });
  for (std::size_t k = 0; k < inner.size(); ++k) {
    EXPECT_EQ(inner[k], outer_ids[k / 8]);
  }
  EXPECT_NE(outer_ids[0], std::this_thread::get_id());
}

}  // namespace
}  // namespace mfcp
