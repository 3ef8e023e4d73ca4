// Block-partitioned parallel loops and deterministic parallel reductions.
#pragma once

#include <exception>
#include <future>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "support/check.hpp"

namespace mfcp {

/// Partition of [0, n) into at most `parts` contiguous blocks of
/// near-equal size. Returns {begin, end} pairs; never returns empty blocks.
std::vector<std::pair<std::size_t, std::size_t>> partition_range(
    std::size_t n, std::size_t parts);

/// Runs body(i) for every i in [0, n) across the pool. Blocks until done.
/// Called from one of `pool`'s own workers, it runs inline on that
/// worker: waiting there on blocks queued behind it could deadlock.
/// An exception from a block is rethrown in the caller once every block
/// has finished (the first block's in index order wins).
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t n, Body&& body) {
  if (n == 0) {
    return;
  }
  const auto blocks = partition_range(n, pool.size());
  if (blocks.size() <= 1 || pool.owns_current_thread()) {
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(blocks.size());
  for (const auto& [begin, end] : blocks) {
    futures.push_back(pool.submit([&body, begin = begin, end = end] {
      for (std::size_t i = begin; i < end; ++i) {
        body(i);
      }
    }));
  }
  // Every block runs against the caller's `body`, so none may outlive
  // this call: wait for all of them before rethrowing.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) {
        first = std::current_exception();
      }
    }
  }
  if (first) {
    std::rethrow_exception(first);
  }
}

/// Deterministic map-reduce: computes map(i) for i in [0, n) and combines
/// results in index order with reduce(acc, value). The reduction order is
/// identical regardless of thread count, so floating-point results are
/// thread-count invariant (a property our tests assert).
template <typename T, typename Map, typename Reduce>
T parallel_map_reduce(ThreadPool& pool, std::size_t n, T init, Map&& map,
                      Reduce&& reduce) {
  if (n == 0) {
    return init;
  }
  std::vector<T> values(n, init);
  parallel_for(pool, n, [&](std::size_t i) { values[i] = map(i); });
  T acc = std::move(init);
  for (std::size_t i = 0; i < n; ++i) {
    acc = reduce(std::move(acc), std::move(values[i]));
  }
  return acc;
}

}  // namespace mfcp
