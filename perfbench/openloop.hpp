// Open-loop HTTP load generator for the gateway workloads.
//
// The whole schedule is fixed up front from the seed: Poisson send times
// at the offered rate and one random task body per request. Worker
// threads (no more than CPUs, one connection each at a time) take the
// next due request in order, wait until it is due, send it and record
// the outcome. Nothing waits on a previous reply or backs off after a
// 429, so a slow server receives the same load as a fast one; every
// latency is counted from the due time, which charges a stall to the
// requests queued behind it, and the generator reports its own lateness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ScheduledRequest {
  std::int64_t due_ns = 0;  // offset from the schedule start
  std::string body;         // POST /submit JSON
};

/// Seeded Poisson schedule of `rate_per_s` requests over `seconds`.
[[nodiscard]] std::vector<ScheduledRequest> poisson_schedule(
    std::uint64_t seed, double rate_per_s, double seconds);

struct RequestOutcome {
  std::int64_t due_ns = 0;   // absolute steady-clock due time
  std::int64_t sent_ns = 0;  // when the worker started the call
  std::int64_t done_ns = 0;  // when the response (or error) arrived
  int status = 0;            // 0 on a transport error
  std::uint64_t id = 0;      // task id of a 200
};

/// Runs `schedule` against 127.0.0.1:`port` starting at `start_ns` with
/// `threads` workers; returns one outcome per request, schedule order.
[[nodiscard]] std::vector<RequestOutcome> run_open_loop(
    const std::vector<ScheduledRequest>& schedule, std::uint16_t port,
    std::int64_t start_ns, unsigned threads);

}  // namespace perfbench
