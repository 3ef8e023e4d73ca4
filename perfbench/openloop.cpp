#include "openloop.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "net/http_client.hpp"
#include "net/json.hpp"
#include "perfbench.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

std::string random_task_body(mfcp::Rng& rng) {
  static const char* kFamilies[] = {"cnn", "transformer", "rnn", "mlp"};
  const std::uint64_t f = rng.uniform_index(4);
  // CV models on image datasets, NLP models on Europarl, as the
  // simulator pairs them.
  const char* dataset = "cifar-10";
  if (f == 1 || f == 2) {
    dataset = "europarl";
  } else if (rng.bernoulli(0.3)) {
    dataset = "imagenet";
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"family\":\"%s\",\"dataset\":\"%s\",\"depth\":%d,"
                "\"width\":%d,\"batch_size\":%d,\"dataset_fraction\":%.2f}",
                kFamilies[f], dataset,
                static_cast<int>(2 + rng.uniform_index(30)),
                static_cast<int>(32 + 32 * rng.uniform_index(16)),
                static_cast<int>(16 + 16 * rng.uniform_index(16)),
                0.1 + 0.9 * rng.uniform());
  return buf;
}

}  // namespace

std::vector<ScheduledRequest> poisson_schedule(std::uint64_t seed,
                                               double rate_per_s,
                                               double seconds) {
  mfcp::Rng gaps(derive_seed(seed, 101));
  mfcp::Rng bodies(derive_seed(seed, 102));
  std::vector<ScheduledRequest> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - gaps.uniform()) / rate_per_s;
    if (t >= seconds) {
      break;
    }
    out.push_back(ScheduledRequest{static_cast<std::int64_t>(t * 1e9),
                                   random_task_body(bodies)});
  }
  return out;
}

std::vector<RequestOutcome> run_open_loop(
    const std::vector<ScheduledRequest>& schedule, std::uint16_t port,
    std::int64_t start_ns, unsigned threads) {
  std::vector<RequestOutcome> out(schedule.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= schedule.size()) {
        return;
      }
      RequestOutcome& o = out[k];
      o.due_ns = start_ns + schedule[k].due_ns;
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(o.due_ns)));
      o.sent_ns = now_ns();
      const mfcp::net::ClientResponse r = mfcp::net::http_call(
          "127.0.0.1", port, "POST", "/submit", schedule[k].body, 5000);
      o.done_ns = now_ns();
      o.status = r.ok ? r.status : 0;
      if (o.status == 200) {
        const auto fields = mfcp::net::parse_json_object(r.body);
        if (fields.has_value()) {
          const auto id = fields->find("id");
          if (id != fields->end()) {
            o.id = static_cast<std::uint64_t>(id->second.num);
          }
        }
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return out;
}

}  // namespace perfbench
