// perfbench: the platform benchmark program.
//
//   perfbench --workload replay|steady|overload --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// --trace 0 runs the workload untraced and reports its end-to-end
// metrics; --trace 1 runs it untraced, then repeats its work with a span
// around every call into a layer and reports the per-layer metrics. Each
// metric is printed as "name value unit"; every output check is printed
// with its verdict; the last line is the JSON summary. Exit status 1
// when any check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "obs/sinks.hpp"
#include "perfbench.hpp"

namespace {

// Offered rates of the gateway workloads, in submits per wall second.
// `overload` offers about twice what the platform dispatches; `steady`
// about a third of that capacity.
constexpr double kSteadyPerSecond = 150.0;
constexpr double kOverloadPerSecond = 900.0;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload replay|steady|overload --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.work_dir = ".perfbench";
  for (int k = 1; k + 1 < argc; k += 2) {
    const char* flag = argv[k];
    const char* value = argv[k + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      options.work_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) {
    return usage(argv[0]);
  }
  std::filesystem::create_directories(options.work_dir);

  perfbench::Result result;
  if (options.workload == "replay") {
    result = perfbench::run_replay(options);
  } else if (options.workload == "steady") {
    result = perfbench::run_gateway(options, kSteadyPerSecond);
  } else if (options.workload == "overload") {
    result = perfbench::run_gateway(options, kOverloadPerSecond);
  } else {
    return usage(argv[0]);
  }

  for (const auto& [name, ok] : result.checks) {
    std::printf("check %-44s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }
  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!metrics.empty()) {
      metrics += ',';
    }
    metrics += "\"" + m.name + "\":{\"value\":" +
               mfcp::obs::json_number(m.value) + ",\"unit\":\"" + m.unit +
               "\"}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.correct() ? 0 : 1;
}
