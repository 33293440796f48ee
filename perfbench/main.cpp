// Benchmark entry point: one seeded run of one workload.
//
//   perfbench --workload stream_deep|fleet_wide|dashboard --seed N
//             --seconds S --trace 0|1 [--short]
//
// The last line of standard output is one JSON object: whether every output
// check passed, how many operations were attempted and failed, and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Progress and check failures go to standard error.
#include "bench.hpp"

#include "util/logging.hpp"

#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

namespace {

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      args.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0) || args.seconds > 600.0) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return args;
}

void print(perfbench::Result& result) {
  std::string metrics;
  for (const auto& metric : result.metrics) {
    result.check(std::isfinite(metric.value), metric.name + " is not finite");
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(metric.value) ? metric.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + metric.name + "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = parse(argc, argv);
    prodigy::util::set_log_level(prodigy::util::LogLevel::Warn);
    perfbench::Result result;
    if (args.workload == "stream_deep") {
      result = perfbench::run_stream_deep(args);
    } else if (args.workload == "fleet_wide") {
      result = perfbench::run_fleet_wide(args);
    } else if (args.workload == "dashboard") {
      result = perfbench::run_dashboard(args);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    print(result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
