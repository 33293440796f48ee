// prodigy_simulate — generate LDMS-style telemetry into a DSOS snapshot.
//
//   prodigy_simulate --out store.dsos [--system Eclipse|Volta]
//                    [--scale 0.02] [--duration 300] [--seed 1]
//                    [--metrics-out PATH]
//   prodigy_simulate --out store.dsos --app LAMMPS --jobs 5 --nodes 4
//                    [--anomaly memleak --intensity 1.0 --anomalous-nodes 1,3]
//
// Two modes: a whole system collection (the §5.2 ground-truth methodology,
// healthy + Table-2 anomaly runs), or explicit runs of one application.
#include "deploy/dsos.hpp"
#include "telemetry/dataset_builder.hpp"
#include "tool_common.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

#include <cstdio>

namespace {

std::vector<std::size_t> parse_node_list(const std::string& csv) {
  std::vector<std::size_t> nodes;
  std::size_t start = 0;
  while (start < csv.size()) {
    const auto comma = csv.find(',', start);
    const auto token = csv.substr(start, comma - start);
    if (!token.empty()) nodes.push_back(std::stoul(token));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return nodes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prodigy;
  constexpr const char* kUsage =
      "usage: prodigy_simulate --out FILE "
      "[--system Eclipse|Volta --scale S | --app NAME --jobs N]\n";
  const tools::Flags flags = tools::parse_flags(
      argc, argv,
      {{"out", "system", "scale", "duration", "seed", "metrics-out", "app", "jobs",
        "nodes", "first-job-id", "anomaly", "intensity", "anomalous-nodes"},
       {}},
      kUsage);
  if (!flags.has("out")) tools::usage(kUsage);
  util::set_log_level(util::LogLevel::Warn);
  deploy::DsosStore store;

  if (flags.has("app")) {
    // Explicit runs of one application.
    const auto app = telemetry::application_by_name(flags.get("app", std::string()));
    const auto jobs = flags.get("jobs", 5LL);
    util::Rng rng(static_cast<std::uint64_t>(flags.get("seed", 1LL)));
    for (long long j = 0; j < jobs; ++j) {
      telemetry::RunConfig config;
      config.app = app;
      config.job_id = flags.get("first-job-id", 1000LL) + j;
      config.num_nodes = static_cast<std::size_t>(flags.get("nodes", 4LL));
      config.duration_s = flags.get("duration", 300.0);
      config.seed = rng();
      config.first_component_id = config.job_id * 100;
      if (flags.has("anomaly")) {
        config.anomaly.kind =
            hpas::anomaly_kind_from_string(flags.get("anomaly", std::string()));
        config.anomaly.intensity = flags.get("intensity", 1.0);
        config.anomaly.config = flags.get("anomaly", std::string());
        config.anomalous_nodes =
            parse_node_list(flags.get("anomalous-nodes", std::string()));
        config.duration_s *= hpas::expected_slowdown(config.anomaly);
      }
      store.ingest(telemetry::generate_run(config));
    }
  } else {
    // Whole-system ground-truth collection.
    const std::string system = flags.get("system", std::string("Eclipse"));
    telemetry::DatasetSpec spec =
        system == "Volta"
            ? telemetry::volta_dataset_spec(flags.get("scale", 0.02),
                                            flags.get("duration", 300.0))
            : telemetry::eclipse_dataset_spec(flags.get("scale", 0.02),
                                              flags.get("duration", 300.0));
    spec.seed ^= static_cast<std::uint64_t>(flags.get("seed", 1LL));
    telemetry::for_each_run(
        spec, [&store](const telemetry::JobTelemetry& job) { store.ingest(job); });
  }

  const std::string out = flags.get("out", std::string());
  store.save(out);
  std::printf("wrote %zu jobs (%zu datapoints) to %s\n", store.job_count(),
              store.datapoint_count(), out.c_str());
  if (flags.has("metrics-out")) {
    const auto path = flags.get("metrics-out", std::string());
    util::MetricsRegistry::global().write_file(path);
    std::printf("metrics -> %s\n", path.c_str());
  }
  return 0;
}
