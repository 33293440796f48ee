// prodigy_stream — replay driver for the streaming subsystem: plays ldmsd-
// style 1 Hz telemetry into the StreamIngestor at a configurable real-time
// multiple and prints the alert stream (debounced state transitions).
//
//   prodigy_stream --model DIR [--app LAMMPS --nodes 32 --duration 300]
//                  [--anomaly memleak --intensity 1.0 --anomalous-nodes 1,3]
//                  [--drift 0.3] [--anomaly-start 0.5]
//                  [--seed 7] [--job-id 7001] [--speed 50]
//                  [--window 64 --hop 16 --debounce 3]
//                  [--adapt] [--adapt-warmup 64 --adapt-lambda 8
//                   --adapt-min-refit 64 --adapt-epochs 60 --adapt-sync]
//                  [--queue 256 --policy block|drop-oldest|drop-newest]
//                  [--flush-rows 256] [--verbose] [--verify-batch]
//                  [--replay FILE] [--out-store FILE] [--metrics-out PATH]
//   prodigy_stream --capture FILE [--app ... --nodes ... --duration ...]
//
// --speed is the real-time multiple (50 = fifty simulated seconds per wall
// second; 0 = unpaced firehose).  --capture writes the generated sample
// stream as a SampleBatch frame file and exits; --replay plays a frame file
// instead of generating.  --verify-batch re-scores every emitted window
// through the batch AnalyticsService path and fails (exit 1) on any verdict
// mismatch — the online and batch detectors must agree exactly.
//
// --drift ramps the healthy baseline toward a shifted operating point (the
// new normal); --anomaly-start delays the injected anomaly so it overlaps
// the drifted baseline.  --adapt hangs an AdaptiveModelManager off the
// scorer: drift detection on the verdict stream, reservoir refit, validated
// hot-swap — [drift]/[swap]/[refused] lines show the lifecycle, and the
// summary reports the adaptation counters.  --verify-batch compares against
// the frozen bundle and is therefore mutually exclusive with --adapt.
#include "adapt/model_manager.hpp"
#include "deploy/service.hpp"
#include "hpas/anomalies.hpp"
#include "stream/event_bus.hpp"
#include "stream/ingestor.hpp"
#include "stream/online_scorer.hpp"
#include "telemetry/app_profile.hpp"
#include "telemetry/generator.hpp"
#include "tool_common.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

namespace {

using namespace prodigy;

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

/// One frame per sample tick: row r of every node's series at timestamp t.
std::vector<stream::SampleBatch> batches_from_run(const telemetry::JobTelemetry& job) {
  std::size_t ticks = 0;
  for (const auto& node : job.nodes) ticks = std::max(ticks, node.values.rows());
  std::vector<stream::SampleBatch> batches;
  batches.reserve(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    stream::SampleBatch batch;
    batch.sequence = t;
    for (const auto& node : job.nodes) {
      if (t >= node.values.rows()) continue;
      stream::SampleRow row;
      row.job_id = node.job_id;
      row.component_id = node.component_id;
      row.timestamp = static_cast<std::int64_t>(t);
      row.app = node.app;
      const auto values = node.values.row(t);
      row.values.assign(values.begin(), values.end());
      batch.rows.push_back(std::move(row));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct VerdictKey {
  std::int64_t job_id, component_id;
  std::uint64_t window_index;
  bool operator<(const VerdictKey& other) const {
    return std::tie(job_id, component_id, window_index) <
           std::tie(other.job_id, other.component_id, other.window_index);
  }
};

/// Re-scores every streamed window through the batch AnalyticsService path:
/// each window becomes one synthetic "node" of one synthetic job, analyzed
/// in a single batch request.  Online and batch verdicts must agree exactly.
int verify_against_batch(const deploy::DsosStore& store,
                         const core::ModelBundle& bundle,
                         const stream::OnlineScorerConfig& scorer_config,
                         const std::map<VerdictKey, stream::VerdictEvent>& verdicts) {
  if (verdicts.empty()) {
    std::printf("verify-batch: no windows were scored\n");
    return 1;
  }
  telemetry::JobTelemetry oracle_job;
  oracle_job.job_id = 1;
  oracle_job.app = "verify";
  std::vector<const stream::VerdictEvent*> order;
  for (const auto& [key, event] : verdicts) {
    const auto series = store.query_node(key.job_id, key.component_id);
    telemetry::NodeSeries window;
    window.job_id = 1;
    window.component_id = static_cast<std::int64_t>(order.size());
    window.app = oracle_job.app;
    window.values = series.values.slice_rows(
        static_cast<std::size_t>(key.window_index) * scorer_config.hop,
        scorer_config.window);
    oracle_job.nodes.push_back(std::move(window));
    order.push_back(&event);
  }
  deploy::DsosStore oracle_store;
  oracle_store.ingest(oracle_job);
  const deploy::AnalyticsService service(oracle_store, bundle,
                                         scorer_config.preprocess,
                                         /*explain=*/false);
  const deploy::JobAnalysis analysis = service.analyze_job(1);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& batch_verdict = analysis.nodes[i];
    const auto& online = *order[i];
    if (batch_verdict.score != online.score ||
        batch_verdict.anomalous != online.anomalous) {
      ++mismatches;
      std::printf("verify-batch MISMATCH job %lld node %lld window %llu: "
                  "online score %.17g (%s) vs batch %.17g (%s)\n",
                  static_cast<long long>(online.job_id),
                  static_cast<long long>(online.component_id),
                  static_cast<unsigned long long>(online.window_index),
                  online.score, online.anomalous ? "anomalous" : "healthy",
                  batch_verdict.score,
                  batch_verdict.anomalous ? "anomalous" : "healthy");
    }
  }
  std::printf("verify-batch: %zu windows compared against batch "
              "AnalyticsService scoring, %zu mismatches\n",
              order.size(), mismatches);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: prodigy_stream --model DIR [--app NAME --nodes N --duration S]\n"
      "                      [--anomaly KIND --intensity X --anomalous-nodes 1,3]\n"
      "                      [--drift X] [--anomaly-start F]\n"
      "                      [--seed S] [--job-id ID] [--speed X]\n"
      "                      [--window W --hop H --debounce K]\n"
      "                      [--adapt] [--adapt-warmup N --adapt-lambda X\n"
      "                       --adapt-min-refit N --adapt-epochs E --adapt-sync]\n"
      "                      [--queue CAP --policy block|drop-oldest|drop-newest]\n"
      "                      [--flush-rows N] [--verbose] [--verify-batch]\n"
      "                      [--replay FILE] [--out-store FILE] [--metrics-out PATH]\n"
      "       prodigy_stream --capture FILE [generation flags]\n";
  const tools::Flags flags = tools::parse_flags(
      argc, argv,
      {{"model", "app", "nodes", "duration", "anomaly", "intensity",
        "anomalous-nodes", "drift", "anomaly-start", "seed", "job-id", "speed",
        "window", "hop", "debounce", "adapt-warmup", "adapt-lambda",
        "adapt-min-refit", "adapt-epochs", "queue", "policy", "flush-rows",
        "replay", "out-store", "metrics-out", "capture"},
       {"adapt", "adapt-sync", "verbose", "verify-batch"}},
      kUsage);
  const bool capture_only = flags.has("capture");
  if (!capture_only && !flags.has("model")) tools::usage(kUsage);
  util::set_log_level(util::LogLevel::Warn);

  // --- Acquire the sample stream: replay a capture file or generate a run.
  std::vector<stream::SampleBatch> batches;
  if (flags.has("replay")) {
    util::BinaryReader reader(flags.get("replay", std::string()));
    while (!reader.at_end()) {
      batches.push_back(stream::SampleBatch::read_frame(reader));
    }
  } else {
    telemetry::RunConfig config;
    config.app = telemetry::application_by_name(flags.get("app", std::string("LAMMPS")));
    config.job_id = flags.get("job-id", 7001LL);
    config.num_nodes = static_cast<std::size_t>(flags.get("nodes", 32LL));
    config.duration_s = flags.get("duration", 300.0);
    config.seed = static_cast<std::uint64_t>(flags.get("seed", 7LL));
    config.first_component_id = config.job_id * 100;
    if (flags.has("anomaly")) {
      config.anomaly.kind =
          hpas::anomaly_kind_from_string(flags.get("anomaly", std::string()));
      config.anomaly.intensity = flags.get("intensity", 1.0);
      config.anomaly.config = flags.get("anomaly", std::string());
      config.anomalous_nodes =
          parse_node_list(flags.get("anomalous-nodes", std::string()));
    }
    config.baseline_drift = flags.get("drift", 0.0);
    config.anomaly_start_frac = flags.get("anomaly-start", 0.0);
    batches = batches_from_run(telemetry::generate_run(config));
  }
  std::size_t total_samples = 0;
  for (const auto& batch : batches) total_samples += batch.sample_count();

  if (capture_only) {
    util::BinaryWriter writer(flags.get("capture", std::string()));
    for (const auto& batch : batches) batch.write_frame(writer);
    std::printf("captured %zu frames (%zu samples) to %s\n", batches.size(),
                total_samples, flags.get("capture", std::string()).c_str());
    return 0;
  }

  // --- Wire the subsystem: ingestor -> windows -> scorer -> alert bus.
  auto bundle = core::ModelBundle::load(flags.get("model", std::string()));

  stream::EventBusConfig bus_config;
  bus_config.debounce_windows =
      static_cast<std::size_t>(flags.get("debounce", 3LL));
  stream::EventBus bus(bus_config);

  const bool verbose = flags.has("verbose");
  const bool verify = flags.has("verify-batch");
  const bool adapt = flags.has("adapt");
  if (verify && adapt) {
    tools::usage("--verify-batch compares against the frozen bundle and "
                 "cannot be combined with --adapt\n");
  }
  std::mutex print_mutex;
  std::map<VerdictKey, stream::VerdictEvent> verdicts;
  bus.subscribe([&](const stream::VerdictEvent& event) {
    std::lock_guard lock(print_mutex);
    if (verify) {
      verdicts[{event.job_id, event.component_id, event.window_index}] = event;
    }
    if (verbose) {
      std::printf("[window] t=%lld..%lld job %lld node %lld: %s score %.6f "
                  "(threshold %.6f)\n",
                  static_cast<long long>(event.window_start_ts),
                  static_cast<long long>(event.window_end_ts),
                  static_cast<long long>(event.job_id),
                  static_cast<long long>(event.component_id),
                  event.anomalous ? "ANOMALOUS" : "healthy", event.score,
                  event.threshold);
    }
  });
  bus.subscribe_transitions([&](const stream::TransitionEvent& event) {
    std::lock_guard lock(print_mutex);
    if (event.initial && !event.anomalous && !verbose) return;  // quiet onboarding
    std::printf("[alert] t=%lld..%lld job %lld node %lld: %s%s (score %.6f vs "
                "threshold %.6f, confirmed x%llu)\n",
                static_cast<long long>(event.window_start_ts),
                static_cast<long long>(event.window_end_ts),
                static_cast<long long>(event.job_id),
                static_cast<long long>(event.component_id),
                event.anomalous ? "ANOMALOUS" : "recovered (healthy)",
                event.initial ? " [initial]" : "", event.score, event.threshold,
                static_cast<unsigned long long>(event.consecutive));
  });

  // The manager must outlive the scorer (the scorer calls back into it from
  // scoring tasks), so it is declared first.
  std::unique_ptr<adapt::AdaptiveModelManager> manager;
  if (adapt) {
    bus.subscribe_drift([&](const stream::DriftEvent& event) {
      std::lock_guard lock(print_mutex);
      const char* what = event.kind == stream::DriftEvent::Kind::DriftDetected
                             ? "DRIFT detected"
                             : (event.kind == stream::DriftEvent::Kind::ModelSwapped
                                    ? "model SWAPPED in"
                                    : "candidate REFUSED");
      std::printf("[adapt] %s: generation %llu, statistic %.3f (model "
                  "threshold %.3f), %llu reservoir samples\n",
                  what, static_cast<unsigned long long>(event.generation),
                  event.statistic, event.threshold,
                  static_cast<unsigned long long>(event.reservoir_samples));
    });
    adapt::AdaptationConfig adapt_config;
    adapt_config.drift.warmup_observations =
        static_cast<std::size_t>(flags.get("adapt-warmup", 64LL));
    adapt_config.drift.lambda = flags.get("adapt-lambda", 8.0);
    adapt_config.min_refit_samples =
        static_cast<std::size_t>(flags.get("adapt-min-refit", 64LL));
    adapt_config.refit_epochs =
        static_cast<std::size_t>(flags.get("adapt-epochs", 60LL));
    adapt_config.synchronous = flags.has("adapt-sync");
    manager = std::make_unique<adapt::AdaptiveModelManager>(
        bundle, adapt_config, &bus, "stream");
  }

  stream::OnlineScorerConfig scorer_config;
  scorer_config.window = static_cast<std::size_t>(flags.get("window", 64LL));
  scorer_config.hop = static_cast<std::size_t>(flags.get("hop", 16LL));
  scorer_config.model_provider = manager.get();
  stream::OnlineScorer scorer(bundle, bus, scorer_config);

  deploy::DsosStore store;
  stream::IngestorConfig ingest_config;
  ingest_config.queue_capacity = static_cast<std::size_t>(flags.get("queue", 256LL));
  ingest_config.policy =
      stream::backpressure_policy_from_string(flags.get("policy", std::string("block")));
  ingest_config.flush_rows = static_cast<std::size_t>(flags.get("flush-rows", 256LL));
  stream::StreamIngestor ingestor(store, ingest_config, &scorer);

  // --- Replay, paced at --speed x real time (1 Hz samplers).
  const double speed = flags.get("speed", 50.0);
  util::Timer wall;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < batches.size(); ++t) {
    if (speed > 0.0) {
      const auto due = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(t / speed));
      std::this_thread::sleep_until(due);
    }
    ingestor.offer(std::move(batches[t]));
  }
  const std::size_t ticks = batches.size();
  ingestor.stop();   // drain the queue, flush pending rows
  scorer.drain();    // wait for every scheduled window to publish
  const double elapsed = wall.elapsed_seconds();

  // --- Summary.
  const auto stats = ingestor.stats();
  char target_note[48] = "";
  if (speed > 0) {
    std::snprintf(target_note, sizeof(target_note), " (target %gx)", speed);
  }
  std::printf("\nreplayed %zu ticks (%zu samples) in %.3fs — %.0f samples/s, "
              "%.1fx real time%s\n",
              ticks, total_samples, elapsed,
              elapsed > 0 ? static_cast<double>(stats.flushed_samples) / elapsed : 0.0,
              elapsed > 0 ? static_cast<double>(ticks) / elapsed : 0.0,
              target_note);
  std::printf("ingest: %llu offered, %llu flushed, %llu dropped (%s), "
              "%llu duplicate, %llu late, %llu malformed, %llu flushes\n",
              static_cast<unsigned long long>(stats.offered_samples),
              static_cast<unsigned long long>(stats.flushed_samples),
              static_cast<unsigned long long>(stats.dropped_samples),
              to_string(ingest_config.policy).c_str(),
              static_cast<unsigned long long>(stats.duplicate_samples),
              static_cast<unsigned long long>(stats.late_samples),
              static_cast<unsigned long long>(stats.malformed_samples),
              static_cast<unsigned long long>(stats.flushes));
  std::printf("scoring: %llu windows (W=%zu H=%zu), %llu errors; alerts: %llu "
              "transitions, %llu verdicts debounced away\n",
              static_cast<unsigned long long>(scorer.windows_scored()),
              scorer_config.window, scorer_config.hop,
              static_cast<unsigned long long>(scorer.score_errors()),
              static_cast<unsigned long long>(bus.transitions_published()),
              static_cast<unsigned long long>(bus.suppressed()));
  if (manager) {
    manager->stop();  // join the refit worker before reading the counters
    const auto adapt_stats = manager->adaptation_stats();
    std::printf("adaptation: generation %llu, %llu drifts, %llu refits, "
                "%llu swaps, %llu refusals, %llu/%llu reservoir samples kept\n",
                static_cast<unsigned long long>(adapt_stats.generation),
                static_cast<unsigned long long>(adapt_stats.drifts_detected),
                static_cast<unsigned long long>(adapt_stats.refits_started),
                static_cast<unsigned long long>(adapt_stats.swaps_completed),
                static_cast<unsigned long long>(adapt_stats.swaps_refused),
                static_cast<unsigned long long>(adapt_stats.reservoir_samples),
                static_cast<unsigned long long>(adapt_stats.reservoir_offered));
  }

  if (flags.has("out-store")) {
    const auto path = flags.get("out-store", std::string());
    store.save(path);
    std::printf("store (%zu jobs, %zu datapoints) -> %s\n", store.job_count(),
                store.datapoint_count(), path.c_str());
  }

  int exit_code = 0;
  if (verify) {
    exit_code = verify_against_batch(store, bundle, scorer_config, verdicts);
  }
  if (flags.has("metrics-out")) {
    const auto path = flags.get("metrics-out", std::string());
    util::MetricsRegistry::global().write_file(path);
    std::fprintf(stderr, "metrics -> %s\n", path.c_str());
  }
  return exit_code;
}
