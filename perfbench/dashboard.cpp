// dashboard: the Fig. 2/4/7 query path.  Two closed-loop clients ask an
// AnalyticsService (explanations on, result cache off) for whole finished
// jobs while a paced writer streams live jobs into the same DsosStore
// through a scorer-less StreamIngestor.
#include "bench.hpp"

#include "comte/comte.hpp"
#include "deploy/service.hpp"
#include "pipeline/data_pipeline.hpp"
#include "stream/ingestor.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>

namespace perfbench {
namespace {

constexpr std::size_t kClients = 2;

struct DashboardSpec {
  std::size_t query_jobs = 48;
  std::size_t train_jobs = 32;
  std::size_t nodes = 4;
  std::size_t job_length = 1200;  // 20 minutes at 1 Hz
  ScheduleShape writer;           // live jobs; writer.ticks from the run length
  double writer_ticks_per_s = 50.0;
  TrainRecipe recipe{/*top_k=*/256};
  double node_f1_floor = 0.6;
  std::size_t walk_jobs = 6;
};

struct Setup {
  std::vector<JobPlan> query;
  std::vector<JobPlan> train;
  std::vector<JobPlan> writer_plans;
  std::vector<stream::SampleBatch> writer;
  // The service keeps a reference to the store: both live on the heap so
  // the Setup can move.
  std::unique_ptr<deploy::DsosStore> store;
  std::unique_ptr<deploy::AnalyticsService> service;
};

deploy::TrainFromStoreOptions train_options(const DashboardSpec& spec) {
  deploy::TrainFromStoreOptions options;
  options.top_k_features = spec.recipe.top_k;
  options.model = model_config(spec.recipe);
  options.cache_capacity = 0;  // every request is computed afresh
  return options;
}

std::vector<JobPlan> whole_jobs(const DashboardSpec& spec, std::size_t count,
                                std::int64_t first_id, std::uint64_t seed) {
  ScheduleShape shape;
  shape.slots = count;
  shape.nodes_per_job = spec.nodes;
  shape.min_length = spec.job_length;
  shape.max_length = spec.job_length;
  shape.ticks = spec.job_length;
  shape.phase_step = 0;
  shape.anomalous_share = 0.25;
  shape.anomalies = anomaly_kinds();
  shape.first_job_id = first_id;
  return plan_schedule(shape, seed);
}

Setup make_setup(const DashboardSpec& spec, std::uint64_t seed) {
  Setup setup;
  setup.query = whole_jobs(spec, spec.query_jobs, 1, seed);
  setup.train = whole_jobs(spec, spec.train_jobs, 1001, seed ^ 0x5eedf00dULL);
  setup.writer_plans = plan_schedule(spec.writer, seed ^ 0x1a7e1eULL);
  setup.writer = batches_for(setup.writer_plans, spec.writer.ticks);
  setup.store = std::make_unique<deploy::DsosStore>();
  std::vector<JobPlan> all = setup.query;
  all.insert(all.end(), setup.train.begin(), setup.train.end());
  std::vector<telemetry::JobTelemetry> jobs(all.size());
  util::parallel_for(0, all.size(), [&](std::size_t i) { jobs[i] = generate_job(all[i]); });
  for (const auto& job : jobs) setup.store->ingest(job);
  jobs.clear();
  std::vector<std::int64_t> train_ids;
  for (const auto& plan : setup.train) train_ids.push_back(plan.job_id);
  setup.service = std::make_unique<deploy::AnalyticsService>(
      deploy::AnalyticsService::train_from_store(*setup.store, train_ids, train_options(spec),
                                                 /*explain=*/true));
  return setup;
}

/// Explanation inputs in model-input space, built the way the analytics
/// service builds them at train time.
struct ExplainContext {
  tensor::Matrix train;
  std::vector<int> labels;
  double scale = 1e-3;
};

ExplainContext make_explain_context(const core::ModelBundle& bundle,
                                    const features::FeatureDataset& data) {
  ExplainContext ctx;
  ctx.train = bundle.transform_full(data.X);
  ctx.labels = data.labels;
  std::vector<std::size_t> healthy;
  for (std::size_t i = 0; i < ctx.labels.size(); ++i) {
    if (ctx.labels[i] == 0) healthy.push_back(i);
  }
  ctx.scale = comte::ThresholdModelAdapter::estimate_scale(
      bundle.detector.score(ctx.train.select_rows(healthy)));
  return ctx;
}

/// Per-call costs of the dashboard layers, from a single-threaded walk.
struct AnalysisWalk {
  double query_job_ms = 0.0;  // DsosStore::query_job
  double build_ms = 0.0;      // DataPipeline::build_from_jobs
  double job_score_ms = 0.0;  // transform_full + score, one job
  double explain_ms = 0.0;    // explain_optimized, one anomalous node
};

AnalysisWalk walk_analyses(const deploy::DsosStore& store,
                           const std::vector<std::int64_t>& jobs,
                           const core::ModelBundle& bundle,
                           const pipeline::PreprocessOptions& preprocess,
                           const ExplainContext& explain) {
  AnalysisWalk walk;
  on_pool_worker([&] {
    const comte::ThresholdModelAdapter adapter(bundle.detector, bundle.detector.threshold(),
                                               explain.scale);
    const comte::ComteExplainer explainer(adapter, explain.train, explain.labels,
                                          bundle.metadata.feature_names,
                                          deploy::TrainFromStoreOptions{}.explanations);
    std::vector<double> query, build, score, explains;
    for (const auto job_id : jobs) {
      const auto q0 = Clock::now();
      std::vector<telemetry::JobTelemetry> job{store.query_job(job_id)};
      const auto q1 = Clock::now();
      const features::FeatureDataset data =
          pipeline::DataPipeline::build_from_jobs(job, preprocess);
      const auto q2 = Clock::now();
      const tensor::Matrix input = bundle.transform_full(data.X);
      const auto scores = bundle.detector.score(input);
      const auto q3 = Clock::now();
      query.push_back(seconds_between(q0, q1) * 1e3);
      build.push_back(seconds_between(q1, q2) * 1e3);
      score.push_back(seconds_between(q2, q3) * 1e3);
      for (std::size_t i = 0; i < scores.size(); ++i) {
        if (!(scores[i] > bundle.detector.threshold())) continue;
        const auto e0 = Clock::now();
        explainer.explain_optimized(input.row(i));
        explains.push_back(seconds_between(e0, Clock::now()) * 1e3);
      }
    }
    walk.query_job_ms = mean(query);
    walk.build_ms = mean(build);
    walk.job_score_ms = mean(score);
    walk.explain_ms = mean(explains);
  });
  return walk;
}

struct Request {
  std::int64_t job_id = 0;
  double latency_ms = 0.0;
  std::optional<deploy::JobAnalysis> analysis;  // empty when it threw
};

struct Phase {
  std::vector<Request> requests;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> lag_ms;
  stream::IngestorStats ingest;
  double queue_high_water = 0.0;
  std::vector<double> ingest_wait_ms;  // traced only
};

/// Runs the writer for its whole schedule at the paced rate while the
/// clients issue whole rounds (every query job once, in a seeded order) until
/// the writer is done.  `max_rounds` > 0 caps the rounds instead (warm-up,
/// writer off).
Phase run_phase(const DashboardSpec& spec, const Setup& setup, std::uint64_t seed,
                bool writer_on, std::size_t max_rounds, bool traced) {
  auto& high_water =
      util::MetricsRegistry::global().gauge("prodigy_stream_queue_depth_high_water");
  high_water.set(0.0);
  Phase phase;
  std::atomic<bool> writer_done{!writer_on};
  std::vector<Clock::time_point> offered(setup.writer.size());
  std::unique_ptr<TimingSink> timing;
  if (traced) timing = std::make_unique<TimingSink>(nullptr, offered, setup.writer_plans);
  stream::StreamIngestor ingestor(*setup.store, {}, timing.get());

  std::vector<std::vector<Request>> per_client(kClients);
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(seed * 31 + c);
      auto& out = per_client[c];
      for (std::size_t round = 0; max_rounds == 0 || round < max_rounds; ++round) {
        if (max_rounds == 0 && writer_done.load()) break;
        for (const std::size_t i : rng.permutation(setup.query.size())) {
          Request request;
          request.job_id = setup.query[i].job_id;
          const auto start = Clock::now();
          try {
            request.analysis = setup.service->analyze_job(request.job_id);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: analyze_job(%lld) threw: %s\n",
                         static_cast<long long>(request.job_id), e.what());
          }
          request.latency_ms = seconds_between(start, Clock::now()) * 1e3;
          out.push_back(std::move(request));
        }
      }
    });
  }
  if (writer_on) {
    const GeneratorPriority priority;
    phase.lag_ms.reserve(setup.writer.size());
    const auto writer_start = Clock::now();
    for (std::size_t t = 0; t < setup.writer.size(); ++t) {
      const auto due = writer_start + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(t / spec.writer_ticks_per_s));
      std::this_thread::sleep_until(due);
      phase.lag_ms.push_back(seconds_between(due, Clock::now()) * 1e3);
      offered[t] = Clock::now();
      ingestor.offer(setup.writer[t]);
    }
    writer_done.store(true);
  }
  for (auto& client : clients) client.join();
  phase.wall_s = seconds_between(start, Clock::now());
  ingestor.stop();
  phase.cpu_s = process_cpu_seconds() - cpu0;
  phase.ingest = ingestor.stats();
  phase.queue_high_water = high_water.value();
  if (timing) phase.ingest_wait_ms = timing->ingest_wait_ms();
  for (auto& requests : per_client) {
    for (auto& request : requests) phase.requests.push_back(std::move(request));
  }
  return phase;
}

/// Checks every request: it returned, covers exactly the job's nodes, was
/// computed (no cache), carries explanations only on anomalous nodes, and
/// gives the same scores as every other request for that job.  Returns the
/// number of failed requests.
std::uint64_t check_phase(const Setup& setup, const Phase& phase, const char* label,
                          std::map<std::int64_t, std::vector<double>>& scores,
                          Result& result) {
  std::map<std::int64_t, const JobPlan*> plan_of;
  for (const auto& plan : setup.query) plan_of[plan.job_id] = &plan;
  std::uint64_t failed = 0, cached = 0, stray = 0, unstable = 0;
  for (const auto& request : phase.requests) {
    if (!request.analysis) {
      ++failed;
      continue;
    }
    const auto& analysis = *request.analysis;
    const JobPlan& plan = *plan_of.at(request.job_id);
    std::vector<std::int64_t> want, got;
    for (std::size_t n = 0; n < plan.nodes; ++n) {
      want.push_back(plan.first_component + static_cast<std::int64_t>(n));
    }
    std::vector<double> job_scores;
    for (const auto& node : analysis.nodes) {
      got.push_back(node.component_id);
      job_scores.push_back(node.score);
      stray += node.explanation.has_value() && !node.anomalous;
    }
    std::sort(got.begin(), got.end());
    if (analysis.job_id != request.job_id || got != want) {
      ++failed;
      continue;
    }
    cached += analysis.from_cache;
    auto [it, fresh] = scores.try_emplace(request.job_id, job_scores);
    unstable += !fresh && it->second != job_scores;
  }
  const std::string name = label;
  result.check(failed == 0, name + ": " + std::to_string(failed) + " requests failed");
  result.check(cached == 0, name + ": " + std::to_string(cached) + " answers from the cache");
  result.check(stray == 0, name + ": explanations on healthy verdicts");
  result.check(unstable == 0, name + ": scores of one job differ between requests");
  const auto& s = phase.ingest;
  const std::uint64_t lost =
      s.dropped_samples + s.duplicate_samples + s.late_samples + s.malformed_samples;
  result.check(s.offered_samples == s.flushed_samples + lost && lost == 0,
               name + ": writer lost " + std::to_string(lost) + " samples");
  return failed;
}

/// Node-level detection quality and a fresh service's bit-identical scores.
void check_quality(const DashboardSpec& spec, const Setup& setup,
                   const std::map<std::int64_t, std::vector<double>>& scores,
                   std::uint64_t seed, Result& result) {
  const double threshold = setup.service->bundle().detector.threshold();
  std::uint64_t tp = 0, fp = 0, fn = 0;
  for (const auto& plan : setup.query) {
    const auto it = scores.find(plan.job_id);
    if (it == scores.end()) continue;
    for (std::size_t n = 0; n < it->second.size(); ++n) {
      const bool flagged = it->second[n] > threshold;
      const bool truth = plan.node_anomalous(n);
      tp += truth && flagged;
      fp += !truth && flagged;
      fn += truth && !flagged;
    }
  }
  const double f1 = f1_score(tp, fp, fn);
  std::fprintf(stderr, "perfbench: dashboard node F1 %.4f (tp %llu fp %llu fn %llu)\n", f1,
               static_cast<unsigned long long>(tp), static_cast<unsigned long long>(fp),
               static_cast<unsigned long long>(fn));
  result.check(f1 >= spec.node_f1_floor, "node F1 " + std::to_string(f1) + " below floor " +
                                             std::to_string(spec.node_f1_floor));

  util::Rng rng(seed ^ 0xfee1ULL);
  const JobPlan& sample = setup.query[rng.uniform_index(setup.query.size())];
  const deploy::AnalyticsService fresh(*setup.store, setup.service->bundle(),
                                       train_options(spec).preprocess, /*explain=*/false, {},
                                       /*cache_capacity=*/0);
  std::vector<double> again;
  for (const auto& node : fresh.analyze_job(sample.job_id).nodes) again.push_back(node.score);
  const auto it = scores.find(sample.job_id);
  result.check(it != scores.end() && it->second == again,
               "a fresh service scores job " + std::to_string(sample.job_id) + " differently");
}

}  // namespace

Result run_dashboard(const Args& args) {
  DashboardSpec spec;
  spec.writer.slots = 4;
  spec.writer.nodes_per_job = 4;
  spec.writer.min_length = 900;
  spec.writer.max_length = 1500;
  spec.writer.max_gap = 32;
  spec.writer.anomalous_share = 0.25;
  spec.writer.anomalies = anomaly_kinds();
  spec.writer.first_job_id = 10001;
  spec.writer_ticks_per_s = 50.0;
  if (args.short_mode) {
    spec.query_jobs = 4;
    spec.train_jobs = 4;
    spec.nodes = 4;
    spec.job_length = 300;
    spec.writer.min_length = 100;
    spec.writer.max_length = 200;
    spec.writer_ticks_per_s = 400.0;
    spec.node_f1_floor = 0.0;  // too few nodes to grade detection
    spec.walk_jobs = 2;
  }
  spec.writer.ticks = static_cast<std::size_t>(0.9 * args.seconds * spec.writer_ticks_per_s);

  Result result;
  spin_warmup(args.short_mode ? 0.1 : 1.0);
  const int setups = args.short_mode || args.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < setups; ++i) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = std::make_unique<Setup>(make_setup(spec, args.seed));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  auto& hits = util::MetricsRegistry::global().counter("prodigy_deploy_cache_hits_total");
  const std::uint64_t hits_before = hits.value();

  // Warm-up: one round per client with the writer off.
  run_phase(spec, *setup, args.seed + 1, /*writer_on=*/false, /*max_rounds=*/1, false);

  std::map<std::int64_t, std::vector<double>> scores;
  const Phase phase = run_phase(spec, *setup, args.seed, true, 0, false);
  result.attempted = phase.requests.size();
  result.failed = check_phase(*setup, phase, "dashboard", scores, result);
  std::optional<Phase> traced;
  if (args.trace) {
    traced = run_phase(spec, *setup, args.seed, true, 0, true);
    result.attempted += traced->requests.size();
    result.failed += check_phase(*setup, *traced, "dashboard-traced", scores, result);
  }
  check_quality(spec, *setup, scores, args.seed, result);
  const std::uint64_t cache_hits = hits.value() - hits_before;
  result.check(cache_hits == 0, std::to_string(cache_hits) + " result-cache hits");

  std::vector<double> latency;
  for (const auto& request : phase.requests) latency.push_back(request.latency_ms);
  std::fprintf(stderr,
               "perfbench: dashboard %zu requests in %.3f s, latency p99 %.3f ms, writer lag p99 "
               "%.3f ms\n",
               phase.requests.size(), phase.wall_s, quantile(latency, 0.99),
               quantile(phase.lag_ms, 0.99));

  if (args.trace) {
    std::vector<double> traced_latency;
    for (const auto& request : traced->requests) traced_latency.push_back(request.latency_ms);
    // The dashboard walk, one call at a time: half anomalous jobs (so there
    // is something to explain), half healthy ones.
    std::vector<std::int64_t> walk_jobs;
    std::size_t anomalous = 0, healthy = 0;
    for (const auto& plan : setup->query) {
      std::size_t& taken = plan.anomaly.is_anomalous() ? anomalous : healthy;
      if (2 * taken >= spec.walk_jobs) continue;
      ++taken;
      walk_jobs.push_back(plan.job_id);
    }
    std::vector<telemetry::JobTelemetry> train_jobs;
    for (const auto& plan : setup->train) train_jobs.push_back(setup->store->query_job(plan.job_id));
    const auto preprocess = train_options(spec).preprocess;
    const ExplainContext explain = make_explain_context(
        setup->service->bundle(), pipeline::DataPipeline::build_from_jobs(train_jobs, preprocess));
    const AnalysisWalk walk =
        walk_analyses(*setup->store, walk_jobs, setup->service->bundle(), preprocess, explain);
    const StreamWalk appends = walk_stream(setup->writer, setup->writer.size(), nullptr, 0, 0);
    const auto& s = traced->ingest;
    result.add("features.extract_hop_us", 0.0, "us");
    result.add("features.extract_first_us", 0.0, "us");
    result.add("features.exact_fallbacks_per_1k", 0.0, "count");
    result.add("deploy.dsos_append_us", appends.append_us, "us");
    result.add("stream.window_push_us", 0.0, "us");
    result.add("core.transform_us", 0.0, "us");
    result.add("core.score_us", 0.0, "us");
    result.add("stream.publish_us", 0.0, "us");
    result.add("stream.ingest_wait_ms_p50", quantile(traced->ingest_wait_ms, 0.5), "ms");
    result.add("stream.ingest_wait_ms_p99", quantile(traced->ingest_wait_ms, 0.99), "ms");
    result.add("stream.score_wait_ms_p50", 0.0, "ms");
    result.add("stream.score_wait_ms_p99", 0.0, "ms");
    result.add("stream.rows_per_flush",
               s.flushes > 0 ? static_cast<double>(s.flushed_samples) / static_cast<double>(s.flushes)
                             : 0.0,
               "count");
    result.add("stream.queue_high_water", traced->queue_high_water, "count");
    result.add("load.generator_lag_ms_p99", quantile(traced->lag_ms, 0.99), "ms");
    result.add("deploy.query_job_ms", walk.query_job_ms, "ms");
    result.add("pipeline.build_ms", walk.build_ms, "ms");
    result.add("core.job_score_ms", walk.job_score_ms, "ms");
    result.add("comte.explain_ms", walk.explain_ms, "ms");
    result.add("deploy.cache_hits", static_cast<double>(cache_hits), "count");
    result.add("trace.overhead_pct",
               100.0 * (median(traced_latency) / median(latency) - 1.0), "%");
    return result;
  }

  result.add("latency_p50_ms", quantile(latency, 0.5), "ms");
  result.add("cpu_ms_per_result",
             1e3 * phase.cpu_s / static_cast<double>(std::max<std::size_t>(1, phase.requests.size())),
             "ms");
  result.add("throughput_per_s", static_cast<double>(phase.requests.size()) / phase.wall_s, "1/s");
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace perfbench
