// stream_deep and fleet_wide: the online path.  Each run replays one seeded
// job mix twice, first unpaced (a firehose under Block backpressure) and
// then paced (an open loop at a fixed tick rate), and checks every verdict
// of both replays against the input schedule, the batch scoring path and
// the generator's labels.
#include "bench.hpp"

#include "deploy/service.hpp"
#include "features/chi_square.hpp"
#include "pipeline/data_pipeline.hpp"
#include "stream/event_bus.hpp"
#include "stream/ingestor.hpp"
#include "stream/online_scorer.hpp"
#include "stream/sharded_service.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

namespace perfbench {
namespace {

struct StreamSpec {
  ScheduleShape shape;  // shape.ticks is derived from the run length
  std::size_t window = 64;
  double ticks_per_s = 100.0;    // paced rate
  double paced_share = 0.7;      // of the run length; the unpaced replays are 5-8x faster
  bool sharded = false;          // ShardedAnalyticsService, else one ingestor
  std::size_t train_jobs = 8;
  std::size_t train_stride = 32;
  TrainRecipe recipe;
  double f1_floor = 0.75;
  std::size_t warm_ticks = 0;    // unpaced warm-up pass over this prefix
  std::size_t walk_ticks = 0;    // traced single-threaded walk prefix
  std::size_t parity_samples = 12;
};

/// The training dataset for a stream bundle: W-row windows (stride
/// `stride`) cut from the given jobs, labelled by their node, extracted with
/// the streaming preprocess.
features::FeatureDataset window_dataset(const std::vector<JobPlan>& plans,
                                        std::size_t window, std::size_t stride) {
  std::vector<telemetry::JobTelemetry> slices;
  for (const auto& plan : plans) {
    const telemetry::JobTelemetry job = generate_job(plan);
    std::int64_t piece = 0;
    for (std::size_t start = 0; start + window <= plan.length; start += stride) {
      telemetry::JobTelemetry slice;
      slice.job_id = plan.job_id * 1000 + piece++;
      slice.app = job.app;
      for (const auto& node : job.nodes) {
        telemetry::NodeSeries cut = node;
        cut.job_id = slice.job_id;
        cut.values = tensor::Matrix(window, node.values.cols());
        for (std::size_t r = 0; r < window; ++r) cut.values.set_row(r, node.values.row(start + r));
        slice.nodes.push_back(std::move(cut));
      }
      slices.push_back(std::move(slice));
    }
  }
  return pipeline::DataPipeline::build_from_jobs(slices,
                                                 stream::streaming_preprocess_defaults());
}

/// Same selection and fit as AnalyticsService::train_from_store: chi-square
/// over min-max scaled features when both classes are present, then the VAE
/// on the healthy rows.
core::ModelBundle train_bundle(const features::FeatureDataset& data,
                               const TrainRecipe& recipe) {
  features::SelectionResult selection;
  const std::size_t anomalous = data.anomalous_count();
  if (anomalous > 0 && anomalous < data.size()) {
    pipeline::Scaler scaler(pipeline::ScalerKind::MinMax);
    features::FeatureDataset scaled = data;
    scaled.X = scaler.fit_transform(data.X);
    selection = features::select_features_chi2(scaled, recipe.top_k);
  } else {
    selection = features::select_features_variance(data, recipe.top_k);
  }
  const core::ModelTrainer trainer(model_config(recipe));
  return trainer.train(data, selection.selected, "perfbench");
}

/// Batch-path score of raw rows through a one-node AnalyticsService, plus
/// the score tolerance the documented extractor tolerances carry to: each
/// selected feature moved by its tolerance (1e-6 relative for spectral_*,
/// 1e-9 for the accumulator-carried rest), the score deltas summed.
struct BatchScore {
  double score = 0.0;
  double tolerance = 0.0;
};

BatchScore batch_score(const core::ModelBundle& bundle, const tensor::Matrix& raw) {
  const auto preprocess = stream::streaming_preprocess_defaults();
  deploy::DsosStore store;
  telemetry::NodeSeries node;
  node.job_id = 1;
  node.component_id = 1;
  node.app = "LAMMPS";
  node.values = raw;
  store.ingest_node(node);
  const deploy::AnalyticsService service(store, bundle, preprocess, /*explain=*/false,
                                         {}, /*cache_capacity=*/0);
  BatchScore result;
  result.score = service.analyze_job(1).nodes.at(0).score;

  static const std::vector<std::string> names = pipeline::full_feature_names();
  const std::vector<double> full =
      features::extract_node_features(pipeline::preprocess_node(raw, preprocess));
  const auto& selected = bundle.metadata.selected_columns;
  tensor::Matrix probes(selected.size() + 1, full.size());
  for (std::size_t r = 0; r < probes.rows(); ++r) probes.set_row(r, full);
  for (std::size_t j = 0; j < selected.size(); ++j) {
    const std::size_t c = selected[j];
    const bool spectral = names[c].find("spectral_") != std::string::npos;
    probes(j + 1, c) += (spectral ? 1e-6 : 1e-9) * std::max(std::abs(full[c]), 1.0) + 1e-9;
  }
  const std::vector<double> scores = bundle.score_full(probes);
  for (std::size_t j = 1; j < scores.size(); ++j) {
    result.tolerance += std::abs(scores[j] - scores[0]);
  }
  return result;
}

struct Setup {
  std::vector<JobPlan> plans;
  std::vector<stream::SampleBatch> batches;
  core::ModelBundle bundle;
};

Setup make_setup(const StreamSpec& spec, std::uint64_t seed) {
  Setup setup;
  setup.plans = plan_schedule(spec.shape, seed);
  setup.batches = batches_for(setup.plans, spec.shape.ticks, spec.shape.groups);
  // Training jobs: same shape and anomaly kinds, disjoint ids and seeds.
  ScheduleShape train = spec.shape;
  train.slots = spec.train_jobs;
  train.ticks = spec.shape.max_length;
  train.min_length = spec.shape.max_length;
  train.phase_step = 0;
  train.groups = 1;
  train.first_job_id = 1'000'000;
  const auto train_plans = plan_schedule(train, seed ^ 0x5eedf00dULL);
  setup.bundle = train_bundle(window_dataset(train_plans, spec.window, spec.train_stride),
                              spec.recipe);
  return setup;
}

struct Verdict {
  std::int64_t job_id = 0;
  std::int64_t component_id = 0;
  std::uint64_t index = 0;
  std::int64_t end_ts = 0;
  double score = 0.0;
  bool anomalous = false;
  Clock::time_point at;
};

/// Verdict subscriber: copies what the checks need and stamps the publish
/// time.  publish() runs on scoring threads, hence the lock.
class VerdictLog {
 public:
  void record(const stream::VerdictEvent& event) {
    Verdict v{event.job_id, event.component_id, event.window_index, event.window_end_ts,
              event.score, event.anomalous, Clock::now()};
    std::lock_guard lock(mutex_);
    verdicts_.push_back(v);
  }
  std::vector<Verdict> take() {
    std::lock_guard lock(mutex_);
    return std::move(verdicts_);
  }
  void reserve(std::size_t n) {
    std::lock_guard lock(mutex_);
    verdicts_.reserve(n);
  }

 private:
  std::mutex mutex_;
  std::vector<Verdict> verdicts_;
};

/// What one replay pass produced.
struct Pass {
  std::vector<Verdict> verdicts;
  stream::IngestorStats ingest;
  std::uint64_t shed = 0;
  std::uint64_t score_errors = 0;
  std::uint64_t skipped = 0;
  bool balanced = false;
  Clock::time_point start;
  double wall_s = 0.0;  // first offer -> last verdict
  double cpu_s = 0.0;
  std::vector<double> lag_ms;  // paced: generator lateness per tick
  std::uint64_t samples = 0;
  double queue_high_water = 0.0;
  std::vector<double> ingest_wait_ms;  // traced only
  std::vector<double> score_wait_ms;   // traced only
};

/// Verdicts the schedule implies: one per full window of every node.
std::uint64_t scheduled_windows(const StreamSpec& spec, const std::vector<JobPlan>& plans) {
  std::uint64_t windows = 0;
  for (const auto& plan : plans) {
    windows += plan.nodes * windows_in(plan.length, spec.window, spec.shape.hop);
  }
  return windows;
}

/// Due time of a frame in a paced pass: its tick at `rate`, plus the offset
/// of its sample group within the tick.
Clock::time_point due_at(Clock::time_point start, double tick, std::size_t group,
                         std::size_t groups, double rate) {
  const double offset = static_cast<double>(group) / static_cast<double>(groups);
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>((tick + offset) / rate));
}

/// Replays the frames of `ticks` ticks through a fresh pipeline.  `rate` 0 =
/// unpaced.
Pass replay(const StreamSpec& spec, const Setup& setup, std::size_t ticks, double rate,
            bool traced) {
  auto& high_water = util::MetricsRegistry::global().gauge(
      "prodigy_stream_queue_depth_high_water");
  high_water.set(0.0);
  VerdictLog log;
  log.reserve(scheduled_windows(spec, setup.plans));
  std::vector<Clock::time_point> offered(ticks);
  Pass pass;

  auto drive = [&](auto&& offer) {
    std::optional<GeneratorPriority> priority;
    if (rate > 0.0) priority.emplace();
    const std::size_t groups = spec.shape.groups;
    pass.lag_ms.reserve(ticks * groups);
    const double cpu0 = process_cpu_seconds();
    pass.start = Clock::now() + std::chrono::milliseconds(20);
    std::this_thread::sleep_until(pass.start);
    for (std::size_t f = 0; f < ticks * groups; ++f) {
      const std::size_t t = f / groups;
      if (rate > 0.0) {
        const auto due = due_at(pass.start, static_cast<double>(t), f % groups, groups, rate);
        std::this_thread::sleep_until(due);
        pass.lag_ms.push_back(seconds_between(due, Clock::now()) * 1e3);
      }
      // The timing sink (single-group stream_deep only) reads the offer
      // time of a row's tick.
      if (f % groups == 0) offered[t] = Clock::now();
      offer(setup.batches[f]);
      pass.samples += setup.batches[f].sample_count();
    }
    return cpu0;
  };

  double cpu0 = 0.0;
  if (spec.sharded) {
    stream::ShardedServiceConfig config;
    config.shards = 2;
    config.scorer_threads = 0;  // shards share the global pool
    config.scorer.window = spec.window;
    config.scorer.hop = spec.shape.hop;
    stream::ShardedAnalyticsService service(setup.bundle, config);
    service.bus().subscribe([&](const stream::VerdictEvent& e) { log.record(e); });
    cpu0 = drive([&](const stream::SampleBatch& b) { service.offer(b); });
    service.stop();
    service.drain();
    pass.cpu_s = process_cpu_seconds() - cpu0;
    const auto stats = service.stats();
    pass.ingest = stats.totals;
    pass.shed = stats.shed_samples;
    pass.balanced = stats.accounting_balances();
    pass.score_errors = service.score_errors();
    pass.verdicts = log.take();
  } else {
    deploy::DsosStore store;
    stream::EventBus bus;
    stream::OnlineScorerConfig scorer_config;
    scorer_config.window = spec.window;
    scorer_config.hop = spec.shape.hop;
    stream::OnlineScorer scorer(setup.bundle, bus, scorer_config);
    std::unique_ptr<TimingSink> timing;
    if (traced) timing = std::make_unique<TimingSink>(&scorer, offered, setup.plans);
    stream::StreamIngestor ingestor(store, {},
                                    timing ? static_cast<stream::RowSink*>(timing.get())
                                           : static_cast<stream::RowSink*>(&scorer));
    bus.subscribe([&](const stream::VerdictEvent& e) { log.record(e); });
    cpu0 = drive([&](const stream::SampleBatch& b) { ingestor.offer(b); });
    ingestor.stop();
    scorer.drain();
    pass.cpu_s = process_cpu_seconds() - cpu0;
    pass.ingest = ingestor.stats();
    pass.balanced = pass.ingest.offered_samples ==
                    pass.ingest.flushed_samples + pass.ingest.dropped_samples +
                        pass.ingest.duplicate_samples + pass.ingest.late_samples +
                        pass.ingest.malformed_samples;
    pass.score_errors = scorer.score_errors();
    pass.skipped = scorer.windows_skipped();
    pass.verdicts = log.take();
    if (timing) {
      pass.ingest_wait_ms = timing->ingest_wait_ms();
      for (const auto& v : pass.verdicts) {
        pass.score_wait_ms.push_back(
            seconds_between(timing->arrival(v.job_id, v.component_id, v.end_ts), v.at) * 1e3);
      }
    }
  }
  Clock::time_point last = pass.start;
  for (const auto& v : pass.verdicts) last = std::max(last, v.at);
  pass.wall_s = seconds_between(pass.start, last);
  pass.queue_high_water = high_water.value();
  return pass;
}

struct Outcome {
  std::uint64_t expected = 0;
  std::uint64_t failed = 0;
};

/// Checks one pass against the schedule: accounting, verdict counts, window
/// F1 against the generator's labels.
Outcome check_pass(const StreamSpec& spec, const Setup& setup, const Pass& pass,
                   const char* label, Result& result) {
  Outcome out;
  out.expected = scheduled_windows(spec, setup.plans);
  const std::string name = label;
  std::unordered_map<std::int64_t, const JobPlan*> plan_of;
  for (const auto& plan : setup.plans) plan_of[plan.job_id] = &plan;
  const auto& s = pass.ingest;
  const std::uint64_t lost = s.dropped_samples + s.duplicate_samples + s.late_samples +
                             s.malformed_samples + pass.shed;
  result.check(pass.balanced, name + ": offered != flushed + dropped + duplicate + late + malformed");
  result.check(lost == 0, name + ": " + std::to_string(lost) + " samples not flushed");
  result.check(pass.score_errors == 0, name + ": score errors");
  result.check(pass.skipped == 0, name + ": skipped windows");

  std::set<std::tuple<std::int64_t, std::int64_t, std::uint64_t>> seen;
  std::uint64_t bad = 0, tp = 0, fp = 0, fn = 0;
  for (const auto& v : pass.verdicts) {
    const auto it = plan_of.find(v.job_id);
    if (it == plan_of.end()) {
      ++bad;
      continue;
    }
    const JobPlan& plan = *it->second;
    const auto node = static_cast<std::size_t>(v.component_id - plan.first_component);
    const auto windows = windows_in(plan.length, spec.window, spec.shape.hop);
    const auto end = plan.start_tick + static_cast<std::int64_t>(v.index * spec.shape.hop +
                                                                 spec.window - 1);
    if (node >= plan.nodes || v.index >= windows || v.end_ts != end ||
        !seen.insert({v.job_id, v.component_id, v.index}).second) {
      ++bad;
      continue;
    }
    const bool truth = plan.node_anomalous(node);
    tp += truth && v.anomalous;
    fp += !truth && v.anomalous;
    fn += truth && !v.anomalous;
  }
  const std::uint64_t missing = out.expected - seen.size();
  result.check(missing == 0 && bad == 0,
               name + ": " + std::to_string(seen.size()) + " good verdicts of " +
                   std::to_string(out.expected) + " expected, " + std::to_string(bad) +
                   " malformed or duplicate");
  const double f1 = f1_score(tp, fp, fn);
  result.check(f1 >= spec.f1_floor, name + ": window F1 " + std::to_string(f1) +
                                        " below floor " + std::to_string(spec.f1_floor));
  std::fprintf(stderr, "perfbench: %s: %zu verdicts, window F1 %.4f (tp %llu fp %llu fn %llu)\n",
               label, pass.verdicts.size(), f1, static_cast<unsigned long long>(tp),
               static_cast<unsigned long long>(fp), static_cast<unsigned long long>(fn));
  out.failed = std::min<std::uint64_t>(out.expected, missing + bad + lost + pass.score_errors +
                                                         pass.skipped);
  return out;
}

/// Two replays of the same frames must score every window identically.
void check_same_scores(const Pass& a, const Pass& b, Result& result) {
  using Key = std::tuple<std::int64_t, std::int64_t, std::uint64_t>;
  std::map<Key, const Verdict*> first;
  for (const auto& v : a.verdicts) first[{v.job_id, v.component_id, v.index}] = &v;
  std::uint64_t differ = 0;
  for (const auto& v : b.verdicts) {
    const auto it = first.find({v.job_id, v.component_id, v.index});
    if (it != first.end() && it->second->score != v.score) ++differ;
  }
  result.check(differ == 0, std::to_string(differ) + " windows scored differently by two replays");
}

/// A seeded sample of windows must match the batch AnalyticsService path on
/// the same raw rows.
void check_batch_parity(const StreamSpec& spec, const Setup& setup, const Pass& a,
                        std::uint64_t seed, Result& result) {
  if (a.verdicts.empty()) return;
  std::unordered_map<std::int64_t, const JobPlan*> plan_of;
  for (const auto& plan : setup.plans) plan_of[plan.job_id] = &plan;
  util::Rng rng(seed ^ 0xa11ce5ULL);
  const double threshold = setup.bundle.detector.threshold();
  std::uint64_t mismatched = 0;
  for (std::size_t s = 0; s < spec.parity_samples; ++s) {
    const Verdict& v = a.verdicts[rng.uniform_index(a.verdicts.size())];
    const JobPlan& plan = *plan_of.at(v.job_id);
    const telemetry::JobTelemetry job = generate_job(plan);
    const auto& series = job.nodes.at(static_cast<std::size_t>(v.component_id - plan.first_component));
    tensor::Matrix raw(spec.window, series.values.cols());
    const std::size_t start = v.index * spec.shape.hop;
    for (std::size_t r = 0; r < spec.window; ++r) raw.set_row(r, series.values.row(start + r));
    const BatchScore batch = batch_score(setup.bundle, raw);
    const double tolerance = 2.0 * batch.tolerance + 1e-12 * std::max(1.0, std::abs(batch.score));
    const bool score_ok = std::abs(v.score - batch.score) <= tolerance;
    const bool near_threshold = std::abs(batch.score - threshold) <= tolerance;
    const bool verdict_ok = near_threshold || v.anomalous == (batch.score > threshold);
    if (!score_ok || !verdict_ok) {
      ++mismatched;
      std::fprintf(stderr, "perfbench: window %lld/%lld#%llu online %.17g batch %.17g tol %.3g\n",
                   static_cast<long long>(v.job_id), static_cast<long long>(v.component_id),
                   static_cast<unsigned long long>(v.index), v.score, batch.score, tolerance);
    }
  }
  result.check(mismatched == 0, std::to_string(mismatched) + " of " +
                                    std::to_string(spec.parity_samples) +
                                    " sampled windows disagree with the batch path");
}

/// Latency of every verdict, from the due time of the frame that completed
/// its window to its publish.
std::vector<double> verdict_latency_ms(const StreamSpec& spec, const Setup& setup,
                                       const Pass& pass) {
  std::unordered_map<std::int64_t, std::size_t> group_of;
  for (const auto& plan : setup.plans) group_of[plan.job_id] = plan.group;
  std::vector<double> out;
  out.reserve(pass.verdicts.size());
  for (const auto& v : pass.verdicts) {
    const auto due = due_at(pass.start, static_cast<double>(v.end_ts), group_of.at(v.job_id),
                            spec.shape.groups, spec.ticks_per_s);
    out.push_back(seconds_between(due, v.at) * 1e3);
  }
  return out;
}

Result run_stream(StreamSpec spec, const Args& args) {
  Result result;
  spec.shape.ticks = static_cast<std::size_t>(spec.paced_share * args.seconds * spec.ticks_per_s);
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

  // Warm-up replay over a prefix: the first pass in a process runs slower.
  replay(spec, *setup, std::min(spec.warm_ticks, spec.shape.ticks), 0.0, false);

  if (args.trace) {
    const Pass plain = replay(spec, *setup, spec.shape.ticks, spec.ticks_per_s, false);
    const Pass traced = replay(spec, *setup, spec.shape.ticks, spec.ticks_per_s, true);
    const Outcome a = check_pass(spec, *setup, plain, "paced", result);
    const Outcome b = check_pass(spec, *setup, traced, "paced-traced", result);
    result.attempted = a.expected + b.expected;
    result.failed = a.failed + b.failed;
    const StreamWalk walk = walk_stream(setup->batches, spec.walk_ticks * spec.shape.groups,
                                        &setup->bundle, spec.window, spec.shape.hop);
    const double plain_p50 = median(verdict_latency_ms(spec, *setup, plain));
    const double traced_p50 = median(verdict_latency_ms(spec, *setup, traced));
    result.add("features.extract_hop_us", walk.extract_hop_us, "us");
    result.add("features.extract_first_us", walk.extract_first_us, "us");
    result.add("features.exact_fallbacks_per_1k", walk.fallbacks_per_1k, "count");
    result.add("deploy.dsos_append_us", walk.append_us, "us");
    result.add("stream.window_push_us", walk.window_push_us, "us");
    result.add("core.transform_us", walk.transform_us, "us");
    result.add("core.score_us", walk.score_us, "us");
    result.add("stream.publish_us", walk.publish_us, "us");
    result.add("stream.ingest_wait_ms_p50", quantile(traced.ingest_wait_ms, 0.5), "ms");
    result.add("stream.ingest_wait_ms_p99", quantile(traced.ingest_wait_ms, 0.99), "ms");
    result.add("stream.score_wait_ms_p50", quantile(traced.score_wait_ms, 0.5), "ms");
    result.add("stream.score_wait_ms_p99", quantile(traced.score_wait_ms, 0.99), "ms");
    result.add("stream.rows_per_flush",
               traced.ingest.flushes > 0 ? static_cast<double>(traced.ingest.flushed_samples) /
                                               static_cast<double>(traced.ingest.flushes)
                                         : 0.0,
               "count");
    result.add("stream.queue_high_water", traced.queue_high_water, "count");
    result.add("load.generator_lag_ms_p99", quantile(traced.lag_ms, 0.99), "ms");
    result.add("deploy.query_job_ms", 0.0, "ms");
    result.add("pipeline.build_ms", 0.0, "ms");
    result.add("core.job_score_ms", 0.0, "ms");
    result.add("comte.explain_ms", 0.0, "ms");
    result.add("deploy.cache_hits", static_cast<double>(util::MetricsRegistry::global()
                                                            .counter("prodigy_deploy_cache_hits_total")
                                                            .value()),
               "count");
    result.add("trace.overhead_pct", 100.0 * (traced_p50 / plain_p50 - 1.0), "%");
    return result;
  }

  // The unpaced replay is short (2-3 s), so it runs three times and the
  // median rate is reported.
  const int unpaced_replays = args.short_mode ? 1 : 3;
  std::vector<Pass> unpaced;
  std::vector<double> rates;
  for (int i = 0; i < unpaced_replays; ++i) {
    unpaced.push_back(replay(spec, *setup, spec.shape.ticks, 0.0, false));
    rates.push_back(static_cast<double>(unpaced.back().samples) / unpaced.back().wall_s);
  }
  const Pass paced = replay(spec, *setup, spec.shape.ticks, spec.ticks_per_s, false);
  for (const Pass& pass : unpaced) {
    const Outcome outcome = check_pass(spec, *setup, pass, "unpaced", result);
    result.attempted += outcome.expected;
    result.failed += outcome.failed;
    check_same_scores(pass, paced, result);
  }
  check_batch_parity(spec, *setup, paced, args.seed, result);
  const Outcome outcome = check_pass(spec, *setup, paced, "paced", result);
  result.attempted += outcome.expected;
  result.failed += outcome.failed;

  const std::vector<double> latency = verdict_latency_ms(spec, *setup, paced);
  std::fprintf(stderr,
               "perfbench: paced %zu ticks at %.0f/s, verdict latency p99 %.3f ms, generator lag "
               "p99 %.3f ms; unpaced %llu samples at %.0f/s (median of %d)\n",
               spec.shape.ticks, spec.ticks_per_s, quantile(latency, 0.99),
               quantile(paced.lag_ms, 0.99),
               static_cast<unsigned long long>(paced.samples), median(rates), unpaced_replays);
  result.add("latency_p50_ms", quantile(latency, 0.5), "ms");
  result.add("cpu_ms_per_result",
             1e3 * paced.cpu_s / static_cast<double>(std::max<std::size_t>(1, paced.verdicts.size())),
             "ms");
  result.add("throughput_per_s", median(rates), "1/s");
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace

Result run_stream_deep(const Args& args) {
  StreamSpec spec;
  spec.window = 1024;
  spec.shape.hop = 16;
  spec.shape.slots = 4;
  spec.shape.nodes_per_job = 2;
  spec.shape.min_length = 1536;
  spec.shape.max_length = 2048;
  spec.shape.max_gap = 32;
  spec.shape.phase_step = 5;
  spec.shape.anomalous_share = 0.5;
  spec.shape.anomalies = anomaly_kinds();
  spec.ticks_per_s = 1000.0;
  spec.train_jobs = 32;
  spec.train_stride = 256;
  spec.recipe.top_k = 64;
  spec.warm_ticks = 1536;
  spec.walk_ticks = 3072;
  if (args.short_mode) {
    spec.ticks_per_s = 4000.0;
    spec.warm_ticks = 0;
    spec.walk_ticks = 1200;
    spec.parity_samples = 4;
  }
  return run_stream(spec, args);
}

Result run_fleet_wide(const Args& args) {
  StreamSpec spec;
  spec.window = 64;
  spec.shape.hop = 16;
  spec.shape.slots = 64;
  spec.shape.nodes_per_job = 4;
  spec.shape.min_length = 448;
  spec.shape.max_length = 576;
  spec.shape.max_gap = 32;
  spec.shape.phase_step = 5;
  spec.shape.groups = 4;  // 16 lanes each, so one lane per group completes windows per tick
  spec.shape.anomalous_share = 0.5;
  spec.shape.anomalies = anomaly_kinds();
  spec.ticks_per_s = 50.0;
  spec.sharded = true;
  spec.train_jobs = 16;
  spec.train_stride = 64;
  spec.recipe.top_k = 1024;
  spec.recipe.epochs = 60;
  spec.warm_ticks = 192;
  spec.walk_ticks = 256;
  if (args.short_mode) {
    spec.shape.slots = 8;
    spec.ticks_per_s = 400.0;
    spec.train_jobs = 8;
    spec.warm_ticks = 0;
    spec.walk_ticks = 128;
    spec.parity_samples = 4;
  }
  return run_stream(spec, args);
}

}  // namespace perfbench
