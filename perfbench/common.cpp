#include "bench.hpp"

#include "deploy/dsos.hpp"
#include "features/incremental_profile.hpp"
#include "features/registry.hpp"
#include "stream/event_bus.hpp"
#include "stream/window.hpp"
#include "telemetry/metrics.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <pthread.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <thread>

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

// ---------------------------------------------------------------- timing

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

void spin_warmup(double seconds) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<double> sink{0.0};
  std::vector<std::thread> workers;
  for (unsigned i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      double x = 1.0 + i;
      while (Clock::now() < deadline) {
        for (int k = 0; k < 100000; ++k) x = x * 1.0000001 + 1e-9;
      }
      sink.store(x, std::memory_order_relaxed);
    });
  }
  for (auto& worker : workers) worker.join();
}

GeneratorPriority::GeneratorPriority() {
  if (pthread_getschedparam(pthread_self(), &policy_, &param_) != 0) return;
  sched_param fifo{};
  fifo.sched_priority = sched_get_priority_min(SCHED_FIFO);
  raised_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &fifo) == 0;
}

GeneratorPriority::~GeneratorPriority() {
  if (raised_) pthread_setschedparam(pthread_self(), policy_, &param_);
}

// ---------------------------------------------------------------- inputs

bool JobPlan::node_anomalous(std::size_t node) const {
  return std::find(bad_nodes.begin(), bad_nodes.end(), node) != bad_nodes.end();
}

std::vector<JobPlan> plan_schedule(const ScheduleShape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<JobPlan> plans;
  std::int64_t next_job = shape.first_job_id;
  for (std::size_t lane = 0; lane < shape.slots; ++lane) {
    auto tick = static_cast<std::int64_t>((lane * shape.phase_step) % shape.hop);
    std::size_t job = 0;
    while (tick < static_cast<std::int64_t>(shape.ticks)) {
      JobPlan plan;
      plan.job_id = next_job++;
      plan.first_component = plan.job_id * 100;
      plan.nodes = shape.nodes_per_job;
      plan.start_tick = tick;
      // Lengths and gaps are whole hops, so a lane keeps its window phase,
      // and they do not depend on the seed: when windows complete and new
      // nodes appear is part of the workload, the seed only changes the
      // telemetry and which jobs are anomalous.
      const std::size_t length =
          shape.min_length +
          shape.hop * ((lane * 7 + job * 3) % ((shape.max_length - shape.min_length) / shape.hop + 1));
      plan.length = std::min<std::size_t>(length, shape.ticks - static_cast<std::size_t>(tick));
      plan.seed = rng();
      plan.group = lane * shape.groups / shape.slots;
      tick += static_cast<std::int64_t>(length);
      tick += static_cast<std::int64_t>(shape.hop * ((lane + job) % (shape.max_gap / shape.hop + 1)));
      ++job;
      plans.push_back(std::move(plan));
    }
  }
  // A fixed share of the jobs, drawn at random, carries anomalies on half
  // its nodes; the kinds take turns so each appears equally often.
  if (!shape.anomalies.empty()) {
    const auto anomalous = static_cast<std::size_t>(
        std::round(shape.anomalous_share * static_cast<double>(plans.size())));
    const auto order = rng.permutation(plans.size());
    for (std::size_t i = 0; i < anomalous; ++i) {
      JobPlan& plan = plans[order[i]];
      plan.anomaly = shape.anomalies[i % shape.anomalies.size()];
      for (std::size_t n = 0; n < plan.nodes; n += 2) plan.bad_nodes.push_back(n);
    }
  }
  return plans;
}

telemetry::JobTelemetry generate_job(const JobPlan& plan) {
  telemetry::RunConfig config;
  config.app = telemetry::application_by_name("LAMMPS");
  config.job_id = plan.job_id;
  config.num_nodes = plan.nodes;
  config.duration_s = static_cast<double>(plan.length);
  config.seed = plan.seed;
  config.anomaly = plan.anomaly;
  config.anomalous_nodes = plan.bad_nodes;
  config.first_component_id = plan.first_component;
  return telemetry::generate_run(config);
}

std::vector<stream::SampleBatch> batches_for(const std::vector<JobPlan>& plans,
                                             std::size_t ticks, std::size_t groups) {
  std::vector<stream::SampleBatch> batches(ticks * groups);
  for (std::size_t f = 0; f < batches.size(); ++f) batches[f].sequence = f;
  // Generate in chunks across the pool so the raw jobs never all sit in
  // memory next to the frames built from them.
  constexpr std::size_t kChunk = 32;
  for (std::size_t lo = 0; lo < plans.size(); lo += kChunk) {
    const std::size_t hi = std::min(plans.size(), lo + kChunk);
    std::vector<telemetry::JobTelemetry> jobs(hi - lo);
    util::parallel_for(lo, hi, [&](std::size_t i) { jobs[i - lo] = generate_job(plans[i]); });
    for (std::size_t i = lo; i < hi; ++i) {
      const auto& job = jobs[i - lo];
      for (const auto& node : job.nodes) {
        for (std::size_t r = 0; r < node.values.rows(); ++r) {
          const auto tick = static_cast<std::size_t>(plans[i].start_tick) + r;
          if (tick >= ticks) break;
          stream::SampleRow row;
          row.job_id = node.job_id;
          row.component_id = node.component_id;
          row.timestamp = static_cast<std::int64_t>(tick);
          row.app = node.app;
          const auto values = node.values.row(r);
          row.values.assign(values.begin(), values.end());
          batches[tick * groups + plans[i].group].rows.push_back(std::move(row));
        }
      }
    }
  }
  return batches;
}

std::uint64_t windows_in(std::size_t rows, std::size_t window, std::size_t hop) {
  return rows < window ? 0 : (rows - window) / hop + 1;
}

std::vector<hpas::AnomalySpec> anomaly_kinds() {
  const auto table2 = hpas::table2_configurations();
  // membw -s 32K and memleak -s 10M -p 1.  Under this training recipe
  // cachecopy was flagged in 0.4-2.5% of its 64- or 1024-sample windows and
  // cpuoccupy in as few as 6% (W=64), so verdicts on them could not be
  // graded.
  return {table2[6], table2[9]};
}

TimingSink::TimingSink(stream::RowSink* next, const std::vector<Clock::time_point>& offered,
                       const std::vector<JobPlan>& plans)
    : next_(next), offered_(offered), plans_(plans) {
  for (std::size_t i = 0; i < plans.size(); ++i) {
    plan_of_[plans[i].job_id] = i;
    arrivals_.emplace_back(plans[i].nodes, std::vector<Clock::time_point>(plans[i].length));
  }
}

void TimingSink::on_rows(std::int64_t job_id, std::int64_t component_id,
                         const std::string& app, std::span<const std::int64_t> timestamps,
                         const tensor::Matrix& rows) {
  const auto now = Clock::now();
  const std::size_t p = plan_of_.at(job_id);
  const JobPlan& plan = plans_[p];
  auto& node = arrivals_[p].at(static_cast<std::size_t>(component_id - plan.first_component));
  for (const auto ts : timestamps) {
    ingest_wait_ms_.push_back(seconds_between(offered_.at(static_cast<std::size_t>(ts)), now) * 1e3);
    node.at(static_cast<std::size_t>(ts - plan.start_tick)) = now;
  }
  if (next_ != nullptr) next_->on_rows(job_id, component_id, app, timestamps, rows);
}

Clock::time_point TimingSink::arrival(std::int64_t job_id, std::int64_t component_id,
                                      std::int64_t ts) const {
  const std::size_t p = plan_of_.at(job_id);
  const JobPlan& plan = plans_[p];
  return arrivals_[p]
      .at(static_cast<std::size_t>(component_id - plan.first_component))
      .at(static_cast<std::size_t>(ts - plan.start_tick));
}

// ---------------------------------------------------------------- training

core::ProdigyConfig model_config(const TrainRecipe& recipe) {
  core::ProdigyConfig config;
  config.vae.encoder_hidden = {24, 8};
  config.vae.latent_dim = 3;
  config.train.epochs = recipe.epochs;
  config.train.batch_size = 16;
  config.train.learning_rate = 2e-3;
  config.train.validation_split = 0.0;
  config.train.early_stopping_patience = 0;
  return config;
}

double f1_score(std::uint64_t tp, std::uint64_t fp, std::uint64_t fn) {
  const double denom = 2.0 * static_cast<double>(tp) + static_cast<double>(fp + fn);
  return denom > 0.0 ? 2.0 * static_cast<double>(tp) / denom : 0.0;
}

// ---------------------------------------------------------------- walks

namespace {

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

StreamWalk walk_stream(const std::vector<stream::SampleBatch>& batches,
                       std::size_t frames, const core::ModelBundle* bundle,
                       std::size_t window, std::size_t hop) {
  StreamWalk walk;
  on_pool_worker([&] {
    const std::size_t cols = telemetry::metric_count();
    std::vector<features::ColumnKind> kinds;
    for (const auto& spec : telemetry::metric_catalog()) {
      kinds.push_back(spec.kind == telemetry::MetricKind::Counter
                          ? features::ColumnKind::kCounter
                          : features::ColumnKind::kGauge);
    }
    features::IncrementalConfig inc;
    inc.window = window;
    inc.hop = hop;
    struct Node {
      Node(std::size_t w, std::size_t h, std::size_t c) : state(w, h, c) {}
      stream::WindowState state;
      std::unique_ptr<features::IncrementalNodeExtractor> extractor;
      bool first_done = false;
    };
    std::map<std::pair<std::int64_t, std::int64_t>, std::unique_ptr<Node>> nodes;
    deploy::DsosStore store;
    stream::EventBus bus;
    // One subscriber, as in a deployment; the walk needs nothing from it.
    bus.subscribe([](const stream::VerdictEvent&) {});

    auto& fallbacks = util::MetricsRegistry::global().counter(
        "prodigy_features_incremental_exact_fallbacks_total");
    const std::uint64_t fallbacks_before = fallbacks.value();
    std::vector<double> append, push, first, hop_us, transform, score, publish;
    std::vector<double> feats(cols * features::features_per_metric());
    tensor::Matrix X(1, feats.size());
    struct Ready {
      Node* node;
      const stream::SampleRow* row;
      stream::WindowSpan span;
      tensor::Matrix delta;
    };
    std::vector<Ready> ready;

    for (std::size_t f = 0; f < std::min(frames, batches.size()); ++f) {
      const auto& batch = batches[f];
      // Store layer: one single-row append per node-tick, as a paced flush
      // issues them.
      for (const auto& row : batch.rows) {
        telemetry::NodeSeries delta;
        delta.job_id = row.job_id;
        delta.component_id = row.component_id;
        delta.app = row.app;
        delta.values = tensor::Matrix(1, cols);
        delta.values.set_row(0, row.values);
        const auto a = Clock::now();
        store.append_node(delta);
        append.push_back(micros(a, Clock::now()));
      }
      if (bundle == nullptr) continue;
      // Window layer, timed per frame (a single push is too short to time).
      ready.clear();
      std::vector<Node*> frame_nodes;
      for (const auto& row : batch.rows) {
        auto& slot = nodes[{row.job_id, row.component_id}];
        if (!slot) {
          slot = std::make_unique<Node>(window, hop, cols);
          slot->extractor =
              std::make_unique<features::IncrementalNodeExtractor>(cols, kinds, inc);
        }
        frame_nodes.push_back(slot.get());
      }
      const auto p = Clock::now();
      for (std::size_t i = 0; i < batch.rows.size(); ++i) {
        Node& node = *frame_nodes[i];
        node.state.push_row(batch.rows[i].timestamp, batch.rows[i].values);
        while (node.state.ready()) {
          Ready r{&node, &batch.rows[i], {}, {}};
          r.span = node.state.pop_delta(r.delta);
          ready.push_back(std::move(r));
        }
      }
      if (!batch.rows.empty()) {
        push.push_back(micros(p, Clock::now()) / static_cast<double>(batch.rows.size()));
      }
      // Scoring layers, per window.
      for (auto& r : ready) {
        const auto h0 = Clock::now();
        const bool full = r.node->extractor->absorb_and_extract(r.delta, feats);
        const auto h1 = Clock::now();
        if (!full) continue;
        (r.node->first_done ? hop_us : first).push_back(micros(h0, h1));
        r.node->first_done = true;
        X.set_row(0, feats);
        const auto s0 = Clock::now();
        const tensor::Matrix input = bundle->transform_full(X);
        const auto s1 = Clock::now();
        const auto scores = bundle->detector.score(input);
        const auto s2 = Clock::now();
        stream::VerdictEvent event;
        event.job_id = r.row->job_id;
        event.component_id = r.row->component_id;
        event.app = r.row->app;
        event.window_index = r.span.index;
        event.window_start_ts = r.span.start_ts;
        event.window_end_ts = r.span.end_ts;
        event.score = scores.at(0);
        event.threshold = bundle->detector.threshold();
        event.anomalous = event.score > event.threshold;
        const auto s3 = Clock::now();
        bus.publish(event);
        const auto s4 = Clock::now();
        transform.push_back(micros(s0, s1));
        score.push_back(micros(s1, s2));
        publish.push_back(micros(s3, s4));
      }
    }
    const double metric_windows =
        static_cast<double>(first.size() + hop_us.size()) * static_cast<double>(cols);
    walk.append_us = mean(append);
    walk.window_push_us = mean(push);
    walk.extract_first_us = mean(first);
    walk.extract_hop_us = mean(hop_us);
    walk.fallbacks_per_1k =
        metric_windows > 0
            ? 1000.0 * static_cast<double>(fallbacks.value() - fallbacks_before) / metric_windows
            : 0.0;
    walk.transform_us = mean(transform);
    walk.score_us = mean(score);
    walk.publish_us = mean(publish);
  });
  return walk;
}

}  // namespace perfbench
