#include "stream/online_scorer.hpp"

#include "features/feature_matrix.hpp"
#include "telemetry/metrics.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

#include <exception>
#include <utility>

namespace prodigy::stream {

pipeline::PreprocessOptions streaming_preprocess_defaults() {
  pipeline::PreprocessOptions options;
  options.trim_seconds = 0.0;
  options.interpolate = true;
  options.diff_counters = true;
  options.min_timestamps = 8;
  return options;
}

OnlineScorer::OnlineScorer(core::ModelBundle bundle, EventBus& bus,
                           OnlineScorerConfig config)
    : bundle_(std::move(bundle)), bus_(bus), config_(config) {
  if (config_.window == 0 || config_.hop == 0) {
    throw std::invalid_argument("OnlineScorer: window and hop must be > 0");
  }
  // Opt-in reduced-precision scoring: rebuild the owned bundle copy's fused
  // VAE plan before any window is scored.  Only this scorer's copy changes;
  // the caller's bundle keeps its own (default Full, bit-exact) plan.
  if (config_.inference_precision) {
    bundle_.detector.set_inference_precision(*config_.inference_precision);
  }
  for (const auto& spec : telemetry::metric_catalog()) {
    col_kinds_.push_back(spec.kind == telemetry::MetricKind::Counter
                             ? features::ColumnKind::kCounter
                             : features::ColumnKind::kGauge);
  }

  // The incremental path needs overlapping windows to have anything to
  // reuse, a window large enough to profile, and window-local trimming off
  // (a trimmed window is not a suffix of the stream, so deltas can't feed
  // it).  Anything else silently runs the batch-exact full recompute.
  extraction_ = config_.extraction;
  if (extraction_ == ExtractionMode::kIncremental &&
      (config_.hop >= config_.window || config_.window < 2 ||
       config_.preprocess.trim_seconds != 0.0)) {
    extraction_ = ExtractionMode::kFullRecompute;
  }

  plan_ = bundle_.scoring_plan();
  if (config_.model_provider != nullptr) {
    lease_plan(config_.model_provider->acquire());
  }

  auto& registry = util::MetricsRegistry::global();
  scored_total_ = &registry.counter("prodigy_stream_windows_scored_total");
  errors_total_ = &registry.counter("prodigy_stream_score_errors_total");
  skipped_total_ = &registry.counter("prodigy_stream_windows_skipped_total");
  score_seconds_ = &registry.histogram("prodigy_stream_window_score_seconds");
  if (!config_.metrics_scope.empty()) {
    const std::string prefix = "prodigy_stream_" + config_.metrics_scope;
    scoped_scored_ = &registry.counter(prefix + "_windows_scored_total");
    scoped_latency_ = &registry.histogram(prefix + "_window_score_seconds");
  }
}

OnlineScorer::~OnlineScorer() { drain(); }

std::shared_ptr<const features::ScoringPlan> OnlineScorer::lease_plan(
    const ModelProvider::Lease& lease) {
  std::lock_guard lock(lease_plan_mutex_);
  if (lease.generation != lease_generation_) {  // providers bump it per swap
    lease_plan_ = lease.bundle->scoring_plan();
    lease_generation_ = lease.generation;
  }
  return lease_plan_;
}

util::ThreadPool& OnlineScorer::pool() const noexcept {
  return config_.pool != nullptr ? *config_.pool : util::ThreadPool::global();
}

void OnlineScorer::on_rows(std::int64_t job_id, std::int64_t component_id,
                           const std::string& app,
                           std::span<const std::int64_t> timestamps,
                           const tensor::Matrix& rows) {
  const bool incremental = extraction_ == ExtractionMode::kIncremental;
  auto& slot = nodes_[{job_id, component_id}];
  if (!slot) {
    slot = std::make_unique<NodeState>(job_id, component_id, config_.window,
                                       config_.hop, rows.cols());
  }
  NodeState& node = *slot;

  // Push row-by-row, draining ready windows eagerly so the ring buffer never
  // overwrites an unemitted window (see WindowState::pop).  The incremental
  // mode drains the delta form: only the hop's new rows travel to the
  // scoring task; the extractor holds the rest of the window as state.
  std::vector<PendingWindow> ready;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    node.state.push_row(timestamps[r], rows.row(r));
    while (node.state.ready()) {
      PendingWindow window;
      window.span = incremental ? node.state.pop_delta(window.values)
                                : node.state.pop(window.values);
      window.app = app;
      ready.push_back(std::move(window));
    }
  }
  if (ready.empty()) return;

  {
    std::lock_guard lock(drain_mutex_);
    in_flight_ += ready.size();
  }
  bool spawn = false;
  {
    std::lock_guard lock(node.task_mutex);
    for (auto& window : ready) node.pending.push_back(std::move(window));
    if (!node.task_active) {
      node.task_active = true;
      spawn = true;
    }
  }
  if (spawn) {
    // One task per node drains that node's queue in order: per-node verdicts
    // stay sequential (debouncing needs that) while nodes run concurrently.
    pool().submit([this, &node] { run_node_tasks(node); });
  }
}

void OnlineScorer::run_node_tasks(NodeState& node) {
  for (;;) {
    PendingWindow window;
    {
      std::lock_guard lock(node.task_mutex);
      if (node.pending.empty()) {
        node.task_active = false;
        // in_flight_ already hit zero for this node's windows; nothing to
        // decrement (this path is only reachable on a spurious respawn).
        return;
      }
      window = std::move(node.pending.front());
      node.pending.pop_front();
    }
    score_window(node, window);
    // Decide whether to continue BEFORE releasing the drain count: once
    // in_flight_ hits zero, drain() returns and the destructor may free
    // `node`, so the decrement must be this task's last touch of any state.
    bool more;
    {
      std::lock_guard lock(node.task_mutex);
      more = !node.pending.empty();
      if (!more) node.task_active = false;
    }
    {
      std::lock_guard lock(drain_mutex_);
      if (--in_flight_ == 0) drain_cv_.notify_all();
    }
    if (!more) return;
  }
}

void OnlineScorer::score_window(NodeState& node, PendingWindow& window) {
  util::Timer timer;
  try {
    // One lease covers the whole window: the extraction plan, scoring,
    // threshold, and the verdict all come from the same (bundle,
    // generation) pair even if the provider hot-swaps concurrently.
    // Without a provider the owned frozen bundle is used and verdicts carry
    // generation 0 — exactly the pre-adaptation behavior.
    ModelProvider::Lease lease;
    const core::ModelBundle* bundle = &bundle_;
    std::shared_ptr<const features::ScoringPlan> plan = plan_;
    if (config_.model_provider != nullptr) {
      lease = config_.model_provider->acquire();
      bundle = lease.bundle.get();
      plan = lease_plan(lease);
    }
    // The plan writes the model-input row straight into a 1 x F matrix
    // whose capacity is reused per worker thread.
    thread_local tensor::Matrix X;
    X.resize_for_overwrite(1, plan->output_size());
    const std::span<double> row(X.data(), plan->output_size());
    if (extraction_ == ExtractionMode::kIncremental) {
      if (!node.extractor) {
        features::IncrementalConfig inc;
        inc.window = config_.window;
        inc.hop = config_.hop;
        inc.interpolate = config_.preprocess.interpolate;
        inc.diff_counters = config_.preprocess.diff_counters;
        node.extractor = std::make_unique<features::IncrementalNodeExtractor>(
            col_kinds_, inc, plan);
      } else if (&node.extractor->plan() != plan.get()) {
        node.extractor->set_plan(plan);
      }
      if (!node.extractor->absorb_and_extract(window.values, row)) {
        // Still refilling after an error-recovery reset: the rolling state
        // does not cover a full window yet, so no verdict can be produced.
        windows_skipped_.fetch_add(1, std::memory_order_relaxed);
        skipped_total_->increment();
        return;
      }
    } else {
      features::extract_node_features(
          pipeline::preprocess_node(window.values, config_.preprocess),
          *plan, row);
    }
    const auto scores = bundle->detector.score(X);

    VerdictEvent event;
    event.job_id = node.job_id;
    event.component_id = node.component_id;
    event.app = window.app;
    event.window_index = window.span.index;
    event.window_start_ts = window.span.start_ts;
    event.window_end_ts = window.span.end_ts;
    event.score = scores.at(0);
    event.threshold = bundle->detector.threshold();
    event.anomalous = event.score > event.threshold;
    event.model_generation = lease.generation;

    windows_scored_.fetch_add(1, std::memory_order_relaxed);
    scored_total_->increment();
    const double seconds = timer.elapsed_seconds();
    score_seconds_->observe(seconds);
    if (scoped_scored_ != nullptr) {
      scoped_scored_->increment();
      scoped_latency_->observe(seconds);
    }
    bus_.publish(event);
    if (config_.model_provider != nullptr) {
      // Feedback after publish: the verdict is already on the wire, so even
      // a synchronous swap triggered here only affects the NEXT window.
      config_.model_provider->on_verdict(event, row);
    }
  } catch (const std::exception& e) {
    // A daemon must survive one malformed window (e.g. a frame width that
    // does not match the bundle's feature space); count it and move on.
    score_errors_.fetch_add(1, std::memory_order_relaxed);
    errors_total_->increment();
    util::log_warn("OnlineScorer: window ", window.span.index, " of node ",
                   node.job_id, "/", node.component_id, " failed: ", e.what());
    if (node.extractor) {
      // The failed window's rows may be missing from (or half-absorbed
      // into) the rolling state; drop it and refill from the next deltas.
      node.extractor->reset();
    }
  }
}

void OnlineScorer::drain() {
  std::unique_lock lock(drain_mutex_);
  drain_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

}  // namespace prodigy::stream
