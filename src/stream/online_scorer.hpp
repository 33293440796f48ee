// Online scoring (the continuous half of the paper's Fig. 4 loop): consumes
// flushed telemetry rows from the StreamIngestor, maintains one sliding
// WindowState per (job, component), and scores every full window — raw
// window -> preprocess -> planned extraction -> VAE -> verdict — publishing
// one VerdictEvent per window to the EventBus.  Extraction runs through the
// model's ScoringPlan (features/scoring_plan.hpp): only the selected
// features are computed, already selected and scaled, so the model-input
// row is bit-identical to extract_node_features + ModelBundle::transform_full.
//
// Scoring fans out across the shared ThreadPool with *per-node ordering*:
// each node's windows are scored and published in window order by a single
// chained task (so debouncing sees a coherent sequence), while different
// nodes score concurrently.  Feature extraction reuses the thread_local
// FeatureScratch hot path, so steady-state scoring allocates almost nothing.
#pragma once

#include "core/model_trainer.hpp"
#include "features/incremental_profile.hpp"
#include "pipeline/preprocess.hpp"
#include "stream/event_bus.hpp"
#include "stream/ingestor.hpp"
#include "stream/model_provider.hpp"
#include "stream/window.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

namespace prodigy::stream {

/// Streaming preprocessing defaults: identical cleaning to the batch path
/// (interpolate lost readings, difference counters) but no boundary trim —
/// a W-row window is already inside the steady phase of the run.
pipeline::PreprocessOptions streaming_preprocess_defaults();

/// How each ready window is turned into a feature vector.
enum class ExtractionMode : std::uint8_t {
  /// Batch semantics per window: materialize all W rows, preprocess_node,
  /// extract_node_features.  O(W log W) per metric per hop.
  kFullRecompute,
  /// Rolling per-(node, metric) state absorbs only the hop's new rows
  /// (features/incremental_profile.hpp).  Falls back to kFullRecompute
  /// automatically when the configuration defeats reuse (hop >= window) or
  /// requires whole-window preprocessing (trim_seconds != 0).
  kIncremental,
};

struct OnlineScorerConfig {
  std::size_t window = 64;  // W: rows per scored window
  std::size_t hop = 16;     // H: rows between window starts
  pipeline::PreprocessOptions preprocess = streaming_preprocess_defaults();
  ExtractionMode extraction = ExtractionMode::kIncremental;
  util::ThreadPool* pool = nullptr;  // nullptr -> util::ThreadPool::global()
  /// When non-empty (e.g. "shard3"), per-window latency and count are also
  /// recorded under scoped metric names
  /// (prodigy_stream_<scope>_window_score_seconds, ..._windows_scored_total)
  /// so a sharded deployment exposes per-shard p50/p99 next to the fleet
  /// totals.
  std::string metrics_scope;
  /// When set, the scorer's owned bundle copy rebuilds its fused VAE
  /// inference plan at this precision (nn::PlanPrecision::Bf16/Int8 are the
  /// opt-in reduced-precision modes; unset keeps the bundle's default,
  /// bit-exact Full plan).  Requires a fitted bundle.
  std::optional<nn::PlanPrecision> inference_precision;
  /// Online adaptation hook.  When set, every window is scored through a
  /// lease acquired from the provider for exactly that window (the swap is
  /// atomic per window — no torn model), verdicts carry the lease's
  /// generation, and each published verdict is fed back via on_verdict().
  /// Must outlive the scorer.  Null (the default) keeps the scorer's owned
  /// frozen bundle and generation 0 — behavior bit-identical to a build
  /// without adaptation.  `inference_precision` only applies to the owned
  /// bundle, never to provider leases.
  ModelProvider* model_provider = nullptr;
};

class OnlineScorer : public RowSink {
 public:
  /// Owns a copy of the bundle; `bus` must outlive the scorer.  Throws
  /// std::invalid_argument when the bundle (or, with a provider, the
  /// current lease's bundle) is inconsistent (ModelBundle::scoring_plan).
  OnlineScorer(core::ModelBundle bundle, EventBus& bus,
               OnlineScorerConfig config = {});
  ~OnlineScorer() override;

  OnlineScorer(const OnlineScorer&) = delete;
  OnlineScorer& operator=(const OnlineScorer&) = delete;

  /// RowSink: called on the ingestor's consumer thread.
  void on_rows(std::int64_t job_id, std::int64_t component_id,
               const std::string& app,
               std::span<const std::int64_t> timestamps,
               const tensor::Matrix& rows) override;

  /// Blocks until every scheduled window has been scored and published.
  /// Call after StreamIngestor::stop() to observe the complete alert stream.
  void drain();

  std::uint64_t windows_scored() const noexcept {
    return windows_scored_.load(std::memory_order_relaxed);
  }
  std::uint64_t score_errors() const noexcept {
    return score_errors_.load(std::memory_order_relaxed);
  }
  /// Windows dropped while an incremental extractor refills after an
  /// error-recovery reset (no verdict is published for them).
  std::uint64_t windows_skipped() const noexcept {
    return windows_skipped_.load(std::memory_order_relaxed);
  }
  const OnlineScorerConfig& config() const noexcept { return config_; }
  /// The mode actually in effect (kIncremental may auto-fall back; see
  /// ExtractionMode).
  ExtractionMode extraction_mode() const noexcept { return extraction_; }
  const core::ModelBundle& bundle() const noexcept { return bundle_; }

 private:
  struct PendingWindow {
    WindowSpan span;
    // kFullRecompute: the raw (window x cols) rows.  kIncremental: only the
    // rows new since the previous emission (pop_delta).
    tensor::Matrix values;
    std::string app;
  };

  struct NodeState {
    NodeState(std::int64_t job, std::int64_t component, std::size_t window,
              std::size_t hop, std::size_t cols)
        : job_id(job), component_id(component), state(window, hop, cols) {}
    const std::int64_t job_id;
    const std::int64_t component_id;
    WindowState state;  // ingestor-consumer-thread only

    // Created by this node's first scoring task and touched only by its
    // single chained task.  Null in full mode.
    std::unique_ptr<features::IncrementalNodeExtractor> extractor;

    std::mutex task_mutex;  // guards pending + task_active
    std::deque<PendingWindow> pending;
    bool task_active = false;
  };

  void run_node_tasks(NodeState& node);
  void score_window(NodeState& node, PendingWindow& window);
  /// The plan of a provider lease, rebuilt when the generation changes.
  std::shared_ptr<const features::ScoringPlan> lease_plan(
      const ModelProvider::Lease& lease);
  util::ThreadPool& pool() const noexcept;

  core::ModelBundle bundle_;
  EventBus& bus_;
  OnlineScorerConfig config_;
  ExtractionMode extraction_ = ExtractionMode::kFullRecompute;
  std::shared_ptr<const features::ScoringPlan> plan_;  // the owned bundle's

  std::mutex lease_plan_mutex_;  // guards the two lease-plan fields
  std::uint64_t lease_generation_ = 0;
  std::shared_ptr<const features::ScoringPlan> lease_plan_;

  // Registry-owned instrumentation, resolved once so the hot path stays
  // atomic bumps.  The scoped pair is null when metrics_scope is empty.
  util::Counter* scored_total_ = nullptr;
  util::Counter* errors_total_ = nullptr;
  util::Counter* skipped_total_ = nullptr;
  util::Histogram* score_seconds_ = nullptr;
  util::Counter* scoped_scored_ = nullptr;
  util::Histogram* scoped_latency_ = nullptr;
  std::vector<features::ColumnKind> col_kinds_;  // the catalog's, for features

  // Touched only on the ingestor consumer thread; node addresses are stable
  // so scoring tasks can hold references across map growth.
  std::map<std::pair<std::int64_t, std::int64_t>, std::unique_ptr<NodeState>>
      nodes_;

  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::size_t in_flight_ = 0;  // windows scheduled but not yet published

  std::atomic<std::uint64_t> windows_scored_{0};
  std::atomic<std::uint64_t> score_errors_{0};
  std::atomic<std::uint64_t> windows_skipped_{0};
};

}  // namespace prodigy::stream
