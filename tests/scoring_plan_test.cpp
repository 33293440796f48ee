// ScoringPlan oracles.  Extraction through a plan must equal full extraction
// followed by column selection and Scaler::transform, bit for bit: on the
// incremental engine (>= 200-hop replays with gaps, NaN/Inf and counters),
// on the batch engine, and through both OnlineScorer modes, including model
// hot-swaps.  Also covered: the bundle-consistency checks, frame-width
// mismatches, refill after an error reset, and the scorer's cached metric
// handles.
#include "core/model_trainer.hpp"
#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "features/chi_square.hpp"
#include "features/feature_matrix.hpp"
#include "features/incremental_profile.hpp"
#include "features/scoring_plan.hpp"
#include "pipeline/data_pipeline.hpp"
#include "pipeline/preprocess.hpp"
#include "stream/event_bus.hpp"
#include "stream/online_scorer.hpp"
#include "util/metrics.hpp"
#include "util/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <vector>

namespace {

using namespace prodigy;
using features::ColumnKind;
using features::IncrementalConfig;
using features::IncrementalNodeExtractor;
using features::ScoringPlan;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::size_t per_metric() { return features::features_per_metric(); }

void expect_bits_equal(std::span<const double> got, std::span<const double> want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << context << " output " << i << ": " << got[i] << " vs " << want[i];
  }
}

pipeline::Scaler fitted_scaler(std::size_t width, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  tensor::Matrix X(6, width);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      X(r, c) = noise(rng) * static_cast<double>(c % 7 + 1) + static_cast<double>(c % 5);
    }
  }
  pipeline::Scaler scaler(pipeline::ScalerKind::MinMax);
  scaler.fit(X);
  return scaler;
}

std::shared_ptr<const ScoringPlan> make_plan(std::size_t metrics,
                                             const std::vector<std::size_t>& selected,
                                             const pipeline::Scaler& scaler) {
  return std::make_shared<const ScoringPlan>(metrics, selected, scaler.offsets(),
                                             scaler.scales());
}

/// The pre-plan model input: select the columns, then Scaler::transform.
std::vector<double> select_and_scale(std::span<const double> full,
                                     const std::vector<std::size_t>& selected,
                                     const pipeline::Scaler& scaler) {
  tensor::Matrix X(1, full.size());
  X.set_row(0, full);
  const tensor::Matrix out = scaler.transform(X.select_columns(selected));
  return {out.data(), out.data() + out.cols()};
}

// ---------------------------------------------------------------------------
// Selections

struct Selection {
  std::string name;
  std::vector<std::size_t> columns;
};

/// The chi-square top-64 shape of the stream bundle: 64 distinct columns
/// over 12 of the frame's metrics, in selection (not column) order.
std::vector<std::size_t> top64_shape(std::size_t metrics, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> picks(metrics);
  std::iota(picks.begin(), picks.end(), std::size_t{0});
  std::shuffle(picks.begin(), picks.end(), rng);
  picks.resize(12);
  std::vector<std::size_t> columns;
  std::set<std::size_t> seen;
  for (std::size_t i = 0; columns.size() < 64; ++i) {
    const std::size_t column =
        picks[i % picks.size()] * per_metric() + rng() % per_metric();
    if (seen.insert(column).second) columns.push_back(column);
  }
  return columns;
}

std::vector<Selection> selections(std::size_t metrics) {
  std::vector<Selection> out;
  out.push_back({"top64", top64_shape(metrics, 7)});
  for (const auto& group : features::feature_groups()) {
    Selection s{"group_" + group.name, {}};
    for (std::size_t m = 0; m < 3; ++m) {  // a walk, a counter, a spiky gauge
      for (std::size_t i = 0; i < group.count; ++i) {
        s.columns.push_back(m * per_metric() + group.first + i);
      }
    }
    out.push_back(std::move(s));
  }
  const std::size_t F = per_metric();
  out.push_back({"duplicate", {5, 5, F + 3, 5, 2 * F + 40, F + 3}});
  Selection all{"all", std::vector<std::size_t>(metrics * F)};
  std::iota(all.columns.begin(), all.columns.end(), std::size_t{0});
  out.push_back(std::move(all));
  return out;
}

// ---------------------------------------------------------------------------
// Incremental replays

constexpr std::size_t kCols = 16;

std::vector<ColumnKind> replay_kinds() {
  std::vector<ColumnKind> kinds(kCols, ColumnKind::kGauge);
  for (std::size_t c = 1; c < kCols; c += 4) kinds[c] = ColumnKind::kCounter;
  return kinds;
}

/// 16 columns: random-walk gauges, counters (one with a reset), spiky and
/// periodic gauges, plus single-row NaN gaps, a NaN run in a counter, Inf
/// spikes, and a gap longer than the largest window.
tensor::Matrix make_replay(std::size_t rows, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  tensor::Matrix m(rows, kCols);
  std::vector<double> level(kCols, 10.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      switch (c % 4) {
        case 0:
          level[c] += noise(rng) * 0.5;
          m(r, c) = level[c];
          break;
        case 1:
          level[c] += 2.0 + std::abs(noise(rng)) * static_cast<double>(c);
          m(r, c) = level[c];
          break;
        case 2:
          m(r, c) = uni(rng) < 0.05 ? 25.0 + noise(rng) : 0.0;
          break;
        default:
          m(r, c) = c == 3 ? 0.1
                           : std::sin(static_cast<double>(r * c) * 0.05) +
                                 0.1 * noise(rng);
      }
    }
  }
  for (std::size_t r = 150; r < rows; r += 233) m(r, 0) = kNaN;
  for (std::size_t r = 400; r < std::min<std::size_t>(rows, 409); ++r) m(r, 5) = kNaN;
  for (std::size_t r = 700; r < rows; r += 511) m(r, 2) = kInf;
  if (rows > 1300) m(1300, 9) = 0.0;  // counter reset
  for (std::size_t r = 2000; r < std::min<std::size_t>(rows, 3100); ++r) {
    m(r, 6) = kNaN;
  }
  return m;
}

/// First the window, then hops of H with an occasional 1-row or 2H delta.
std::vector<std::size_t> chunk_schedule(std::size_t window, std::size_t hop,
                                        std::size_t hops) {
  std::vector<std::size_t> chunks{window};
  for (std::size_t i = 0; i < hops; ++i) {
    chunks.push_back(i % 13 == 7 ? 1 : i % 17 == 3 ? 2 * hop : hop);
  }
  return chunks;
}

std::vector<std::vector<double>> replay(IncrementalNodeExtractor& extractor,
                                        const tensor::Matrix& data,
                                        std::span<const std::size_t> chunks,
                                        std::size_t& fed, std::size_t width) {
  std::vector<std::vector<double>> outputs;
  std::vector<double> out(width);
  for (const std::size_t chunk : chunks) {
    if (extractor.absorb_and_extract(data.slice_rows(fed, chunk), out)) {
      outputs.push_back(out);
    }
    fed += chunk;
  }
  return outputs;
}

IncrementalConfig replay_config(std::size_t window) {
  IncrementalConfig config;
  config.window = window;
  config.hop = 16;
  return config;
}

class PlannedIncrementalTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlannedIncrementalTest, MatchesFullThenSelectAndScale) {
  const std::size_t window = GetParam();
  const auto config = replay_config(window);
  const auto chunks = chunk_schedule(window, config.hop, 210);
  const auto data =
      make_replay(std::accumulate(chunks.begin(), chunks.end(), std::size_t{0}), 11);

  IncrementalNodeExtractor full(kCols, replay_kinds(), config);
  std::size_t fed = 0;
  const auto want = replay(full, data, chunks, fed, kCols * per_metric());
  ASSERT_GE(want.size(), 200u);
  EXPECT_GT(full.stats().exact_fallbacks, 0u);

  for (const auto& selection : selections(kCols)) {
    SCOPED_TRACE(selection.name);
    const auto scaler = fitted_scaler(selection.columns.size(), window);
    IncrementalNodeExtractor planned(replay_kinds(), config,
                                     make_plan(kCols, selection.columns, scaler));
    fed = 0;
    const auto got = replay(planned, data, chunks, fed, selection.columns.size());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t w = 0; w < got.size(); ++w) {
      expect_bits_equal(got[w], select_and_scale(want[w], selection.columns, scaler),
                        "window " + std::to_string(w));
      if (HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, PlannedIncrementalTest,
                         ::testing::Values(64, 256, 1024));

TEST(PlannedIncrementalSwapTest, SetPlanKeepingSelectionStaysBitIdentical) {
  // A refit generation keeps the selection and changes only the scaler: the
  // rolling state carries over untouched.
  const auto config = replay_config(256);
  const auto chunks = chunk_schedule(256, 16, 200);
  const auto data =
      make_replay(std::accumulate(chunks.begin(), chunks.end(), std::size_t{0}), 12);
  const auto selection = top64_shape(kCols, 3);
  const auto before = fitted_scaler(64, 1);
  const auto after = fitted_scaler(64, 2);

  IncrementalNodeExtractor full(kCols, replay_kinds(), config);
  IncrementalNodeExtractor planned(replay_kinds(), config,
                                   make_plan(kCols, selection, before));
  const std::span<const std::size_t> all(chunks);
  std::size_t fed_full = 0, fed_planned = 0;
  const auto want1 = replay(full, data, all.first(100), fed_full, kCols * per_metric());
  const auto got1 = replay(planned, data, all.first(100), fed_planned, 64);
  planned.set_plan(make_plan(kCols, selection, after));
  const auto want2 = replay(full, data, all.subspan(100), fed_full, kCols * per_metric());
  const auto got2 = replay(planned, data, all.subspan(100), fed_planned, 64);
  ASSERT_EQ(got1.size(), want1.size());
  ASSERT_EQ(got2.size(), want2.size());
  ASSERT_GE(got1.size() + got2.size(), 200u);
  for (std::size_t w = 0; w < got1.size(); ++w) {
    expect_bits_equal(got1[w], select_and_scale(want1[w], selection, before),
                      "pre-swap window " + std::to_string(w));
  }
  for (std::size_t w = 0; w < got2.size(); ++w) {
    expect_bits_equal(got2[w], select_and_scale(want2[w], selection, after),
                      "post-swap window " + std::to_string(w));
  }
}

TEST(PlannedIncrementalSwapTest, SetPlanChangingSelectionSeedsFromTheRing) {
  // A generation that reads new metrics and groups seeds them from the raw
  // ring: no emission is lost, every non-spectral output stays bit-exact
  // (linear aggregates are exact per emission, order statistics and
  // integer counts rebuild exactly), spectral ones stay within the SDFT
  // tolerance.
  const auto config = replay_config(256);
  const auto chunks = chunk_schedule(256, 16, 200);
  const auto data =
      make_replay(std::accumulate(chunks.begin(), chunks.end(), std::size_t{0}), 13);
  std::vector<std::size_t> peaks_only;
  for (std::size_t m = 0; m < 4; ++m) {
    peaks_only.push_back(m * per_metric() + features::feature_groups()[features::kPeaks].first);
  }
  const auto next = top64_shape(kCols, 21);
  const auto scaler_a = fitted_scaler(peaks_only.size(), 4);
  const auto scaler_b = fitted_scaler(next.size(), 5);

  IncrementalNodeExtractor full(kCols, replay_kinds(), config);
  IncrementalNodeExtractor planned(replay_kinds(), config,
                                   make_plan(kCols, peaks_only, scaler_a));
  const std::span<const std::size_t> all(chunks);
  std::size_t fed_full = 0, fed_planned = 0;
  replay(full, data, all.first(90), fed_full, kCols * per_metric());
  replay(planned, data, all.first(90), fed_planned, peaks_only.size());
  planned.set_plan(make_plan(kCols, next, scaler_b));
  const auto want = replay(full, data, all.subspan(90), fed_full, kCols * per_metric());
  const auto got = replay(planned, data, all.subspan(90), fed_planned, next.size());
  ASSERT_EQ(got.size(), all.size() - 90);  // every post-swap chunk emitted
  ASSERT_EQ(got.size(), want.size());

  const auto& defs = features::feature_registry();
  for (std::size_t w = 0; w < got.size(); ++w) {
    const auto expect = select_and_scale(want[w], next, scaler_b);
    for (std::size_t j = 0; j < next.size(); ++j) {
      const auto& name = defs[next[j] % per_metric()].name;
      if (name.rfind("spectral_", 0) == 0) {
        const double feature = want[w][next[j]];
        EXPECT_NEAR(got[w][j], expect[j],
                    (1e-6 * std::max(std::abs(feature), 1.0) + 1e-9) /
                        scaler_b.scales()[j])
            << name << " window " << w;
      } else {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[w][j]),
                  std::bit_cast<std::uint64_t>(expect[j]))
            << name << " window " << w;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batch extraction and plan construction

telemetry::JobTelemetry make_job(std::int64_t job_id, std::size_t nodes, double duration,
                                 hpas::AnomalySpec anomaly = hpas::healthy_spec(),
                                 std::vector<std::size_t> anomalous_nodes = {}) {
  telemetry::RunConfig config;
  config.app = telemetry::application_by_name("LAMMPS");
  config.job_id = job_id;
  config.num_nodes = nodes;
  config.duration_s = duration;
  config.seed = static_cast<std::uint64_t>(job_id);
  config.anomaly = std::move(anomaly);
  config.anomalous_nodes = std::move(anomalous_nodes);
  config.first_component_id = job_id * 100;
  return telemetry::generate_run(config);
}

core::ModelBundle bundle_with(const std::vector<std::size_t>& selected, std::uint64_t seed) {
  core::ModelBundle bundle;
  bundle.scaler = fitted_scaler(selected.size(), seed);
  bundle.metadata.selected_columns = selected;
  const auto names = pipeline::full_feature_names();
  for (const auto column : selected) bundle.metadata.feature_names.push_back(names.at(column));
  return bundle;
}

TEST(PlannedBatchTest, MatchesExtractThenTransformFull) {
  const std::size_t metrics = telemetry::metric_count();
  const auto job = make_job(3, 2, 150, hpas::table2_configurations().back(), {1});
  std::vector<tensor::Matrix> frames;
  for (const auto& node : job.nodes) {
    frames.push_back(pipeline::preprocess_node(node.values, stream::streaming_preprocess_defaults()));
  }
  tensor::Matrix gappy = frames[0];
  gappy(10, 4) = kNaN;  // the batch engine's NaN propagation and clamps
  gappy(20, 7) = kInf;
  frames.push_back(gappy);

  for (const auto& selection : selections(metrics)) {
    SCOPED_TRACE(selection.name);
    const core::ModelBundle bundle = bundle_with(selection.columns, 9);
    const auto plan = bundle.scoring_plan();
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const auto full = features::extract_node_features(frames[f]);
      tensor::Matrix X(1, full.size());
      X.set_row(0, full);
      const tensor::Matrix want = bundle.transform_full(X);
      std::vector<double> got(plan->output_size());
      features::extract_node_features(frames[f], *plan, got);
      expect_bits_equal(got, want.row(0), "frame " + std::to_string(f));
    }
  }
  // The all-columns plan is plain full extraction.
  std::vector<double> got(metrics * per_metric());
  features::extract_node_features(frames[2], *ScoringPlan::all_columns(metrics), got);
  expect_bits_equal(got, features::extract_node_features(frames[2]), "all-columns");
}

TEST(ScoringPlanTest, CompilesSelectionIntoMetricsAndGroups) {
  const std::size_t F = per_metric();
  const auto& groups = features::feature_groups();
  const std::size_t spectral = groups[features::kSpectral].first;
  const std::size_t quantile = groups[features::kQuantiles].first;
  const std::vector<std::size_t> selected{7 * F + spectral, 2 * F + quantile, 7 * F + spectral};
  const ScoringPlan plan(10, selected, std::vector<double>(3, 1.0),
                         std::vector<double>(3, 2.0));
  EXPECT_EQ(plan.metric_count(), 10u);
  EXPECT_EQ(plan.output_size(), 3u);
  ASSERT_EQ(plan.metrics().size(), 2u);
  EXPECT_EQ(plan.metrics()[0].column, 2u);
  EXPECT_EQ(plan.metrics()[0].groups, features::group_bit(features::kQuantiles));
  EXPECT_EQ(plan.metrics()[1].column, 7u);
  EXPECT_EQ(plan.metrics()[1].groups, features::group_bit(features::kSpectral));
  ASSERT_EQ(plan.metrics()[1].outputs.size(), 2u);  // the duplicate column
  EXPECT_EQ(plan.metrics()[1].outputs[1].dest, 2u);
  EXPECT_EQ(plan.metric(0), nullptr);
  EXPECT_EQ(plan.metric(7), &plan.metrics()[1]);
  EXPECT_EQ(ScoringPlan::all_columns(3)->metrics().size(), 3u);
  EXPECT_EQ(ScoringPlan::all_columns(3)->metrics()[0].groups, features::kAllGroups);
}

TEST(ScoringPlanTest, RejectsColumnsOutsideTheFeatureSpaceAndAffineMismatch) {
  const std::size_t F = per_metric();
  const std::vector<double> one(1, 0.0);
  EXPECT_THROW(ScoringPlan(4, std::vector<std::size_t>{4 * F}, one, one),
               std::invalid_argument);
  EXPECT_NO_THROW(ScoringPlan(4, std::vector<std::size_t>{4 * F - 1}, one, one));
  EXPECT_THROW(ScoringPlan(4, std::vector<std::size_t>{0, 1}, one, one),
               std::invalid_argument);
  try {
    ScoringPlan(2, std::vector<std::size_t>{5 * F}, one, one);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("outside"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Scorer-level oracles

/// Scores every window of `raw` the way the scorer did before plans: full
/// extraction (incremental engine or batch recompute), transform_full, then
/// the detector; `bundle_for(k)` picks window k's bundle.
std::vector<double> unplanned_scores(
    const tensor::Matrix& raw, stream::ExtractionMode mode, std::size_t window,
    std::size_t hop, const std::function<const core::ModelBundle&(std::size_t)>& bundle_for) {
  std::vector<ColumnKind> kinds;
  for (const auto& spec : telemetry::metric_catalog()) {
    kinds.push_back(spec.kind == telemetry::MetricKind::Counter ? ColumnKind::kCounter
                                                                : ColumnKind::kGauge);
  }
  IncrementalNodeExtractor full(raw.cols(), kinds, replay_config(window));
  std::vector<double> features(raw.cols() * per_metric());
  std::vector<double> scores;
  for (std::size_t k = 0; k * hop + window <= raw.rows(); ++k) {
    if (mode == stream::ExtractionMode::kIncremental) {
      const std::size_t from = k == 0 ? 0 : window + (k - 1) * hop;
      full.absorb_and_extract(raw.slice_rows(from, k == 0 ? window : hop), features);
    } else {
      features = features::extract_node_features(pipeline::preprocess_node(
          raw.slice_rows(k * hop, window), stream::streaming_preprocess_defaults()));
    }
    tensor::Matrix X(1, features.size());
    X.set_row(0, features);
    scores.push_back(bundle_for(k).score_full(X).at(0));
  }
  return scores;
}

/// A provider the test swaps by hand between drained replay phases.
class SwapProvider : public stream::ModelProvider {
 public:
  explicit SwapProvider(core::ModelBundle first)
      : bundle_(std::make_shared<const core::ModelBundle>(std::move(first))) {}
  void swap(core::ModelBundle next) {
    std::lock_guard lock(mutex_);
    bundle_ = std::make_shared<const core::ModelBundle>(std::move(next));
    ++generation_;
  }
  Lease acquire() const override {
    std::lock_guard lock(mutex_);
    return {bundle_, generation_};
  }
  void on_verdict(const stream::VerdictEvent&, std::span<const double>) override {}

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const core::ModelBundle> bundle_;
  std::uint64_t generation_ = 1;
};

constexpr std::size_t kWindow = 64;
constexpr std::size_t kHop = 16;

/// A chi-square top-64 bundle trained like the stream tests', its training
/// dataset, and a memleak node replay with NaN/Inf readings.
struct TrainedSetup {
  TrainedSetup() {
    std::int64_t job = 1;
    for (int i = 0; i < 6; ++i) {
      store_.ingest(make_job(job, 4, 150));
      train_jobs_.push_back(job++);
    }
    const auto memleak = hpas::table2_configurations().back();
    for (int i = 0; i < 2; ++i) {
      store_.ingest(make_job(job, 4, 150, memleak));
      train_jobs_.push_back(job++);
    }
    options_.preprocess.trim_seconds = 20;
    options_.top_k_features = 64;
    options_.model.vae.encoder_hidden = {24, 8};
    options_.model.vae.latent_dim = 3;
    options_.model.train.epochs = 60;
    options_.model.train.batch_size = 16;
    options_.model.train.learning_rate = 2e-3;
    options_.model.train.validation_split = 0.0;
    options_.model.train.early_stopping_patience = 0;
    bundle_ = deploy::AnalyticsService::train_from_store(store_, train_jobs_, options_,
                                                         /*explain=*/false)
                  .bundle();
    std::vector<telemetry::JobTelemetry> jobs;
    for (const auto id : train_jobs_) jobs.push_back(store_.query_job(id));
    data_ = pipeline::DataPipeline::build_from_jobs(jobs, options_.preprocess);

    // The replayed node: memleak, with NaN gaps that hit the exact fallback.
    replay_ = make_job(50, 2, 400, memleak, {1}).nodes.at(1).values;
    for (std::size_t r = 100; r < 104; ++r) replay_(r, 3) = kNaN;
    replay_(250, 10) = kNaN;
    replay_(251, 11) = kInf;
  }

  /// Same selection as bundle_, scaler and VAE fitted on a different subset.
  core::ModelBundle refit_bundle() const {
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < data_.size(); i += 2) rows.push_back(i);
    return core::ModelTrainer(options_.model)
        .train(data_.select_rows(rows), bundle_.metadata.selected_columns, "refit");
  }

  /// A different selection (variance top-32), so the plan reads new state.
  core::ModelBundle reselected_bundle() const {
    const auto selection = features::select_features_variance(data_, 32);
    return core::ModelTrainer(options_.model).train(data_, selection.selected, "reselected");
  }

  /// Feeds rows [from, to) of the replay as node (50, 1) and drains.
  void feed(stream::OnlineScorer& scorer, std::size_t from, std::size_t to,
            const tensor::Matrix* rows = nullptr) const {
    const tensor::Matrix& values = rows != nullptr ? *rows : replay_;
    std::vector<std::int64_t> timestamps(to - from);
    std::iota(timestamps.begin(), timestamps.end(), static_cast<std::int64_t>(from));
    scorer.on_rows(50, 1, "LAMMPS", timestamps, values.slice_rows(from, to - from));
    scorer.drain();
  }

  deploy::DsosStore store_;
  std::vector<std::int64_t> train_jobs_;
  deploy::TrainFromStoreOptions options_;
  core::ModelBundle bundle_;
  features::FeatureDataset data_;
  tensor::Matrix replay_;
};

class PlannedScorerTest : public ::testing::TestWithParam<stream::ExtractionMode>,
                          protected TrainedSetup {
 protected:
  stream::OnlineScorerConfig scorer_config(stream::ModelProvider* provider = nullptr) const {
    stream::OnlineScorerConfig config;
    config.window = kWindow;
    config.hop = kHop;
    config.extraction = GetParam();
    config.model_provider = provider;
    return config;
  }
};

struct VerdictLog {
  std::mutex mutex;
  std::map<std::uint64_t, stream::VerdictEvent> by_window;
  void attach(stream::EventBus& bus) {
    bus.subscribe([this](const stream::VerdictEvent& event) {
      std::lock_guard lock(mutex);
      by_window[event.window_index] = event;
    });
  }
};

TEST_P(PlannedScorerTest, VerdictsMatchAnUnplannedScorer) {
  stream::EventBus bus;
  VerdictLog log;
  log.attach(bus);
  stream::OnlineScorer scorer(bundle_, bus, scorer_config());
  ASSERT_EQ(scorer.extraction_mode(), GetParam());
  feed(scorer, 0, replay_.rows());
  EXPECT_EQ(scorer.score_errors(), 0u);
  EXPECT_EQ(scorer.windows_skipped(), 0u);

  const auto want = unplanned_scores(replay_, GetParam(), kWindow, kHop,
                                     [&](std::size_t) -> const core::ModelBundle& { return bundle_; });
  ASSERT_EQ(log.by_window.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    const auto& v = log.by_window.at(k);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.score), std::bit_cast<std::uint64_t>(want[k]))
        << "window " << k;
    EXPECT_EQ(v.anomalous, want[k] > bundle_.detector.threshold());
    EXPECT_EQ(v.model_generation, 0u);
  }
}

TEST_P(PlannedScorerTest, RefitSwapKeepingSelectionIsBitIdentical) {
  const core::ModelBundle refit = refit_bundle();
  ASSERT_NE(refit.scaler.offsets(), bundle_.scaler.offsets());
  SwapProvider provider(bundle_);
  stream::EventBus bus;
  VerdictLog log;
  log.attach(bus);
  stream::OnlineScorer scorer(bundle_, bus, scorer_config(&provider));
  feed(scorer, 0, 150);  // windows 0..5 under generation 1
  provider.swap(refit);
  feed(scorer, 150, replay_.rows());
  EXPECT_EQ(scorer.score_errors(), 0u);
  EXPECT_EQ(scorer.windows_skipped(), 0u);

  const auto want = unplanned_scores(
      replay_, GetParam(), kWindow, kHop,
      [&](std::size_t k) -> const core::ModelBundle& { return k <= 5 ? bundle_ : refit; });
  ASSERT_EQ(log.by_window.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    const auto& v = log.by_window.at(k);
    EXPECT_EQ(v.model_generation, k <= 5 ? 1u : 2u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.score), std::bit_cast<std::uint64_t>(want[k]))
        << "window " << k;
  }
}

TEST_P(PlannedScorerTest, SelectionChangingSwapSkipsNoWindow) {
  const core::ModelBundle next = reselected_bundle();
  ASSERT_NE(next.metadata.selected_columns, bundle_.metadata.selected_columns);
  SwapProvider provider(bundle_);
  stream::EventBus bus;
  VerdictLog log;
  log.attach(bus);
  stream::OnlineScorer scorer(bundle_, bus, scorer_config(&provider));
  feed(scorer, 0, 150);
  provider.swap(next);
  feed(scorer, 150, replay_.rows());
  EXPECT_EQ(scorer.score_errors(), 0u);
  EXPECT_EQ(scorer.windows_skipped(), 0u);

  // Within the documented spectral_* / accumulator tolerances of batch.
  const auto batch = unplanned_scores(
      replay_, stream::ExtractionMode::kFullRecompute, kWindow, kHop,
      [&](std::size_t k) -> const core::ModelBundle& { return k <= 5 ? bundle_ : next; });
  ASSERT_EQ(log.by_window.size(), batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const auto& v = log.by_window.at(k);
    EXPECT_EQ(v.model_generation, k <= 5 ? 1u : 2u);
    EXPECT_NEAR(v.score, batch[k], 1e-6 * std::max(1.0, std::abs(batch[k])))
        << "window " << k;
  }
}

TEST_P(PlannedScorerTest, FrameWidthMismatchCountsOneErrorPerWindow) {
  stream::EventBus bus;
  stream::OnlineScorer scorer(bundle_, bus, scorer_config());
  const std::size_t metrics = telemetry::metric_count();
  for (const std::size_t width : {metrics - 1, metrics + 1}) {
    tensor::Matrix rows(150, width);
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      for (std::size_t c = 0; c < width; ++c) {
        rows(r, c) = replay_(r, std::min(c, metrics - 1));
      }
    }
    std::vector<std::int64_t> timestamps(rows.rows());
    std::iota(timestamps.begin(), timestamps.end(), std::int64_t{0});
    scorer.on_rows(60, static_cast<std::int64_t>(width), "LAMMPS", timestamps, rows);
  }
  scorer.drain();
  constexpr std::size_t kWindowsPerNode = (150 - kWindow) / kHop + 1;  // 6
  EXPECT_EQ(scorer.score_errors(), 2 * kWindowsPerNode);
  EXPECT_EQ(scorer.windows_scored(), 0u);
  EXPECT_EQ(scorer.windows_skipped(), 0u);
  EXPECT_EQ(bus.verdicts_published(), 0u);
}

TEST_P(PlannedScorerTest, RefillsAfterErrorResetAndScoresAgain) {
  // Generation 2 reads a metric column beyond the frame: the plan cannot be
  // built, so each of its windows is one score error and resets the node's
  // extractor.  Generation 3 serves again after the node refills.
  core::ModelBundle beyond = bundle_;
  beyond.metadata.selected_columns.front() = telemetry::metric_count() * per_metric() + 3;
  SwapProvider provider(bundle_);
  stream::EventBus bus;
  VerdictLog log;
  log.attach(bus);
  stream::OnlineScorer scorer(bundle_, bus, scorer_config(&provider));
  feed(scorer, 0, 150);  // windows 0..5 (ends 63..143)
  provider.swap(beyond);
  feed(scorer, 150, 214);  // windows 6..9 fail
  EXPECT_EQ(scorer.score_errors(), 4u);
  provider.swap(bundle_);
  feed(scorer, 214, replay_.rows());

  const bool incremental = GetParam() == stream::ExtractionMode::kIncremental;
  const std::size_t refill = incremental ? kWindow / kHop - 1 : 0;
  EXPECT_EQ(scorer.score_errors(), 4u);
  EXPECT_EQ(scorer.windows_skipped(), refill);
  const auto batch = unplanned_scores(replay_, stream::ExtractionMode::kFullRecompute,
                                      kWindow, kHop,
                                      [&](std::size_t) -> const core::ModelBundle& { return bundle_; });
  EXPECT_EQ(log.by_window.size(), batch.size() - 4 - refill);
  for (std::size_t k = 10 + refill; k < batch.size(); ++k) {
    ASSERT_TRUE(log.by_window.contains(k)) << "window " << k;
    const auto& v = log.by_window.at(k);
    EXPECT_EQ(v.model_generation, 3u);
    EXPECT_NEAR(v.score, batch[k], 1e-6 * std::max(1.0, std::abs(batch[k])))
        << "window " << k;
  }
}

TEST_P(PlannedScorerTest, MetricHandlesExportTheScorerCounts) {
  auto& registry = util::MetricsRegistry::global();
  auto value = [&](const char* name) { return registry.counter(name).value(); };
  const auto scored0 = value("prodigy_stream_windows_scored_total");
  const auto errors0 = value("prodigy_stream_score_errors_total");
  const auto skipped0 = value("prodigy_stream_windows_skipped_total");
  const auto verdicts0 = value("prodigy_stream_verdicts_total");
  const auto transitions0 = value("prodigy_stream_transitions_total");
  const auto suppressed0 = value("prodigy_stream_debounce_suppressed_total");
  const auto emitted0 = value("prodigy_features_incremental_windows_total");
  const auto seconds0 =
      registry.histogram("prodigy_stream_window_score_seconds").snapshot().count;

  core::ModelBundle beyond = bundle_;
  beyond.metadata.selected_columns.front() = telemetry::metric_count() * per_metric();
  SwapProvider provider(bundle_);
  stream::EventBus bus;
  stream::OnlineScorer scorer(bundle_, bus, scorer_config(&provider));
  feed(scorer, 0, 150);
  provider.swap(beyond);
  feed(scorer, 150, 182);  // two failing windows
  provider.swap(bundle_);
  feed(scorer, 182, replay_.rows());

  EXPECT_EQ(value("prodigy_stream_windows_scored_total") - scored0, scorer.windows_scored());
  EXPECT_EQ(value("prodigy_stream_score_errors_total") - errors0, scorer.score_errors());
  EXPECT_EQ(value("prodigy_stream_windows_skipped_total") - skipped0, scorer.windows_skipped());
  EXPECT_EQ(registry.histogram("prodigy_stream_window_score_seconds").snapshot().count - seconds0,
            scorer.windows_scored());
  EXPECT_EQ(value("prodigy_stream_verdicts_total") - verdicts0, bus.verdicts_published());
  EXPECT_EQ(value("prodigy_stream_transitions_total") - transitions0, bus.transitions_published());
  EXPECT_EQ(value("prodigy_stream_debounce_suppressed_total") - suppressed0, bus.suppressed());
  const bool incremental = GetParam() == stream::ExtractionMode::kIncremental;
  EXPECT_EQ(value("prodigy_features_incremental_windows_total") - emitted0,
            incremental ? scorer.windows_scored() : 0u);
  EXPECT_EQ(scorer.score_errors(), 2u);
  EXPECT_GT(scorer.windows_scored(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PlannedScorerTest,
    ::testing::Values(stream::ExtractionMode::kIncremental,
                      stream::ExtractionMode::kFullRecompute),
    [](const ::testing::TestParamInfo<stream::ExtractionMode>& info) {
      return info.param == stream::ExtractionMode::kIncremental ? "Incremental" : "Full";
    });

// ---------------------------------------------------------------------------
// Bundle consistency

class BundleConsistencyTest : public ::testing::Test, protected TrainedSetup {};

TEST_F(BundleConsistencyTest, ConstructionRejectsInconsistentBundles) {
  std::vector<std::pair<std::string, core::ModelBundle>> broken;
  {
    core::ModelBundle b = bundle_;
    b.scaler = fitted_scaler(b.metadata.selected_columns.size() - 1, 1);
    broken.emplace_back("scaler width", std::move(b));
  }
  {
    core::ModelBundle b = bundle_;
    b.metadata.feature_names.pop_back();
    broken.emplace_back("feature_names size", std::move(b));
  }
  {
    core::ModelBundle b = bundle_;
    b.metadata.selected_columns.pop_back();
    b.metadata.feature_names.pop_back();
    b.scaler = fitted_scaler(b.metadata.selected_columns.size(), 1);
    broken.emplace_back("model input width", std::move(b));
  }
  {
    core::ModelBundle b = bundle_;
    b.metadata.selected_columns.back() = telemetry::metric_count() * per_metric();
    broken.emplace_back("outside", std::move(b));
  }
  for (const auto& [what, bundle] : broken) {
    SCOPED_TRACE(what);
    try {
      (void)bundle.scoring_plan();
      FAIL() << "expected a throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
    stream::EventBus bus;
    EXPECT_THROW((void)stream::OnlineScorer(bundle, bus, {}), std::invalid_argument);
    SwapProvider provider(bundle);
    stream::OnlineScorerConfig config;
    config.model_provider = &provider;
    EXPECT_THROW((void)stream::OnlineScorer(bundle_, bus, config), std::invalid_argument);
    EXPECT_THROW((void)deploy::AnalyticsService(store_, bundle, options_.preprocess, false),
                 std::invalid_argument);
  }

  // set_bundle rejects before swapping: the served bundle keeps answering.
  deploy::AnalyticsService service(store_, bundle_, options_.preprocess, false, {}, 0);
  const auto id = service.bundle_id();
  EXPECT_THROW(service.set_bundle(broken.front().second), std::invalid_argument);
  EXPECT_EQ(service.bundle_id(), id);
  EXPECT_EQ(service.analyze_job(train_jobs_.front()).nodes.size(), 4u);
}

TEST_F(BundleConsistencyTest, LoadRejectsCorruptedMetadata) {
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("prodigy_plan_test_" +
       std::to_string(std::chrono::steady_clock::now().time_since_epoch().count()));
  bundle_.save(dir.string());
  EXPECT_NO_THROW(core::ModelBundle::load(dir.string()));

  auto write_metadata = [&](const core::DeploymentMetadata& metadata) {
    util::BinaryWriter writer((dir / "metadata.bin").string());
    metadata.save(writer);
  };
  core::DeploymentMetadata metadata = bundle_.metadata;
  metadata.selected_columns.front() = telemetry::metric_count() * per_metric() + 1;
  write_metadata(metadata);
  EXPECT_THROW(core::ModelBundle::load(dir.string()), std::invalid_argument);

  metadata = bundle_.metadata;
  metadata.feature_names.resize(3);
  write_metadata(metadata);
  EXPECT_THROW(core::ModelBundle::load(dir.string()), std::invalid_argument);

  metadata = bundle_.metadata;
  metadata.selected_columns.push_back(0);
  write_metadata(metadata);
  EXPECT_THROW(core::ModelBundle::load(dir.string()), std::invalid_argument);
  std::filesystem::remove_all(dir);
}

}  // namespace
