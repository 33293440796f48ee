// The paper's ModelTrainer (Fig. 3): trains the provided model and persists
// everything production inference needs — model weights and architecture,
// the fitted scaler, and deployment metadata (selected feature columns,
// training-time column names) — into an output directory on the monitoring
// server's storage.
#pragma once

#include "core/prodigy_detector.hpp"
#include "features/feature_matrix.hpp"
#include "pipeline/scaler.hpp"
#include "telemetry/metrics.hpp"

#include <memory>
#include <string>
#include <vector>

namespace prodigy::core {

/// Everything the production AnomalyDetector loads (paper's "deployment
/// metadata": training columns and extracted features).
struct DeploymentMetadata {
  std::string system;                       // e.g. "Eclipse"
  std::vector<std::string> feature_names;   // selected "efficient features"
  std::vector<std::size_t> selected_columns;  // indices into the full matrix
  double train_anomaly_ratio = 0.0;
  std::size_t training_samples = 0;

  void save(util::BinaryWriter& writer) const;
  static DeploymentMetadata load(util::BinaryReader& reader);
};

/// A trained, deployable model bundle.
struct ModelBundle {
  ProdigyDetector detector;
  pipeline::Scaler scaler;
  DeploymentMetadata metadata;

  /// Applies metadata column selection + scaler, then predicts.
  std::vector<int> predict_full(const tensor::Matrix& full_features) const;
  std::vector<double> score_full(const tensor::Matrix& full_features) const;
  /// Column selection + scaling only (the model-input view of the features).
  tensor::Matrix transform_full(const tensor::Matrix& full_features) const;

  /// Compiles the selection and scaler into the plan that extracts only
  /// what the model reads from `metric_count`-wide frames.  Throws
  /// std::invalid_argument unless every selected column lies in that
  /// feature space and the scaler width, feature_names and the model input
  /// width (when fitted) all match the selection size.
  std::shared_ptr<const features::ScoringPlan> scoring_plan(
      std::size_t metric_count = telemetry::metric_count()) const;

  /// Persists to `<dir>/model.bin`, `<dir>/scaler.bin`, `<dir>/metadata.bin`.
  void save(const std::string& dir) const;
  /// Loads and rejects an inconsistent bundle (scoring_plan's checks).
  static ModelBundle load(const std::string& dir);
};

class ModelTrainer {
 public:
  explicit ModelTrainer(ProdigyConfig config = {},
                        pipeline::ScalerKind scaler_kind = pipeline::ScalerKind::MinMax)
      : config_(std::move(config)), scaler_kind_(scaler_kind) {}

  /// Full training flow on an already-extracted feature dataset:
  /// select the given columns, fit the scaler on the healthy rows, train the
  /// VAE on the scaled healthy rows, and assemble the deployable bundle.
  ModelBundle train(const features::FeatureDataset& train_data,
                    const std::vector<std::size_t>& selected_columns,
                    const std::string& system_name) const;

 private:
  ProdigyConfig config_;
  pipeline::ScalerKind scaler_kind_;
};

}  // namespace prodigy::core
