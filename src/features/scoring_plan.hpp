// A ScoringPlan compiles a deployed model's feature selection into the
// extraction work it needs.  Chi-square keeps a few "efficient features",
// which touch few metrics and, within those, few feature groups; the plan
// lists those metrics with a group mask each, and for every model input its
// source feature plus the scaler's affine.  Extraction through a plan
// computes only the masked groups and writes
//
//   out[j] = (clamped feature selected[j] - offset[j]) / scale[j]
//
// straight into the model-input row: the expression Scaler::transform
// evaluates, so the row is bit-identical to full extraction + selection +
// scaling.  Full extraction is the all-columns plan (offset 0, scale 1).
#pragma once

#include "features/registry.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace prodigy::features {

class ScoringPlan {
 public:
  struct Output {
    std::size_t feature = 0;  // index within the metric's feature block
    std::size_t dest = 0;     // index in the model-input row
    double offset = 0.0;
    double scale = 1.0;
  };
  struct Metric {
    std::size_t column = 0;  // frame column
    GroupMask groups = 0;    // the groups its outputs come from
    std::vector<Output> outputs;
  };

  /// Every column of a `metric_count`-wide frame, unscaled, in the flat
  /// metric-major order of extract_node_features.  Built once per width.
  static std::shared_ptr<const ScoringPlan> all_columns(std::size_t metric_count);

  /// Output j is flat feature column selected[j] of a `metric_count`-wide
  /// frame, scaled by offsets[j] and scales[j].  Throws
  /// std::invalid_argument when a column lies outside that feature space or
  /// the affine widths differ from the selection.
  ScoringPlan(std::size_t metric_count, std::span<const std::size_t> selected,
              std::span<const double> offsets, std::span<const double> scales);

  std::size_t metric_count() const noexcept { return slot_.size(); }
  std::size_t output_size() const noexcept { return output_size_; }
  /// The metrics the model reads, in ascending column order.
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  /// The entry of frame column `column`, or null when no output reads it.
  const Metric* metric(std::size_t column) const noexcept {
    return slot_[column] < 0 ? nullptr : &metrics_[slot_[column]];
  }

  /// Writes a metric's outputs from its feature block (clamped values for
  /// the groups in metric.groups).
  static void emit(const Metric& metric, const double* features,
                   std::span<double> out) noexcept {
    for (const Output& o : metric.outputs) {
      out[o.dest] = (features[o.feature] - o.offset) / o.scale;
    }
  }

 private:
  std::size_t output_size_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::int32_t> slot_;  // column -> index in metrics_, or -1
};

}  // namespace prodigy::features
