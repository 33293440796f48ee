// Column-wise feature scaling (the paper's Scaler module): fit on the
// training set, transform train/test identically, persist with the model so
// the production AnomalyDetector applies the exact training-time transform.
#pragma once

#include "tensor/matrix.hpp"
#include "util/serialize.hpp"

#include <string>
#include <vector>

namespace prodigy::pipeline {

enum class ScalerKind { MinMax, Standard };

std::string to_string(ScalerKind kind);
ScalerKind scaler_kind_from_string(const std::string& name);

class Scaler {
 public:
  explicit Scaler(ScalerKind kind = ScalerKind::MinMax) : kind_(kind) {}

  ScalerKind kind() const noexcept { return kind_; }
  bool fitted() const noexcept { return !offset_.empty(); }
  std::size_t feature_count() const noexcept { return offset_.size(); }
  /// Per-column affine of transform: (x - offsets()[c]) / scales()[c].
  const std::vector<double>& offsets() const noexcept { return offset_; }
  const std::vector<double>& scales() const noexcept { return scale_; }

  void fit(const tensor::Matrix& X);
  tensor::Matrix transform(const tensor::Matrix& X) const;
  tensor::Matrix fit_transform(const tensor::Matrix& X);
  tensor::Matrix inverse_transform(const tensor::Matrix& X) const;

  void save(util::BinaryWriter& writer) const;
  static Scaler load(util::BinaryReader& reader);

 private:
  ScalerKind kind_;
  // transform: (x - offset) / scale  (scale fixed to 1 for constant columns).
  std::vector<double> offset_;
  std::vector<double> scale_;
};

}  // namespace prodigy::pipeline
