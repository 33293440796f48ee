#include "features/scoring_plan.hpp"

#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>

namespace prodigy::features {

std::shared_ptr<const ScoringPlan> ScoringPlan::all_columns(
    std::size_t metric_count) {
  static std::mutex mutex;
  static std::map<std::size_t, std::shared_ptr<const ScoringPlan>> plans;
  std::lock_guard lock(mutex);
  auto& plan = plans[metric_count];
  if (!plan) {
    const std::size_t n = metric_count * features_per_metric();
    std::vector<std::size_t> selected(n);
    std::iota(selected.begin(), selected.end(), std::size_t{0});
    plan = std::make_shared<const ScoringPlan>(metric_count, selected,
                                               std::vector<double>(n, 0.0),
                                               std::vector<double>(n, 1.0));
  }
  return plan;
}

ScoringPlan::ScoringPlan(std::size_t metric_count,
                         std::span<const std::size_t> selected,
                         std::span<const double> offsets,
                         std::span<const double> scales)
    : output_size_(selected.size()), slot_(metric_count, -1) {
  if (offsets.size() != selected.size() || scales.size() != selected.size()) {
    throw std::invalid_argument(
        "ScoringPlan: scaler width " + std::to_string(offsets.size()) +
        " != " + std::to_string(selected.size()) + " selected columns");
  }
  const std::size_t per_metric = features_per_metric();
  std::vector<GroupMask> group_of(per_metric);
  const auto& groups = feature_groups();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t i = 0; i < groups[g].count; ++i) {
      group_of[groups[g].first + i] = group_bit(static_cast<FeatureGroupId>(g));
    }
  }

  std::vector<Metric> by_column(metric_count);
  for (std::size_t j = 0; j < selected.size(); ++j) {
    const std::size_t column = selected[j];
    if (column >= metric_count * per_metric) {
      throw std::invalid_argument(
          "ScoringPlan: selected column " + std::to_string(column) +
          " outside the " + std::to_string(metric_count) + " x " +
          std::to_string(per_metric) + " feature space");
    }
    Metric& m = by_column[column / per_metric];
    m.column = column / per_metric;
    m.groups |= group_of[column % per_metric];
    m.outputs.push_back({column % per_metric, j, offsets[j], scales[j]});
  }
  for (Metric& m : by_column) {
    if (m.outputs.empty()) continue;
    slot_[m.column] = static_cast<std::int32_t>(metrics_.size());
    metrics_.push_back(std::move(m));
  }
}

}  // namespace prodigy::features
