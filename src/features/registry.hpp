// The feature registry: the named, parameterized catalog of per-series
// extractors applied to every metric (TSFRESH computes 794 features from 63
// characterization methods; this registry instantiates our extractor family
// into ~70 named features per metric).
//
// Features are organized as *groups* that share one SeriesProfile: a group
// emits several named features (e.g. "spectral" emits nine from one FFT)
// instead of the historical one-closure-per-feature design, which invoked
// the full FFT nine times per series.  The flat name order exposed by
// feature_registry() is unchanged, and per-feature values are bit-identical
// to the per-feature implementations (tests/feature_parity_test.cpp keeps
// those as reference oracles).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace prodigy::features {

struct SeriesProfile;
struct FeatureScratch;

struct FeatureDef {
  std::string name;   // e.g. "autocorrelation_lag_5"
  std::string group;  // owning group, e.g. "autocorrelation"
};

/// A batch of features computed together from one shared SeriesProfile.
struct FeatureGroup {
  std::string name;
  std::size_t first = 0;  // offset of the group's first feature in flat order
  std::size_t count = 0;  // number of features the group emits
  /// Writes `count` raw values to `out`; non-finite clamping happens in
  /// compute_all_features so group functions stay pure.
  std::function<void(const SeriesProfile&, double* out)> fn;
};

/// Positions of the groups in feature_groups(); bit g of a GroupMask selects
/// group g.  A ScoringPlan computes only the groups its model reads.
enum FeatureGroupId : unsigned {
  kDescriptive, kQuantiles, kChanges, kExtremaLocation, kMeanRuns, kPeaks,
  kSigmaRatios, kAutocorrelation, kNonlinearity, kEntropy, kLinearTrend,
  kSpectral, kFeatureGroupCount
};
using GroupMask = std::uint32_t;
constexpr GroupMask group_bit(FeatureGroupId g) noexcept { return 1u << g; }
inline constexpr GroupMask kAllGroups = (1u << kFeatureGroupCount) - 1;

/// The fixed ordered registry (flat feature order; built once).
const std::vector<FeatureDef>& feature_registry();

/// The grouped extractors, in flat-order-covering sequence: group g spans
/// features [first, first + count) and groups tile the registry in order.
const std::vector<FeatureGroup>& feature_groups();

/// Number of features computed per metric.
std::size_t features_per_metric();

/// Evaluates every registry feature on one series, in registry order.
/// Non-finite results are clamped to 0.0 so the matrix stays NaN-free.
std::vector<double> compute_all_features(std::span<const double> series);

/// Hot-path variant: writes features_per_metric() values into `out` and
/// reuses `scratch` for the profile's sorted/FFT buffers (no allocations
/// once the scratch has warmed up).  With `groups`, only those groups are
/// computed (and written).
void compute_all_features(std::span<const double> series, std::span<double> out,
                          FeatureScratch& scratch, GroupMask groups = kAllGroups);

/// Evaluates the grouped extractors in `groups` on a profile built for (at
/// least) those groups; features of other groups in `out` are left as they
/// were.  Applies the same non-finite -> 0 clamp as compute_all_features.
void compute_features_from_profile(const SeriesProfile& profile,
                                   std::span<double> out,
                                   GroupMask groups = kAllGroups);

}  // namespace prodigy::features
