// Incremental sliding-window feature extraction: the streaming counterpart
// of the single-pass SeriesProfile engine.
//
// Batch extraction recomputes all ~67 features from scratch for every
// emitted window — O(W log W) per metric per hop, dominated by the sort and
// the FFT.  For overlapping windows (hop H < window W) consecutive windows
// share W - H rows, so almost all of that work repeats.  An
// IncrementalNodeExtractor keeps per-metric rolling state that absorbs the
// H new rows and retires the H expired rows per hop:
//
//  * rolling abs-energy / abs-change accumulators (add new, subtract
//    retired) plus a K-shifted rolling sum used as a *drift sentinel*: the
//    exact window sum is recomputed each emission anyway (it is cheap and
//    makes mean-derived features bit-identical to the batch path), so
//    comparing it against the rolling sum bounds the accumulated float
//    drift of the whole accumulator family and triggers an exact rebuild
//    when it exceeds tolerance;
//  * a merge-of-sorted-chunks multiset (SortedWindow) whose O(W)
//    concatenation at emission reproduces the fully sorted window
//    bit-exactly, replacing the per-window O(W log W) sort behind the
//    8 order/quantile features;
//  * expiry-aware extrema: min/max and their first/last locations are
//    updated per push and re-scanned only when the retiring rows held the
//    recorded extreme;
//  * a sliding DFT with fixed global phase (A_k += (x_new - x_old) * w^{kt},
//    twiddles from one exact table, so the phase itself never drifts) for
//    the 9 spectral features, with a recomputed-FFT fallback when (a) the
//    per-emission SDFT update would cost more than the FFT (large hops,
//    non-power-of-two windows), (b) the Parseval check against the
//    exactly-known window energy exceeds tolerance, or (c) a scheduled
//    rebuild is due.
//
// Counter metrics are handled without reprocessing: the stream keeps global
// first differences r[t] = x[t] - x[t-1], and the batch path's window-local
// boundary rule (rates[0] = rates[1]) is applied as O(1) corrections to the
// sum/energy/abs-change/sorted/spectral state at emission time.
//
// Windows containing non-finite samples taint the incremental state and
// fall back to the exact batch computation (materialize raw rows ->
// linear_interpolate -> counter_to_rate -> compute_all_features), so
// NaN-bearing windows score bit-identically to the batch path.  All other
// windows match the batch oracle bit-exactly except for the documented
// accumulator-carried features (abs_energy, root_mean_square, the two
// abs-change aggregates) and the SDFT-carried spectral features, which
// match within the per-feature tolerances in DESIGN.md (guarded by
// tests/incremental_profile_test.cpp over >= 200 consecutive hops).
#pragma once

#include "features/scoring_plan.hpp"
#include "features/series_profile.hpp"
#include "tensor/matrix.hpp"
#include "util/aligned.hpp"

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace prodigy::features {

/// How a column is cleaned before extraction (mirrors
/// telemetry::MetricKind without depending on the telemetry catalog).
enum class ColumnKind : std::uint8_t {
  kGauge,    // used as-is
  kCounter,  // first-differenced (rates), window-local boundary rule
};

struct IncrementalConfig {
  std::size_t window = 64;  // W: rows per emitted window (>= 2)
  std::size_t hop = 16;     // H: rows between emissions (only advisory for
                            // the SDFT-vs-FFT cost model; the extractor
                            // emits whenever the caller asks)
  bool interpolate = true;     // fallback path: fill non-finite gaps
  bool diff_counters = true;   // treat kCounter columns as counters
  /// Emissions between exact rebuilds of the rolling state (bounds float
  /// drift to what can accumulate across this many add/retire cycles).
  std::size_t recompute_interval = 64;
  /// Relative tolerance for the two drift sentinels (rolling-vs-exact
  /// window sum, and the SDFT Parseval check); exceeding either triggers
  /// an immediate exact rebuild.
  double drift_tolerance = 1e-9;
};

/// The SDFT-vs-FFT per-emission cost decision for a (window, hop) shape.
/// Exposed so tests can golden-pin the crossover and the bench can
/// sanity-check the model against measured throughput.
struct SpectralCostModel {
  double sdft_cost = 0.0;  // modelled per-emission SDFT apply cost
  double fft_cost = 0.0;   // modelled per-emission FFT recompute cost
  bool use_sdft = false;   // requires a power-of-two window
};

/// Evaluates the cost model the extractor's constructor uses to pick
/// between the sliding DFT and the per-emission FFT recompute.  The
/// constants are tuned to the vectorized kernel throughputs measured in
/// bench/feature_extraction (see docs/performance.md).
SpectralCostModel spectral_cost_model(std::size_t window,
                                      std::size_t hop) noexcept;

/// Counters aggregated across all metrics of one extractor.
struct IncrementalStats {
  std::uint64_t windows = 0;              // emissions (per extractor)
  std::uint64_t exact_fallbacks = 0;      // tainted metric-windows
  std::uint64_t scheduled_recomputes = 0; // interval-driven rebuilds
  std::uint64_t drift_recomputes = 0;     // sentinel-triggered rebuilds
};

/// Order-statistics structure for one sliding window: a sequence of small
/// sorted blocks whose concatenation is the ascending multiset of the
/// window's values.  insert/erase are O(W / B + B + log B) with block size
/// B; copy_sorted is a straight O(W) concatenation that reproduces
/// std::sort's output bit-exactly (equal doubles are interchangeable).
/// Values must be non-NaN (NaN-bearing windows use the exact fallback).
class SortedWindow {
 public:
  void insert(double value);
  /// Removes one instance; returns false if the value is absent (which
  /// indicates corrupted state — callers treat it as a rebuild trigger).
  bool erase(double value);
  void clear();
  /// Rebuilds from an unsorted window in O(W log W).
  void rebuild(std::span<const double> values);
  std::size_t size() const noexcept { return size_; }
  /// Overwrites `out` with all values in ascending order.  Takes the
  /// 64-byte-aligned scratch type: the concatenation feeds the feature
  /// kernels' vector loads.
  void copy_sorted(util::AlignedVec<double>& out) const;

 private:
  // Blocks split at 2 * kTargetBlock, so they stay cache-sized and the
  // per-insert memmove cost stays bounded.
  static constexpr std::size_t kTargetBlock = 64;
  std::vector<std::vector<double>> blocks_;  // nonempty, globally sorted
  std::size_t size_ = 0;
};

/// Per-node incremental extractor: one rolling state per metric column,
/// shaped by a ScoringPlan.  Every column keeps the raw/tainted ring; a
/// planned metric also keeps the sum/energy drift sentinel plus only the
/// rolling parts its groups read (sorted window: descriptive, quantiles,
/// entropy; extrema: descriptive, extrema_location, entropy; SDFT:
/// spectral; peak flags: peaks; Benford digits: entropy).  Thread-compatible
/// (external synchronization; the streaming scorer calls it from one
/// per-node task at a time) — internally the per-metric work fans out
/// across util::parallel_for.
class IncrementalNodeExtractor {
 public:
  /// Full extraction: the all-columns plan over `cols` metrics.
  /// `kinds.size()` may be smaller than `cols`; extra columns are gauges.
  IncrementalNodeExtractor(std::size_t cols, std::vector<ColumnKind> kinds,
                           IncrementalConfig config);
  /// Planned extraction over plan->metric_count() columns: emissions write
  /// plan->output_size() model inputs.
  IncrementalNodeExtractor(std::vector<ColumnKind> kinds,
                           IncrementalConfig config,
                           std::shared_ptr<const ScoringPlan> plan);
  ~IncrementalNodeExtractor();

  IncrementalNodeExtractor(const IncrementalNodeExtractor&) = delete;
  IncrementalNodeExtractor& operator=(const IncrementalNodeExtractor&) = delete;

  /// Absorbs `delta` (rows x cols, time order: the rows new since the
  /// previous call — H rows in steady state, the full window for the
  /// first emission) and, if at least one full window has been absorbed,
  /// writes the plan's outputs for the window ending at the last absorbed
  /// row into `out` (for the all-columns plan: every feature, metric-major,
  /// the layout of extract_node_features) and returns true.  Returns false
  /// while the window is still filling (only after construction/reset).
  bool absorb_and_extract(const tensor::Matrix& delta, std::span<double> out);

  /// Switches to another plan of the same width (a new model generation).
  /// A metric whose groups change is seeded from the raw ring exactly as a
  /// node's first window, so no window is skipped; metrics whose groups stay
  /// the same keep their state bit for bit.
  void set_plan(std::shared_ptr<const ScoringPlan> plan);
  const ScoringPlan& plan() const noexcept;

  /// Drops all rolling state; the next window must be refilled from
  /// scratch.  Used by the scorer to recover from a failed absorb.
  void reset();

  std::size_t cols() const noexcept;
  std::size_t window() const noexcept;
  /// True once a full window has been absorbed since construction/reset.
  bool window_complete() const noexcept;
  /// True when the (window, hop) shape maintains a sliding DFT; false when
  /// the cost model picked the per-emission FFT recompute instead.
  bool uses_sliding_dft() const noexcept;
  IncrementalStats stats() const;

 private:
  struct MetricState;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace prodigy::features
