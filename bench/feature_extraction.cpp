// Feature-extraction engine microbenchmarks: the cold-path cost the
// SeriesProfile rewrite targets.  BM_ExtractWindow is the acceptance
// workload (64 metrics x 1024 samples, the size of one node's scoring
// window); BM_Group_* breaks a single series down by extractor group so
// regressions are attributable.  Set PRODIGY_METRICS_OUT=<path> to dump the
// metrics registry (stage histograms) after the run.
#include "bench_common.hpp"

#include "features/extractors.hpp"
#include "features/incremental_profile.hpp"
#include "features/kernels.hpp"
#include "features/registry.hpp"
#include "features/scoring_plan.hpp"
#include "features/series_profile.hpp"
#include "telemetry/metrics.hpp"
#include "util/aligned.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numbers>
#include <string>

namespace {

using namespace prodigy;
namespace kernels = features::kernels;

tensor::Matrix make_window(std::size_t samples, std::size_t metrics,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Matrix values(samples, metrics);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values.data()[i] = rng.gaussian(5.0, 2.0);
  }
  return values;
}

std::vector<double> make_series(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.gaussian(5.0, 2.0);
  return xs;
}

/// The acceptance workload: full extraction of a 64-metric x 1024-sample
/// window (one node's scoring frame).
void BM_ExtractWindow(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto metrics = static_cast<std::size_t>(state.range(1));
  const tensor::Matrix values = make_window(samples, metrics, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::extract_node_features(values));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(metrics));
  state.counters["windows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExtractWindow)
    ->Args({1024, 64})
    ->Args({256, 64})
    ->Args({1024, 256})
    ->Unit(benchmark::kMillisecond);

/// One series through the whole registry, scratch reused across iterations
/// (the steady-state cost inside extract_node_features).
void BM_ComputeAllFeatures(benchmark::State& state) {
  const auto xs = make_series(static_cast<std::size_t>(state.range(0)), 7);
  std::vector<double> out(features::features_per_metric());
  features::FeatureScratch scratch;
  for (auto _ : state) {
    features::compute_all_features(xs, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ComputeAllFeatures)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

/// Shared-profile construction alone (the one sort + one FFT + one fit +
/// the moment passes that every group reads from).
void BM_SeriesProfile(benchmark::State& state) {
  const auto xs = make_series(static_cast<std::size_t>(state.range(0)), 11);
  features::FeatureScratch scratch;
  for (auto _ : state) {
    auto profile = features::compute_series_profile(xs, scratch);
    benchmark::DoNotOptimize(&profile);
  }
}
BENCHMARK(BM_SeriesProfile)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

/// Per-hop cost of the incremental extractor: absorb `hop` new rows and
/// emit all features for the sliding window.  Compare against
/// BM_FullRecomputeHop at the same (window, hop) — the incremental engine's
/// reason to exist is this per-hop delta.  Single metric column so the
/// numbers isolate the per-series engines (no parallel_for fan-out noise).
void BM_IncrementalHop(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  const auto hop = static_cast<std::size_t>(state.range(1));
  features::IncrementalConfig config;
  config.window = window;
  config.hop = hop;
  features::IncrementalNodeExtractor extractor(
      1, {features::ColumnKind::kGauge}, config);
  std::vector<double> out(features::features_per_metric());
  // A long random ribbon replayed in hop-sized deltas (wraps around).
  const tensor::Matrix ribbon = make_window(window * 8, 1, 17);
  extractor.absorb_and_extract(ribbon.slice_rows(0, window), out);
  std::size_t at = window;
  for (auto _ : state) {
    if (at + hop > ribbon.rows()) at = 0;  // keep feeding; window stays full
    extractor.absorb_and_extract(ribbon.slice_rows(at, hop), out);
    benchmark::DoNotOptimize(out.data());
    at += hop;
  }
  state.counters["sdft"] = extractor.uses_sliding_dft() ? 1.0 : 0.0;
  state.counters["hops_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IncrementalHop)
    ->Args({256, 16})
    ->Args({1024, 16})
    ->Args({1024, 64})
    ->Args({4096, 16})
    ->Unit(benchmark::kMicrosecond);

/// One node's per-hop cost through a ScoringPlan, next to the all-columns
/// plan (full extraction) on the same 49-metric node: arg 2 = 0 runs a
/// selection touching 12 metrics and 40 (metric, group) pairs — the shape
/// of the chi-square top-64 stream bundle — and 1 the full plan.  Each hop
/// runs inside a global-pool task, as in the streaming scorer, so the
/// per-metric parallel_for executes inline and the time is one node's
/// serial cost (manual timing excludes the task hand-off).
void BM_PlannedHop(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  const auto hop = static_cast<std::size_t>(state.range(1));
  const bool full = state.range(2) != 0;
  const std::size_t metrics = telemetry::metric_count();
  std::shared_ptr<const features::ScoringPlan> plan =
      features::ScoringPlan::all_columns(metrics);
  if (!full) {
    // Metrics 0, 4, ..., 44; the first four read 4 groups, the rest 3.
    const auto& groups = features::feature_groups();
    std::vector<std::size_t> selected;
    std::size_t pair = 0;
    for (std::size_t i = 0; i < 12; ++i) {
      for (std::size_t g = 0; g < (i < 4 ? 4u : 3u); ++g, ++pair) {
        selected.push_back(4 * i * features::features_per_metric() +
                           groups[pair % groups.size()].first);
      }
    }
    plan = std::make_shared<const features::ScoringPlan>(
        metrics, selected, std::vector<double>(selected.size(), 0.0),
        std::vector<double>(selected.size(), 1.0));
  }
  features::IncrementalConfig config;
  config.window = window;
  config.hop = hop;
  features::IncrementalNodeExtractor extractor({}, config, plan);
  std::vector<double> out(plan->output_size());
  const tensor::Matrix ribbon = make_window(window * 8, metrics, 17);
  extractor.absorb_and_extract(ribbon.slice_rows(0, window), out);
  std::size_t at = window;
  auto& pool = util::ThreadPool::global();
  for (auto _ : state) {
    if (at + hop > ribbon.rows()) at = 0;
    const tensor::Matrix delta = ribbon.slice_rows(at, hop);
    double seconds = 0.0;
    pool.submit([&] {
          util::Timer timer;
          extractor.absorb_and_extract(delta, out);
          seconds = timer.elapsed_seconds();
        })
        .get();
    state.SetIterationTime(seconds);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    at += hop;
  }
  state.counters["metrics"] = static_cast<double>(plan->metrics().size());
  state.counters["outputs"] = static_cast<double>(plan->output_size());
}
BENCHMARK(BM_PlannedHop)
    ->Args({1024, 16, 0})
    ->Args({1024, 16, 1})
    ->ArgNames({"W", "H", "full"})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

/// The same per-hop workload through the batch path: rebuild the window
/// and run the full single-pass engine (what the streaming scorer's
/// kFullRecompute mode pays per hop).
void BM_FullRecomputeHop(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  const auto xs = make_series(window, 17);
  std::vector<double> out(features::features_per_metric());
  features::FeatureScratch scratch;
  for (auto _ : state) {
    features::compute_all_features(xs, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["hops_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullRecomputeHop)
    ->Args({256, 16})
    ->Args({1024, 16})
    ->Args({1024, 64})
    ->Args({4096, 16})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Per-kernel before/after gauges: each benchmark registers a `/scalar` and a
// `/simd` shape via kernels::force_scalar, so the vectorization win of every
// kernel is measurable in one run (the /scalar leg IS the pre-kernel code:
// the scalar oracles are the verbatim historical loops or the identical
// lane DAG without vector hints).

/// ApEn pair sweep (the entropy group's dominant cost): subsampled series,
/// m = 2, r = 0.2 sigma — the registry's exact call shape.
void BM_ApEnSweep(benchmark::State& state) {
  kernels::force_scalar(state.range(1) != 0);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto xs = make_series(n, 29);
  // r at the pipeline's 0.2 * stddev (make_series draws from sd = 2.0).
  const double r = 0.4;
  constexpr std::size_t kDim = 2;
  std::vector<std::uint32_t> lo(n - kDim + 1);
  std::vector<std::uint32_t> hi(n - kDim);
  kernels::ApEnScratch scratch;
  for (auto _ : state) {
    std::fill(lo.begin(), lo.end(), 1u);
    std::fill(hi.begin(), hi.end(), 1u);
    kernels::apen_match_counts(xs, kDim, r, lo, hi, scratch);
    benchmark::DoNotOptimize(lo.data());
    benchmark::DoNotOptimize(hi.data());
  }
  kernels::force_scalar(false);
}
BENCHMARK(BM_ApEnSweep)
    ->Args({256, 0})   // the extractor's subsampled size
    ->Args({256, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->ArgNames({"n", "scalar"})
    ->Unit(benchmark::kMicrosecond);

/// Sliding-DFT apply: H deltas into W/2 + 1 bins, the per-emission spectral
/// cost on the SDFT path.  Grounds the spectral_cost_model constants.
void BM_SdftApply(benchmark::State& state) {
  const auto W = static_cast<std::size_t>(state.range(0));
  const auto hop = static_cast<std::size_t>(state.range(1));
  kernels::force_scalar(state.range(2) != 0);
  const std::size_t bins = W / 2 + 1;
  util::AlignedVec<double> tw_re(W), tw_im(W);
  for (std::size_t j = 0; j < W; ++j) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                         static_cast<double>(W);
    tw_re[j] = std::cos(angle);
    tw_im[j] = std::sin(angle);
  }
  util::AlignedVec<double> bin_re(bins, 0.0), bin_im(bins, 0.0);
  const auto deltas = make_series(hop, 31);
  std::size_t u0 = 0;
  for (auto _ : state) {
    features::kernels::sdft_apply(bin_re.data(), bin_im.data(), bins,
                                  tw_re.data(), tw_im.data(),
                                  static_cast<std::uint32_t>(W), u0, deltas);
    benchmark::DoNotOptimize(bin_re.data());
    benchmark::DoNotOptimize(bin_im.data());
    u0 = (u0 + hop) % W;
  }
  kernels::force_scalar(false);
}
BENCHMARK(BM_SdftApply)
    ->Args({1024, 16, 0})
    ->Args({1024, 16, 1})
    ->Args({64, 16, 0})
    ->Args({64, 16, 1})
    ->ArgNames({"W", "H", "scalar"})
    ->Unit(benchmark::kMicrosecond);

/// The per-emission linear-aggregate family on one window: sum/energy,
/// variance, |dx|, runs — the profile passes the kernels replaced.
void BM_AggregateKernels(benchmark::State& state) {
  kernels::force_scalar(state.range(1) != 0);
  const auto xs = make_series(static_cast<std::size_t>(state.range(0)), 37);
  for (auto _ : state) {
    const auto se = kernels::sum_energy(xs);
    const double mean = se.sum / static_cast<double>(xs.size());
    benchmark::DoNotOptimize(kernels::centered_sq_sum(xs, mean));
    benchmark::DoNotOptimize(kernels::abs_change_sum(xs));
    auto rs = kernels::run_stats(xs, mean);
    benchmark::DoNotOptimize(&rs);
  }
  kernels::force_scalar(false);
}
BENCHMARK(BM_AggregateKernels)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->ArgNames({"n", "scalar"})
    ->Unit(benchmark::kMicrosecond);

/// Trend + autocorrelation + nonlinearity reductions (the remaining lane
/// kernels the registry groups route through).
void BM_ReductionKernels(benchmark::State& state) {
  kernels::force_scalar(state.range(1) != 0);
  const auto xs = make_series(static_cast<std::size_t>(state.range(0)), 41);
  const auto se = kernels::sum_energy(xs);
  const double mean = se.sum / static_cast<double>(xs.size());
  const double var =
      kernels::centered_sq_sum(xs, mean) / static_cast<double>(xs.size());
  const double stddev = std::sqrt(var);
  for (auto _ : state) {
    auto t = kernels::trend_sums(
        xs, (static_cast<double>(xs.size()) - 1.0) / 2.0, mean);
    benchmark::DoNotOptimize(&t);
    for (const std::size_t lag : {1, 2, 5, 10, 20}) {
      benchmark::DoNotOptimize(kernels::centered_lag_mac(xs, mean, lag));
    }
    for (const std::size_t lag : {1, 2, 3}) {
      auto c = kernels::c3_tr_sums(xs, lag);
      benchmark::DoNotOptimize(&c);
    }
    auto zm = kernels::zmoment_sums(xs, mean, stddev);
    benchmark::DoNotOptimize(&zm);
  }
  kernels::force_scalar(false);
}
BENCHMARK(BM_ReductionKernels)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->ArgNames({"n", "scalar"})
    ->Unit(benchmark::kMicrosecond);

/// Sanity gauge for the SDFT-vs-FFT cost model: the modelled ratio must
/// agree in *direction* with the measured per-emission costs, else the
/// model silently picks the slower spectral path (checked in
/// incremental_profile_test's golden-model suite; this reports the
/// measured inputs for re-tuning).
void BM_SpectralCostModel(benchmark::State& state) {
  const auto W = static_cast<std::size_t>(state.range(0));
  const auto hop = static_cast<std::size_t>(state.range(1));
  const auto model = features::spectral_cost_model(W, hop);
  for (auto _ : state) {
    auto m = features::spectral_cost_model(W, hop);
    benchmark::DoNotOptimize(&m);
  }
  state.counters["model_sdft"] = model.sdft_cost;
  state.counters["model_fft"] = model.fft_cost;
  state.counters["picks_sdft"] = model.use_sdft ? 1.0 : 0.0;
}
BENCHMARK(BM_SpectralCostModel)
    ->Args({1024, 16})
    ->Args({64, 16})
    ->Args({64, 48})
    ->ArgNames({"W", "H"});

/// Per-group cost over an already-built profile: how the registry's time
/// splits across extractor families.
void BM_Group(benchmark::State& state, const features::FeatureGroup* group) {
  static const std::vector<double> xs = make_series(1024, 13);
  features::FeatureScratch scratch;
  const features::SeriesProfile profile =
      features::compute_series_profile(xs, scratch);
  std::vector<double> out(group->count, 0.0);
  for (auto _ : state) {
    group->fn(profile, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["features"] = static_cast<double>(group->count);
}

void register_group_benchmarks() {
  for (const auto& group : features::feature_groups()) {
    benchmark::RegisterBenchmark(("BM_Group/" + group.name).c_str(), BM_Group,
                                 &group)
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_group_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("PRODIGY_METRICS_OUT")) {
    prodigy::util::MetricsRegistry::global().write_file(path);
    std::fprintf(stderr, "metrics -> %s\n", path);
  }
  return 0;
}
